"""Runtime build, cache and load of the package's C kernels.

Two kernels ship as C source next to their Python wrappers: the CDCL
solver (``repro/sat/_native.c``) and the bit-parallel simulator
(``repro/sim/_native.c``). Each is compiled *at runtime*, once per
source revision, into a shared object cached under a name keyed by the
source's hash, so the repository needs no build step, no setuptools
extension and no wheel story. On any failure (no compiler, compile
error, load error) :func:`load_library` returns ``None`` and the caller
falls back to its pure-Python reference; nothing requires a kernel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path


def _cache_dir():
    """Where built kernels are cached: ``$XDG_CACHE_HOME/repro-native``,
    else ``~/.cache/repro-native``, else the temp directory."""
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro-native"
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-native"
    return Path(tempfile.gettempdir()) / "repro-native"


def compile_kernel(source, out, flags=()):
    """Compile the C file ``source`` to the shared object ``out``; True
    on success.

    The compiler is ``$CC``, else ``cc`` or ``gcc`` on the path; ``flags``
    go before the source (a test build passes ``-DCHRONO_T=0``).
    """
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None or not Path(source).exists():
        return False
    proc = subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", *flags, "-o", str(out), str(source)],
        capture_output=True,
        timeout=120,
    )
    return proc.returncode == 0


def _compile_library(source, name):
    """Compile ``source`` to a cached ``<name>-<hash>.so``; return its
    path or None."""
    source = Path(source)
    if not source.exists():
        return None
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / "{}-{}.so".format(name, digest)
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        # Compile to a temp name and rename: concurrent processes racing
        # to build the same revision each land a complete .so.
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        if not compile_kernel(source, tmp):
            os.unlink(tmp)
            return None
        os.replace(tmp, target)
        return target
    except (OSError, subprocess.SubprocessError):
        return None


def load_library(source, name, bind):
    """``bind(CDLL)`` of the cached build of ``source``, building it
    first if needed; None when no compiler, build or load succeeds."""
    path = _compile_library(source, name)
    if path is None:
        return None
    try:
        return bind(ctypes.CDLL(str(path)))
    except OSError:
        return None
