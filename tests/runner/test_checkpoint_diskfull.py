"""Checkpoint write hardening: a full disk must not kill the audit.

The checkpoint write path fsyncs its temp file before the atomic
rename (so a *named* checkpoint never has torn contents) and wraps every
``OSError`` in a structured :class:`CheckpointWriteError`; the detector
and scheduler catch it, drop checkpointing, warn, and keep producing
verdicts.
"""

import errno
import os

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.errors import CheckpointError, CheckpointWriteError
from repro.properties import DesignSpec
from repro.runner import AuditCheckpoint
from repro.runner import checkpoint as checkpoint_mod

from tests.conftest import (
    build_dual_register_design,
    register_spec_for,
)


def enospc(*_args, **_kw):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def dual():
    nl = build_dual_register_design()
    spec = DesignSpec(name=nl.name, critical={
        "rega": register_spec_for("rega"),
        "regb": register_spec_for("regb"),
    })
    return nl, spec


class TestWritePath:
    def test_fsync_runs_before_the_rename(self, tmp_path, monkeypatch):
        order = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            checkpoint_mod.os, "fsync",
            lambda fd: (order.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            checkpoint_mod.os, "replace",
            lambda a, b: (order.append("replace"), real_replace(a, b))[1],
        )
        store = AuditCheckpoint(tmp_path / "ckpt.json")
        store.begin("dual", "bmc", 6)
        store._write()
        assert order == ["fsync", "replace"]

    def test_enospc_becomes_structured_error(self, tmp_path, monkeypatch):
        store = AuditCheckpoint(tmp_path / "ckpt.json")
        store.begin("dual", "bmc", 6)
        monkeypatch.setattr(checkpoint_mod.os, "fsync", enospc)
        with pytest.raises(CheckpointWriteError) as info:
            store._write()
        assert info.value.path.endswith("ckpt.json")
        assert info.value.cause.errno == errno.ENOSPC
        # still a CheckpointError: existing broad handlers keep working
        assert isinstance(info.value, CheckpointError)

    def test_failed_write_leaves_no_temp_debris(self, tmp_path,
                                                monkeypatch):
        store = AuditCheckpoint(tmp_path / "ckpt.json")
        store.begin("dual", "bmc", 6)
        monkeypatch.setattr(checkpoint_mod.os, "fsync", enospc)
        with pytest.raises(CheckpointWriteError):
            store._write()
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_directory_is_structured_too(self, tmp_path):
        target = tmp_path / "ro"
        target.mkdir()
        target.chmod(0o500)
        if os.access(str(target), os.W_OK):
            pytest.skip("running as root: directory modes not enforced")
        store = AuditCheckpoint(target / "ckpt.json")
        store.begin("dual", "bmc", 6)
        try:
            with pytest.raises(CheckpointWriteError):
                store._write()
        finally:
            target.chmod(0o700)


class TestAuditContinues:
    def test_detector_finishes_without_checkpointing(
        self, tmp_path, monkeypatch, dual
    ):
        nl, spec = dual
        monkeypatch.setattr(checkpoint_mod.os, "fsync", enospc)
        path = tmp_path / "ckpt.json"
        with pytest.warns(RuntimeWarning, match="WITHOUT checkpointing"):
            report = TrojanDetector(nl, spec, config=AuditConfig(max_cycles=6)).run(
                checkpoint=str(path)
            )
        # every register still got its verdict
        assert set(report.findings) == {"rega", "regb"}
        assert not report.trojan_found
        # and nothing claims to be a checkpoint on disk
        assert not path.exists()

    def test_warning_fires_once_not_per_register(
        self, tmp_path, monkeypatch, dual
    ):
        nl, spec = dual
        monkeypatch.setattr(checkpoint_mod.os, "fsync", enospc)
        with pytest.warns(RuntimeWarning) as caught:
            TrojanDetector(nl, spec, config=AuditConfig(max_cycles=6)).run(
                checkpoint=str(tmp_path / "ckpt.json")
            )
        lost = [
            w for w in caught
            if "WITHOUT checkpointing" in str(w.message)
        ]
        assert len(lost) == 1  # store dropped after the first failure
