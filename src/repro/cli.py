"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``audit``
    Run Algorithm 1 on a bundled benchmark design::

        python -m repro audit --design mc8051-t800 --engine bmc
        python -m repro audit --design risc-t100 --engine atpg \\
            --max-cycles 24 --budget 120 --check-bypass

    ``--jobs N`` runs the audit's property checks on a persistent pool
    of N worker processes (see README "Parallel audits"); the printed
    report is byte-identical to the inline one::

        python -m repro audit --design mc8051-t800 --jobs 4

    Resource supervision (see README "Resource limits & graceful
    degradation"): a pool worker is the only place a check can be
    killed, so ``--check-timeout`` (hard-kill a hung check attempt)
    needs ``--jobs``; ``--jobs 1`` runs one check at a time, in one
    worker. ``--retries`` re-runs crashed/exhausted checks, and
    ``--resume ckpt.json`` checkpoints completed registers so an
    interrupted audit picks up where it left off::

        python -m repro audit --design aes-t1200 --jobs 1 \\
            --check-timeout 30 --retries 2 --resume aes_audit.json

``bench``
    Audit many designs on **one** scheduler pool and score every
    verdict against the bundled ground truth (exit 1 on any
    mismatch)::

        python -m repro bench --jobs 4
        python -m repro bench --design risc-t100 --design mc8051-t800 \\
            --jobs 4 --max-cycles 12

    ``--jobs``, ``--cache-dir`` and ``--trace`` are spelled the same
    on ``audit``, ``bench`` and ``screen`` (one shared parent parser);
    ``--check-timeout`` and ``--retries`` on ``audit`` and ``bench``.

``screen``
    Run the solver-free screens of the screen registry (see README
    "Screens") over one or more designs::

        python -m repro screen --design mc8051-t800
        python -m repro screen --screens lint --design aes \
            --json report.json --sarif report.sarif --disable unread-net
        python -m repro screen --sarif all.sarif --jobs 4

    ``--screens`` picks any of them (default: all, always reported in
    registry order) and ``--design`` is repeatable (default: every
    bundled design). ``--json`` writes ``{design: {screen: report}}``;
    ``--sarif`` writes one log with a run per (screen, design), grouped
    by screen. Exits 1 when any finding of any selected screen reaches
    ``--fail-on`` (default ``suspicious``) — same convention as
    ``audit``, so Trojan-shaped evidence is a nonzero exit.
    ``--disable``/``--suppress`` tune the lint rules.

    ``--screens`` on ``audit`` runs the chosen screens first and fuses
    them into Algorithm 1: flagged registers are audited first, each
    register's findings attach to its report entry as evidence, and a
    screen hit the dynamic checks cannot reproduce becomes a suspect
    status (``leakage_suspect``, ``differential_suspect``).
    ``--screens`` on ``bench`` and ``corpus run`` picks the screens
    those commands run.

``cache``
    Inspect or maintain a check-outcome cache directory (see README
    "Outcome cache")::

        python -m repro audit --design aes-t1200 --cache-dir .repro-cache
        python -m repro cache stats --cache-dir .repro-cache
        python -m repro cache gc --cache-dir .repro-cache

``trace``
    Summarize a structured-telemetry trace written by
    ``audit --trace`` (see README "Telemetry & tracing")::

        python -m repro audit --design mc8051-t800 --trace audit.jsonl
        python -m repro trace summarize audit.jsonl

    ``summarize`` prints the per-phase wall-clock tree, the slowest
    checks, and the cache/retry/kill tallies. ``audit --profile``
    additionally wraps every check attempt in ``cProfile`` and drops
    pstats files next to the trace.

``serve`` / ``submit`` / ``jobs``
    Run audits as a crash-tolerant service (see README "Audit
    service"): ``serve`` starts an HTTP front end over a durable job
    queue with a pool of lease-holding worker threads; ``submit``
    enqueues an audit and optionally waits for the verdict; ``jobs``
    lists jobs or streams one job's progress events::

        python -m repro serve --queue-dir ./queue --port 8630
        python -m repro submit --design mc8051-t800 --wait
        python -m repro jobs --job job-0001 --events

    Jobs survive worker crashes and service restarts: the queue
    journals every transition, leases expire by TTL, and a job that
    keeps killing its workers is dead-lettered with its partial
    findings attached.

``list`` / ``list-designs``
    Show every resolvable design with its provenance. Every
    ``--design`` flag in this CLI goes through
    :func:`repro.frontend.load_design`, so any command also accepts a
    ``*.design.json`` bundle or a ``*.v`` Verilog file (with its
    ``<stem>.spec.json`` sidecar) in place of a built-in name::

        python -m repro list-designs
        python -m repro audit --design out/risc.v
        python -m repro screen --design corpus/risc-comb-trigger-00000.design.json

``corpus``
    Generate and screen seeded Trojan-mutant corpora (see README
    "Design ingestion & corpus fuzzing"). ``generate`` derives mutants
    from the base designs — Trojan injections with in-band ground
    truth, DeTrust-style restructurings, and clean structural growth —
    as ``*.design.json`` bundles; ``run`` fans them through the
    screens and scores per-mutator recall against the carried ground
    truth (exit 1 on any trojaned miss or clean false
    positive)::

        python -m repro corpus generate --seed 7 -n 40 --out corpus/
        python -m repro corpus run corpus/ --jobs 4 --json report.json
        python -m repro corpus stats corpus/

``export``
    Write a design's structural Verilog (with ``// repro:`` structural
    pragmas), its ValidWays spec sidecar and its assertion file —
    ``--bundle`` adds the ``*.design.json`` form. The ``.v`` +
    ``.spec.json`` pair re-imports fingerprint-identically::

        python -m repro export --design risc --out out_dir/ --bundle

``stats``
    Print netlist statistics for a design.
"""

from __future__ import annotations

import argparse
import sys

from repro.core import AuditConfig, TrojanDetector
from repro.frontend import design_names, load_design


def _load(source):
    """Resolve any design source through the frontend, or exit.

    Accepts everything :func:`repro.frontend.load_design` does — a
    built-in name, a ``*.design.json`` bundle, or a ``*.v`` file — and
    converts the structured :class:`~repro.errors.FrontendError` (with
    its candidate list) into the CLI's exit-with-message convention.
    """
    from repro.errors import FrontendError

    try:
        return load_design(source)
    except FrontendError as exc:
        raise SystemExit(str(exc))


def cmd_list(args, out=sys.stdout):
    from repro.frontend import list_designs

    for name, origin, info in list_designs():
        print("{:18s} {:8s} {}".format(name, origin, info), file=out)
    for source in getattr(args, "design", None) or ():
        loaded = _load(source)
        spec = loaded.spec
        if spec.trojan is None:
            info = "clean ({} critical registers)".format(
                len(spec.critical)
            )
        else:
            info = "{} — {}".format(spec.trojan.name, spec.trojan.payload)
        print("{:18s} {:8s} {}".format(source, loaded.origin, info),
              file=out)
    return 0


def cmd_stats(args, out=sys.stdout):
    from repro.netlist import stats

    netlist, _spec = _load(args.design)
    print(stats(netlist), file=out)
    return 0


def _screen_list(text):
    """``--screens`` value: comma-separated registry names, returned in
    registry order."""
    from repro.report.screen import select_screens

    try:
        return select_screens([name for name in text.split(",") if name])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _lint_config_from_args(args):
    from repro.lint import LintConfig

    suppressions = []
    for entry in args.suppress or []:
        rule_glob, sep, subject_glob = entry.partition(":")
        if not sep:
            raise SystemExit(
                "--suppress takes RULE_GLOB:SUBJECT_GLOB, got {!r}".format(
                    entry
                )
            )
        suppressions.append((rule_glob, subject_glob))
    return LintConfig(
        disabled=args.disable or [],
        suppressions=suppressions,
    )


def _screen_one(design, screens, lint_config):
    """Run the selected screens on one design; returns their reports in
    registry order (fork-Pool friendly). Each run is one ``screen``
    span when a tracer is installed."""
    from repro.obs.tracer import get_tracer
    from repro.report.screen import SCREENS

    netlist, spec = _load(design)
    options = {"lint": {"config": lint_config}}
    tracer = get_tracer()
    reports = []
    for name in screens:
        with tracer.span("screen", screen=name, design=design) as span:
            report = SCREENS[name].run(
                netlist, spec, design, **options.get(name, {})
            )
            span["findings"] = len(report.findings)
        reports.append(report)
    return reports


def cmd_screen(args, out=sys.stdout):
    import contextlib
    import json

    from repro.lint import LintConfigError
    from repro.obs.tracer import Tracer, tracing
    from repro.report.sarif import write_sarif
    from repro.report.screen import severity_rank

    designs = args.design or design_names()
    if not args.screens:
        raise SystemExit("--screens selects no screen")
    if args.cache_dir:
        raise SystemExit(
            "screen runs no property checks, so it has no outcome cache; "
            "--cache-dir applies to audit/bench"
        )
    try:
        lint_config = _lint_config_from_args(args)
    except LintConfigError as exc:
        raise SystemExit(str(exc))
    work = [(design, args.screens, lint_config) for design in designs]
    jobs = args.jobs or 1
    if jobs > 1 and len(designs) > 1:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(jobs, len(designs))) as pool:
            results = pool.starmap(_screen_one, work)
        if args.trace:
            # the workers ran untraced: record each run after the fact
            tracer = Tracer(args.trace)
            try:
                for design, reports in zip(designs, results):
                    for report in reports:
                        tracer.end(tracer.begin(
                            "screen", screen=report.screen, design=design,
                            findings=len(report.findings),
                            elapsed=report.elapsed,
                        ))
            finally:
                tracer.close()
    else:
        with contextlib.ExitStack() as stack:
            if args.trace:
                tracer = Tracer(args.trace)
                stack.callback(tracer.close)
                stack.enter_context(tracing(tracer))
            results = [_screen_one(*item) for item in work]
    reports = [report for design_reports in results
               for report in design_reports]
    if args.json:
        payload = json.dumps(
            {
                design: {r.screen: r.to_dict() for r in design_reports}
                for design, design_reports in zip(designs, results)
            },
            indent=1,
            sort_keys=True,
        )
        if args.json == "-":
            print(payload, file=out)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload)
                handle.write("\n")
            print("wrote", args.json, file=out)
    if args.sarif:
        write_sarif(args.sarif, reports)
        print("wrote", args.sarif, file=out)
    if args.json != "-":
        for report in reports:
            print(report.summary(), file=out)
    floor = severity_rank(args.fail_on)
    failing = any(
        severity_rank(finding.severity) >= floor
        for report in reports
        for finding in report.findings
    )
    return 1 if failing else 0


def _supervised_runner(args, profile_dir=None):
    """Check the supervision flags ``audit`` and ``bench`` share and
    build their :class:`~repro.runner.CheckRunner`."""
    from repro.runner import CheckRunner

    if args.jobs is not None and args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.retries < 0:
        raise SystemExit("--retries must be >= 0")
    if args.check_timeout is not None and args.check_timeout <= 0:
        raise SystemExit("--check-timeout must be positive")
    if args.check_timeout is not None and args.jobs is None:
        raise SystemExit(
            "--check-timeout needs --jobs (an inline check cannot be killed)"
        )
    return CheckRunner.configure(
        check_timeout=args.check_timeout,
        retries=args.retries,
        profile_dir=profile_dir,
    )


def cmd_audit(args, out=sys.stdout):
    from repro.errors import CheckpointError
    from repro.report.screen import SCREENS

    netlist, spec = _load(args.design)
    registers = args.register or None
    if args.profile and not args.trace:
        raise SystemExit("--profile needs --trace (dumps live next to it)")
    profile_dir = "{}.profiles".format(args.trace) if args.profile else None
    runner = _supervised_runner(args, profile_dir)
    screens = []
    for name in args.screens:
        screen_report = SCREENS[name].run(netlist, spec, args.design)
        found = len(screen_report.findings)
        flagged = screen_report.flagged_registers
        print(
            "{} pre-pass: {} {} finding{} in {:.2f}s{}".format(
                name,
                found,
                SCREENS[name].noun,
                "" if found == 1 else "s",
                screen_report.elapsed,
                "; flagged: {}".format(", ".join(flagged))
                if flagged
                else "",
            ),
            file=out,
        )
        screens.append(screen_report)
    config = AuditConfig(
        max_cycles=args.max_cycles,
        engine=args.engine,
        functional=not args.no_functional,
        check_pseudo_critical=args.check_pseudo_critical,
        check_bypass=args.check_bypass,
        time_budget=args.budget,
        screens=tuple(screens),
        cache_dir=args.cache_dir,
        trace=args.trace,
        jobs=args.jobs,
    )
    detector = TrojanDetector(netlist, spec, config=config, runner=runner)
    try:
        report = detector.run(registers=registers, checkpoint=args.resume)
    except CheckpointError as exc:
        raise SystemExit("cannot resume: {}".format(exc))
    print(report.summary(), file=out)
    if args.trace:
        print("trace written to {}".format(args.trace), file=out)
        if profile_dir:
            print("profiles written to {}/".format(profile_dir), file=out)
    if args.cache_dir is not None:
        counters = runner.cache_counters
        print(
            "cache: {hits} hit(s), {partial_hits} partial, "
            "{misses} miss(es)".format(**counters),
            file=out,
        )
    if args.witness:
        for finding in report.findings.values():
            if finding.corrupted:
                print(finding.corruption.witness.format(netlist), file=out)
    return 1 if report.trojan_found else 0


def cmd_bench(args, out=sys.stdout):
    import time as time_mod

    from repro.bench.harness import audit_sweep

    runner = _supervised_runner(args)
    names = args.design or design_names()
    designs = []
    for name in names:
        netlist, spec = _load(name)
        designs.append((name, netlist, spec))
    import contextlib

    start = time_mod.perf_counter()
    with contextlib.ExitStack() as stack:
        if args.trace:
            from repro.obs.tracer import Tracer, tracing

            tracer = Tracer(args.trace)
            stack.callback(tracer.close)
            stack.enter_context(tracing(tracer))
        rows = audit_sweep(
            designs,
            jobs=args.jobs,
            max_cycles=args.max_cycles,
            engine=args.engine,
            time_budget=args.budget,
            check_pseudo_critical=args.check_pseudo_critical,
            check_bypass=args.check_bypass,
            cache_dir=args.cache_dir,
            runner=runner,
            screens=args.screens,
        )
    wall = time_mod.perf_counter() - start
    if args.json:
        import json as json_mod

        print(json_mod.dumps({
            "jobs": args.jobs,
            "wall_seconds": wall,
            "rows": [
                {
                    "design": row.label,
                    "trojan_found": row.trojan_found,
                    "expected": row.expected,
                    "match": row.match,
                    "status": row.status,
                    "elapsed": row.elapsed,
                    "registers": row.registers,
                    "screens": {
                        name: {
                            "elapsed": screen.elapsed,
                            "findings": screen.findings,
                            "suspicious": screen.suspicious,
                            "flagged_registers": sorted(screen.scores),
                            "solver_calls": screen.solver_calls,
                        }
                        for name, screen in row.screens.items()
                    },
                }
                for row in rows
            ],
        }, indent=2), file=out)
    else:
        for row in rows:
            verdict = "TROJAN" if row.trojan_found else "clean"
            expected = "TROJAN" if row.expected else "clean"
            marker = "ok" if row.match else "MISMATCH"
            screen_extra = "".join(
                " {}[{} finding(s), {:.3f}s, {} flagged register(s)]".format(
                    name, screen.findings, screen.elapsed,
                    len(screen.scores),
                )
                for name, screen in row.screens.items()
            )
            print(
                "{:18s} {:7s} (expected {:7s}) {:9s} {:8.2f}s "
                "{:2d} register(s) [{}]{}".format(
                    row.label, verdict, expected, marker, row.elapsed,
                    row.registers, row.status, screen_extra,
                ),
                file=out,
            )
        print(
            "{} design(s) in {:.2f}s wall ({} mismatch(es), jobs={})".format(
                len(rows), wall, sum(1 for r in rows if not r.match),
                args.jobs or "inline",
            ),
            file=out,
        )
    if args.trace:
        print("trace written to {}".format(args.trace), file=out)
    return 1 if any(not row.match for row in rows) else 0


def cmd_trace(args, out=sys.stdout):
    from repro.obs.summary import render, summarize

    if args.trace_command == "summarize":
        try:
            summary = summarize(args.trace_file, top=args.top)
        except OSError as exc:
            raise SystemExit("cannot read trace: {}".format(exc))
        if args.json:
            import json

            print(
                json.dumps(summary, indent=2, sort_keys=True, default=str),
                file=out,
            )
        else:
            render(summary, out)
        return 0
    raise SystemExit("unknown trace command {!r}".format(args.trace_command))


def cmd_cache(args, out=sys.stdout):
    from repro.cache import OutcomeCache

    cache = OutcomeCache(args.cache_dir)
    if args.cache_command == "stats":
        stats = cache.stats()
        if args.json:
            import json

            print(json.dumps(stats, indent=2, sort_keys=True), file=out)
        else:
            print(
                "{} entr{} ({} violated), deepest proved bound {}, "
                "{:.2f}s of solve time banked, {} bytes".format(
                    stats["entries"],
                    "y" if stats["entries"] == 1 else "ies",
                    stats["violation_entries"],
                    stats["deepest_proved"],
                    stats["solve_seconds_recorded"],
                    stats["file_bytes"],
                ),
                file=out,
            )
        return 0
    if args.cache_command == "gc":
        before, after, skipped = cache.gc()
        print(
            "compacted {} record(s) to {} entr{} ({} unreadable "
            "line(s) dropped)".format(
                before, after, "y" if after == 1 else "ies", skipped
            ),
            file=out,
        )
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print("removed {} entr{}".format(
            removed, "y" if removed == 1 else "ies"), file=out)
        return 0
    raise SystemExit("unknown cache command {!r}".format(args.cache_command))


def cmd_serve(args, out=sys.stdout):
    from repro.runner.faultinject import ServiceFaultPlan
    from repro.serve import AuditService, run_server

    plan = None
    if args.inject:
        try:
            plan = ServiceFaultPlan.parse(args.inject)
        except ValueError as exc:
            raise SystemExit(str(exc))

    def ready(address):
        print("serving on http://{}:{} (queue: {})".format(
            address[0], address[1], args.queue_dir), file=out)
        out.flush()

    service = AuditService(
        args.queue_dir,
        workers=args.workers or 2,
        lease_ttl=args.lease_ttl,
        max_leases=args.max_leases,
        fault_plan=plan,
    )
    return run_server(service, host=args.host, port=args.port, ready=ready)


def cmd_submit(args, out=sys.stdout):
    from repro.errors import ServiceError
    from repro.serve import ServiceClient

    options = {}
    if args.engine:
        options["engine"] = args.engine
    if args.max_cycles is not None:
        options["max_cycles"] = args.max_cycles
    if args.budget is not None:
        options["time_budget"] = args.budget
    if args.check_bypass:
        options["check_bypass"] = True
    if args.check_pseudo_critical:
        options["check_pseudo_critical"] = True
    client = ServiceClient(args.url)
    try:
        job_id = client.submit(args.design, options)
        print(job_id, file=out)
        if args.wait:
            job = client.wait(job_id, timeout=args.timeout)
            result = job.get("result") or {}
            print("{}: {} ({})".format(
                job_id,
                "TROJAN" if result.get("trojan_found") else "clean",
                job["state"]), file=out)
            return 0 if job["state"] == "done" else 1
    except ServiceError as exc:
        raise SystemExit(str(exc))
    return 0


def cmd_jobs(args, out=sys.stdout):
    import json as json_mod

    from repro.errors import ServiceError
    from repro.serve import ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.job and args.events:
            events, _cursor = client.events(args.job, after=args.after)
            for event in events:
                print(json_mod.dumps(event, default=str), file=out)
        elif args.job:
            print(json_mod.dumps(client.job(args.job), indent=2,
                                 default=str), file=out)
        else:
            for row in client.jobs():
                print("{:10s} {:8s} {} attempt(s)".format(
                    row["id"], row["state"], row["attempts"]), file=out)
    except ServiceError as exc:
        raise SystemExit(str(exc))
    return 0


def _export_stem(source):
    """A filesystem-friendly stem for an export: built-in names pass
    through; path sources drop directories and known suffixes."""
    import os

    stem = os.path.basename(str(source))
    for suffix in (".design.json", ".spec.json", ".v", ".sv"):
        if stem.endswith(suffix):
            return stem[: -len(suffix)]
    return stem


def cmd_export(args, out=sys.stdout):
    from pathlib import Path

    from repro.frontend import save_spec_sidecar, spec_sidecar_path
    from repro.hdl import write_verilog
    from repro.properties import render_spec

    loaded = _load(args.design)
    netlist, spec = loaded
    target = Path(args.out)
    target.mkdir(parents=True, exist_ok=True)
    stem = _export_stem(args.design)
    verilog_path = target / "{}.v".format(stem)
    verilog_path.write_text(write_verilog(netlist))
    print("wrote", verilog_path, file=out)
    # the sidecar makes the .v re-loadable with its ValidWays spec:
    # `repro audit --design out/<stem>.v` resolves both files
    sidecar = spec_sidecar_path(str(verilog_path))
    save_spec_sidecar(sidecar, spec)
    print("wrote", sidecar, file=out)
    blocks = [render_spec(s) for s in spec.critical.values()]
    props_path = target / "{}_props.sv".format(stem)
    props_path.write_text("\n".join(blocks))
    print("wrote", props_path, file=out)
    if args.bundle:
        from repro.corpus import save_bundle

        bundle_path = target / "{}.design.json".format(stem)
        save_bundle(
            str(bundle_path), netlist, spec,
            provenance={"origin": loaded.origin, "source": str(args.design)},
        )
        print("wrote", bundle_path, file=out)
    return 0


def cmd_corpus(args, out=sys.stdout):
    from repro.errors import CorpusError

    try:
        if args.corpus_command == "generate":
            return _corpus_generate(args, out)
        if args.corpus_command == "run":
            return _corpus_run(args, out)
        if args.corpus_command == "stats":
            return _corpus_stats(args, out)
    except CorpusError as exc:
        raise SystemExit(str(exc))
    raise SystemExit(
        "unknown corpus command {!r}".format(args.corpus_command)
    )


def _corpus_generate(args, out):
    from repro.corpus import CorpusConfig, generate_corpus

    defaults = CorpusConfig()
    config = CorpusConfig(
        seed=args.seed,
        count=args.count,
        bases=tuple(args.base) if args.base else defaults.bases,
        mutators=tuple(args.mutator) if args.mutator else defaults.mutators,
    )
    manifest = generate_corpus(config, args.out)
    trojaned = sum(1 for e in manifest["mutants"] if e["trojaned"])
    print(
        "wrote {} bundle(s) to {} (seed {}, {} trojaned / {} clean)".format(
            len(manifest["mutants"]), args.out, config.seed,
            trojaned, len(manifest["mutants"]) - trojaned,
        ),
        file=out,
    )
    return 0


def _corpus_run(args, out):
    from repro.corpus import (
        RunConfig,
        detection_gate,
        dumps_report,
        run_corpus,
        score_results,
    )

    if not args.screens and not args.audit:
        raise SystemExit("every screening modality is disabled")
    config = RunConfig(
        jobs=args.jobs or 1,
        fail_on=args.fail_on,
        modalities=args.screens,
        audit=args.audit,
        audit_max_cycles=args.audit_max_cycles,
    )
    rows = run_corpus(args.corpus_dir, config)
    report = score_results(rows, config)
    payload = dumps_report(report)
    summary = out
    if args.json:
        if args.json == "-":
            out.write(payload)
            # keep stdout machine-parsable; summary moves to stderr
            summary = sys.stderr
        else:
            with open(args.json, "w", encoding="ascii") as handle:
                handle.write(payload)
            print("wrote", args.json, file=out)
    totals = report["totals"]
    print(
        "{} mutant(s): {}/{} trojaned detected (recall {}), "
        "{} false positive(s) over {} clean (fp rate {})".format(
            totals["mutants"], totals["detected"], totals["trojaned"],
            totals["recall"], totals["false_positives"], totals["clean"],
            totals["fp_rate"],
        ),
        file=summary,
    )
    for name in report["missed"]:
        print("MISSED  {}".format(name), file=summary)
    for name in report["false_positives"]:
        print("FALSE+  {}".format(name), file=summary)
    if args.no_enforce:
        return 0
    return detection_gate(report)


def _corpus_stats(args, out):
    import json as json_mod
    import os

    from repro.corpus.mutate import MANIFEST_NAME
    from repro.errors import CorpusError

    manifest_path = os.path.join(args.corpus_dir, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="ascii") as handle:
            manifest = json_mod.load(handle)
    except (OSError, ValueError) as exc:
        raise CorpusError(
            "unreadable corpus manifest {}: {}".format(manifest_path, exc)
        )
    entries = manifest.get("mutants", [])
    config = manifest.get("config", {})
    per_mutator = {}
    for entry in entries:
        per_mutator.setdefault(entry["mutator"], []).append(entry)
    print(
        "corpus of {} mutant(s), seed {}, bases: {}".format(
            len(entries), config.get("seed"),
            ", ".join(config.get("bases", [])),
        ),
        file=out,
    )
    for mutator in sorted(per_mutator):
        group = per_mutator[mutator]
        trojaned = sum(1 for e in group if e["trojaned"])
        print(
            "  {:16s} {:3d} mutant(s) ({} trojaned, {} clean)".format(
                mutator, len(group), trojaned, len(group) - trojaned
            ),
            file=out,
        )
    return 0


def _shared_parent():
    """Flags spelled identically on every command that supports them.

    ``audit``, ``bench`` and ``screen`` all accept ``--jobs``,
    ``--cache-dir`` and ``--trace`` with the same spelling and meaning —
    one parent parser, not three hand-copied declarations that drift.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("shared options")
    group.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="run work on N parallel workers (audit/bench: "
                            "one persistent check-worker pool; screen: one "
                            "process per design)")
    group.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="consult and populate a content-addressed "
                            "check-outcome cache in DIR: re-audits of an "
                            "unchanged design skip solved checks, deeper "
                            "re-audits resume from the cached bound")
    group.add_argument("--trace", metavar="FILE.jsonl", default=None,
                       help="write a structured JSONL telemetry trace "
                            "here (see 'repro trace summarize')")
    return parent


def _supervision_parent():
    """``audit`` and ``bench``'s hard-timeout and retry flags."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("supervision options")
    group.add_argument("--check-timeout", type=float, default=None,
                       help="hard wall-clock seconds per check attempt; "
                            "a hung engine is killed, not waited on "
                            "(needs --jobs: only a pool worker can be "
                            "killed)")
    group.add_argument("--retries", type=int, default=0,
                       help="re-run a crashed/exhausted check up to N "
                            "extra times")
    return parent


def build_parser():
    from repro.report.screen import SCREENS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Formal detection of data-corrupting hardware Trojans "
                    "(DAC'15 reproduction)",
    )
    shared = _shared_parent()
    supervision = _supervision_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list", aliases=["list-designs"],
        help="list resolvable designs with provenance",
    )
    p_list.add_argument("--design", action="append", metavar="SOURCE",
                        help="also resolve and describe this external "
                             "source — a *.design.json bundle or a "
                             "*.v file (repeatable)")

    p_stats = sub.add_parser("stats", help="netlist statistics")
    p_stats.add_argument("--design", required=True)

    p_audit = sub.add_parser("audit", help="run Algorithm 1",
                             parents=[shared, supervision])
    p_audit.add_argument("--design", required=True)
    p_audit.add_argument("--engine", default="bmc",
                         choices=["bmc", "atpg", "atpg-backward",
                                  "atpg-podem"])
    p_audit.add_argument("--max-cycles", type=int, default=16)
    p_audit.add_argument("--budget", type=float, default=120.0,
                         help="seconds per property check")
    p_audit.add_argument("--register", action="append",
                         help="audit only this register (repeatable)")
    p_audit.add_argument("--check-pseudo-critical", action="store_true")
    p_audit.add_argument("--check-bypass", action="store_true")
    p_audit.add_argument("--no-functional", action="store_true",
                         help="authorization-only Eq.(2), skip value checks")
    p_audit.add_argument("--witness", action="store_true",
                         help="print counterexample input sequences")
    p_audit.add_argument("--resume", metavar="CHECKPOINT.json", default=None,
                         help="persist completed register findings here and "
                              "resume from them if the file exists")
    p_audit.add_argument("--screens", type=_screen_list, default=(),
                         metavar="LIST",
                         help="run these screens first (comma-separated, "
                              "see 'repro screen'): flagged registers are "
                              "audited earlier, findings attach as "
                              "evidence, and a screen hit the dynamic "
                              "checks cannot reproduce becomes a suspect "
                              "status")
    p_audit.add_argument("--profile", action="store_true",
                         help="wrap every check attempt in cProfile and "
                              "store pstats dumps next to the trace "
                              "(needs --trace; slows the engines)")

    p_bench = sub.add_parser(
        "bench", parents=[shared, supervision],
        help="audit many designs on one scheduler, scored vs ground truth",
    )
    p_bench.add_argument("--design", action="append",
                         help="audit this design (repeatable; default: "
                              "every bundled design)")
    p_bench.add_argument("--engine", default="bmc",
                         choices=["bmc", "atpg", "atpg-backward",
                                  "atpg-podem"])
    p_bench.add_argument("--max-cycles", type=int, default=16)
    p_bench.add_argument("--budget", type=float, default=120.0,
                         help="seconds per property check")
    p_bench.add_argument("--check-pseudo-critical", action="store_true")
    p_bench.add_argument("--check-bypass", action="store_true")
    p_bench.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_bench.add_argument("--screens", type=_screen_list, default=(),
                         metavar="LIST",
                         help="run these screens per design, fuse them "
                              "into each audit and add their figures to "
                              "every row (comma-separated)")

    p_screen = sub.add_parser(
        "screen", parents=[shared],
        help="run the solver-free screens over designs",
    )
    p_screen.add_argument("--screens", type=_screen_list,
                          default=tuple(SCREENS), metavar="LIST",
                          help="comma-separated screens to run (default: "
                               "all); output follows registry order")
    p_screen.add_argument("--design", action="append",
                          help="screen this design (repeatable; default: "
                               "every bundled design)")
    p_screen.add_argument("--json", metavar="PATH",
                          help="write {design: {screen: report}} here "
                               "('-' for stdout)")
    p_screen.add_argument("--sarif", metavar="PATH",
                          help="write one SARIF 2.1.0 log here: a run per "
                               "(screen, design), grouped by screen")
    p_screen.add_argument("--fail-on", default="suspicious",
                          choices=["info", "warn", "suspicious", "error"],
                          help="exit 1 when any finding is at least this "
                               "severe (default: suspicious)")
    p_screen.add_argument("--disable", action="append", metavar="RULE",
                          help="disable a lint rule by name (repeatable)")
    p_screen.add_argument("--suppress", action="append",
                          metavar="RULE_GLOB:SUBJECT_GLOB",
                          help="suppress lint findings whose rule and "
                               "subject match the globs (repeatable)")

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain a check-outcome cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    c_stats = cache_sub.add_parser("stats", help="entry counts and totals")
    c_stats.add_argument("--cache-dir", required=True, metavar="DIR")
    c_stats.add_argument("--json", action="store_true",
                         help="machine-readable output")
    c_gc = cache_sub.add_parser(
        "gc", help="compact superseded and unreadable records"
    )
    c_gc.add_argument("--cache-dir", required=True, metavar="DIR")
    c_clear = cache_sub.add_parser("clear", help="drop all cached outcomes")
    c_clear.add_argument("--cache-dir", required=True, metavar="DIR")

    p_trace = sub.add_parser(
        "trace", help="inspect structured telemetry traces"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    t_sum = trace_sub.add_parser(
        "summarize",
        help="per-phase wall-clock tree, slowest checks, cache/retry "
             "tallies",
    )
    t_sum.add_argument("trace_file", metavar="FILE.jsonl")
    t_sum.add_argument("--top", type=int, default=10,
                       help="how many slowest checks to list (default 10)")
    t_sum.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p_serve = sub.add_parser(
        "serve",
        help="run the crash-tolerant audit service (durable job queue "
             "+ JSON API; see README 'Audit service')",
    )
    p_serve.add_argument("--queue-dir", required=True, metavar="DIR",
                         help="journal + snapshot + per-job trace files "
                              "live here; restarting with the same DIR "
                              "resumes unfinished jobs")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8630,
                         help="0 picks an ephemeral port (printed on "
                              "startup)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent audit worker threads")
    p_serve.add_argument("--lease-ttl", type=float, default=30.0,
                         help="seconds a job lease survives without a "
                              "heartbeat before it is reclaimed")
    p_serve.add_argument("--max-leases", type=int, default=3,
                         help="attempts before a job is dead-lettered")
    p_serve.add_argument("--inject", action="append", metavar="FAULT",
                         help="deterministic service fault "
                              "KIND[:MATCH[:TIMES]], e.g. "
                              "kill-lease-holder:*@mid (repeatable; "
                              "for chaos testing)")

    p_submit = sub.add_parser("submit",
                              help="submit an audit job to a running "
                                   "service")
    p_submit.add_argument("--url", default="http://127.0.0.1:8630")
    p_submit.add_argument("--design", required=True)
    p_submit.add_argument("--engine", default=None,
                          choices=["bmc", "atpg", "atpg-backward",
                                   "atpg-podem"])
    p_submit.add_argument("--max-cycles", type=int, default=None)
    p_submit.add_argument("--budget", type=float, default=None)
    p_submit.add_argument("--check-bypass", action="store_true")
    p_submit.add_argument("--check-pseudo-critical", action="store_true")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job is terminal; exit 1 "
                               "if it dead-letters")
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="--wait deadline in seconds")

    p_jobs = sub.add_parser("jobs", help="inspect a running service")
    p_jobs.add_argument("--url", default="http://127.0.0.1:8630")
    p_jobs.add_argument("--job", default=None, metavar="JOB_ID",
                        help="show one job in full instead of the list")
    p_jobs.add_argument("--events", action="store_true",
                        help="with --job: stream its trace events")
    p_jobs.add_argument("--after", type=int, default=0,
                        help="with --events: skip the first N events")

    p_export = sub.add_parser("export", help="write Verilog + assertions")
    p_export.add_argument("--design", required=True)
    p_export.add_argument("--out", default="export")
    p_export.add_argument("--bundle", action="store_true",
                          help="also write the design as a "
                               "*.design.json bundle")

    p_corpus = sub.add_parser(
        "corpus",
        help="generate and screen seeded Trojan-mutant corpora",
    )
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command",
                                         required=True)
    cg = corpus_sub.add_parser(
        "generate", help="write a seeded mutant corpus of bundles"
    )
    cg.add_argument("--seed", type=int, default=0,
                    help="corpus seed; same seed, same bytes")
    cg.add_argument("-n", "--count", type=int, default=40,
                    help="number of mutants (default 40)")
    cg.add_argument("--out", default="corpus", metavar="DIR",
                    help="output directory (default ./corpus)")
    cg.add_argument("--base", action="append", metavar="DESIGN",
                    help="mutate this base design (repeatable; any "
                         "load_design source; default: risc, mc8051, "
                         "router)")
    cg.add_argument("--mutator", action="append", metavar="NAME",
                    help="use this mutator (repeatable; default: the "
                         "non-evasive set)")
    cr = corpus_sub.add_parser(
        "run",
        help="screen a corpus and score recall against ground truth",
    )
    cr.add_argument("corpus_dir", metavar="DIR")
    cr.add_argument("--jobs", type=int, default=None, metavar="N",
                    help="screen N mutants in parallel worker processes")
    cr.add_argument("--fail-on", default="suspicious",
                    choices=["info", "warn", "suspicious", "error"],
                    help="a finding at least this severe flags the "
                         "mutant (default: suspicious)")
    cr.add_argument("--screens", type=_screen_list,
                    default=tuple(SCREENS), metavar="LIST",
                    help="comma-separated screens to run per mutant "
                         "(default: all)")
    cr.add_argument("--audit", action="store_true",
                    help="also run Algorithm 1 per mutant on one "
                         "scheduler pool (catches the evasive mutators "
                         "the static screens may miss)")
    cr.add_argument("--audit-max-cycles", type=int, default=12)
    cr.add_argument("--json", metavar="PATH",
                    help="write the detection-rate report here "
                         "('-' for stdout); byte-identical across "
                         "reruns of the same corpus")
    cr.add_argument("--no-enforce", action="store_true",
                    help="exit 0 even on trojaned misses or clean "
                         "false positives (exploratory runs with "
                         "evasive mutators)")
    cs = corpus_sub.add_parser(
        "stats", help="summarize a corpus manifest"
    )
    cs.add_argument("corpus_dir", metavar="DIR")
    return parser


def main(argv=None, out=sys.stdout):
    args = build_parser().parse_args(argv)
    handler = {
        "list": cmd_list,
        "list-designs": cmd_list,
        "corpus": cmd_corpus,
        "stats": cmd_stats,
        "audit": cmd_audit,
        "bench": cmd_bench,
        "cache": cmd_cache,
        "trace": cmd_trace,
        "export": cmd_export,
        "screen": cmd_screen,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
    }[args.command]
    return handler(args, out=out)


if __name__ == "__main__":
    sys.exit(main())
