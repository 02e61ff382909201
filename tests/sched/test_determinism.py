"""Worker count must not leak into the report: jobs=4 == jobs=1 == inline."""

import json

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.core.report import scrub_volatile
from repro.properties import DesignSpec
from repro.runner import CheckRunner

from tests.conftest import build_secret_design, secret_spec


def run_audit(jobs, variant_kwargs, **config_kwargs):
    nl = build_secret_design(**variant_kwargs)
    spec = DesignSpec(name=nl.name, critical={"secret": secret_spec()})
    config_kwargs.setdefault("max_cycles", 10)
    config_kwargs.setdefault("time_budget", 60)
    detector = TrojanDetector(
        nl, spec, config=AuditConfig(jobs=jobs, **config_kwargs),
        # a hard timeout needs a pool: an inline runner refuses one
        runner=(CheckRunner() if jobs is None
                else CheckRunner.configure(check_timeout=120)),
    )
    return detector.run()


@pytest.mark.parametrize("variant_kwargs", [
    dict(trojan=True),
    dict(trojan=False),
    dict(trojan=True, pseudo=True),
], ids=["trojan", "clean", "pseudo"])
def test_jobs_count_is_invisible_in_the_report(variant_kwargs):
    """`--jobs 4` must be byte-identical to `--jobs 1` after scrubbing.

    ``to_json(scrub=True)`` drops only the wall-clock/RSS keys
    (VOLATILE_KEYS); every verdict, witness, bound, attempt count and
    check status must already agree.
    """
    kwargs = dict(check_pseudo_critical=True, check_bypass=True)
    one = run_audit(1, variant_kwargs, **kwargs)
    four = run_audit(4, variant_kwargs, **kwargs)
    assert one.to_json(scrub=True) == four.to_json(scrub=True)
    # inline execution differs only in the attempts' execution-mode tag
    inline = run_audit(None, variant_kwargs, **kwargs).to_json(scrub=True)
    assert '"mode": "process"' not in inline
    assert inline.replace('"mode": "inline"', '"mode": "process"') == (
        one.to_json(scrub=True)
    )


def test_scrub_keeps_witnesses_and_statuses():
    report = run_audit(2, dict(trojan=True))
    data = report.to_dict(scrub=True)
    finding = data["findings"]["secret"]
    assert data["trojan_found"] is True
    assert finding["corruption"]["witness"]  # witness survives the scrub
    assert "elapsed" not in finding
    assert "elapsed" not in data
    # unscubbed dict keeps the timing fields
    assert "elapsed" in report.to_dict()["findings"]["secret"]


def _scrubbed(trojan, **config_kwargs):
    netlist = build_secret_design(trojan=trojan)
    spec = DesignSpec(name=netlist.name, critical={"secret": secret_spec()})
    report = TrojanDetector(
        netlist, spec, config=AuditConfig(**config_kwargs)
    ).run()
    return json.dumps(scrub_volatile(report.to_dict()), sort_keys=True)


def test_one_worker_vs_many_workers_byte_identical():
    # jobs=1 and jobs=N both execute in worker processes, so their
    # scrubbed reports must match to the byte — including the runner's
    # mode metadata.
    one = _scrubbed(True, jobs=1)
    many = _scrubbed(True, jobs=3)
    assert one == many


def test_inline_vs_worker_pool_same_verdicts():
    # inline (this process) vs pooled (worker processes): identical up
    # to the runner's execution-mode tag
    serial = _scrubbed(True).replace('"inline"', '"X"')
    pooled = _scrubbed(True, jobs=2).replace('"process"', '"X"')
    assert serial == pooled
