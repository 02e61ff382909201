"""AuditConfig, and the removed per-field keyword arguments."""

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.errors import ReproError
from repro.properties import DesignSpec

from tests.conftest import build_secret_design, secret_spec


def design():
    nl = build_secret_design(trojan=True)
    spec = DesignSpec(name=nl.name, critical={"secret": secret_spec()})
    return nl, spec


class TestAuditConfig:
    def test_defaults_match_historical_kwargs(self):
        config = AuditConfig()
        assert config.max_cycles == 40
        assert config.engine == "bmc"
        assert config.functional is True
        assert config.stop_on_first is True
        assert config.jobs is None

    def test_rejects_bad_jobs(self):
        with pytest.raises(ReproError):
            AuditConfig(jobs=0)
        with pytest.raises(ReproError):
            AuditConfig(jobs=-2)

    def test_config_object_drives_the_detector(self):
        nl, spec = design()
        config = AuditConfig(max_cycles=10, time_budget=60)
        detector = TrojanDetector(nl, spec, config=config)
        assert detector.config is config
        assert detector.run().trojan_found


class TestDeprecationShims:
    def test_unknown_kwarg_is_a_type_error(self):
        # the per-field keyword shims are gone: every former spelling,
        # like any other unknown keyword, is rejected outright
        nl, spec = design()
        for name in ("max_cycles", "time_budget", "definitely_not_a_flag"):
            with pytest.raises(TypeError, match=name):
                TrojanDetector(nl, spec, **{name: 10})
        with pytest.raises(TypeError, match="AuditConfig"):
            TrojanDetector(nl, spec, 12)  # the old positional max_cycles
