"""Security properties: valid-way specs, monitors (Eq. 2/3), bypass (Eq. 4),
and Verilog assertion generation."""

from repro.properties.bypass import BypassChecker, BypassResult, validate_bypass
from repro.properties.monitors import (
    MonitorBuild,
    build_corruption_monitor,
    build_tracking_monitor,
)
from repro.properties.sva import (
    bypass_comment,
    corruption_assertion,
    render_spec,
    tracking_assertion,
)
from repro.properties.valid_ways import (
    DesignSpec,
    MonitorCtx,
    RegisterSpec,
    TrojanInfo,
    ValidWay,
)

__all__ = [
    "BypassChecker",
    "BypassResult",
    "validate_bypass",
    "MonitorBuild",
    "build_corruption_monitor",
    "build_tracking_monitor",
    "bypass_comment",
    "corruption_assertion",
    "render_spec",
    "tracking_assertion",
    "DesignSpec",
    "MonitorCtx",
    "RegisterSpec",
    "TrojanInfo",
    "ValidWay",
]
