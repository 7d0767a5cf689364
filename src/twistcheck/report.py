"""Verification reports: deterministic structured output plus tables.

A VerificationReport bundles the computed data of a pipeline run with
named boolean verdicts.  The structured serialization is JSON with
sorted keys, so identical inputs produce byte-identical reports.  All
payload values must be JSON-native (strings, ints, finite floats, None,
bools, lists, string-keyed dicts): the output is strict JSON, and a NaN
or infinity is refused rather than written as a bare token.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List


class ReportError(ValueError):
    """Malformed report payload or serialization."""


@dataclass
class VerificationReport:
    """Outcome of one verification run."""

    title: str
    scenario: str
    data: Dict[str, object] = field(default_factory=dict)
    verdicts: Dict[str, bool] = field(default_factory=dict)
    residuals: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "scenario": self.scenario,
            "data": self.data,
            "verdicts": self.verdicts,
            "residuals": self.residuals,
            "passed": self.passed,
        }


def graded(dims) -> Dict[str, int]:
    """JSON-friendly copy of a GradedDims (string degree keys)."""
    return {str(k): int(v) for k, v in sorted(dims.dims.items())}


def matrix(m) -> List[List[int]]:
    return [[int(x) for x in row] for row in m]


def serialize(report: VerificationReport) -> str:
    """Deterministic structured rendering (strict JSON, sorted keys)."""
    return json.dumps(report.as_dict(), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _render_value(value) -> str:
    if isinstance(value, dict):
        return ", ".join(f"{k}: {_render_value(v)}"
                         for k, v in sorted(value.items()))
    if isinstance(value, list):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


def format_table(report: VerificationReport) -> str:
    """Human-readable rendering of a report."""
    lines = [f"== {report.title} ==", f"scenario: {report.scenario}"]
    for key in sorted(report.data):
        lines.append(f"  {key:<24} {_render_value(report.data[key])}")
    for res in report.residuals:
        name = res.get("name", "residuals")
        lines.append(f"  residuals[{name}]")
        for k, v in sorted(res.get("residuals", {}).items()):
            # a non-finite residual is null in the structured report
            v = float("nan") if v is None else v
            lines.append(f"    {k:<22} {v:.3e}")
        if "tolerance" in res:
            word = "pass" if res.get("passed") else "FAIL"
            lines.append(f"    tolerance {res['tolerance']:.1e} -> {word}")
    for name in sorted(report.verdicts):
        word = "pass" if report.verdicts[name] else "FAIL"
        lines.append(f"  [{word}] {name}")
    lines.append("overall: " + ("pass" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def emit_report(report: VerificationReport, fmt: str = "table") -> str:
    """Render a report in the requested format."""
    if fmt == "structured":
        return serialize(report)
    if fmt == "table":
        return format_table(report)
    raise ReportError(f"unknown report format {fmt!r}")
