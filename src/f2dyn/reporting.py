"""Text, JSON, and DOT views of cycle structures and whole analyses.

Points are labelled the way the cycle figures read: powers of the field's
primitive element as "g^i", the zero element as "0", and the point at
infinity as "inf".  Cycle listings label point ranks directly (rank i is
"g^i"), so they exist only where cycle decompositions do, in fields with
discrete-log tables.  Single points (point_label, element_echo) of wider
fields fall back to hex labels.
"""

from __future__ import annotations

import json

from .fields import InvariantViolationError, ResourceLimitError
from .maps import CycleStructure, MapSpec, ProjPoint


def point_label(p: ProjPoint) -> str:
    if p.is_infinity:
        return "inf"
    if p.value.is_zero:
        return "0"
    try:
        return f"g^{p.value.log()}"
    except ResourceLimitError:
        return p.value.hex


def element_echo(e) -> dict:
    """Both spellings of a field element, for report echoes."""
    out = {"hex": e.hex}
    if not e.is_zero:
        try:
            out["g_exp"] = e.log()
        except ResourceLimitError:
            pass
    return out


def map_echo(m: MapSpec) -> dict:
    return {
        "kind": m.kind,
        "a": element_echo(m.a),
        "b": element_echo(m.b),
        "k": m.k,
        "field_degree": m.field.degree,
        "field_modulus": f"{m.field.modulus:#x}",
    }


def cycle_labels(cs: CycleStructure) -> list[list[str]]:
    units = cs.map.field.mult_order
    labels = [f"g^{i}" for i in range(units)] + ["0", "inf"]  # by rank
    return [[labels[r] for r in cyc] for cyc in cs.ranks]


def cycles_to_dict(cs: CycleStructure) -> dict:
    return {
        "map": map_echo(cs.map),
        "point_total": cs.map.field.order + 1,
        "summary": {str(length): count for length, count in cs.summary.items()},
        "cycles": cycle_labels(cs),
    }


def emit_dot(cs: CycleStructure) -> str:
    """One node per point of P^1, one edge per map application; fixed points
    come out as self-loops.  Output is byte-deterministic."""
    lines = ["digraph cycles {"]
    m = cs.map
    lines.append(f'  label="{m.describe()} over F_2^{m.field.degree}";')
    for labels in cycle_labels(cs):
        for src, dst in zip(labels, labels[1:] + labels[:1]):
            lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class AnalysisReport:
    """Everything one CLI invocation computed, with the prediction invariant
    enforced: when a prediction set is present, every observed cycle length
    must belong to it."""

    __slots__ = ("config", "cycle_summary", "cycles", "curve", "catalog",
                 "predicted_lengths", "observed_lengths", "conjugacy",
                 "root_counts", "notes")

    def __init__(self, config: dict, cycle_summary: dict | None = None,
                 cycles: list[list[str]] | None = None,
                 curve: dict | None = None, catalog: list[dict] | None = None,
                 predicted_lengths: list[int] | None = None,
                 observed_lengths: list[int] | None = None,
                 conjugacy: dict | None = None,
                 root_counts: dict | None = None,
                 notes: list[str] | None = None):
        if predicted_lengths is not None and observed_lengths is not None:
            stray = set(observed_lengths) - set(predicted_lengths)
            if stray:
                raise InvariantViolationError(
                    f"observed cycle lengths {sorted(stray)} missing from the "
                    f"prediction set {sorted(predicted_lengths)}")
        self.config = config
        self.cycle_summary = cycle_summary
        self.cycles = cycles
        self.curve = curve
        self.catalog = catalog
        self.predicted_lengths = predicted_lengths
        self.observed_lengths = observed_lengths
        self.conjugacy = conjugacy
        self.root_counts = root_counts
        self.notes = [] if notes is None else notes

    def to_dict(self) -> dict:
        out = {"config": self.config}
        for key in ("cycle_summary", "cycles", "curve", "catalog",
                    "predicted_lengths", "observed_lengths", "conjugacy",
                    "root_counts"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.notes:
            out["notes"] = self.notes
        return out

    def to_text(self) -> str:
        lines = []
        cfg = self.config
        lines.append(f"input: {json.dumps(cfg, sort_keys=True)}")
        if self.cycle_summary is not None:
            parts = ", ".join(f"{c} of length {l}"
                              for l, c in sorted(self.cycle_summary.items(),
                                                 key=lambda kv: int(kv[0])))
            lines.append(f"cycles: {parts}")
        if self.cycles is not None:
            for cyc in self.cycles:
                lines.append("  (" + " -> ".join(cyc) + ")")
        if self.curve is not None:
            lines.append("curve: " + json.dumps(self.curve, sort_keys=True))
        if self.catalog is not None:
            lines.append("catalog (d1, d2, m1, m2, length, points, cycles):")
            for row in self.catalog:
                where = f"F_2^{row['over']}: " if "over" in row else ""
                lines.append(
                    f"  {where}({row['d1']}, {row['d2']}, {row['m1']}, {row['m2']}, "
                    f"{row['length']}, {row['point_count']}, {row['cycle_count']})"
                    + (f"  candidates {row['possible_lengths']}"
                       if len(row["possible_lengths"]) > 1 else ""))
        if self.predicted_lengths is not None:
            lines.append(f"predicted lengths: {sorted(self.predicted_lengths)}")
        if self.observed_lengths is not None:
            lines.append(f"observed lengths:  {sorted(set(self.observed_lengths))}")
        if self.conjugacy is not None:
            for key, value in sorted(self.conjugacy.items()):
                lines.append(f"{key}: {value}")
        if self.root_counts is not None:
            for key, value in sorted(self.root_counts.items()):
                lines.append(f"{key}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"
