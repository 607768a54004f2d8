"""Text, JSON, and DOT views of cycle structures and report documents.

Points are labelled the way the cycle figures read: powers of the field's
primitive element as "g^i", the zero element as "0", and the point at
infinity as "inf".  Cycle listings label point ranks directly (rank i is
"g^i"), so they exist only where cycle decompositions do, in fields with
discrete-log tables.  Single points (point_label, element_echo) of wider
fields fall back to hex labels.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import accumulate

from .fields import InvariantViolationError, ResourceLimitError
from .maps import CycleStructure, ProjPoint


def point_label(p: ProjPoint) -> str:
    value = p.value
    if value is None:
        return "inf"
    if not value:
        return "0"
    try:
        return f"g^{value.log()}"
    except ResourceLimitError:
        return value.hex


def element_echo(e) -> dict:
    """Both spellings of a field element, for report echoes."""
    out = {"hex": e.hex}
    if e:
        try:
            out["g_exp"] = e.log()
        except ResourceLimitError:
            pass
    return out


def cycle_paths(cs: CycleStructure) -> list[str]:
    """Each cycle of the listing as one string of labels, "g^i -> ... -> 0".
    A cycle fills a "g^%d" template of its length, so zero (rank
    N = 2^n - 1) and infinity (rank N + 1) first come out as g^N and
    g^(N + 1).  No other label starts with either, as no rank has more
    digits than N + 1, so one search of the joined listing finds the at
    most two paths through them, and only those are relabelled."""
    units = cs.map.field.mult_order
    templates: dict[int, str] = {}
    paths = []
    for cyc in cs.ranks:
        template = templates.get(len(cyc))
        if template is None:
            template = templates[len(cyc)] = " -> ".join(["g^%d"] * len(cyc))
        paths.append(template % cyc)
    text, ends = "".join(paths), list(accumulate(map(len, paths)))
    for rank, label in ((units, "0"), (units + 1, "inf")):
        at = text.find(f"g^{rank}")
        if at >= 0:
            i = bisect_right(ends, at)
            paths[i] = paths[i].replace(f"g^{rank}", label)
    return paths


def cycle_labels(cs: CycleStructure) -> list[list[str]]:
    return [path.split(" -> ") for path in cycle_paths(cs)]


def cycles_to_dict(cs: CycleStructure) -> dict:
    m = cs.map
    return {
        "map": {"kind": m.kind, "a": element_echo(m.a),
                "b": element_echo(m.b), "k": m.k,
                "field_degree": m.field.degree,
                "field_modulus": f"{m.field.modulus:#x}"},
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


def check_prediction(predicted: list[int], observed: list[int]) -> None:
    """Every observed cycle length must belong to the prediction set."""
    stray = set(observed) - set(predicted)
    if stray:
        raise InvariantViolationError(
            f"observed cycle lengths {sorted(stray)} missing from the "
            f"prediction set {sorted(predicted)}")


def report_text(doc: dict) -> str:
    """The text view of a report document: the input echo, then each section
    the document holds, in a fixed order.  The JSON view is the document."""
    lines = [f"input: {json.dumps(doc['config'], sort_keys=True)}"]
    if "cycle_summary" in doc:
        parts = ", ".join(f"{c} of length {l}" for l, c in sorted(
            doc["cycle_summary"].items(), key=lambda kv: int(kv[0])))
        lines.append(f"cycles: {parts}")
    lines += ["  (" + path + ")" for path in doc.get("cycles", ())]
    if "curve" in doc:
        lines.append("curve: " + json.dumps(doc["curve"], sort_keys=True))
    if "catalog" in doc:
        lines.append("catalog (d1, d2, m1, m2, length, points, cycles):")
        for row in doc["catalog"]:
            lines.append(
                f"  F_2^{row['over']}: ({row['d1']}, {row['d2']}, {row['m1']}, "
                f"{row['m2']}, {row['length']}, {row['point_count']}, "
                f"{row['cycle_count']})"
                + (f"  candidates {row['possible_lengths']}"
                   if len(row["possible_lengths"]) > 1 else ""))
    if "predicted_lengths" in doc:
        lines.append(f"predicted lengths: {sorted(doc['predicted_lengths'])}")
    if "observed_lengths" in doc:
        lines.append(f"observed lengths:  {sorted(set(doc['observed_lengths']))}")
    for section in ("conjugacy", "root_counts"):
        lines += [f"{key}: {value}"
                  for key, value in sorted(doc.get(section, {}).items())]
    lines += [f"note: {note}" for note in doc.get("notes", ())]
    return "\n".join(lines) + "\n"
