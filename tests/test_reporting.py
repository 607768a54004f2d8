"""Labels, report invariants, and deterministic DOT/JSON output."""

import pytest

from f2dyn import (BinaryField, InvariantViolationError, MapSpec, ProjPoint,
                   check_prediction, cycle_labels, cycles_to_dict, emit_dot,
                   point_label, report_text, to_json)
from f2dyn.reporting import cycle_paths
from test_maps import point_cycles

F32 = BinaryField(5)
G = F32.primitive_element()


def test_point_labels():
    assert point_label(ProjPoint.infinity(F32)) == "inf"
    assert point_label(ProjPoint.finite(F32.zero)) == "0"
    assert point_label(ProjPoint.finite(F32.one)) == "g^0"
    assert point_label(ProjPoint.finite(G ** 19)) == "g^19"
    big = BinaryField(20)
    assert point_label(ProjPoint.finite(big.element(0xABCDE))) == "0xabcde"


def test_cycle_labels_match_known_figure():
    cs = MapSpec("theta", G, G ** 3, 2).cycle_structure()
    labels = cycle_labels(cs)
    assert labels[0] == ["g^0", "g^6", "g^10", "g^25", "g^5", "g^4", "g^16",
                         "0", "g^3", "g^7"]
    assert labels[3] == ["g^19", "g^26"]
    assert labels[4] == ["inf"]


def test_cycle_labels_of_ranks_are_the_point_labels():
    """Labels read straight off the ranks, and the text listing, equal
    point_label of the ranks read as points over F_2^16, also on the cycles
    through zero and infinity, which are labelled point by point."""
    f = BinaryField(16)
    for kind, a, b, k in (
            ("theta", 0xF13A, 0x2B7B, 2),  # the map the benchmark ladder lists
            ("psi", 0xF13A, 0x2B7B, 3),  # inf -> 0 inside a longer cycle
            ("theta", 0x2B7B, 0x0, 1)):  # b = 0: zero and inf are fixed
        cs = MapSpec(kind, f.element(a), f.element(b), k).cycle_structure()
        want = [[point_label(p) for p in c] for c in point_cycles(cs)]
        assert cycle_labels(cs) == want, kind
        text = report_text({"config": {}, "cycles": cycle_paths(cs)})
        assert text.splitlines()[1:] == [
            "  (" + " -> ".join(c) + ")" for c in want], kind
        special = [c for c in want if "0" in c or "inf" in c]
        if kind == "psi":
            [cyc] = special
            assert len(cyc) > 2 and cyc[cyc.index("inf") - len(cyc) + 1] == "0"
        else:
            assert ["inf"] in special and (["0"] in special) == (b == 0)


def test_cycles_to_dict_contents():
    cs = MapSpec("psi", G, G ** 2, 2).cycle_structure()
    d = cycles_to_dict(cs)
    assert d["point_total"] == 33
    assert d["summary"] == {"1": 3, "5": 6}
    assert d["map"]["kind"] == "psi" and d["map"]["k"] == 2
    assert d["map"]["a"] == {"hex": "0x2", "g_exp": 1}
    assert sum(len(c) for c in d["cycles"]) == 33


def test_emit_dot_shape_and_determinism():
    cs = MapSpec("theta", G, G ** 3, 2).cycle_structure()
    dot = emit_dot(cs)
    assert dot == emit_dot(cs)
    assert dot.startswith("digraph cycles {")
    assert dot.endswith("}\n")
    edges = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(edges) == F32.order + 1  # one application per point
    assert '  "inf" -> "inf";' in edges
    assert '  "g^19" -> "g^26";' in edges and '  "g^26" -> "g^19";' in edges
    assert '  "g^16" -> "0";' in edges and '  "0" -> "g^3";' in edges
    sources = [ln.split(" -> ")[0] for ln in edges]
    assert len(set(sources)) == F32.order + 1  # the map is a bijection


def test_to_json_is_stable_and_sorted():
    payload = {"b": [3, 1], "a": {"y": 2, "x": 1}}
    first = to_json(payload)
    assert first == to_json({"a": {"x": 1, "y": 2}, "b": [3, 1]})
    assert first.index('"a"') < first.index('"b"')
    assert first.endswith("\n")


def test_report_prediction_invariant():
    check_prediction([1, 2, 5, 10], [1, 5])
    check_prediction([1, 2, 5, 10], [])
    with pytest.raises(InvariantViolationError,
                       match=r"^observed cycle lengths \[3\] missing from the "
                             r"prediction set \[1, 2, 5, 10\]$"):
        check_prediction([10, 5, 2, 1], [1, 3])


def test_report_text_and_dict_round_out():
    doc = {
        "config": {"command": "curve", "degree": 5},
        "curve": {"order": 41},
        "catalog": [{"d1": 1, "d2": 1, "m1": 1, "m2": 41, "length": 10,
                     "point_count": 40, "cycle_count": 2,
                     "possible_lengths": [10, 20], "over": 5}],
        "predicted_lengths": [1, 10],
        "observed_lengths": [10, 1],
        "notes": ["catalog matches the 3 cycles through curve x-coordinates"],
    }
    text = report_text(doc)
    assert text.splitlines()[:3] == [
        'input: {"command": "curve", "degree": 5}', 'curve: {"order": 41}',
        "catalog (d1, d2, m1, m2, length, points, cycles):"]
    assert "F_2^5: (1, 1, 1, 41, 10, 40, 2)  candidates [10, 20]" in text
    assert "predicted lengths: [1, 10]" in text
    assert "observed lengths:  [1, 10]" in text
    assert "note: catalog matches" in text.splitlines()[-1]
    assert to_json(doc) == to_json(dict(reversed(doc.items())))
    # absent sections print nothing; present ones keep a fixed order
    assert report_text({"config": {}}) == "input: {}\n"
    doc = {"notes": ["last"], "root_counts": {"b": 2, "a": 1},
           "conjugacy": {"c": 3}, "cycles": ["inf", "0 -> g^0"],
           "cycle_summary": {"10": 1, "2": 3}, "config": {"command": "x"}}
    assert report_text(doc) == (
        'input: {"command": "x"}\n'
        "cycles: 3 of length 2, 1 of length 10\n"
        "  (inf)\n"
        "  (0 -> g^0)\n"
        "c: 3\n"
        "a: 1\n"
        "b: 2\n"
        "note: last\n")
