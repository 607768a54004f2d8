"""End-to-end command-line behavior: output documents, exit codes, and the
curve report against the scan oracles."""

import gc
import hashlib
import json
import math
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from test_curves import lifting_cycle_counts, sampled_group_structure

import f2dyn
from f2dyn import (BinaryField, GroupStructure, MapSpec, ProjPoint,
                   ResourceLimitError, bluher_distribution, cli,
                   curve_from_map, curves, extension_of, gf2x, point_label,
                   selftest)
from f2dyn.cli import (EXIT_INVARIANT, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE,
                       build_parser, main, parse_element, run)
from f2dyn.curves import line_cycle_counts

F32 = BinaryField(5)
G = F32.primitive_element()


def parse(argv):
    return build_parser().parse_args(argv)


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_element_variants():
    assert parse_element(F32, "g") == G
    assert parse_element(F32, "g^12") == G ** 12
    assert parse_element(F32, "G^3") == G ** 3
    assert parse_element(F32, "g3") == G ** 3
    assert parse_element(F32, "0x1f") == F32.element(0x1F)
    assert parse_element(F32, "1f") == F32.element(0x1F)
    assert parse_element(F32, "g^0") == F32.one
    assert parse_element(F32, "g^-1") == G ** 30
    for bad, message in [
            ("", "empty field element"),
            ("q^3", "malformed element 'q^3' (want g^i or hex)"),
            ("g^x", "malformed element 'g^x'"),
            ("g^", "malformed element 'g^'"),
            ("0xfff", "encoding 0xfff out of range for BinaryField(5, 0x25)"),
            ("zz", "malformed element 'zz' (want g^i or hex)")]:
        with pytest.raises(ValueError) as info:
            parse_element(F32, bad)
        assert str(info.value) == message


def test_orbits_text_reproduces_figure(capsys):
    code, out, err = invoke(
        ["orbits", "--degree", "5", "--map", "theta",
         "--a", "g", "--b", "g^3", "--k", "2"], capsys)
    assert code == EXIT_OK and err == ""
    assert "cycles: 1 of length 1, 1 of length 2, 3 of length 10" in out
    assert "(g^0 -> g^6 -> g^10 -> g^25 -> g^5 -> g^4 -> g^16 -> 0 -> g^3 -> g^7)" in out
    assert "(g^19 -> g^26)" in out
    assert "(inf)" in out


def test_orbits_dot_output_is_deterministic(capsys):
    argv = ["orbits", "--degree", "5", "--a", "g", "--b", "g^3",
            "--format", "dot"]
    code, first, _ = invoke(argv, capsys)
    assert code == EXIT_OK
    code, second, _ = invoke(argv, capsys)
    assert first == second
    assert first.startswith("digraph cycles {")
    assert first.count("->") == F32.order + 1
    assert '"inf" -> "inf";' in first


def test_orbits_json_document(capsys):
    code, out, _ = invoke(
        ["orbits", "--degree", "5", "--map", "psi", "--a", "g",
         "--b", "g^2", "--format", "json"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"] == {"1": 3, "5": 6}
    assert doc["point_total"] == 33
    assert ["g^8", "inf", "0", "g^29", "g^22"] in doc["cycles"]


def leaves(node):
    """Every scalar of a JSON document."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for child in node for x in leaves(child)]
    return [node]


@pytest.mark.parametrize("argv, sections", [
    (["orbits", "--degree", "5", "--a", "g", "--b", "g^3"],
     {"cycles", "map", "point_total", "summary"}),
    (["curve", "--degree", "5", "--a", "g", "--b", "g^3"],
     {"catalog", "config", "curve", "cycle_summary", "notes",
      "observed_lengths", "predicted_lengths"}),
    (["conjugate", "--degree", "5", "--map", "psi", "--a", "g", "--b", "g^2"],
     {"config", "conjugacy"}),
    (["bluher", "--degree", "5"], {"config", "root_counts"}),
    (["bluher", "--degree", "5", "--a", "g^3"], {"config", "root_counts"}),
])
def test_json_documents_hold_exactly_their_sections(argv, sections, capsys):
    """Each report holds only the sections its command fills, with no null
    value anywhere."""
    code, out, err = invoke(argv + ["--format", "json"], capsys)
    assert code == EXIT_OK and err == ""
    doc = json.loads(out)
    assert set(doc) == sections
    assert None not in leaves(doc)


@pytest.mark.parametrize("argv", [
    ["curve", "--degree", "5", "--a", "g", "--b", "g^3"],
    ["conjugate", "--degree", "5", "--map", "psi", "--a", "g", "--b", "g^2"],
    ["bluher", "--degree", "5"],
])
def test_dot_format_is_offered_by_orbits_only(argv, capsys):
    """Only a cycle listing has a graph; the other reports refuse --format
    dot as a usage error instead of printing text."""
    with pytest.raises(SystemExit) as info:
        main(argv + ["--format", "dot"])
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'dot'" in captured.err


def test_curve_report_contents(capsys):
    code, out, _ = invoke(
        ["curve", "--degree", "5", "--a", "g", "--b", "g^3",
         "--format", "json"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["curve"]["base"] == {"order": 41, "n1": 1, "n2": 41}
    assert doc["curve"]["extension"] == {"order": 1025, "n1": 1, "n2": 1025}
    assert doc["curve"]["a1"]["g_exp"] == 15 and doc["curve"]["a2"]["g_exp"] == 1
    assert doc["predicted_lengths"] == [1, 2, 10]
    assert set(doc["observed_lengths"]) <= set(doc["predicted_lengths"])
    rows = {(r["over"], r["d1"], r["d2"]): r for r in doc["catalog"]}
    assert rows[(5, 1, 1)]["length"] == 10
    assert rows[(5, 1, 1)]["cycle_count"] == 2
    assert rows[(10, 1, 205)]["length"] == 2
    assert rows[(10, 1, 25)]["length"] == 10
    assert doc["notes"] == ["F_2^5: catalogs of the curve (41 points) and its "
                            "twist (25 points) match the 5 cycles of the line "
                            "exactly"]


def test_curve_cache_cold_and_warm_agree(monkeypatch, capsys):
    """The report reads E(F_2^10) off the groups over F_32, so a cold run
    builds no field but F_32 and leaves extension_of's cache empty, and a
    warm run prints the same document."""
    argv = ["curve", "--degree", "5", "--a", "g^3", "--b", "g^15",
            "--format", "json"]
    built = []
    init = BinaryField.__init__

    def spy(self, degree, modulus=None):
        built.append(degree)
        init(self, degree, modulus)

    monkeypatch.setattr(BinaryField, "__init__", spy)
    extension_of.cache_clear()
    code, cold, err = invoke(argv, capsys)
    assert code == EXIT_OK and err == ""
    assert extension_of.cache_info().currsize == 0 and set(built) == {5}
    code, warm, err = invoke(argv, capsys)
    assert (code, err, warm) == (EXIT_OK, "", cold)


def test_curve_report_matches_scan_oracle(monkeypatch):
    """The report is the same when the base group comes from a scan of the
    curve's points, the group it derives over F_2^(2n) is the one a scan of
    the lifted curve finds, and each catalog it prints counts, length by
    length, the cycles through the x-coordinates that lift to the curve,
    over the base field and over F_2^(2n), whose line only this test lists."""
    cases = [(n, "g", "g^3") for n in range(3, 9)]
    cases += [(n, "g^3", "g") for n in (4, 5, 6)]  # t = 0: E(F_q^2) = (Z/s)^2
    for degree, a, b in cases:
        args = parse(["curve", "--degree", str(degree), "--a", a, "--b", b,
                      "--format", "json"])
        fast = run(args)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "group_structure", sampled_group_structure)
            assert run(args) == fast, (degree, a, b)
        field = BinaryField(degree)
        mp = MapSpec("theta", parse_element(field, a), parse_element(field, b), 2)
        emb = extension_of(field, 2)
        curve = curve_from_map(mp.a, mp.b)
        big = sampled_group_structure(curve.extended(emb))
        doc = json.loads(fast)
        assert doc["curve"]["extension"] == {
            "order": big.order, "n1": big.n1, "n2": big.n2}, (degree, a, b)
        lines = ((curve, mp),
                 (curve.extended(emb), MapSpec("theta", emb(mp.a), emb(mp.b), 2)))
        rows = doc["catalog"]
        for crv, line in lines:
            want = Counter()
            for row in rows:
                if row["over"] == crv.field.degree:
                    want[row["length"]] += row["cycle_count"]
            got = lifting_cycle_counts(line.cycle_structure(), crv)
            assert got == want, (degree, a, b, crv.field.degree)


def test_curve_exits_one_when_the_twist_catalogs_disagree(monkeypatch, capsys):
    def off_by_one(curve_catalog, twist_catalog):
        counts = line_cycle_counts(curve_catalog, twist_catalog)
        return {**counts, 1: counts[1] + 1}

    monkeypatch.setattr(cli, "line_cycle_counts", off_by_one)
    code, out, err = invoke(["curve", "--degree", "5", "--a", "g",
                             "--b", "g^3"], capsys)
    assert (code, out) == (EXIT_INVARIANT, "")
    assert "catalogs of the curve and its twist predict" in err


def test_curve_exits_three_when_a_catalog_exceeds_its_budget(monkeypatch,
                                                              capsys):
    # the catalog of E(F_{2^10}) = Z/1025 has D(1025) = 6 rows
    monkeypatch.setattr(curves, "POINT_LIMIT", 5)
    code, out, err = invoke(["curve", "--degree", "5", "--a", "g",
                             "--b", "g^3"], capsys)
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == ("f2dyn: resource limit: a catalog of 6 rows exceeds the "
                   "budget of 5\n")


def test_conjugate_transcript(capsys):
    code, out, _ = invoke(
        ["conjugate", "--degree", "5", "--a", "g", "--b", "g^2",
         "--format", "json"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    conj = doc["conjugacy"]
    assert conj["relative_degree"] == 1
    assert conj["c"]["g_exp"] == 12
    assert (conj["c1"]["g_exp"], conj["c2"]["g_exp"], conj["c3"]["g_exp"]) \
        == (1, 3, 8)
    assert conj["system_holds"] is True
    assert conj["verified_points"] == 33
    assert conj["theorem_count"] == 3
    assert conj["fixed_point_count"] == 3
    assert sorted(conj["fixed_points"]) == ["g^14", "g^24", "g^28"]
    assert conj["normal_form_fixed_points"] == ["0", "g^27", "inf"]
    assert conj["tau_images"] == {"0": "g^24", "g^27": "g^14", "inf": "g^28"}


def test_conjugate_requires_tau_to_carry_the_fixed_points(monkeypatch, capsys):
    """The tau images of the normal form's fixed points must be the map's
    fixed points: with tau replaced by the identity the report exits 1 and
    prints nothing."""
    argv = ["conjugate", "--degree", "5", "--a", "g", "--b", "g^2"]
    assert invoke(argv, capsys)[0] == EXIT_OK
    monkeypatch.setattr(f2dyn.TauMap, "eval", lambda self, p: p)
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (EXIT_INVARIANT, "")
    assert "tau maps the normal form's fixed points to ['0', 'g^27', 'inf']" \
        in err


def test_conjugate_verifies_a_degree_60_line_exactly(capsys):
    code, out, err = invoke(
        ["conjugate", "--degree", "12", "--map", "psi", "--a", "0xe9f",
         "--b", "0xfc7", "--k", "2", "--format", "json"], capsys)
    assert (code, err) == (EXIT_OK, "")
    conj = json.loads(out)["conjugacy"]
    assert conj["extension_degree"] == 60
    assert conj["verified_points"] == (1 << 60) + 1


def test_conjugate_fixed_points_match_a_scan_of_the_line():
    rng = random.Random(61)
    compared = 0
    for _ in range(40):
        degree = rng.randrange(1, 7)
        f = BinaryField(degree)
        a = f.element(rng.randrange(1, f.order))
        b = f.element(rng.randrange(f.order))
        k = rng.randrange(1, 2 * degree + 1)
        args = parse(["conjugate", "--degree", str(degree), "--a", a.hex,
                      "--b", b.hex, "--k", str(k), "--format", "json"])
        try:
            conj = json.loads(run(args))["conjugacy"]
        except ResourceLimitError:  # no conjugation within the search bound
            continue
        # psi(inf) = 0, and x is fixed when a*x^(2^k) + b = 1/x
        scan = [point_label(ProjPoint.finite(x))
                for x in map(f.element, range(1, f.order))
                if (a * x.frob(k) + b) * x == f.one]
        assert conj["fixed_points"] == scan, (degree, a, b, k)
        assert conj["fixed_point_count"] == len(scan)
        compared += 1
    assert compared >= 30, compared


def test_conjugate_over_a_degree_20_field_is_fast(capsys):
    start = time.perf_counter()
    code, _, err = invoke(["conjugate", "--degree", "20", "--map", "psi",
                           "--a", "g", "--b", "g^3", "--k", "2"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert time.perf_counter() - start < 2.0


def test_conjugate_with_a_large_twist_is_sized(capsys):
    """k = 40 over F_64 reaches q = 2^40 in its extensions; the c2
    eigenlines never list 2^s coefficients, so the command answers over
    F_2^48 at once instead of running out of memory."""
    start = time.perf_counter()
    code, out, err = invoke(["conjugate", "--degree", "6", "--map", "psi",
                             "--a", "0x3f", "--b", "0x36", "--k", "40",
                             "--format", "json"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (EXIT_OK, "")
    conj = json.loads(out)["conjugacy"]
    assert conj["extension_degree"] == 48
    assert conj["system_holds"] and conj["verified_points"] == (1 << 48) + 1


def test_bluher_sweep_and_single_value(capsys):
    code, out, _ = invoke(
        ["bluher", "--degree", "3", "--k", "2", "--format", "json"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    counts = doc["root_counts"]
    assert counts["polynomial"] == "x^5 + x + a"
    assert counts["values_swept"] == 7
    assert counts["histogram"] == {"0": 3, "1": 3, "3": 1}
    assert counts["counts"]["g^0"] == 3
    code, out, _ = invoke(
        ["bluher", "--degree", "3", "--k", "2", "--a", "g^3",
         "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["root_counts"]["values_swept"] == 1
    assert doc["root_counts"]["counts"] == {"g^3": 1}


# SHA-256 of the stdout printed for these runs when every sweep histogram
# still came from a pass over the field (a per-a field scan up to degree 9,
# the image pass from degree 10); Bluher's theorem, the pass that lists
# small fields and the eigenline count must reproduce every byte.
BLUHER_DIGESTS = {
    "--degree 3 --k 2 --format json":
        "e53014fcf01dee464d23eeaa7f50a2dd15e16fb1341a9e14a28d1d8c49cb9217",
    "--degree 8 --k 2":
        "96d989c6adf4b1e75654e89e5648c1c1e6152f4bd2b96b3564346b7193dc9a52",
    "--degree 8 --k 2 --format json":
        "fae7af505441bc7385311c45f98a1af07cc57d28f2aaf8512ea02dcfa81194c9",
    "--degree 9 --k 2":
        "7651f7cd8780de1eccda7870357a8187ad27ab6a725f1765190448b5e81e2167",
    "--degree 9 --k 2 --format json":
        "e32c37c6941925757a1ae67c2115f137a1a55df8e61460ae5048cfa7acec66ca",
    "--degree 8 --k 3":
        "b83eb3ddd30b166bb6b4e77551a381b2d9f9aa25fa5db00952d2585951d6ea25",
    "--degree 9 --a g^5":
        "d709f96a1b11e4a34bed5fbd7e90a259c586cd711b2356ffaf143560caabb310",
    "--degree 10 --k 2":
        "19b84b7ae344dc6265bb5eaf55570bf32e947981b514a704e036425675c1ced3",
    "--degree 10 --k 2 --format json":
        "52648e1f7c0b2cba05e411a765b28de3cf3afe0157a51878ce432bf097c63224",
    "--degree 10 --k 3":
        "273c36ccbe2fadfbef63c2823ba3f9adc53d8ce509bd548d47cf47b933e01174",
    "--degree 10 --k 3 --format json":
        "b83163c3d99d01e41ca170064c01506a53824faae1fa6506a7be1744a7828c4b",
    "--degree 12 --k 2":
        "80be4d77851b8aa61a870c6064c819bdffbef99aea8aee815a4ea3ffc69ae27b",
    "--degree 12 --k 2 --format json":
        "34f63ec245fc7a23b0b77f4abc893c3dde5a26fe057977a6af79dacf3176103a",
    "--degree 12 --k 3":
        "e49fe1126b3210956e6e186c0c1273397d2fec701b2c8fcc432c2c97a624eda5",
    "--degree 12 --k 3 --format json":
        "8063d2b65b5b15038ecbbbffee8361970be5bb600fee9c9ddd48cb9a08330a25",
    "--degree 16 --k 2":
        "64dfd1977f1f91f37ca3cf34ec9f6026623ab34fae430bf489c616a68ff40207",
    "--degree 16 --k 2 --format json":
        "82db98c0dc58efa6df4ed90d9810c8b338fb83eb453530e3b37adcac912e60ff",
    "--degree 16 --k 3":
        "f3c96bb1364bbd930980fe711425a32e6c35ab2a819ec4f4cce0073a776c318c",
    "--degree 16 --k 3 --format json":
        "fa23e478f779669d8a43a20e66613d70e4786e34e34fd55b8c0b517a3d6ea181",
    "--degree 20 --k 2":
        "16f5643ff583b178f498f60da919c1e3d0deac157a1cfb7511a4433f994e2a21",
    "--degree 20 --k 2 --format json":
        "ccbc270ab3f77244dc84b91b8d2c12947f9892e17c9c5f43f533f27534536f0e",
    "--degree 20 --k 3":
        "d3401fe5924269559cd17c032af906743dbcd8bd2857c6880b1af992cad4a708",
    "--degree 20 --k 3 --format json":
        "25728ee9f7ccf2da3eabec503392adfb95423c6c007ca25c75f15bf99c7e7d32",
}


def test_bluher_output_is_unchanged(capsys):
    # the README example, in full
    code, out, err = invoke(["bluher", "--degree", "3", "--k", "2"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        'input: {"command": "bluher", "degree": 3, "format": "text", "k": 2}\n'
        "allowed_counts: [0, 1, 2, 3]\n"
        "counts: {'g^0': 3, 'g^1': 0, 'g^3': 1, 'g^2': 0, 'g^6': 1, "
        "'g^4': 0, 'g^5': 1}\n"
        "histogram: {'0': 3, '1': 3, '3': 1}\n"
        "polynomial: x^5 + x + a\n"
        "values_swept: 7\n")
    for args, digest in BLUHER_DIGESTS.items():
        code, out, err = invoke(["bluher"] + args.split(), capsys)
        assert (code, err) == (EXIT_OK, ""), args
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_main_leaves_the_callers_freeze_alone(capsys):
    """main freezes the collector's view for one command only when nothing
    is frozen, so what a caller froze is still frozen when it returns."""
    argv = ["bluher", "--degree", "3", "--k", "2"]
    assert main(argv) == EXIT_OK and gc.get_freeze_count() == 0
    capsys.readouterr()
    gc.collect()  # what is frozen is then alive, and outlives the call
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert main(argv) == EXIT_OK and gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
        capsys.readouterr()


def test_bluher_is_sized_and_reaches_wide_fields(capsys):
    # a sweep's histogram is Bluher's theorem at every degree, so fields far
    # past any pass over their elements answer at once, with no per-a list
    for n, k in ((21, 2), (64, 6)):
        start = time.perf_counter()
        code, out, err = invoke(["bluher", "--degree", str(n), "--k", str(k),
                                 "--format", "json"], capsys)
        assert time.perf_counter() - start < 1.0, n
        assert (code, err) == (EXIT_OK, ""), n
        counts = json.loads(out)["root_counts"]
        assert counts["histogram"] == {
            str(c): m for c, m in bluher_distribution(k, n).items() if m}
        assert counts["values_swept"] == (1 << n) - 1
        assert "counts" not in counts
    for argv, want in ((["--degree", "40", "--a", "g"], {"5": 1}),
                       (["--degree", "64", "--a", "0x3"], {"2": 1})):
        start = time.perf_counter()
        code, out, err = invoke(["bluher", "--format", "json"] + argv, capsys)
        assert (code, err) == (EXIT_OK, ""), argv
        assert json.loads(out)["root_counts"]["histogram"] == want
        assert time.perf_counter() - start < 2.0, argv


def test_bluher_runs_the_pass_only_where_it_lists_counts(monkeypatch, capsys):
    def no_pass(k, field):
        raise AssertionError(f"image pass over F_2^{field.degree}")

    monkeypatch.setattr(cli, "bluher_counts", no_pass)
    # 512 elements: no per-a listing, so the theorem alone answers, byte
    # for byte as the pass did
    code, out, err = invoke(["bluher", "--degree", "9"], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert "\ncounts: " not in out
    digest = BLUHER_DIGESTS["--degree 9 --k 2"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # 256 elements: the listing comes from the pass
    with pytest.raises(AssertionError, match="F_2\\^8"):
        main(["bluher", "--degree", "8"])
    capsys.readouterr()


def test_bluher_sweep_builds_no_field_it_does_not_read(monkeypatch, capsys):
    """A sweep past the listing reads the degree and k alone, so no default
    modulus is searched for (9.5 s at degree 2000); a --modulus, a --a and
    a degree below 1 still go through the field and are checked."""
    def no_search(n):
        raise AssertionError(f"modulus search at degree {n}")

    gf2x.default_modulus.cache_clear()
    monkeypatch.setattr(gf2x, "smallest_irreducible", no_search)
    start = time.perf_counter()
    code, out, err = invoke(["bluher", "--degree", "2000", "--k", "2",
                             "--format", "json"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["root_counts"]["values_swept"] == (1 << 2000) - 1
    for argv, message in (
            (["--degree", "12", "--modulus", "0x1001"],
             "modulus 0x1001 is reducible"),
            (["--degree", "0"], "--degree must be a positive integer"),
            (["--degree", "-3", "--k", "0"],
             "--degree must be a positive integer")):
        code, out, err = invoke(["bluher", *argv], capsys)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert err == f"f2dyn: error: {message}\n", argv
    with pytest.raises(AssertionError, match="degree 2000"):
        main(["bluher", "--degree", "2000", "--a", "0x3"])
    assert gf2x.default_modulus.cache_info().currsize == 0


def test_bluher_sweep_stops_where_its_counts_stop_printing(monkeypatch,
                                                          capsys):
    """values_swept = 2^n - 1 has 4,300 digits at SWEEP_DEGREE_LIMIT, the
    most Python prints by default: that sweep answers, and a wider one exits
    3 before any field or 2^n-sized count is built.  One --a value is no
    sweep, so it passes the bound to the field (no modulus search here)."""
    limit = cli.SWEEP_DEGREE_LIMIT
    code, out, err = invoke(["bluher", "--degree", str(limit), "--k", "2"],
                            capsys)
    assert (code, err) == (EXIT_OK, "")
    [swept] = [line for line in out.splitlines()
               if line.startswith("values_swept: ")]
    assert len(swept) - len("values_swept: ") == 4300
    # one degree more, and 2^n - 1 needs a 4,301st digit
    assert int((limit + 1) * math.log10(2)) + 1 == 4301

    def unreachable(*args):
        raise AssertionError("built past the sweep's bound")

    monkeypatch.setattr(cli, "bluher_distribution", unreachable)
    monkeypatch.setattr(cli, "BinaryField", unreachable)
    for argv in (["--degree", str(limit + 1), "--k", "2"],
                 ["--degree", "20000", "--k", "2", "--format", "json"],
                 ["--degree", "20000", "--modulus", "0x3", "--k", "2"],
                 ["--degree", str(10**9), "--k", "3"]):
        code, out, err = invoke(["bluher", *argv], capsys)
        assert (code, out) == (EXIT_RESOURCE, ""), argv
        assert err.startswith("f2dyn: resource limit: a sweep of degree ")
    with pytest.raises(AssertionError, match="sweep's bound"):
        main(["bluher", "--degree", "20000", "--k", "2", "--a", "0x3"])


def test_negative_modulus_exits_two_at_once():
    """A negative --modulus fails the degree test; it never reaches the
    irreducibility test, whose gcd does not return on a negative divisor.
    Each line runs in a process of its own, so a hang fails the test."""
    src = str(Path(f2dyn.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import f2dyn.cli; "
            "sys.exit(f2dyn.cli.main(sys.argv[2:]))")
    for argv in (["bluher", "--degree", "3", "--modulus=-0xb", "--k", "1"],
                 ["conjugate", "--degree", "3", "--modulus=-0xb", "--a", "g",
                  "--b", "g", "--k", "1"],
                 ["orbits", "--degree", "1", "--modulus=-0x3", "--a", "0x1",
                  "--b", "0x0"]):
        done = subprocess.run([sys.executable, "-c", code, src, *argv],
                              capture_output=True, text=True, timeout=10)
        assert (done.returncode, done.stdout) == (EXIT_USAGE, ""), argv
        assert done.stderr == ("f2dyn: error: modulus degree does not match "
                               "field degree\n"), argv


def test_bluher_label_of_a_huge_exponent(capsys):
    # 2^63 + 1 still has 19 decimal digits; from k = 64 on the exponent is
    # symbolic, so a k of thousands of bits neither floods the output nor
    # hits Python's limit on int-to-string conversion
    for k, label in ((63, "x^9223372036854775809 + x + a"),
                     (64, "x^(2^64+1) + x + a"),
                     (20000, "x^(2^20000+1) + x + a")):
        for extra in ([], ["--a", "g"]):
            code, out, err = invoke(["bluher", "--degree", "3", "--k", str(k),
                                     "--format", "json"] + extra, capsys)
            assert (code, err) == (EXIT_OK, ""), (k, extra)
            assert json.loads(out)["root_counts"]["polynomial"] == label


def test_selftest_quick_passes(capsys):
    code, out, _ = invoke(["selftest", "--quick"], capsys)
    assert code == EXIT_OK
    assert out.count("ok ") == 4


def test_selftest_checks_the_extension_group_that_curve_prints(monkeypatch,
                                                               capsys):
    """With E(F_{q^2}) derived as #E^2 points instead of #E*#E', the
    quick suite fails, as curve reports that group."""
    def squared(gs, q):
        twist, _ = curves.twist_and_extension(gs, q)
        return twist, GroupStructure(gs.order ** 2, 1, gs.order ** 2)

    monkeypatch.setattr(selftest, "twist_and_extension", squared)
    code, out, _ = invoke(["selftest", "--quick"], capsys)
    assert code == EXIT_INVARIANT
    assert out.count("FAIL") == 3 and "derived extension group" in out


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Start-up cost: importing the command line, with site's imports out
    of the way (-S), loads none of these modules, and neither does a
    canonical command line, which is read without argparse."""
    src = str(Path(f2dyn.__file__).resolve().parents[1])
    avoided = "{'dataclasses', 'inspect', 'typing', 'argparse', 'gettext', 'locale'}"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import f2dyn.cli; "
            f"print(sorted({avoided} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import f2dyn.cli; "
            "code = f2dyn.cli.main(sys.argv[2:]); "
            f"print(code, sorted({avoided} & set(sys.modules)), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-S", "-c", code, src, "curve",
                           "--degree", "5", "--a", "g", "--b", "g^3"],
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.startswith("input: ")
    assert (done.returncode, done.stderr) == (0, "0 []\n")


# -- the canonical-argv reader against argparse ---------------------------------------


def canonical_corpus(seed: int = 20) -> list[list[str]]:
    """Canonical command lines of every report command: each subset of its
    optional options, each in every position of a shuffled order (all
    rotations), with every choice and hex moduli in several spellings."""
    rng = random.Random(seed)
    values = {
        "--degree": lambda: str(rng.randrange(0, 40)),
        "--modulus": lambda: rng.choice(["0x25", "25", "0X11B", "11b", "0x0"]),
        "--a": lambda: rng.choice(["g", f"g^{rng.randrange(-9, 99)}",
                                   hex(rng.randrange(1 << 16)), "zz", ""]),
        "--b": lambda: rng.choice(["g^3", "0x0", "1f", "G^-2"]),
        "--k": lambda: str(rng.randrange(0, 70)),
    }
    corpus = []
    for command, (_, _, options) in cli._COMMANDS.items():
        optional = [flag for flag, spec in options if not spec.get("required")]
        for mask in range(1 << len(optional)):
            flags = [flag for flag, spec in options if spec.get("required")
                     or mask >> optional.index(flag) & 1]
            rng.shuffle(flags)
            for turn in range(len(flags)):
                argv = [command]
                for flag in flags[turn:] + flags[:turn]:
                    choices = dict(options)[flag].get("choices")
                    argv += [flag, rng.choice(choices) if choices
                             else values[flag]()]
                corpus.append(argv)
    return corpus


def test_canonical_argv_is_read_as_argparse_reads_it():
    parser = build_parser()
    corpus = canonical_corpus()
    positions, values = set(), set()
    for argv in corpus:
        fast = cli._read_canonical(argv)
        assert fast is not None, argv
        assert vars(fast) == vars(parser.parse_args(argv)), argv
        for i in range(1, len(argv), 2):
            positions.add((argv[0], argv[i], i // 2))
            values.add((argv[0], argv[i], argv[i + 1]))
    for command, (_, _, options) in cli._COMMANDS.items():
        for flag, spec in options:
            for position in range(len(options)):
                assert (command, flag, position) in positions
            for choice in spec.get("choices", ()):
                assert (command, flag, choice) in values
    assert any("--modulus" in argv for argv in corpus)


@pytest.mark.parametrize("argv, want", [
    (["orbits", "-h"], EXIT_OK),
    (["orbits", "--deg", "5", "--a", "g", "--b", "g^3"], EXIT_OK),
    (["orbits", "--degree", "5", "--k=3", "--a", "g", "--b", "g^3"], EXIT_OK),
    (["orbits", "--degree", "5", "--k", "3", "--a", "g", "--b", "g^3",
      "--k", "4"], EXIT_OK),
    (["orbits", "--degree", "5", "--k", "-1", "--a", "g", "--b", "g^3"],
     EXIT_USAGE),
    (["orbits", "--degree", "5", "--a", "g", "--b", "g^3", "--style", "fancy"],
     EXIT_USAGE),
    (["orbits", "--degree", "5", "--b", "g^3"], EXIT_USAGE),
    (["curve", "--degree", "5", "--a", "g", "--b", "g^3", "--format", "dot"],
     EXIT_USAGE),
    (["orbits", "--degree", "5", "--modulus", "zz", "--a", "g", "--b", "g"],
     EXIT_USAGE),
])
def test_other_argv_is_left_to_argparse(argv, want, monkeypatch, capsys):
    """The reader declines, and main prints what argparse alone makes of
    the command line: the same exit code, stdout and stderr."""
    assert cli._read_canonical(argv) is None

    def outcome():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    got = outcome()
    monkeypatch.setattr(cli, "_read_canonical", lambda argv: None)
    assert outcome() == got
    assert got[0] == want
    assert (got[2] == "") == (want == EXIT_OK)


@pytest.mark.parametrize("canonical, other", [
    ("orbits --degree 5 --k 3 --a g --b g^3",
     "orbits --degree 5 --k=3 --a g --b g^3"),
    ("orbits --degree 5 --a g --b g^3", "orbits --deg 5 --a g --b g^3"),
    ("orbits --degree 5 --modulus 0x25 --a g --b g^3",
     "orbits --degree 5 --modulus 25 --a g --b g^3"),
    ("curve --degree 5 --modulus 0x25 --a g --b g^3",
     "curve --deg 5 --modulus=25 --a g --b g^3"),
    ("bluher --degree 5 --k 3", "bluher --deg 5 --k=3"),
    ("bluher --degree 5 --k 3 --a g^2", "bluher --deg 5 --k=3 --a=g^2"),
    ("conjugate --degree 5 --map psi --a g --b g^2",
     "conjugate --deg 5 --map=psi --a g --b g^2"),
])
def test_input_echo_is_the_parsed_command_line(canonical, other, capsys):
    """The `input:` line echoes every option the namespace holds, whichever
    parser read the command line: no None values, --map as `map` and the
    modulus in hex."""
    echoes = []
    for line in (canonical, other):
        code, out, _ = invoke(line.split(), capsys)
        assert code == EXIT_OK, line
        first = out.splitlines()[0]
        assert first.startswith("input: ")
        echoes.append(first)
    assert echoes[0] == echoes[1]
    echo = json.loads(echoes[0].removeprefix("input: "))
    assert None not in echo.values()
    assert echo["command"] == canonical.split()[0]
    assert echo.get("modulus", "0x25") == "0x25"
    assert ("map" in echo) == (echo["command"] != "bluher")
    assert ("a" in echo) == ("--a" in canonical)


def test_usage_errors_exit_two(capsys):
    bad_lines = [
        # zero coefficient a
        (["orbits", "--degree", "5", "--a", "0x0", "--b", "g"],
         "coefficient a must be nonzero"),
        # malformed element
        (["orbits", "--degree", "5", "--a", "g^x", "--b", "g"],
         "malformed element 'g^x'"),
        # element out of range for the field
        (["orbits", "--degree", "3", "--a", "0xff", "--b", "g"],
         "encoding 0xff out of range for BinaryField(3, 0xb)"),
        # conjugation of a theta map
        (["conjugate", "--degree", "5", "--map", "theta", "--a", "g",
          "--b", "g^2"], "conjugation applies to psi maps (pass --map psi)"),
        # curve analysis needs the quartic shape
        (["curve", "--degree", "5", "--a", "g", "--b", "g^3", "--k", "3"],
         "curve analysis applies to theta maps with k=2 "
         "(the duplication shape)"),
        # reducible modulus
        (["orbits", "--degree", "3", "--modulus", "0x9", "--a", "g",
          "--b", "g"], "modulus 0x9 is reducible"),
        # psi needs k >= 1
        (["orbits", "--degree", "5", "--map", "psi", "--a", "g", "--b", "g",
          "--k", "0"], "k must be >= 0 for theta and >= 1 for psi"),
        # bluher with a = 0
        (["bluher", "--degree", "3", "--a", "0x0"], "a must be nonzero"),
    ]
    for argv, message in bad_lines:
        code, out, err = invoke(argv, capsys)
        assert code == EXIT_USAGE, argv
        assert out == ""
        assert err == f"f2dyn: error: {message}\n"


def test_malformed_modulus_exits_two_with_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["orbits", "--degree", "5", "--modulus", "zz", "--a", "g",
              "--b", "g"])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--modulus: invalid hex value 'zz'" in err


def test_unknown_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["orbits", "--degree", "5", "--a", "g", "--b", "g",
              "--style", "fancy"])
    assert info.value.code == EXIT_USAGE
    capsys.readouterr()


def test_resource_exhaustion_exits_three(monkeypatch, capsys):
    # this reciprocal map has no conjugation data within the search bound
    code, out, err = invoke(
        ["conjugate", "--degree", "3", "--a", "0x2", "--b", "0x2",
         "--k", "3"], capsys)
    assert code == EXIT_RESOURCE
    assert "resource" in err
    # g is found from the primes of 2^101 - 1, which rho splits in 6.8
    # million steps: past a budget lowered to 10,000 the command exits 3
    monkeypatch.setattr(gf2x, "RHO_STEP_LIMIT", 10_000)
    code, out, err = invoke(
        ["bluher", "--degree", "101", "--k", "2", "--a", "g"], capsys)
    assert (code, out) == (EXIT_RESOURCE, "") and "Pollard rho" in err


@pytest.mark.parametrize("command", ["orbits", "curve"])
def test_line_listing_above_the_tables_exits_three_at_once(command, capsys):
    """A cycle listing needs discrete-log tables, so F_2^40 to F_2^20000 are
    refused on their degree alone: before any scan of the line or the curve
    starts, before g is parsed (over F_2^500 that would factorize 2^500 - 1
    for seconds) and before the field is built, so no default modulus is
    searched for (10 s at degree 2000) and a bad --modulus exits 3 too."""
    gf2x.default_modulus.cache_clear()
    for tail in (["--degree", "40", "--a", "g"],
                 ["--degree", "500", "--a", "g"],
                 ["--degree", "500", "--a", "zz"],
                 ["--degree", "2000", "--a", "g"],
                 ["--degree", "20000", "--a", "g"],
                 ["--degree", "20000", "--modulus", "0x3", "--a", "g"]):
        start = time.perf_counter()
        code, out, err = invoke([command, *tail, "--b", "g^3"], capsys)
        assert time.perf_counter() - start < 1.0, tail
        assert code == EXIT_RESOURCE and out == "", tail
        assert "2^16" in err
    assert gf2x.default_modulus.cache_info().currsize == 0


def test_run_dispatches_by_command():
    out = run(parse(["orbits", "--degree", "5", "--a", "g", "--b", "g^3"]))
    assert "cycles: 1 of length 1, 1 of length 2, 3 of length 10" in out
