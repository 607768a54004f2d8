"""Built-in verification suite.

Nine end-to-end checks: four reproduce the documented worked examples over
F_32 exactly, five sweep structural guarantees (orbit-length prediction,
closed-form iteration, the fixed-point count theorem, Bluher root counts,
and assorted invariants) across small fields.  CHECKS is their one
definition: `run` (the `f2dyn selftest` command) prints one pass/fail line
per check, and tests/test_acceptance.py runs the same table under pytest.
Both time each check against its wall-clock budget through `judge`.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter, defaultdict, namedtuple

from .conjugacy import (ConjugacyData, TauMap, bluher_counts,
                        bluher_root_count, fixed_point_count,
                        kernel_c2_candidates, solve_conjugation,
                        verify_conjugation)
from .curves import (CurveSpec, GroupStructure, curve_from_map,
                     cycle_catalog, group_structure, lift_x, point_count,
                     predict_orbit_length, twist_and_extension)
from .fields import (BinaryField, ExtensionRootCounter, ResourceLimitError,
                     SubsetXorSolver, extension_of)
from .maps import (MapSpec, ProjPoint, QuarticReduction, closed_form,
                   reduce_to_quartic)
from .reporting import cycle_labels


class CheckFailure(AssertionError):
    """A selftest check found a value disagreeing with its documented one."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _f32() -> BinaryField:
    field = BinaryField(5)
    _require(field.modulus == 0b100101, "F_32 modulus is not x^5 + x^2 + 1")
    return field


def _labels(tokens) -> list[str]:
    return [t if isinstance(t, str) else f"g^{t}" for t in tokens]


def _extension_group(curve: CurveSpec, gs: GroupStructure) -> GroupStructure:
    """E(F_{q^2}) by the Arf count over the quadratic extension, required to
    equal the group that `curve` reports: twist_and_extension's, derived
    from the base group gs with no field built."""
    field = curve.field
    counted = group_structure(curve.extended(extension_of(field, 2)))
    derived = twist_and_extension(gs, field.order)[1]
    _require(derived == counted,
             f"derived extension group {derived} != Arf count {counted}")
    return counted


def _line_images(mp) -> list[int]:
    """The pointwise oracle: the image of every point encoding of the line,
    0..order (order = infinity), under a map with a pair (MapSpec, TauMap).
    Selftest calls it on its own fields only, of at most 2^8 elements."""
    pair = mp.pair
    return [pair.eval_int(i) for i in range(pair.field.order + 1)]


# The three cycle figures over F_32, as g-exponent labels ("0" the zero
# element, "inf" the point at infinity), in canonical order.
THETA_G_G3_2_CYCLES = [
    [0, 6, 10, 25, 5, 4, 16, "0", 3, 7],
    [1, 8, 20, 12, 27, 17, 13, 14, 15, 9],
    [2, 30, 24, 21, 11, 22, 18, 23, 29, 28],
    [19, 26],
    ["inf"],
]
PSI_G_G2_2_CYCLES = [
    [0, 12, 20, 30, 1],
    [2, 7, 23, 26, 25],
    [3, 10, 9, 19, 15],
    [4, 5, 18, 13, 21],
    [6, 17, 27, 16, 11],
    [8, "inf", "0", 29, 22],
    [14],
    [24],
    [28],
]
SIGMA_G7_G3_3_CYCLES = [
    [0, 13, 27, 1, 26],
    [2, 11, 20, 19, 21],
    [3, 29, 14, 15, "0"],
    [4, 5, 17, 12, 25],
    [6, 28, 22, 24, 7],
    [8, 30, 9, 16, 23],
    [10],
    [18],
    ["inf"],
]


def check_quartic_cycle_figure() -> str:
    """theta_{g,g^3,2} over F_32: three 10-cycles, the 2-cycle g^19 <-> g^26,
    and the fixed point at infinity, matching the documented figure."""
    field = _f32()
    g = field.primitive_element()
    _require(g + g**3 == g**6, "g + g^3 != g^6 in F_32")
    _require(g**25 + g**3 == g**10, "g^25 + g^3 != g^10 in F_32")
    # the orbit of g^0 walked with field operations alone
    seen, x = [], field.one
    for _ in range(10):
        seen.append(x)
        x = g * x.frob(2) + g**3
    _require(x == field.one and seen[1:3] == [g**6, g**10],
             "the orbit of g^0 is not the documented 10-cycle")
    mp = MapSpec("theta", g, g**3, 2)
    cs = mp.cycle_structure()
    _require(cs.summary == {1: 1, 2: 1, 10: 3},
             f"summary {cs.summary} != {{1: 1, 2: 1, 10: 3}}")
    got = cycle_labels(cs)
    want = [_labels(c) for c in THETA_G_G3_2_CYCLES]
    _require(got == want, f"cycle figure mismatch: {got}")
    _require(got[0][:3] == ["g^0", "g^6", "g^10"], "first cycle start")
    _require(set(got[3]) == {"g^19", "g^26"}, "2-cycle pair")
    _require(got[4] == ["inf"], "fixed point is not infinity")
    for x, y in ((g**19, g**26), (g**26, g**19)):
        _require(mp.eval(ProjPoint.finite(x)) == ProjPoint.finite(y),
                 f"theta({x.hex}) != {y.hex}")
    inf = ProjPoint.infinity(field)
    _require(mp.eval(inf) == inf, "theta moves infinity")
    return "summary {1:1, 2:1, 10:3}, all five cycles exact, spot checks hold"


def check_point_counts_and_catalog() -> str:
    """The curve behind theta_{g,g^3,2}: 41 points over F_32, 1025 over
    F_{2^10}, and the documented catalog rows."""
    field = _f32()
    g = field.primitive_element()
    curve = curve_from_map(g, g**3)
    _require((curve.a1, curve.a2) == (g**15, g), "curve coefficients")
    _require(point_count(curve) == 41, "base point count != 41")
    gs = group_structure(curve)
    _require((gs.n1, gs.n2) == (1, 41), f"base structure {gs}")
    rows = {(e.m1, e.m2): e for e in cycle_catalog(gs)}
    top = rows[(1, 41)]
    _require((top.d1, top.d2) == (1, 1) and top.point_count == 40
             and top.length == 10 and top.cycle_count == 2,
             f"full-order row {top}")

    gs2 = _extension_group(curve, gs)
    _require(gs2.order == 1025, "extension count != 1025")
    _require((gs2.n1, gs2.n2) == (1, 1025), f"extension structure {gs2}")
    rows2 = {(e.d1, e.d2): e for e in cycle_catalog(gs2)}
    _require(rows2[(1, 205)].length == 2, "divisor 205 length != 2")
    _require(rows2[(1, 25)].length == 10, "divisor 25 length != 10")
    return "counts 41/1025; catalog rows (1,41)->2x10, 205->2, 25->10"


def check_quartic_reduction_and_curve() -> str:
    """theta_{g^7,g^3,3} reduces to the quartic pair (c, d) = (g^3, g^15);
    the associated curve has order 33 and structure (33, 33) upstairs, and
    both maps have the documented cycles."""
    field = _f32()
    g = field.primitive_element()
    red = reduce_to_quartic(g**7, g**3, 3)
    _require(red.verify(), "solver's quartic reduction fails to verify")
    _require((red.c, red.d) == (g**3, g**15),
             f"solver found the pair ({red.c.hex}, {red.d.hex})")
    documented = QuarticReduction(source_a=g**7, source_b=g**3, source_k=3,
                                  c=g**3, d=g**15,
                                  embedding=extension_of(field, 1))
    _require(documented.verify(), "pair (g^3, g^15) does not validate")
    sigma = MapSpec("theta", g**7, g**3, 3)
    step = documented.quartic_map()
    s, t = _line_images(sigma), _line_images(step)
    _require(all(t[t[t[i]]] == s[s[i]] for i in range(field.order + 1)),
             "three quartic steps differ from sigma twice at some point")

    curve = curve_from_map(g**3, g**15)
    _require((curve.a1, curve.a2) == (g**14, g**6), "curve coefficients")
    _require(point_count(curve) == 33, "order != 33 over F_32")
    gs = group_structure(curve)
    _require((gs.order, gs.n1, gs.n2) == (33, 1, 33), f"base structure {gs}")
    gs2 = _extension_group(curve, gs)
    _require((gs2.n1, gs2.n2) == (33, 33), f"extension structure {gs2}")
    catalog = cycle_catalog(gs)
    realized = {e.length for e in catalog}
    possible = {m for e in catalog for m in e.possible_lengths}
    _require(realized == {1, 5}, f"realized lengths {realized}")
    _require(possible == {1, 2, 5, 10}, f"candidate lengths {possible}")

    cs = sigma.cycle_structure()
    _require(cs.summary == {1: 3, 5: 6}, f"sigma summary {cs.summary}")
    got = cycle_labels(cs)
    _require(got == [_labels(c) for c in SIGMA_G7_G3_3_CYCLES],
             "sigma cycle figure mismatch")
    quartic = cycle_labels(step.cycle_structure())
    _require(Counter(map(len, quartic)) == {1: 3, 5: 6},
             "quartic map is not six 5-cycles and three fixed points")
    for name, labels in (("sigma", got), ("quartic", quartic)):
        fixed = {c[0] for c in labels if len(c) == 1}
        _require(fixed == {"g^10", "g^18", "inf"},
                 f"{name} fixed points {fixed}")
    return ("pair (g^3, g^15) validates; curve 33/(33,33); "
            "lengths {1,5}/{1,2,5,10}; both maps six 5-cycles")


def check_conjugation_worked_example() -> str:
    """psi_{g,g^2,2} over F_32: the solver finds the tuple
    (c1,c2,c3,c) = (g, g^3, g^8, g^12), it validates, tau behaves as
    documented, and the fixed-point count is 3."""
    field = _f32()
    g = field.primitive_element()
    mp = MapSpec("psi", g, g**2, 2)

    documented = ConjugacyData(map=mp, embedding=extension_of(field, 1),
                               c=g**12, c1=g, c2=g**3, c3=g**8)
    _require(documented.system_holds(), "documented tuple fails the system")
    _require(verify_conjugation(documented), "documented tuple fails exactly")
    psi, tau, theta = (_line_images(f) for f in (
        mp, TauMap(documented), documented.normal_form()))
    _require(all(psi[tau[i]] == tau[theta[i]] for i in range(len(psi))),
             "documented tuple fails pointwise")

    solved = solve_conjugation(mp)
    _require((solved.c1, solved.c2, solved.c3, solved.c)
             == (g, g**3, g**8, g**12), f"solver found {solved.describe()}")
    _require(solved.system_holds() and verify_conjugation(solved),
             "solver output fails verification")

    _require(fixed_point_count(g**12, 2) == 3, "theorem count != 3")
    inf = ProjPoint.infinity(field)
    _require(mp.eval(inf) != inf, "psi fixes infinity")
    fixed = {i for i, y in enumerate(psi) if y == i}
    _require(fixed == {(g**e).bits for e in (14, 24, 28)},
             f"fixed points {sorted(fixed)} are not g^14, g^24, g^28")
    _require(cycle_labels(mp.cycle_structure())
             == [_labels(c) for c in PSI_G_G2_2_CYCLES],
             "psi cycle figure mismatch")

    tau = TauMap(solved)
    _require(tau.eval(ProjPoint.finite(field.zero)) == ProjPoint.finite(g**24),
             "tau(0) != g^24")
    _require(tau.eval(inf) == ProjPoint.finite(g**28), "tau(inf) != g^28")

    curve = curve_from_map(g**12, field.zero)
    _require((curve.a1, curve.a2) == (g**25, field.zero), "curve coefficients")
    gs = group_structure(curve)
    _require((gs.n1, gs.n2) == (1, 33), f"base structure {gs}")
    gs2 = _extension_group(curve, gs)
    _require((gs2.n1, gs2.n2) == (33, 33), f"extension structure {gs2}")
    return ("tuple (g, g^3, g^8, g^12) solved and valid at all 33 points; "
            "3 fixed points")


def check_orbit_length_prediction() -> str:
    """Every cycle length of theta_{a,b,2} equals the doubling-based
    prediction from a lifted curve point: n in 2..8, 25 random maps each,
    drawn twice (two seeds)."""
    orbits = 0
    for seed in (20260814, 424242):
        rng = random.Random(seed)
        for degree in range(2, 9):
            field = BinaryField(degree)
            exp, units = field.tables()[0], field.mult_order
            for _ in range(25):
                a = field.element(rng.randrange(1, field.order))
                b = field.element(rng.randrange(field.order))
                mp = MapSpec("theta", a, b, 2)
                curve = curve_from_map(a, b)
                for cyc in mp.cycle_structure().ranks:
                    start = cyc[0]  # rank N is 0, N + 1 infinity, else g^rank
                    if start > units:
                        p = curve.identity
                    else:
                        x0 = field.element(0 if start == units else exp[start])
                        p = min(lift_x(curve, x0), key=lambda pt: pt.y.bits)
                    predicted = predict_orbit_length(p)
                    _require(predicted == len(cyc),
                             f"n={degree} {mp.describe()}: cycle from rank "
                             f"{start} has length {len(cyc)}, predicted "
                             f"{predicted}")
                    orbits += 1
    return f"{orbits} orbit lengths predicted exactly"


def check_closed_form_iteration() -> str:
    """The closed form of the m-fold composite of x -> a*x^q + b agrees with
    naive iteration at every point: F_16 and F_32, q in {2,4,8}, m in 1..12."""
    comparisons = 0
    for degree in (4, 5):
        field = BinaryField(degree)
        order = field.order
        mul, frob = field.mul, field.frob
        frob_table = [[frob(x, j) for x in range(order)] for j in range(degree)]
        for k in (1, 2, 3):
            q = 1 << k
            step = frob_table[k % degree]
            for abits in range(1, order):
                a = field.element(abits)
                for bbits in range(order):
                    b = field.element(bbits)
                    iterate = list(range(order))
                    for m in range(1, 13):
                        iterate = [mul(abits, step[v]) ^ bbits for v in iterate]
                        cf = closed_form(a, b, q, m)
                        lead, tail = cf.lead.bits, cf.tail.bits
                        power = frob_table[(k * m) % degree]
                        for x in range(order):
                            if mul(lead, power[x]) ^ tail != iterate[x]:
                                raise CheckFailure(
                                    f"q={q} m={m} a={abits:#x} b={bbits:#x}: "
                                    f"closed form differs at x={x:#x}")
                        comparisons += order
    return f"{comparisons} point evaluations agree"


def _base_field_conjugacy_maps(field: BinaryField, k: int):
    """All (a, b, count) where psi_{a,b,k} has conjugacy data inside the
    field itself, in ascending (a, b), with the theorem's fixed-point count.

    A nonzero c2 is a root of X^(q+1) + b*X^q + a exactly when
    a = c2^(q+1) + b*c2^q, so one sweep over (c2, b) finds every map with
    all of its nonzero roots c2.  A root is usable when the kernel of
    v(x) = x + b*x^q + a*x^(q^2) (solved once per map) holds a c3 with
    c3 + c2*c3^q != 0; the count may not depend on which usable c2 is taken.
    """
    degree = field.degree
    s = k % degree
    mul, frob = field.mul, field.frob
    units = range(1, field.order)

    roots: dict[tuple[int, int], list[int]] = defaultdict(list)
    for c2 in units:
        c2q = frob(c2, s)
        c2q1 = mul(c2q, c2)
        for b in range(field.order):
            a = c2q1 ^ mul(b, c2q)
            if a:
                roots[(a, b)].append(c2)
    # the count depends on c = c2^q alone
    theorem = {c2: fixed_point_count(field.element(frob(c2, s)), k)
               for c2 in units}
    basis = [(1 << j, frob(1 << j, s), frob(1 << j, 2 * s))
             for j in range(degree)]

    for (a, b), c2s in sorted(roots.items()):
        kernel = SubsetXorSolver(
            [x ^ mul(b, xq) ^ mul(a, xq2) for x, xq, xq2 in basis]).kernel_masks
        if not kernel:
            continue
        # some c3 in the kernel avoids u(x) = x + c2*x^q exactly when some
        # kernel basis element does
        counts = {theorem[c2] for c2 in c2s
                  if any(c3 ^ mul(c2, frob(c3, s)) for c3 in kernel)}
        if not counts:
            continue
        if len(counts) != 1:
            raise CheckFailure(
                f"n={degree} k={k} a={a:#x} b={b:#x}: theorem count "
                f"depends on the choice of c2: {sorted(counts)}")
        yield a, b, counts.pop()


def check_fixed_point_theorem() -> str:
    """For every psi map with base-field conjugacy data (n <= 8, k <= 3), the
    theorem's fixed-point count equals the number of solutions of
    a*x^(q+1) + b*x + 1 = 0, counted by a gcd with x^(2^n) - x; projective
    scans confirm every map for n <= 6 and two samples above, and the solver
    reproduces three counts per (n, k)."""
    sample_rng, draw_rng = random.Random(51), random.Random(777)
    applicable = scans = solver_checks = 0
    for degree in range(1, 9):
        field = BinaryField(degree)
        one, zero = field.one, field.zero
        for k in (1, 2, 3):
            q = 1 << (k % degree)
            rows = list(_base_field_conjugacy_maps(field, k))
            applicable += len(rows)
            for abits, bbits, predicted in rows:
                a_el, b_el = field.element(abits), field.element(bbits)
                coeffs = [one, b_el] + [zero] * (q - 1) + [a_el]
                actual = ExtensionRootCounter(coeffs).count(1)
                _require(actual == predicted,
                         f"n={degree} k={k} a={abits:#x} b={bbits:#x}: theorem "
                         f"gives {predicted}, polynomial has {actual} roots")
            if degree <= 6:
                scan_rows = rows
            else:
                # a fixed-size sample and a 2% draw
                scan_rows = set(sample_rng.sample(rows, min(50, len(rows))))
                scan_rows.update(r for r in rows if draw_rng.random() < 0.02)
                scan_rows = sorted(scan_rows)
            for abits, bbits, predicted in scan_rows:
                mp = MapSpec("psi", field.element(abits), field.element(bbits), k)
                observed = sum(y == i for i, y in enumerate(_line_images(mp)))
                _require(observed == predicted,
                         f"n={degree} k={k}: projective scan found {observed}, "
                         f"theorem gives {predicted}")
                scans += 1
            for abits, bbits, predicted in sample_rng.sample(rows,
                                                             min(3, len(rows))):
                mp = MapSpec("psi", field.element(abits), field.element(bbits), k)
                data = solve_conjugation(mp)
                _require(data.is_base_field,
                         f"solver left the base field for {mp.describe()}")
                _require(fixed_point_count(data.c, k) == predicted,
                         f"solver constant changes the count for {mp.describe()}")
                solver_checks += 1
    return (f"{applicable} maps with base-field data; {scans} full scans and "
            f"{solver_checks} solver cross-checks agree")


def check_bluher_root_counts() -> str:
    """Root counts of x^(2^k+1) + x + a over F_{2^n} stay in the allowed set
    ({0,1,3} when gcd(k,n)=1), the eigenline count agrees with the one-pass
    sweep (whose histogram bluher_counts checks against Bluher's theorem),
    and a 2% draw agrees with a scan for the finite fixed points of
    psi_{1/a,1/a,k}."""
    rng = random.Random(808)
    histogram: Counter[int] = Counter()
    tested = scans = 0
    for degree in range(1, 9):
        field = BinaryField(degree)
        for k in (1, 2, 3):
            d = math.gcd(k, degree)
            allowed = {0, 1, 2, (1 << d) + 1}
            sweep = bluher_counts(k, field)
            for abits in range(1, field.order):
                a = field.element(abits)
                count = bluher_root_count(a, k)
                _require(count in allowed,
                         f"n={degree} k={k} a={abits:#x}: count {count}")
                _require(count == sweep[abits],
                         f"n={degree} k={k} a={abits:#x}: eigenline count "
                         f"{count}, sweep {sweep[abits]}")
                if d == 1:
                    _require(count != 2,
                             f"n={degree} k={k} a={abits:#x}: count 2 with "
                             f"gcd(k,n)=1")
                histogram[count] += 1
                tested += 1
                if rng.random() < 0.02:
                    inv = a.inv()
                    images = _line_images(MapSpec("psi", inv, inv, k))
                    fixed = sum(y == i for i, y in enumerate(images[:-1]))
                    _require(fixed == count,
                             f"n={degree} k={k} a={abits:#x}: scan of "
                             f"psi_{{1/a,1/a}} finds {fixed}, roots {count}")
                    scans += 1
    _require(set(histogram) <= {0, 1, 2, 3, 5, 9},
             f"histogram keys {sorted(histogram)}")
    spread = ", ".join(f"{c}:{histogram[c]}" for c in sorted(histogram))
    return f"{tested} polynomials, counts {{{spread}}}; {scans} scans agree"


def _uv_kernels(field: BinaryField, s: int, c2: int, b: int,
                a: int) -> tuple[list[int], list[int]]:
    """GF(2) kernel bases in the field of u(x) = x + c2*x^(2^s) and
    v(x) = x + b*x^(2^s) + a*x^(2^(2s)), coefficients given as encodings."""
    mul, frob = field.mul, field.frob

    def kernel(fn) -> list[int]:
        columns = [fn(1 << j) for j in range(field.degree)]
        return SubsetXorSolver(columns).kernel_masks

    return (kernel(lambda x: x ^ mul(c2, frob(x, s))),
            kernel(lambda x: x ^ mul(b, frob(x, s)) ^ mul(a, frob(x, 2 * s))))


def _uv_counters(field: BinaryField, q: int, c2, b, a):
    """Root counters of u(x) = x + c2*x^q and v(x) = x + b*x^q + a*x^(q^2),
    each paired with its degree."""
    u = [field.zero] * (q + 1)
    u[1], u[q] = field.one, c2
    v = [field.zero] * (q * q + 1)
    v[1], v[q], v[q * q] = field.one, b, a
    return (ExtensionRootCounter(u), q), (ExtensionRootCounter(v), q * q)


def _closure_root_total(counter: ExtensionRootCounter, degree_bound: int) -> int:
    """Total distinct roots in the algebraic closure, recovered from the
    root counts in F_{2^(n*r)} for r up to the polynomial degree."""
    counts = {r: counter.count(r) for r in range(1, degree_bound + 1)}
    by_degree: dict[int, int] = {}
    for d in range(1, degree_bound + 1):
        seen = sum(e * by_degree[e] for e in range(1, d) if d % e == 0)
        rem = counts[d] - seen
        _require(rem >= 0 and rem % d == 0, "inconsistent extension root counts")
        by_degree[d] = rem // d
    return sum(d * c for d, c in by_degree.items())


def _line_and_curve_sweep(rng: random.Random, shared_k: bool) -> tuple[int, int]:
    """Random theta/psi pairs (four per degree, n <= 8) are bijections whose
    cycles cover the line; random curves (two per degree) have odd order and
    structure (n1, n2) with n1 | gcd(n2, 2^n - 1), upstairs too for n <= 6.
    The pair shares one k in 1..3, or draws k in 0..2n and 1..2n."""
    maps_tested = curves_tested = 0
    for degree in range(1, 9):
        field = BinaryField(degree)
        order = field.order
        for _ in range(4):
            a = field.element(rng.randrange(1, order))
            b = field.element(rng.randrange(order))
            if shared_k:
                k_theta = k_psi = rng.randrange(1, 4)
            else:
                k_theta = rng.randrange(0, 2 * degree + 1)
                k_psi = rng.randrange(1, 2 * degree + 1)
            for mp in (MapSpec("theta", a, b, k_theta),
                       MapSpec("psi", a, b, k_psi)):
                images = _line_images(mp)
                _require(len(set(images)) == len(images),
                         f"{mp.describe()} is not a bijection")
                total = sum(l * c for l, c in mp.cycle_structure().summary.items())
                _require(total == order + 1,
                         f"{mp.describe()} cycles cover {total} points")
                maps_tested += 1
        for _ in range(2):
            a = field.element(rng.randrange(1, order))
            b = field.element(rng.randrange(order))
            curve = curve_from_map(a, b)
            gs = group_structure(curve)
            _require(gs.order == point_count(curve) and gs.order % 2 == 1,
                     f"even order for curve of {a.hex},{b.hex}")
            _require(gs.order == gs.n1 * gs.n2 and gs.n2 % gs.n1 == 0,
                     f"structure {gs} is not (n1, n2) with n1 | n2")
            _require(math.gcd(gs.n2, order - 1) % gs.n1 == 0,
                     f"n1 does not divide gcd(n2, 2^n - 1) in {gs}")
            if degree <= 6:
                gs2 = _extension_group(curve, gs)
                _require(gs2.n2 % gs2.n1 == 0 and
                         math.gcd(gs2.n2, order * order - 1) % gs2.n1 == 0,
                         f"extension structure {gs2} breaks divisibility")
            curves_tested += 1
    return maps_tested, curves_tested


def _solved_kernel_sizes(rng: random.Random) -> tuple[int, int]:
    """Random solved conjugations (two per degree, n in 2..6): kernels stay
    GF(2)-subspaces of the right bounds in the field of definition, (for
    quartic maps solved in the base field) the closure totals are exactly q
    and q^2, and where ker v is 2g-dimensional the c2 read off its lines are
    the inverses of psi's fixed points, listed from psi's own matrix.
    Returns the solves and the cross-checked ones."""
    solved = planes = 0
    for degree in range(2, 7):
        base = BinaryField(degree)
        hits = tries = 0
        while hits < 2 and tries < 12:
            tries += 1
            a = base.element(rng.randrange(1, base.order))
            b = base.element(rng.randrange(base.order))
            k = rng.choice((1, 2))
            try:
                data = solve_conjugation(MapSpec("psi", a, b, k),
                                         max_relative_degree=12)
            except ResourceLimitError:
                continue
            f = data.embedding.ext
            s = data.q_step
            q = 1 << k  # the formal power; the field may fold the exponents
            ae, be = data.embedding(a), data.embedding(b)
            ukernel, vkernel = _uv_kernels(f, s, data.c2.bits, be.bits, ae.bits)
            usize, vsize = 1 << len(ukernel), 1 << len(vkernel)
            _require(vsize & (vsize - 1) == 0 and
                     2 <= vsize <= min(f.order, q * q),
                     f"kernel of v has size {vsize} for {data.describe()}")
            _require(usize & (usize - 1) == 0 and usize <= min(f.order, q),
                     f"kernel of u has size {usize} for {data.describe()}")
            if data.is_base_field and k <= 2:
                for counter, deg in _uv_counters(f, q, data.c2, be, ae):
                    _require(_closure_root_total(counter, deg) == deg,
                             f"closure total != {deg} for {data.describe()}")
            if len(vkernel) == 2 * math.gcd(s, f.degree):
                fixed = data.embedded_map().pair.fixed_points()
                _require(sorted(kernel_c2_candidates(f, s, vkernel))
                         == sorted(f.inv(y) for y in fixed),
                         f"c2 from ker v are not 1/(psi's fixed points) for "
                         f"{data.describe()}")
                planes += 1
            hits += 1
            solved += 1
    return solved, planes


def _random_closures(rng: random.Random) -> int:
    """For random c2, b (four per degree, n in 2..6, k in {1, 2}) with
    a = c2^(q+1) + b*c2^q nonzero, u(x) = x + c2*x^q and
    v(x) = x + b*x^q + a*x^(q^2) have q and q^2 roots in the closure, and
    power-of-two root counts within their bounds in the base field."""
    tested = 0
    for degree in range(2, 7):
        field = BinaryField(degree)
        for _ in range(4):
            while True:
                k = rng.choice((1, 2))
                q = 1 << k
                c2 = field.element(rng.randrange(1, field.order))
                b = field.element(rng.randrange(field.order))
                a = c2 ** (q + 1) + b * c2 ** q
                if a:
                    break
            for counter, deg in _uv_counters(field, q, c2, b, a):
                _require(_closure_root_total(counter, deg) == deg,
                         f"n={degree}: closure total != {deg}")
                size = counter.count(1)
                _require(size & (size - 1) == 0 and size <= min(field.order, deg),
                         f"n={degree}: {size} base roots, degree {deg}")
            tested += 1
    return tested


def check_structural_invariants() -> str:
    """Bijectivity, odd curve orders, n1 | gcd(n2, 2^n - 1), kernel sizes q
    and q^2 for the two linearized maps, and cycle totals of 2^n + 1."""
    rng, draw_rng = random.Random(90125), random.Random(909)
    maps_tested, curves_tested = _line_and_curve_sweep(rng, shared_k=False)
    more_maps, more_curves = _line_and_curve_sweep(draw_rng, shared_k=True)
    maps_tested += more_maps
    curves_tested += more_curves

    # Kernel sizes on the documented instance (q = 4): both linearized maps
    # reach their full kernels in the quadratic extension -- size q for
    # u(x) = x + c2*x^4 and size q^2 for v(x) = x + b*x^4 + a*x^16 -- while
    # the base field only sees partial kernels of sizes 2 and 4.
    field = _f32()
    g = field.primitive_element()
    a, b, c2 = g, g**2, g**3
    ext = extension_of(field, 2)
    big = ext.ext
    ae, be, c2e = ext(a), ext(b), ext(c2)
    sizes = [1 << len(k) for k in _uv_kernels(big, 2, c2e.bits, be.bits,
                                              ae.bits)]
    _require(sizes == [4, 16],
             "kernels of u and v over F_{2^10} are not of sizes q and q^2")
    sizes = [1 << len(k) for k in _uv_kernels(field, 2, c2.bits, b.bits, a.bits)]
    _require(sizes == [2, 4],
             "kernels of u and v over F_32 should have sizes 2 and 4")
    # Closure totals recovered from extension root counts: deg many roots.
    for name, (counter, deg) in zip("uv", _uv_counters(field, 4, c2, b, a)):
        _require(_closure_root_total(counter, deg) == deg,
                 f"{name} does not reach {deg} roots in the closure")

    solved, planes = _solved_kernel_sizes(rng)
    _require(planes > 0, "no solved conjugation had a 2g-dimensional ker v")
    closures = _random_closures(draw_rng)
    return (f"{maps_tested} maps bijective with full cycle covers, "
            f"{curves_tested} curves odd with divisible structure, "
            f"kernel sizes verified on {solved} solved conjugations "
            f"({planes} with c2 from ker v matching psi's fixed points) and "
            f"closure totals on {closures} random pairs")


CHECKS = (
    ("quartic-map cycle figure over F_32", check_quartic_cycle_figure, 1.0),
    ("curve counts and catalog rows", check_point_counts_and_catalog, 5.0),
    ("quartic reduction worked example", check_quartic_reduction_and_curve, 5.0),
    ("conjugation worked example", check_conjugation_worked_example, 5.0),
    ("orbit-length prediction oracle", check_orbit_length_prediction, 60.0),
    ("closed-form iteration oracle", check_closed_form_iteration, 30.0),
    ("fixed-point count theorem", check_fixed_point_theorem, 120.0),
    ("Bluher root-count membership", check_bluher_root_counts, 60.0),
    ("structural invariant sweep", check_structural_invariants, 60.0),
)


class Verdict(namedtuple("Verdict", "ok elapsed detail error",
                         defaults=(None,))):
    """One timed check: whether it passed within budget, its wall time, and
    its summary (or why it failed, with the exception it raised, else
    None)."""

    __slots__ = ()


def judge(fn, budget: float) -> Verdict:
    """Run one check and time it against its budget in seconds."""
    started = time.perf_counter()
    try:
        detail = fn()
    except Exception as exc:
        return Verdict(False, time.perf_counter() - started, str(exc), exc)
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        return Verdict(False, elapsed, f"exceeded {budget:.0f}s budget")
    return Verdict(True, elapsed, detail)


def run(quick: bool = False, out=print) -> int:
    """Run the suite (first four checks only under quick); 0 when all pass."""
    checks = CHECKS[:4] if quick else CHECKS
    failures = 0
    for index, (title, fn, budget) in enumerate(checks, start=1):
        verdict = judge(fn, budget)
        status = "ok  " if verdict.ok else "FAIL"
        out(f"{status} check {index} [{verdict.elapsed:6.2f}s] {title}: "
            f"{verdict.detail}")
        failures += not verdict.ok
    if failures:
        out(f"{failures} of {len(checks)} checks failed")
        return 1
    out(f"all {len(checks)} checks passed")
    return 0
