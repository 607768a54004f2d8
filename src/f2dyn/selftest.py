"""Built-in verification suite.

Nine end-to-end checks: four reproduce the documented worked examples over
F_32 exactly, five sweep structural guarantees (orbit-length prediction,
closed-form iteration, the fixed-point count theorem, Bluher root counts,
and assorted invariants) across small fields.  Each check has a wall-clock
budget; `run` prints one pass/fail line per check.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

from .conjugacy import (ConjugacyData, TauMap, bluher_counts,
                        bluher_root_count, fixed_point_count,
                        solve_conjugation, verify_conjugation)
from .curves import (curve_from_map, cycle_catalog, group_structure, lift_x,
                     point_count, predict_orbit_length, catalog_length_sets)
from .fields import (BinaryField, ExtensionRootCounter, ResourceLimitError,
                     SubsetXorSolver, extension_of, polynomial_roots,
                     quadratic_extension)
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
    cs = MapSpec("theta", g, g**3, 2).cycle_structure()
    _require(cs.summary == {1: 1, 2: 1, 10: 3},
             f"summary {cs.summary} != {{1: 1, 2: 1, 10: 3}}")
    got = cycle_labels(cs)
    want = [_labels(c) for c in THETA_G_G3_2_CYCLES]
    _require(got == want, f"cycle figure mismatch: {got}")
    _require(got[0][:3] == ["g^0", "g^6", "g^10"], "first cycle start")
    _require(set(got[3]) == {"g^19", "g^26"}, "2-cycle pair")
    _require(got[4] == ["inf"], "fixed point is not infinity")
    return "summary {1:1, 2:1, 10:3}, all five cycles exact"


def check_curve_data() -> str:
    """The curve behind theta_{g,g^3,2}: 41 points over F_32, 1025 over
    F_{2^10}, and the documented catalog rows."""
    field = _f32()
    g = field.primitive_element()
    curve = curve_from_map(g, g**3)
    _require((curve.a1, curve.a2) == (g**15, g), "curve coefficients")
    _require(point_count(curve) == 41, "base point count != 41")
    ext = quadratic_extension(field)
    _require(point_count(curve, ext.ext) == 1025, "extension count != 1025")

    gs = group_structure(curve)
    _require((gs.n1, gs.n2) == (1, 41), f"base structure {gs}")
    rows = {(e.m1, e.m2): e for e in cycle_catalog(gs)}
    top = rows[(1, 41)]
    _require(top.point_count == 40 and top.length == 10 and top.cycle_count == 2,
             f"full-order row {top}")

    gs2 = group_structure(curve, ext.ext)
    _require((gs2.n1, gs2.n2) == (1, 1025), f"extension structure {gs2}")
    rows2 = {(e.d1, e.d2): e for e in cycle_catalog(gs2)}
    _require(rows2[(1, 205)].length == 2, "divisor 205 length != 2")
    _require(rows2[(1, 25)].length == 10, "divisor 25 length != 10")
    return "counts 41/1025; catalog rows (1,41)->2x10, 205->2, 25->10"


def check_quartic_reduction() -> str:
    """theta_{g^7,g^3,3} reduces to the quartic pair (c, d) = (g^3, g^15);
    the associated curve has order 33 and structure (33, 33) upstairs."""
    field = _f32()
    g = field.primitive_element()
    red = reduce_to_quartic(g**7, g**3, 3)
    _require(red.verify(), "solver's quartic reduction fails to verify")
    documented = QuarticReduction(source_a=g**7, source_b=g**3, source_k=3,
                                  c=g**3, d=g**15,
                                  embedding=extension_of(field, 1),
                                  parity="odd", j=3)
    _require(documented.verify(), "pair (g^3, g^15) does not validate")

    curve = curve_from_map(g**3, g**15)
    _require((curve.a1, curve.a2) == (g**14, g**6), "curve coefficients")
    _require(point_count(curve) == 33, "order != 33 over F_32")
    gs = group_structure(curve)
    _require((gs.n1, gs.n2) == (1, 33), f"base structure {gs}")
    ext = quadratic_extension(field)
    gs2 = group_structure(curve, ext.ext)
    _require((gs2.n1, gs2.n2) == (33, 33), f"extension structure {gs2}")
    realized, possible = catalog_length_sets(cycle_catalog(gs))
    _require(realized == {1, 5}, f"realized lengths {realized}")
    _require(possible == {1, 2, 5, 10}, f"candidate lengths {possible}")

    cs = MapSpec("theta", g**7, g**3, 3).cycle_structure()
    _require(cs.summary == {1: 3, 5: 6}, f"sigma summary {cs.summary}")
    got = cycle_labels(cs)
    _require(got == [_labels(c) for c in SIGMA_G7_G3_3_CYCLES],
             "sigma cycle figure mismatch")
    fixed = {c[0] for c in got if len(c) == 1}
    _require(fixed == {"g^10", "g^18", "inf"}, f"sigma fixed points {fixed}")
    return "pair (g^3, g^15) validates; curve 33/(33,33); lengths {1,5}/{1,2,5,10}"


def check_conjugation_example() -> str:
    """psi_{g,g^2,2} over F_32: the tuple (c1,c2,c3,c) = (g, g^3, g^8, g^12)
    validates, tau behaves as documented, and the fixed-point count is 3."""
    field = _f32()
    g = field.primitive_element()
    mp = MapSpec("psi", g, g**2, 2)

    documented = ConjugacyData(map=mp, embedding=extension_of(field, 1),
                               c=g**12, c1=g, c2=g**3, c3=g**8)
    _require(documented.system_holds(), "documented tuple fails the system")
    _require(verify_conjugation(documented), "documented tuple fails pointwise")

    solved = solve_conjugation(mp)
    _require(solved.system_holds() and verify_conjugation(solved),
             "solver output fails verification")

    _require(fixed_point_count(g**12, 2, 5) == 3, "theorem count != 3")
    fixed = {x for x in _all_points(field) if mp.eval(x) == x}
    want = {ProjPoint.finite(g**14), ProjPoint.finite(g**24),
            ProjPoint.finite(g**28)}
    _require(fixed == want, f"fixed points {fixed}")

    tau = TauMap(documented)
    _require(tau.eval(ProjPoint.finite(field.zero)) == ProjPoint.finite(g**24),
             "tau(0) != g^24")
    _require(tau.eval(ProjPoint.infinity(field)) == ProjPoint.finite(g**28),
             "tau(inf) != g^28")

    curve = curve_from_map(g**12, field.zero)
    _require((curve.a1, curve.a2) == (g**25, field.zero), "curve coefficients")
    gs = group_structure(curve)
    _require((gs.n1, gs.n2) == (1, 33), f"base structure {gs}")
    ext = quadratic_extension(field)
    gs2 = group_structure(curve, ext.ext)
    _require((gs2.n1, gs2.n2) == (33, 33), f"extension structure {gs2}")
    return "tuple (g, g^3, g^8, g^12) validates at all 33 points; 3 fixed points"


def _all_points(field: BinaryField):
    for bits in range(field.order):
        yield ProjPoint.finite(field.element(bits))
    yield ProjPoint.infinity(field)


def check_orbit_prediction() -> str:
    """Every cycle length of theta_{a,b,2} equals the doubling-based
    prediction from a lifted curve point: n in 2..8, 25 random maps each."""
    rng = random.Random(20260814)
    orbits = 0
    for degree in range(2, 9):
        field = BinaryField(degree)
        for _ in range(25):
            a = field.element(rng.randrange(1, field.order))
            b = field.element(rng.randrange(field.order))
            mp = MapSpec("theta", a, b, 2)
            curve = curve_from_map(a, b)
            for cyc in mp.cycle_structure().cycles:
                x0 = cyc[0]
                if x0.is_infinity:
                    p = curve.identity
                else:
                    p = min(lift_x(curve, x0.value), key=lambda pt: pt.y.bits)
                predicted = predict_orbit_length(p.curve, p)
                _require(predicted == len(cyc),
                         f"n={degree} {mp.describe()}: cycle of {x0!r} has "
                         f"length {len(cyc)}, predicted {predicted}")
                orbits += 1
    return f"{orbits} orbit lengths predicted exactly"


def check_closed_form() -> str:
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
    field itself, with the theorem's fixed-point count.

    Sweeping (c2, b) and setting a = c2^(q+1) + b*c2^q enumerates every map
    whose c2 equation has a root; each candidate then needs a kernel element
    c3 of v with c3 + c1*c2 != 0.
    """
    degree = field.degree
    order = field.order
    s = k % degree
    q = 1 << s
    mul, frob = field.mul, field.frob
    one, zero = field.one, field.zero

    candidates = set()
    for c2 in range(1, order):
        c2q = frob(c2, s)
        c2q1 = mul(c2q, c2)
        for b in range(order):
            a = c2q1 ^ mul(b, c2q)
            if a:
                candidates.add((a, b))

    for abits, bbits in sorted(candidates):
        def v(x: int, _a=abits, _b=bbits) -> int:
            xq = frob(x, s)
            return x ^ mul(_b, xq) ^ mul(_a, frob(xq, s))
        kernel = list(
            SubsetXorSolver([v(1 << j) for j in range(degree)]).kernel_elements())
        if len(kernel) < 2:
            continue
        a_el, b_el = field.element(abits), field.element(bbits)
        roots = polynomial_roots([a_el] + [zero] * (q - 1) + [b_el, one])
        counts = set()
        for c2_el in roots:
            if c2_el.is_zero:
                continue
            c2 = c2_el.bits
            if any(c3 and c3 ^ mul(c2, frob(c3, s)) for c3 in kernel):
                c = field.element(frob(c2, s))
                counts.add(fixed_point_count(c, k, degree))
        if not counts:
            continue
        if len(counts) != 1:
            raise CheckFailure(
                f"n={degree} k={k} a={abits:#x} b={bbits:#x}: theorem count "
                f"depends on the choice of c2: {sorted(counts)}")
        yield abits, bbits, counts.pop()


def check_fixed_point_theorem() -> str:
    """For every psi map with base-field conjugacy data (n <= 8, k <= 3), the
    theorem's fixed-point count equals the number of solutions of
    a*x^(q+1) + b*x + 1 = 0; full projective scans confirm a sample."""
    rng = random.Random(51)
    applicable = 0
    scans = 0
    solver_checks = 0
    for degree in range(1, 9):
        field = BinaryField(degree)
        order = field.order
        one, zero = field.one, field.zero
        for k in (1, 2, 3):
            q = 1 << (k % degree)
            rows = list(_base_field_conjugacy_maps(field, k))
            applicable += len(rows)
            for abits, bbits, predicted in rows:
                a_el, b_el = field.element(abits), field.element(bbits)
                coeffs = [one, b_el] + [zero] * (q - 1) + [a_el]
                actual = len(polynomial_roots(coeffs))
                _require(actual == predicted,
                         f"n={degree} k={k} a={abits:#x} b={bbits:#x}: theorem "
                         f"gives {predicted}, polynomial has {actual} roots")
            scan_rows = rows if degree <= 6 else (
                rng.sample(rows, min(50, len(rows))) if rows else [])
            for abits, bbits, predicted in scan_rows:
                mp = MapSpec("psi", field.element(abits), field.element(bbits), k)
                observed = sum(mp.eval_int(i) == i for i in range(order + 1))
                _require(observed == predicted,
                         f"n={degree} k={k}: projective scan found {observed}, "
                         f"theorem gives {predicted}")
                scans += 1
            for abits, bbits, predicted in (rng.sample(rows, min(3, len(rows)))
                                            if rows else []):
                mp = MapSpec("psi", field.element(abits), field.element(bbits), k)
                data = solve_conjugation(mp)
                _require(data.is_base_field,
                         f"solver left the base field for {mp.describe()}")
                _require(fixed_point_count(data.c, k, degree) == predicted,
                         f"solver constant changes the count for {mp.describe()}")
                solver_checks += 1
    return (f"{applicable} maps with base-field data; {scans} full scans and "
            f"{solver_checks} solver cross-checks agree")


def check_bluher_membership() -> str:
    """Root counts of x^(2^k+1) + x + a over F_{2^n} stay in the allowed set
    ({0,1,3} when gcd(k,n)=1), and the root finder agrees with the one-pass
    sweep (whose histogram bluher_counts checks against Bluher's theorem)."""
    histogram: Counter[int] = Counter()
    tested = 0
    for degree in range(1, 9):
        field = BinaryField(degree)
        for k in (1, 2, 3):
            d = math.gcd(k, degree)
            allowed = {0, 1, 2, (1 << d) + 1}
            sweep = bluher_counts(k, field)
            for abits in range(1, field.order):
                count = bluher_root_count(field.element(abits), k, field)
                _require(count in allowed,
                         f"n={degree} k={k} a={abits:#x}: count {count}")
                _require(count == sweep[abits],
                         f"n={degree} k={k} a={abits:#x}: root finder "
                         f"{count}, sweep {sweep[abits]}")
                if d == 1:
                    _require(count != 2,
                             f"n={degree} k={k} a={abits:#x}: count 2 with "
                             f"gcd(k,n)=1")
                histogram[count] += 1
                tested += 1
    spread = ", ".join(f"{c}:{histogram[c]}" for c in sorted(histogram))
    return f"{tested} polynomials, counts {{{spread}}}"


def _kernel_size(field: BinaryField, fn) -> int:
    solver = SubsetXorSolver([fn(1 << j) for j in range(field.degree)])
    return 1 << solver.kernel_dim()


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


def check_structural_invariants() -> str:
    """Bijectivity, odd curve orders, n1 | gcd(n2, 2^n - 1), kernel sizes q
    and q^2 for the two linearized maps, and cycle totals of 2^n + 1."""
    rng = random.Random(90125)
    maps_tested = curves_tested = 0
    for degree in range(1, 9):
        field = BinaryField(degree)
        order = field.order
        for _ in range(4):
            a = field.element(rng.randrange(1, order))
            b = field.element(rng.randrange(order))
            pair = (MapSpec("theta", a, b, rng.randrange(0, 2 * degree + 1)),
                    MapSpec("psi", a, b, rng.randrange(1, 2 * degree + 1)))
            for mp in pair:
                _require(mp.is_bijection(), f"{mp.describe()} is not a bijection")
                total = sum(l * c for l, c in mp.cycle_structure().summary.items())
                _require(total == order + 1,
                         f"{mp.describe()} cycles cover {total} points")
                maps_tested += 1
        for _ in range(2):
            a = field.element(rng.randrange(1, order))
            b = field.element(rng.randrange(order))
            curve = curve_from_map(a, b)
            _require(point_count(curve) % 2 == 1,
                     f"even order for curve of {a.hex},{b.hex}")
            gs = group_structure(curve)
            _require(gs.order == gs.n1 * gs.n2 and gs.n2 % gs.n1 == 0,
                     f"structure {gs} is not (n1, n2) with n1 | n2")
            _require(math.gcd(gs.n2, order - 1) % gs.n1 == 0,
                     f"n1 does not divide gcd(n2, 2^n - 1) in {gs}")
            if degree <= 6:
                ext = quadratic_extension(field)
                gs2 = group_structure(curve, ext.ext)
                _require(gs2.n2 % gs2.n1 == 0 and
                         math.gcd(gs2.n2, ext.ext.order - 1) % gs2.n1 == 0,
                         f"extension structure {gs2} breaks divisibility")
            curves_tested += 1

    # Kernel sizes on the documented instance (q = 4): both linearized maps
    # reach their full kernels in the quadratic extension -- size q for
    # u(x) = x + c2*x^4 and size q^2 for v(x) = x + b*x^4 + a*x^16 -- while
    # the base field only sees partial kernels of sizes 2 and 4.
    field = _f32()
    g = field.primitive_element()
    a, b, c2 = g, g**2, g**3
    ext = quadratic_extension(field)
    big = ext.ext
    ae, be, c2e = ext(a), ext(b), ext(c2)
    _require(_kernel_size(big, lambda x: x ^ big.mul(c2e.bits, big.frob(x, 2)))
             == 4, "kernel of u over F_{2^10} is not q = 4")
    _require(_kernel_size(big, lambda x: x ^ big.mul(be.bits, big.frob(x, 2))
                          ^ big.mul(ae.bits, big.frob(x, 4))) == 16,
             "kernel of v over F_{2^10} is not q^2 = 16")
    _require(_kernel_size(field, lambda x: x ^ field.mul(c2.bits, field.frob(x, 2)))
             == 2, "kernel of u over F_32 should be {0, cube root}")
    _require(_kernel_size(field, lambda x: x ^ field.mul(b.bits, field.frob(x, 2))
                          ^ field.mul(a.bits, field.frob(x, 4))) == 4,
             "kernel of v over F_32 should have size 4")
    # Closure totals recovered from extension root counts: deg many roots.
    _require(_closure_root_total(
        ExtensionRootCounter([field.zero, field.one, field.zero, field.zero, c2]),
        4) == 4, "u does not reach q = 4 roots in the closure")
    v_coeffs = [field.zero] * 17
    v_coeffs[1], v_coeffs[4], v_coeffs[16] = field.one, b, a
    _require(_closure_root_total(ExtensionRootCounter(v_coeffs), 16) == 16,
             "v does not reach q^2 = 16 roots in the closure")

    # Random solved conjugations: kernels stay GF(2)-subspaces of the right
    # bounds in the field of definition, and (for quartic maps solved in the
    # base field) the closure totals are exactly q and q^2.
    solved = 0
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
            vsize = _kernel_size(f, lambda x: x ^ f.mul(be.bits, f.frob(x, s))
                                 ^ f.mul(ae.bits, f.frob(f.frob(x, s), s)))
            usize = _kernel_size(f, lambda x: x ^ f.mul(data.c2.bits,
                                                        f.frob(x, s)))
            _require(vsize & (vsize - 1) == 0 and
                     2 <= vsize <= min(f.order, q * q),
                     f"kernel of v has size {vsize} for {data.describe()}")
            _require(usize & (usize - 1) == 0 and usize <= min(f.order, q),
                     f"kernel of u has size {usize} for {data.describe()}")
            if data.is_base_field and k <= 2:
                u_coeffs = [f.zero] * (q + 1)
                u_coeffs[1], u_coeffs[q] = f.one, data.c2
                _require(_closure_root_total(ExtensionRootCounter(u_coeffs), q)
                         == q, f"u closure total != {q} for {data.describe()}")
                v_coeffs = [f.zero] * (q * q + 1)
                v_coeffs[1], v_coeffs[q], v_coeffs[q * q] = f.one, be, ae
                _require(_closure_root_total(ExtensionRootCounter(v_coeffs),
                                             q * q) == q * q,
                         f"v closure total != {q * q} for {data.describe()}")
            hits += 1
            solved += 1
    return (f"{maps_tested} maps bijective with full cycle covers, "
            f"{curves_tested} curves odd with divisible structure, "
            f"kernel sizes verified on {solved} solved conjugations")


CHECKS = (
    ("quartic-map cycle figure over F_32", check_quartic_cycle_figure, 1.0),
    ("curve counts and catalog rows", check_curve_data, 5.0),
    ("quartic reduction worked example", check_quartic_reduction, 5.0),
    ("conjugation worked example", check_conjugation_example, 5.0),
    ("orbit-length prediction oracle", check_orbit_prediction, 60.0),
    ("closed-form iteration oracle", check_closed_form, 30.0),
    ("fixed-point count theorem", check_fixed_point_theorem, 120.0),
    ("Bluher root-count membership", check_bluher_membership, 60.0),
    ("structural invariant sweep", check_structural_invariants, 60.0),
)


def run(quick: bool = False, out=print) -> int:
    """Run the suite (first four checks only under quick); 0 when all pass."""
    checks = CHECKS[:4] if quick else CHECKS
    failures = 0
    for index, (title, fn, budget) in enumerate(checks, start=1):
        started = time.perf_counter()
        try:
            detail = fn()
        except Exception as exc:
            elapsed = time.perf_counter() - started
            out(f"FAIL check {index} [{elapsed:6.2f}s] {title}: {exc}")
            failures += 1
            continue
        elapsed = time.perf_counter() - started
        if elapsed > budget:
            out(f"FAIL check {index} [{elapsed:6.2f}s] {title}: "
                f"exceeded {budget:.0f}s budget")
            failures += 1
        else:
            out(f"ok   check {index} [{elapsed:6.2f}s] {title}: {detail}")
    if failures:
        out(f"{failures} of {len(checks)} checks failed")
        return 1
    out(f"all {len(checks)} checks passed")
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Run the built-in verification suite.")
    parser.add_argument("--quick", action="store_true",
                        help="only the four worked-example checks")
    args = parser.parse_args(argv)
    return run(quick=args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
