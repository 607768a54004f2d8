"""Property-based checks of the GF(2)[x] kernels, of wide-field and
slot-wise reduction, of Frobenius powers in wide fields and of Frobenius
exponents reduced mod the degree, of the semilinear pairs behind every
map of the line, of the rank-space cycle decompositions and the fixed
points of those pairs against a pointwise walk, of the root search, the
n-th roots and the field embeddings built on them, and of the GF(2)-linear
solver and the conjugations read off its kernels."""

import functools
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from f2dyn import (BinaryField, ExtensionRootCounter, MapSpec,
                   ResourceLimitError, Semilinear, SubsetXorSolver, conjugacy,
                   extension_of, fields, fixed_point_count, gf2x,
                   nth_roots, polynomial_roots, solve_conjugation,
                   verify_conjugation)
from test_fields import poly_from_roots
from test_gf2x import DENSE_MODULI, ref_mod, ref_mul

polys = st.integers(min_value=0, max_value=(1 << 300) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 300) - 1)

# fields above the exp/log table limit: the default moduli of F_2^17, F_2^32
# and F_2^64 (given explicitly, so that a broken kernel fails a test instead
# of stalling the modulus search at import), and moduli that reduce through
# gf2x.mod instead of folding
DEFAULT_MODULI = (0x20009, 0x10000008D, 0x1000000000000001B)
WIDE_FIELDS = [BinaryField(gf2x.degree(m), m)
               for m in DEFAULT_MODULI + DENSE_MODULI]


@st.composite
def field_pairs(draw):
    field = draw(st.sampled_from(WIDE_FIELDS))
    elements = st.integers(min_value=0, max_value=field.order - 1)
    return field, draw(elements), draw(elements)


@settings(deadline=None)
@given(polys, polys, polys)
def test_mul_is_a_commutative_ring_product(a, b, c):
    assert gf2x.mul(a, b) == gf2x.mul(b, a)
    assert gf2x.mul(gf2x.mul(a, b), c) == gf2x.mul(a, gf2x.mul(b, c))
    assert gf2x.mul(a, b ^ c) == gf2x.mul(a, b) ^ gf2x.mul(a, c)


@settings(deadline=None)
@given(polys)
def test_sqr_is_mul_by_itself(a):
    assert gf2x.sqr(a) == gf2x.mul(a, a)


@settings(deadline=None)
@given(polys, nonzero_polys)
def test_divmod_identity(a, b):
    q, r = gf2x.divmod_(a, b)
    assert gf2x.mul(q, b) ^ r == a
    assert gf2x.degree(r) < gf2x.degree(b)


@settings(deadline=None)
@given(field_pairs())
def test_wide_field_inverse(pair):
    field, a, _ = pair
    if a:
        assert field.mul(a, field.inv(a)) == 1


@settings(deadline=None)
@given(field_pairs())
def test_reducer_is_reference_mulmod(pair):
    field, a, b = pair
    want = ref_mod(ref_mul(a, b), field.modulus)
    assert field.mul(a, b) == want
    assert gf2x.reducer(field.modulus)(ref_mul(a, b)) == want


# Frobenius powers of wide fields, squared or read off per-twist tables; the
# fields persist across examples, and so do their tables
_wide_field = functools.cache(BinaryField)


@st.composite
def wide_frobenius_cases(draw):
    field = _wide_field(draw(st.integers(min_value=17, max_value=130)))
    elements = st.integers(min_value=0, max_value=field.order - 1)
    twists = st.integers(min_value=0, max_value=3 * field.degree)
    return field, draw(elements), draw(elements), draw(twists), draw(twists)


@settings(deadline=1000)
@given(wide_frobenius_cases())
def test_wide_frobenius_is_a_field_automorphism(case):
    field, x, y, s, t = case
    frob, mul = field.frob, field.mul
    assert frob(x ^ y, s) == frob(x, s) ^ frob(y, s)
    assert frob(mul(x, y), s) == mul(frob(x, s), frob(y, s))
    assert frob(frob(x, s), t) == frob(x, s + t)
    assert frob(x, field.degree) == x


# slot-wise reduction folds or divides by the same rule as the field: the
# Conway moduli of F_2^6, F_2^10 and F_2^12 divide, those of F_2^4 and F_2^8
# fold
SLOT_FIELDS = WIDE_FIELDS + [BinaryField(n) for n in (4, 6, 8, 10, 12)]


@st.composite
def packed_slots(draw):
    field = draw(st.sampled_from(SLOT_FIELDS))
    full = st.integers(min_value=0, max_value=(1 << 2 * field.degree) - 1)
    return field, draw(st.lists(full, max_size=40))


@settings(deadline=None)
@given(packed_slots())
def test_slot_reduction_is_per_coefficient_reduction(case):
    field, slots = case
    w = 2 * field.degree
    packed = sum(v << (w * i) for i, v in enumerate(slots))
    want = sum(field._reduce(v) << (w * i) for i, v in enumerate(slots))
    # the ring's reducer persists across examples, so its masks grow
    assert fields._ring(field).reduce_slots(packed) == want


# x^(2^k) is x^(2^(k + j*n)) on F_2^n, so every answer about the field is the
# same at k and k + j*n; none may build 2^k to find it
@st.composite
def shifted_exponents(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    field = BinaryField(n)
    units = st.integers(min_value=1, max_value=field.order - 1)
    c = field.element(draw(units))
    b = field.element(draw(st.integers(min_value=0, max_value=field.order - 1)))
    k = draw(st.integers(min_value=1, max_value=3 * n))
    j = draw(st.integers(min_value=1, max_value=10**9))
    return field, c, b, k, k + j * n


def _base_field_solution(mp):
    try:
        data = solve_conjugation(mp, max_relative_degree=1)
    except ResourceLimitError:
        return None
    return data.c, data.c1, data.c2, data.c3


@settings(deadline=1000)
@given(shifted_exponents())
def test_frobenius_exponent_reduces_mod_the_degree(case):
    field, c, b, k, shifted = case
    assert fixed_point_count(c, k) == fixed_point_count(c, shifted)
    assert (MapSpec("theta", c, field.zero, k).pair.fixed_points()
            == MapSpec("theta", c, field.zero, shifted).pair.fixed_points())
    # the base field is the one extension where both exponents act alike
    assert (_base_field_solution(MapSpec("psi", c, b, k))
            == _base_field_solution(MapSpec("psi", c, b, shifted)))


# semilinear pairs: invertible matrices with any twist, over table fields and
# wide ones
PAIR_FIELDS = [BinaryField(n) for n in (1, 2, 5, 8)] + WIDE_FIELDS[:3]


@st.composite
def pairs(draw, field):
    """M = P*L*U: rows maybe swapped, L = ((1, 0), (l, 1)) and
    U = ((d1, u), (0, d2)) with d1, d2 nonzero, so every invertible M."""
    elements = st.integers(min_value=0, max_value=field.order - 1)
    units = st.integers(min_value=1, max_value=field.order - 1)
    l, u, d1, d2 = draw(elements), draw(elements), draw(units), draw(units)
    mul = field.mul
    rows = [(d1, u), (mul(l, d1), mul(l, u) ^ d2)]
    if draw(st.booleans()):
        rows.reverse()
    return Semilinear(field, rows, draw(st.integers(0, 3 * field.degree)))


@st.composite
def pair_triples(draw):
    field = draw(st.sampled_from(PAIR_FIELDS))
    return tuple(draw(pairs(field)) for _ in range(3))


@settings(deadline=None)
@given(pair_triples())
def test_pair_composition_is_associative_and_evaluates(triple):
    f, g, h = triple
    left, right = f.then(g).then(h), f.then(g.then(h))
    assert (left.m, left.s) == (right.m, right.s)
    field = f.field
    for i in {0, 1, field.order, f.m[0][1] % field.order}:
        assert f.then(g).eval_int(i) == g.eval_int(f.eval_int(i))


@settings(deadline=None)
@given(st.sampled_from(PAIR_FIELDS).flatmap(pairs),
       st.integers(0, 1 << 80), st.integers(0, 1 << 80))
def test_pair_powers_add(pair, m1, m2):
    whole, split = pair.power(m1 + m2), pair.power(m1).then(pair.power(m2))
    assert (whole.m, whole.s) == (split.m, split.s)
    assert whole.same_map(split)


@st.composite
def maps(draw):
    field = draw(st.sampled_from(PAIR_FIELDS))
    a = draw(st.integers(min_value=1, max_value=field.order - 1))
    b = draw(st.integers(min_value=0, max_value=field.order - 1))
    x = draw(st.integers(min_value=0, max_value=field.order))
    kind = draw(st.sampled_from(("theta", "psi")))
    k = draw(st.integers(min_value=1, max_value=3 * field.degree))
    return MapSpec(kind, field.element(a), field.element(b), k), x


@settings(deadline=None)
@given(maps())
def test_pair_evaluates_the_map_formula(case):
    mp, x = case
    field, inf = mp.field, mp.field.order
    if x == inf:
        want = inf if mp.kind == "theta" else 0
    else:
        t = (mp.a * field.element(x).frob(mp.k) + mp.b).bits
        want = t if mp.kind == "theta" else (field.inv(t) if t else inf)
    assert mp.pair.eval_int(x) == want


# rank cycles: theta, psi, tau and arbitrary invertible pairs over the table
# fields, walked point by point with eval_int as the oracle
RANK_FIELDS = [BinaryField(n) for n in range(1, 11)]


@st.composite
def line_pairs(draw, fields=RANK_FIELDS):
    field = draw(st.sampled_from(fields))
    n, order = field.degree, field.order
    elements = st.integers(min_value=0, max_value=order - 1)
    units = st.integers(min_value=1, max_value=order - 1)
    kind = draw(st.sampled_from(("theta", "psi", "tau", "any")))
    if kind == "any":  # e.g. r = 0 with t != 1, which no family has
        return draw(pairs(field))
    if kind == "tau":  # ((1, c1), (c2, c3)), invertible: c3 != c1*c2
        c1, c2 = draw(elements), draw(elements)
        c3 = draw(elements.filter(lambda v: v != field.mul(c1, c2)))
        return Semilinear(field, ((1, c1), (c2, c3)), 0)
    a, b = draw(units), draw(elements)
    k = draw(st.integers(min_value=0 if kind == "theta" else 1,
                         max_value=2 * n))
    return MapSpec(kind, field.element(a), field.element(b), k).pair


@settings(deadline=1000)
@given(line_pairs())
def test_rank_cycles_are_the_pointwise_cycles(pair):
    field = pair.field
    units = field.mult_order
    exp, _ = field.tables()

    def point(rank):  # rank -> point encoding (the field order is infinity)
        return exp[rank] if rank < units else (0, field.order)[rank - units]

    cycles = pair.rank_cycles()
    ranks = [r for cyc in cycles for r in cyc]
    assert sorted(ranks) == list(range(units + 2))  # a partition of P^1
    starts = [cyc[0] for cyc in cycles]
    assert starts == sorted(starts)
    for cyc in cycles:
        assert cyc[0] == min(cyc)
        for r, nxt in zip(cyc, cyc[1:] + cyc[:1]):
            assert pair.eval_int(point(r)) == point(nxt)


# fixed points read off the eigenlines of f^m, against a scan of the line:
# theta, psi, tau and any invertible pair up to F_2^9, and pairs built as
# lam*T*sigma^s(T)^-1 with gcd(s, n) = g > 1, whose f^m is scalar, so that
# the 2^g + 1 listing runs on every draw of that strategy
FIXED_FIELDS = RANK_FIELDS[:9]


@st.composite
def scalar_power_pairs(draw):
    field = draw(st.sampled_from(FIXED_FIELDS[1:]))
    n = field.degree
    g = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
    s = g * draw(st.integers(0, 2 * n // g))
    (p, q), (r, t) = draw(pairs(field)).m
    lam = draw(st.integers(min_value=1, max_value=field.order - 1))
    adjugate = Semilinear(field, ((t, q), (r, p)), 0)
    return adjugate.then(Semilinear(field, ((lam, 0), (0, lam)), s)).then(
        Semilinear(field, ((p, q), (r, t)), 0))


@settings(deadline=None)
@given(st.one_of(line_pairs(FIXED_FIELDS), scalar_power_pairs()))
def test_fixed_points_are_the_scanned_fixed_points(pair):
    scan = [i for i in range(pair.field.order + 1) if pair.eval_int(i) == i]
    assert pair.fixed_points() == scan
    assert pair.fixed_count() == len(scan)


@settings(deadline=None)
@given(scalar_power_pairs())
def test_scalar_powers_fix_a_subfield_line(pair):
    n = pair.field.degree
    g = math.gcd(pair.s, n)
    (p, q), (r, t) = pair.power(n // g).m
    assert (q, r) == (0, 0) and p == t
    assert len(pair.fixed_points()) == pair.fixed_count() == (1 << g) + 1


# the probes of solve_conjugation: the counts over F_2^(n*r) that
# _root_counts reads off base-field 2x2 matrices, against gcds with
# X^(2^(n*r)) - X over the base field, for n <= 8, r <= 6 and e <= 6, where
# q = 2^e acts as 2^k (e = k mod n*r, or n*r for 0)


@st.composite
def probed_degrees(draw):
    field = draw(st.sampled_from(FIXED_FIELDS[:8]))
    n = field.degree
    r = draw(st.integers(min_value=1, max_value=6))
    e = draw(st.integers(min_value=1, max_value=min(6, n * r)))
    k = e + n * r * draw(st.sampled_from([0, 1, 3, 10**9]))
    a = draw(st.integers(min_value=1, max_value=field.order - 1))
    b = draw(st.integers(min_value=0, max_value=field.order - 1))
    return MapSpec("psi", field.element(a), field.element(b), k), r, e


@settings(deadline=None)
@given(probed_degrees())
def test_root_counts_are_the_extension_root_counts(case):
    mp, r, e = case
    q = 1 << e
    zero, one = mp.field.zero, mp.field.one
    v = [zero] * (q * q)  # v(x)/x = a*x^(q^2 - 1) + b*x^(q - 1) + 1
    v[0], v[q - 1], v[q * q - 1] = one, mp.b, mp.a
    c2 = ExtensionRootCounter([mp.a] + [zero] * (q - 1) + [mp.b, one])
    assert list(conjugacy._root_counts(mp, r))[-1] == (
        c2.count(r), ExtensionRootCounter(v).count(r))


# root search: polynomials of degree at most 12 over table fields and wide
# fields up to F_2^64, either random or a product of distinct linear factors
ROOT_FIELDS = [BinaryField(n) for n in (1, 2, 3, 4, 5, 8, 12, 16)] + WIDE_FIELDS


@st.composite
def root_polys(draw):
    """(field, coefficients, the planted roots or None)."""
    field = draw(st.sampled_from(ROOT_FIELDS))
    elements = st.integers(min_value=0, max_value=field.order - 1)
    if draw(st.booleans()):
        roots = draw(st.lists(elements, min_size=1,
                              max_size=min(12, field.order), unique=True))
        return field, poly_from_roots(field, roots), sorted(roots)
    coeffs = draw(st.lists(elements, min_size=1, max_size=12))
    lead = draw(st.integers(min_value=1, max_value=field.order - 1))
    return field, coeffs + [lead], None


@settings(deadline=1000)
@given(root_polys())
def test_polynomial_roots_are_the_distinct_roots(case):
    field, coeffs, planted = case
    roots = [r.bits for r in polynomial_roots([field.element(c)
                                               for c in coeffs])]
    assert roots == sorted(set(roots))
    for x in roots:
        acc = 0
        for c in reversed(coeffs):
            acc = field.mul(acc, x) ^ c
        assert acc == 0, (x, coeffs)
    counter = ExtensionRootCounter([field.element(c) for c in coeffs])
    assert len(roots) == counter.count(1)
    if planted is not None:
        assert roots == planted


@st.composite
def root_powers(draw):
    """(field, x, n) with d = gcd(n, 2^m - 1) at most 64: a cofactor of n
    prime to 2^m - 1 times a small factor that sets d."""
    field = draw(st.sampled_from(ROOT_FIELDS))
    x = draw(st.integers(min_value=1, max_value=field.order - 1))
    unit = draw(st.integers(min_value=1, max_value=1 << 70))
    while (shared := math.gcd(unit, field.mult_order)) > 1:
        unit //= shared
    return field, x, draw(st.integers(min_value=1, max_value=64)) * unit


@settings(deadline=None)
@given(root_powers())
def test_nth_roots_of_a_power(case):
    """x is among the roots of y^n = x^n, every root solves it, and there
    are gcd(n, 2^m - 1) of them."""
    field, x, n = case
    alpha = field.element(x) ** n
    roots = nth_roots(alpha, n)
    assert field.element(x) in roots
    assert all(r ** n == alpha for r in roots)
    assert len(roots) == math.gcd(n, field.mult_order)


@st.composite
def embedded_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=32))
    r = draw(st.integers(min_value=1, max_value=64 // n))
    base = BinaryField(n)
    elements = st.integers(min_value=0, max_value=base.order - 1)
    return extension_of(base, r), draw(elements), draw(elements)


@settings(deadline=1000)
@given(embedded_pairs())
def test_extension_of_is_a_ring_homomorphism(case):
    emb, x, y = case
    base, ext, up = emb.base, emb.ext, emb.embed_bits
    assert ext.degree % base.degree == 0
    assert up(1) == 1
    assert up(x ^ y) == up(x) ^ up(y)
    assert up(base.mul(x, y)) == ext.mul(up(x), up(y))
    assert (up(x) == up(y)) == (x == y)


# -- the GF(2)-linear solver ---------------------------------------------------


def _assert_reduced_echelon(kernel):
    """Distinct leading bits in ascending order, each held by its vector
    alone."""
    leads = [m.bit_length() - 1 for m in kernel]
    assert leads == sorted(set(leads)) and -1 not in leads
    for lead in leads:
        assert sum(m >> lead & 1 for m in kernel) == 1


def _combination(columns, mask):
    acc = 0
    for j, col in enumerate(columns):
        if mask >> j & 1:
            acc ^= col
    return acc


@st.composite
def column_lists(draw):
    width = draw(st.integers(min_value=1, max_value=16))
    vectors = st.integers(min_value=0, max_value=(1 << width) - 1)
    return draw(st.lists(vectors, min_size=1, max_size=10)), draw(vectors)


@settings(deadline=1000)
@given(column_lists())
def test_solver_answers_the_least_preimage(case):
    columns, target = case
    solver = SubsetXorSolver(columns)
    _assert_reduced_echelon(solver.kernel_masks)
    least = {}
    for mask in range(1 << len(columns)):
        least.setdefault(_combination(columns, mask), mask)
    assert all(_combination(columns, m) == 0 for m in solver.kernel_masks)
    # the span has 2^rank elements, the kernel the other len - rank dimensions
    assert len(solver.kernel_masks) == len(columns) - len(least).bit_length() + 1
    assert solver.solve(target) == least.get(target)


LINEAR_FIELDS = [BinaryField(n) for n in range(1, 11)] + WIDE_FIELDS


def _linearized(field, step, coeffs, x):
    """sum of coeffs[i] * x^(2^(step*i)) on encodings, term by term."""
    acc = 0
    for c in coeffs:
        acc ^= field.mul(c, x)
        x = field.frob(x, step)
    return acc


@st.composite
def linearized_polys(draw):
    """(field, L, x, t): L(x) = sum c_i x^(q^i) over a field of degree at
    most 64, a point x and a target t that need not be an image."""
    field = draw(st.sampled_from(LINEAR_FIELDS))
    elements = st.integers(min_value=0, max_value=field.order - 1)
    step = draw(st.integers(min_value=1, max_value=3))  # q = 2^step
    coeffs = draw(st.lists(elements, min_size=1, max_size=4))
    poly = functools.partial(_linearized, field, step, coeffs)
    return field, poly, draw(elements), draw(elements)


@settings(deadline=1000)
@given(linearized_polys())
def test_linearized_solve_is_the_least_solution(case):
    """A solver on the images of the basis answers L(x) = t with its least
    solution, as the quartic reduction reads d off it."""
    field, poly, x, t = case
    solver = SubsetXorSolver([poly(1 << j) for j in range(field.degree)])
    _assert_reduced_echelon(solver.kernel_masks)
    image = poly(x)
    y = solver.solve(image)
    assert poly(y) == image and y <= x
    if field.degree <= 10:
        brute = [b for b in range(field.order) if poly(b) == t]
        assert solver.solve(t) == (brute[0] if brute else None)


@st.composite
def small_psi_maps(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    field = BinaryField(n)
    a = draw(st.integers(min_value=1, max_value=field.order - 1))
    b = draw(st.integers(min_value=0, max_value=field.order - 1))
    k = draw(st.integers(min_value=1, max_value=40))
    return MapSpec("psi", field.element(a), field.element(b), k)


@settings(deadline=1000)
@given(small_psi_maps())
def test_solve_conjugation_postconditions(mp):
    """Searched up to degree 12, where the kernels can be scanned: c3 is the
    least element of ker v outside ker u, and no smaller degree answers."""
    bound = 12 // mp.field.degree
    try:
        data = solve_conjugation(mp, max_relative_degree=bound)
    except ResourceLimitError:
        return
    assert data.system_holds() and verify_conjugation(data)
    ext, s = data.embedding.ext, data.q_step
    a, b = data.embedding(mp.a).bits, data.embedding(mp.b).bits
    c2 = data.c2.bits

    def v(x):
        xq = ext.frob(x, s)
        return x ^ ext.mul(b, xq) ^ ext.mul(a, ext.frob(xq, s))

    def u(x):
        return x ^ ext.mul(c2, ext.frob(x, s))

    assert next(x for x in range(1, ext.order)
                if v(x) == 0 and u(x)) == data.c3.bits
    r = data.embedding.relative_degree
    with pytest.raises(ResourceLimitError):
        solve_conjugation(mp, max_relative_degree=r - 1)
