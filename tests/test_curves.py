"""Curves behind the quartic maps: group law, counting, orbit prediction.

The production routes are poly(n): point counts come from the Arf invariant
of a quadratic form and group shapes from Schoof's theorem.  The scans they
replaced live on here as oracles: scan_point_count tests every x,
sampled_group_structure grows the group exponent from point orders, and
lifting_cycle_counts reads the cycles through curve x-coordinates off a
listing of the line.
"""

import math
import random
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from f2dyn import (BinaryField, CurvePoint, CurveSpec, ExtensionEmbedding,
                   FieldMismatchError, GroupStructure, InvariantViolationError,
                   MapSpec, ProjPoint, ResourceLimitError, SubsetXorSolver,
                   curve_from_map, curves, cycle_catalog, extension_of,
                   fields, group_structure, lift_x, point_add, point_count,
                   predict_orbit_length)
from f2dyn.curves import line_cycle_counts, twist_and_extension
from f2dyn.gf2x import factorize
from test_maps import point_cycles

F32 = BinaryField(5)
G = F32.primitive_element()


# -- oracles: the exponential scans --------------------------------------------


def contains(curve, x, y):
    return y * y + curve.a1 * y == x * x * x + curve.a2 * x


def scan_point_count(curve):
    """1 + 2 * #{x : Tr((x^3 + a2*x)/a1^2) = 0}, testing every x."""
    field = curve.field
    inv_sq = field.inv(field.mul(curve.a1.bits, curve.a1.bits))
    a2 = curve.a2.bits
    solvable = 0
    for x in range(field.order):
        rhs = field.mul(field.mul(x, x), x) ^ field.mul(a2, x)
        if field.trace(field.mul(rhs, inv_sq)) == 0:
            solvable += 1
    return 1 + 2 * solvable


def _rational_points(curve):
    """One representative per {P, -P} pair, in ascending x order."""
    field = curve.field
    # w -> the least z with z^2 + z = w, from a scan of the field
    halves = {}
    for z in range(field.order):
        halves.setdefault(field.sqr(z) ^ z, z)
    inv_sq = (curve.a1 * curve.a1).inv()
    for xbits in range(field.order):
        x = field.element(xbits)
        w = (x * x * x + curve.a2 * x) * inv_sq
        if field.trace(w.bits) == 0:
            yield CurvePoint(curve, x, curve.a1 * field.element(halves[w.bits]))


def scalar_mul(n: int, p: CurvePoint) -> CurvePoint:
    """n*P by double-and-add; group order is odd so negation handles n < 0."""
    if n < 0:
        return scalar_mul(-n, -p)
    acc = p.curve.identity
    addend = p
    while n:
        if n & 1:
            acc = point_add(acc, addend)
        n >>= 1
        if n:
            addend = point_add(addend, addend)
    return acc


def _point_order(p, group_order, primes):
    order = group_order
    for prime in primes:
        while order % prime == 0 and scalar_mul(order // prime, p).is_identity:
            order //= prime
    return order


def sampled_group_structure(curve):
    """E = Z/n1 x Z/n2 with n2 the group exponent: the lcm of the orders of
    48 sampled points, then checked against every point of the curve."""
    total = scan_point_count(curve)
    primes = list(factorize(total))
    exponent = 1
    for p, _ in zip(_rational_points(curve), range(48)):
        exponent = math.lcm(exponent, _point_order(p, total, primes))
        if exponent == total:
            break
    if exponent < total:
        for p in _rational_points(curve):
            if not scalar_mul(exponent, p).is_identity:
                exponent = math.lcm(exponent, _point_order(p, total, primes))
                if exponent == total:
                    break
    return GroupStructure(order=total, n1=total // exponent, n2=exponent)


def lifting_cycle_counts(cs, curve):
    """Cycle counts of a line's map restricted to the x-coordinates of curve
    points, the classes the curve's catalog enumerates (the rest of the line
    lifts only to the quadratic twist)."""
    field = curve.field
    exp, _ = field.tables()
    units, trace, target = field.mult_order, field.trace, curve.lift_target()
    counts = Counter()
    for cyc in cs.ranks:
        rank = cyc[0]  # infinity (rank units + 1) is the identity's x
        if rank > units or not trace(target(exp[rank] if rank < units else 0)):
            counts[len(cyc)] += 1
    return counts


def random_curve(rng, field):
    return curve_from_map(field.element(rng.randrange(1, field.order)),
                          field.element(rng.randrange(field.order)))


def subfield_tower(n):
    """F_2^n inside F_2^(2n), with F_2^n's modulus the minimal polynomial of
    an element of the subfield, so the embedding needs no root finding."""
    big = BinaryField(2 * n)
    for alpha in range(2, big.order):
        gamma = big.pow(alpha, (1 << n) + 1)  # a norm: it lies in F_2^n
        rows, power = {}, 1  # pivot bit -> (vector, combination of powers)
        for i in range(n + 1):
            vec, comb = power, 1 << i
            while vec and vec.bit_length() - 1 in rows:
                pivot_vec, pivot_comb = rows[vec.bit_length() - 1]
                vec, comb = vec ^ pivot_vec, comb ^ pivot_comb
            if not vec:
                break
            rows[vec.bit_length() - 1] = (vec, comb)
            power = big.mul(power, gamma)
        if comb.bit_length() - 1 == n:  # gamma generates all of F_2^n
            base = BinaryField(n, comb)
            return base, ExtensionEmbedding(base, big, gamma)
    raise AssertionError("no generator of the subfield found")


def base_lifts(curve):
    """One point per base-rational x-coordinate, skipping extension lifts."""
    for bits in range(curve.field.order):
        pts = lift_x(curve, curve.field.element(bits))
        p = min(pts, key=lambda q: q.y.bits)
        if p.curve == curve:
            yield p


def test_curve_spec_validation():
    CurveSpec(G, F32.zero)
    with pytest.raises(
            ValueError,
            match=r"^a1 must be nonzero \(the curve would be singular\)$"):
        CurveSpec(F32.zero, G)
    with pytest.raises(FieldMismatchError,
                       match="^curve coefficients lie in different fields$"):
        CurveSpec(G, BinaryField(4).one)
    curve = CurveSpec(G, G ** 2)
    assert not contains(curve, F32.zero, F32.one)
    with pytest.raises(FieldMismatchError):
        point_add(curve.identity, CurveSpec(G, G).identity)  # two curves


def test_curve_records_compare_hash_and_stay_frozen():
    curve, same = curve_from_map(G, G ** 3), CurveSpec(a1=G ** 15, a2=G)
    assert curve == same and hash(curve) == hash(same)
    assert curve != CurveSpec(G ** 15, G ** 2)
    p = next(pt for x in map(F32.element, range(F32.order))
             for pt in lift_x(curve, x)
             if pt.curve == curve)  # a point over F_32 itself
    q = CurvePoint(curve=same, x=p.x, y=p.y)
    assert p == q and hash(p) == hash(q) and len({p, q, -p}) == 2
    assert curve.identity == CurvePoint(same, None, None)
    assert -curve.identity == curve.identity
    assert repr(p) == f"CurvePoint({p.x.hex}, {p.y.hex})"
    assert repr(curve.identity) == "CurvePoint(identity)"
    gs = group_structure(curve)
    assert repr(gs) == "GroupStructure(order=41, n1=1, n2=41)"
    assert gs == GroupStructure(41, 1, 41)
    assert hash(gs) == hash(GroupStructure(order=41, n1=1, n2=41))
    cat = cycle_catalog(gs)
    assert cat == cycle_catalog(GroupStructure(41, 1, 41))
    assert hash(cat[0]) == hash(cycle_catalog(gs)[0])
    for record, name in ((curve, "a1"), (p, "x"), (gs, "order"),
                         (cat[0], "length")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_map_curve_round_trip_and_known_coefficients():
    cases = [
        (G, G ** 3, G ** 15, G),
        (G ** 3, G ** 15, G ** 14, G ** 6),
        (G ** 12, F32.zero, G ** 25, F32.zero),
    ]
    for a, b, a1, a2 in cases:
        curve = curve_from_map(a, b)
        assert (curve.a1, curve.a2) == (a1, a2)
    rng = random.Random(31)
    for _ in range(20):
        a = F32.element(rng.randrange(1, F32.order))
        b = F32.element(rng.randrange(F32.order))
        curve = curve_from_map(a, b)
        assert (curve.a1 * curve.a1).inv() == a
        assert (curve.a2 / curve.a1) ** 2 == b


def test_group_law_axioms_on_sampled_points():
    rng = random.Random(32)
    curve = curve_from_map(G, G ** 3)
    pts = list(base_lifts(curve))
    o = curve.identity
    for _ in range(60):
        p, q, r = (rng.choice(pts) for _ in range(3))
        s = point_add(p, q)
        assert s == point_add(q, p)
        assert point_add(s, r) == point_add(p, point_add(q, r))
        assert point_add(p, o) == p
        assert point_add(p, -p) == o
        assert s.is_identity or contains(curve, s.x, s.y)


def test_scalar_multiplication_and_group_order():
    curve = curve_from_map(G, G ** 3)
    order = point_count(curve)
    assert order == 41
    for p in base_lifts(curve):
        assert scalar_mul(order, p).is_identity
        assert scalar_mul(1, p) == p
        assert scalar_mul(0, p) == curve.identity
        assert scalar_mul(2, p) == point_add(p, p)
        assert scalar_mul(-3, p) == -scalar_mul(3, p)


def test_duplication_x_matches_doubling():
    """x(2P) = theta_{a,b,2}(x(P)) for the curve of theta_{a,b,2}, the
    identity's infinity included."""
    a, b = G ** 3, G ** 15
    curve = curve_from_map(a, b)
    theta = MapSpec("theta", a, b, 2)
    for p in base_lifts(curve):
        d = point_add(p, p)
        want = (ProjPoint.infinity(F32) if d.is_identity
                else ProjPoint.finite(d.x))
        assert theta.eval(ProjPoint.finite(p.x)) == want


def test_lift_x_base_and_extension():
    curve = curve_from_map(G, G ** 3)
    base_hits, ext_hits = 0, 0
    for bits in range(F32.order):
        x = F32.element(bits)
        pts = lift_x(curve, x)
        assert len(pts) == 2
        p, q = sorted(pts, key=lambda t: t.y.bits)
        assert q == -p
        if p.curve == curve:
            base_hits += 1
            assert p.x == x and contains(curve, p.x, p.y)
        else:
            ext_hits += 1
            emb = extension_of(F32, 2)
            big = curve.extended(emb)
            assert p.curve == big
            assert p.x == emb(x) and contains(big, p.x, p.y)
    assert base_hits == 20 and ext_hits == 12  # 41 = 1 + 2*20


def test_point_count_against_full_enumeration():
    rng = random.Random(33)
    for degree in (2, 3, 4):
        f = BinaryField(degree)
        for _ in range(6):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(f.order))
            curve = curve_from_map(a, b)
            brute = 1 + sum(contains(curve, f.element(x), f.element(y))
                            for x in range(f.order) for y in range(f.order))
            assert point_count(curve) == brute


def test_point_count_known_values_and_extensions():
    curve = curve_from_map(G, G ** 3)
    assert point_count(curve) == 41
    assert point_count(curve.extended(extension_of(F32, 2))) == 1025
    curve33 = curve_from_map(G ** 3, G ** 15)
    assert point_count(curve33) == 33
    assert point_count(curve_from_map(G ** 12, F32.zero)) == 33


def test_point_count_parallel_agrees():
    # A fresh field builds its trace mask on first use; counts taken from
    # several threads at once must still agree with the serial count.
    f = BinaryField(12)
    g = f.primitive_element()
    curve = curve_from_map(g, g ** 3)
    serial = point_count(curve)
    assert serial == scan_point_count(curve)
    fresh = BinaryField(12)
    fresh_curve = curve_from_map(fresh.element(g.bits),
                                 fresh.element((g ** 3).bits))
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(point_count, [fresh_curve] * 4)) == [serial] * 4
    assert serial % 2 == 1


def test_point_count_matches_scan_exhaustively():
    for degree in range(1, 6):
        f = BinaryField(degree)
        for a in range(1, f.order):
            for b in range(f.order):
                curve = curve_from_map(f.element(a), f.element(b))
                assert point_count(curve) == scan_point_count(curve), (degree, a, b)


def test_point_count_matches_scan_on_samples():
    rng = random.Random(35)
    for degree in range(6, 13):
        f = BinaryField(degree)
        for _ in range(8):
            curve = random_curve(rng, f)
            assert point_count(curve) == scan_point_count(curve), degree


def test_point_count_matches_scan_over_quadratic_extension():
    rng = random.Random(36)
    for degree in range(1, 9):
        f = BinaryField(degree)
        emb = extension_of(f, 2)
        for _ in range(2 if degree == 8 else 3):
            big = random_curve(rng, f).extended(emb)
            assert point_count(big) == scan_point_count(big), degree


def test_group_shape_matches_sampled_exponent():
    rng = random.Random(37)
    shapes = set()
    for degree in range(1, 8):
        f = BinaryField(degree)
        emb = extension_of(f, 2)
        for _ in range(4):
            curve = random_curve(rng, f)
            for over in (curve, curve.extended(emb)):
                got = group_structure(over)
                assert got == sampled_group_structure(over), (
                    degree, over)
                shapes.add(got.n1 == 1)
    assert shapes == {True, False}  # both cyclic and (Z/s)^2 groups occur


def test_weil_relation_beyond_scan_sizes():
    rng = random.Random(38)
    for degree in (24, 32, 48, 64):
        base = BinaryField(degree)
        emb = extension_of(base, 2)
        q = base.order
        curve = random_curve(rng, base)
        t = q + 1 - point_count(curve)
        assert t * t in (0, q, 2 * q, 4 * q)
        assert point_count(curve.extended(emb)) == q * q + 1 - (t * t - 2 * q)


def test_catalog_over_degree_64_extension():
    # the embedding is a cost of the field layer, timed on its own below
    base = BinaryField(32)
    emb = extension_of(base, 2)
    curve = random_curve(random.Random(39), base).extended(emb)
    start = time.perf_counter()
    gs = group_structure(curve)
    catalog = cycle_catalog(gs)
    assert time.perf_counter() - start < 2.0
    assert sum(e.point_count for e in catalog) == gs.order


def test_canonical_embedding_against_subfield_tower():
    fields.extension_of.cache_clear()
    fields._ring.cache_clear()
    start = time.perf_counter()
    extension_of(BinaryField(32), 2)
    assert time.perf_counter() - start < 0.5
    rng = random.Random(40)
    for n in (32, 64):
        base = BinaryField(n)
        emb = extension_of(base, 2)
        # the tower embeds a differently presented F_2^n by linear algebra
        # alone, so its image is the subfield found without root finding
        _, tower = subfield_tower(n)
        assert tower.ext == emb.ext
        subfield = SubsetXorSolver([tower.embed_bits(1 << i)
                                    for i in range(n)])
        root = emb(base.gen)
        value = emb.ext.zero
        for i in range(n, -1, -1):
            value = value * root + (emb.ext.one if base.modulus >> i & 1
                                    else emb.ext.zero)
        assert not value
        for _ in range(20):
            x = base.element(rng.randrange(base.order))
            y = base.element(rng.randrange(base.order))
            assert emb(x + y) == emb(x) + emb(y)
            assert emb(x * y) == emb(x) * emb(y)
            assert subfield.solve(emb(x).bits) is not None


def test_group_structure_known_values():
    emb = extension_of(F32, 2)
    gs = group_structure(curve_from_map(G, G ** 3))
    assert (gs.order, gs.n1, gs.n2) == (41, 1, 41)
    gs = group_structure(curve_from_map(G, G ** 3).extended(emb))
    assert (gs.order, gs.n1, gs.n2) == (1025, 1, 1025)
    gs = group_structure(curve_from_map(G ** 3, G ** 15))
    assert (gs.order, gs.n1, gs.n2) == (33, 1, 33)
    gs = group_structure(curve_from_map(G ** 3, G ** 15).extended(emb))
    assert (gs.order, gs.n1, gs.n2) == (1089, 33, 33)
    gs = group_structure(curve_from_map(G ** 12, F32.zero).extended(emb))
    assert (gs.order, gs.n1, gs.n2) == (1089, 33, 33)


def test_structure_divisibility_randomized():
    rng = random.Random(34)
    for degree in (2, 3, 4, 5, 6):
        f = BinaryField(degree)
        for _ in range(3):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(f.order))
            gs = group_structure(curve_from_map(a, b))
            assert gs.order % 2 == 1
            assert gs.n1 * gs.n2 == gs.order
            assert gs.n2 % gs.n1 == 0
            assert math.gcd(gs.n2, f.order - 1) % gs.n1 == 0


def test_predict_orbit_length_reproduces_line_cycles():
    curve = curve_from_map(G, G ** 3)
    mp = MapSpec("theta", G, G ** 3, 2)
    for cyc in point_cycles(mp.cycle_structure()):
        first = cyc[0]
        if first.value is None:
            p = curve.identity
        else:
            p = min(lift_x(curve, first.value), key=lambda q: q.y.bits)
        assert predict_orbit_length(p) == len(cyc)


def test_predict_orbit_length_identity_and_mismatch(monkeypatch):
    curve = curve_from_map(G, G ** 3)
    assert predict_orbit_length(curve.identity) == 1
    # a doubling that never comes back is caught after 4n steps, not 4q
    p = next(base_lifts(curve))
    doublings = []

    def runaway(point, other):
        doublings.append(point)
        return curve.identity

    monkeypatch.setattr(curves, "point_add", runaway)
    with pytest.raises(InvariantViolationError):
        predict_orbit_length(p)
    assert len(doublings) <= 4 * F32.degree + 1


def test_cycle_catalog_of_prime_cyclic_group():
    gs = group_structure(curve_from_map(G, G ** 3))
    cat = cycle_catalog(gs)
    assert sum(e.point_count for e in cat) == gs.order
    by_m = {(e.m1, e.m2): e for e in cat}
    top = by_m[(1, 41)]
    assert (top.d1, top.d2) == (1, 1)
    assert top.point_count == 40 and top.length == 10 and top.cycle_count == 2
    ident = by_m[(1, 1)]
    assert ident.point_count == 1


def test_cycle_catalog_is_sized_before_its_rows(monkeypatch):
    """(Z/33)^2 has D(33)^2 = 16 divisor pairs: past a budget of 15 rows
    the catalog refuses before it computes any row."""
    def no_row(modulus):
        raise AssertionError("a row was built")

    gs = GroupStructure(order=1089, n1=33, n2=33)
    assert len(cycle_catalog(gs)) == 16
    monkeypatch.setattr(curves, "POINT_LIMIT", 15)
    monkeypatch.setattr(curves, "_signed_exponents", no_row)
    with pytest.raises(ResourceLimitError,
                       match="^a catalog of 16 rows exceeds the budget of 15$"):
        cycle_catalog(gs)


def test_signed_exponents_match_their_definition():
    """Both outputs for every odd modulus below 3001, against the least
    k >= 1 with 2^k = 1 and with 2^k = -1 (None when no power is -1) read
    off the powers of 2 mod m; modulus 1 gives (1, 1)."""
    for m in range(1, 3001, 2):
        powers = [pow(2, k, m) for k in range(1, m + 1)]
        plus = powers.index(1 % m) + 1
        minus = powers.index(m - 1) + 1 if m - 1 in powers else None
        assert curves._signed_exponents(m) == (plus, minus), m


def test_cycle_catalog_divisor_rows_over_extension():
    gs = group_structure(curve_from_map(G, G ** 3).extended(extension_of(F32, 2)))
    assert (gs.n1, gs.n2) == (1, 1025)
    rows = {(e.d1, e.d2): e for e in cycle_catalog(gs)}
    assert rows[(1, 205)].length == 2
    assert rows[(1, 25)].length == 10
    assert sum(e.point_count for e in rows.values()) == 1025


def test_catalog_length_sets_for_order_33():
    gs = group_structure(curve_from_map(G ** 3, G ** 15))
    catalog = cycle_catalog(gs)
    realized = {e.length for e in catalog}
    possible = {m for e in catalog for m in e.possible_lengths}
    assert realized == {1, 5}
    assert possible == {1, 2, 5, 10}


def test_catalog_cycle_counts_match_line_dynamics():
    # over the quadratic extension every x lifts, so the catalog of
    # E(F_2^10) accounts for the full projective line over F_32 as well as
    # the curve-rational slice of the line over F_2^10
    gs = group_structure(
        curve_from_map(G ** 3, G ** 15).extended(extension_of(F32, 2)))
    cat = cycle_catalog(gs)
    assert sum(e.point_count for e in cat) == 33 * 33
    sigma = MapSpec("theta", G ** 3, G ** 15, 2)
    assert sigma.cycle_structure().summary == {1: 3, 5: 6}
    # 33 base x-classes: identity + 16 affine pairs; lengths realized at
    # full order 33 come out as six five-cycles plus fixed points
    base = group_structure(curve_from_map(G ** 3, G ** 15))
    assert {e.length for e in cycle_catalog(base)} == {1, 5}
    # over the base field the curve and its twist share the line: each x
    # lifts to exactly one of them, so their catalogs are its whole summary
    rng = random.Random(41)
    classes = set()
    for degree in range(1, 13):
        f = BinaryField(degree)
        for _ in range(6):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(f.order))
            curve = curve_from_map(a, b)
            gs = group_structure(curve)
            twist, big = twist_and_extension(gs, f.order)
            counts = line_cycle_counts(cycle_catalog(gs), cycle_catalog(twist))
            assert gs.order + twist.order == 2 * (f.order + 1)
            assert counts == MapSpec("theta", a, b, 2).cycle_structure().summary
            # Weil and Schoof give the group the Arf count finds over F_q^2
            assert big == group_structure(
                curve.extended(extension_of(f, 2))), (degree, a, b)
            t = f.order + 1 - gs.order
            classes.add(t * t // f.order)
    assert classes == {0, 1, 2, 4}


def test_twist_completes_the_line_over_f32():
    """The worked example: #E = 41 and #E' = 25 give the cycles of the
    quartic figure, 1 of length 1, 1 of length 2 and 3 of length 10."""
    gs = group_structure(curve_from_map(G, G ** 3))
    twist, big = twist_and_extension(gs, F32.order)
    counts = line_cycle_counts(cycle_catalog(gs), cycle_catalog(twist))
    assert (big.order, big.n1, big.n2) == (1025, 1, 1025)
    assert (gs.order, twist.order) == (41, 25)
    assert (twist.n1, twist.n2) == (1, 25)
    assert counts == {1: 1, 2: 1, 10: 3}
    assert counts == MapSpec("theta", G, G ** 3, 2).cycle_structure().summary
