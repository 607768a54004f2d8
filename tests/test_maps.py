"""Projective-line maps: evaluation, cycles, closed forms, quartic reduction."""

import random
import time

import pytest

from f2dyn import (BinaryField, ClosedFormIterate, CycleStructure,
                   FieldMismatchError, InvariantViolationError, MapSpec,
                   ProjPoint, QuarticReduction, ResourceLimitError,
                   Semilinear, closed_form, extension_of, reduce_to_quartic)
from f2dyn.maps import _quartic_coefficients

F32 = BinaryField(5)
G = F32.primitive_element()


# -- the replaced routes, kept as oracles of the pair-based ones --------------


def ref_closed_form(a, b, q, m):
    """(lead, tail) of the m-th iterate of x -> a*x^q + b, step by step."""
    step = q.bit_length() - 1
    pow_a = a.field.one  # a^(s_t), starting from s_0 = 0
    pow_b = b  # b^(q^t)
    tail = a.field.zero
    for _ in range(m):
        tail = tail + pow_a * pow_b
        pow_a = pow_a.frob(step) * a  # s_(t+1) = q*s_t + 1
        pow_b = pow_b.frob(step)
    return pow_a, tail


def ref_quartic_verify(red):
    """The defining identity of a quartic reduction, point by point over the
    embedded base field (infinity is fixed by both sides)."""
    emb, k = red.embedding, red.source_k
    for bits in range(emb.base.order):
        x = emb.base.element(bits)
        want = red.source_a * x.frob(k) + red.source_b
        if red.parity == "odd":
            want = red.source_a * want.frob(k) + red.source_b
        cur = emb(x)
        for _ in range(red.j):
            cur = red.c * cur.frob(2) + red.d
        if cur != emb(want):
            return False
    return True


def ref_quartic_coefficients(c, j):
    """The j terms c^(s_i), s_i = (4^i - 1)/3, of the quartic reduction's
    linearized map, one per i < j."""
    coeffs, pow_c = [], c.field.one
    for _ in range(j):
        coeffs.append(pow_c)
        pow_c = pow_c.frob(2) * c
    return coeffs


def ref_linearized(coeffs, x):
    """sum of coeffs[i] * x^(4^i), term by term."""
    acc, power = x.field.zero, x
    for coef in coeffs:
        acc, power = acc + coef * power, power.frob(2)
    return acc


def ref_then(first, second):
    """The general twisted 2x2 product (M2 * sigma^s2(M1), s1 + s2), every
    entry formed, whatever the rows hold."""
    f, s = first.field, second.s
    (p, q), (r, t) = second.m
    (p1, q1), (r1, t1) = ([f.frob(v, s) for v in row] for row in first.m)
    return Semilinear(f, ((f.mul(p, p1) ^ f.mul(q, r1),
                           f.mul(p, q1) ^ f.mul(q, t1)),
                          (f.mul(r, p1) ^ f.mul(t, r1),
                           f.mul(r, q1) ^ f.mul(t, t1))), first.s + s)


def line_images(mp):
    """The pointwise oracle of cycle_structure: the image of every point
    encoding 0..order (order = infinity), one evaluation each."""
    ev = mp.pair.eval_int
    return [ev(i) for i in range(mp.field.order + 1)]


def is_bijection(mp):
    images = line_images(mp)
    return len(set(images)) == len(images)


def point_cycles(cs):
    """The cycles of cs as points: rank i < N = 2^n - 1 is g^i, rank N is
    zero and rank N + 1 infinity."""
    field = cs.map.field
    units, g = field.mult_order, field.primitive_element()
    special = (ProjPoint.finite(field.zero), ProjPoint.infinity(field))
    return [tuple(ProjPoint.finite(g ** r) if r < units else special[r - units]
                  for r in cyc) for cyc in cs.ranks]


def tokens(cycle):
    """Cycle as g-exponents, with '0' for zero and 'inf' for infinity."""
    out = []
    for p in cycle:
        if p.value is None:
            out.append("inf")
        elif not p.value:
            out.append("0")
        else:
            out.append(p.value.log())
    return out


def figure(map_spec):
    return [tokens(c) for c in point_cycles(map_spec.cycle_structure())]


def test_proj_point_basics():
    inf = ProjPoint.infinity(F32)
    fin = ProjPoint.finite(G)
    assert inf.value is None and fin.value is not None
    assert inf == ProjPoint.infinity(F32)
    assert fin == ProjPoint.finite(G) and fin != inf
    assert hash(fin) == hash(ProjPoint.finite(G))
    assert inf != ProjPoint.infinity(BinaryField(4))


def test_proj_point_is_a_record():
    """A point is an immutable (field, value) record: fields cannot be
    assigned, equal points hash equal, points over different fields (or
    moduli) differ, and the mismatch check and both repr forms hold."""
    fin = ProjPoint.finite(F32.element(2))
    with pytest.raises(AttributeError):
        fin.value = G
    with pytest.raises(AttributeError):
        fin.label = "g"
    same = ProjPoint(F32, F32.element(2))
    assert fin == same and hash(fin) == hash(same)
    other = BinaryField(5, 0x2F)
    assert fin != ProjPoint.finite(other.element(2))
    assert ProjPoint.finite(F32.one) != ProjPoint.finite(BinaryField(4).one)
    with pytest.raises(FieldMismatchError,
                       match="^point value lies in a different field$"):
        ProjPoint(F32, other.one)
    assert repr(ProjPoint.infinity(F32)) == "ProjPoint(inf, F_2^5)"
    assert repr(fin) == "ProjPoint(0x2, F_2^5)"


def test_map_spec_validation():
    with pytest.raises(ValueError, match="^unknown map kind 'frobnicate'$"):
        MapSpec("frobnicate", G, G, 2)
    with pytest.raises(ValueError, match="^coefficient a must be nonzero$"):
        MapSpec("theta", F32.zero, G, 2)
    k_message = "^k must be >= 0 for theta and >= 1 for psi$"
    with pytest.raises(ValueError, match=k_message):
        MapSpec("psi", G, G, 0)
    with pytest.raises(ValueError, match=k_message):
        MapSpec("theta", G, G, -1)
    with pytest.raises(FieldMismatchError,
                       match="^coefficients lie in different fields$"):
        MapSpec("theta", G, BinaryField(4).one, 2)
    MapSpec("theta", G, F32.zero, 0)  # k = 0 is a valid affine map


def test_map_records_compare_hash_and_stay_frozen():
    mp = MapSpec("theta", G, G ** 3, 2)
    same = MapSpec(kind="theta", a=G, b=G ** 3, k=2)
    assert mp == same and hash(mp) == hash(same)
    assert mp != MapSpec("theta", G, G ** 3, 3)
    assert repr(mp) == f"MapSpec(kind='theta', a={G!r}, b={G ** 3!r}, k=2)"
    assert not hasattr(mp, "__dict__")  # __slots__ = (), like every record
    cs = mp.cycle_structure()
    assert cs == mp.cycle_structure() and hash(cs) == hash(mp.cycle_structure())
    for record, name in ((mp, "k"), (mp, "a"), (cs, "ranks")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(InvariantViolationError,
                       match="^cycles cover 32 points, expected 33$"):
        CycleStructure(map=mp, ranks=cs.ranks[:-1])
    it = closed_form(G, G ** 3, 4, 2)
    assert it == closed_form(G, G ** 3, 4, 2)
    with pytest.raises(AttributeError):
        it.lead = F32.one


def test_eval_special_points():
    theta = MapSpec("theta", G, G ** 3, 2)
    psi = MapSpec("psi", G, G ** 2, 2)
    inf = ProjPoint.infinity(F32)
    assert theta.eval(inf) == inf
    assert psi.eval(inf) == ProjPoint.finite(F32.zero)
    # the pole of psi: a*x^4 + b = 0 at x = g^8 since (g^8)^4 = g
    assert psi.eval(ProjPoint.finite(G ** 8)) == inf
    with pytest.raises(FieldMismatchError):
        theta.eval(ProjPoint.infinity(BinaryField(4)))


def test_eval_matches_formula_everywhere():
    theta = MapSpec("theta", G ** 3, G ** 7, 2)
    psi = MapSpec("psi", G ** 3, G ** 7, 2)
    for bits in range(F32.order):
        x = F32.element(bits)
        image = theta.eval(ProjPoint.finite(x))
        want = G ** 3 * x.frob(2) + G ** 7
        assert image == ProjPoint.finite(want)
        pimage = psi.eval(ProjPoint.finite(x))
        if not want:
            assert pimage.value is None
        else:
            assert pimage == ProjPoint.finite(want.inv())


def test_both_families_are_bijections():
    rng = random.Random(21)
    for degree in (1, 2, 3, 4):
        f = BinaryField(degree)
        for abits in range(1, f.order):
            for bbits in range(f.order):
                a, b = f.element(abits), f.element(bbits)
                for k in (1, 2, 3):
                    assert is_bijection(MapSpec("theta", a, b, k))
                    assert is_bijection(MapSpec("psi", a, b, k))
    f = BinaryField(6)
    for _ in range(20):
        a = f.element(rng.randrange(1, f.order))
        b = f.element(rng.randrange(f.order))
        k = rng.randrange(1, 5)
        kind = rng.choice(("theta", "psi"))
        assert is_bijection(MapSpec(kind, a, b, k))


def test_cycle_structure_partitions_the_line():
    mp = MapSpec("psi", G ** 4, G ** 9, 3)
    cs = mp.cycle_structure()
    cycles = point_cycles(cs)
    points = [p for c in cycles for p in c]
    assert len(points) == F32.order + 1
    assert len(set(points)) == F32.order + 1
    for cyc in cycles:
        for p, nxt in zip(cyc, cyc[1:] + cyc[:1]):
            assert mp.eval(p) == nxt
    assert sum(length * n for length, n in cs.summary.items()) == F32.order + 1


def test_cycle_ordering_is_canonical():
    def key(p):
        if p.value is None:
            return p.field.order
        if not p.value:
            return p.field.order - 1
        return p.value.log()

    for spec in (MapSpec("theta", G, G ** 3, 2),
                 MapSpec("psi", G ** 2, G ** 11, 2),
                 MapSpec("theta", G ** 9, F32.zero, 3)):
        cycles = point_cycles(spec.cycle_structure())
        starts = [key(c[0]) for c in cycles]
        assert starts == sorted(starts)
        for cyc in cycles:
            assert key(cyc[0]) == min(key(p) for p in cyc)


def test_quartic_theta_cycle_figure():
    mp = MapSpec("theta", G, G ** 3, 2)
    assert figure(mp) == [
        [0, 6, 10, 25, 5, 4, 16, "0", 3, 7],
        [1, 8, 20, 12, 27, 17, 13, 14, 15, 9],
        [2, 30, 24, 21, 11, 22, 18, 23, 29, 28],
        [19, 26],
        ["inf"],
    ]
    assert mp.cycle_structure().summary == {1: 1, 2: 1, 10: 3}


def test_reciprocal_psi_cycle_figure():
    mp = MapSpec("psi", G, G ** 2, 2)
    assert figure(mp) == [
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
    assert mp.cycle_structure().summary == {1: 3, 5: 6}


def test_cycles_are_the_ranks_as_points():
    """The ranks, read as points (g^i for rank i < N, zero for N and
    infinity for N + 1), are the cycles of the pointwise permutation."""
    for mp in (MapSpec("theta", G, G ** 3, 2), MapSpec("psi", G ** 4, G ** 9, 3),
               MapSpec("theta", G ** 9, F32.zero, 0)):
        perm, seen = line_images(mp), []
        for cyc in point_cycles(mp.cycle_structure()):
            codes = [F32.order if p.value is None else p.value.bits for p in cyc]
            assert [perm[c] for c in codes] == codes[1:] + codes[:1]
            seen += codes
        assert sorted(seen) == list(range(F32.order + 1))


def test_rank_permutation_matches_the_pointwise_map_at_every_twist():
    """rank_permutation twists its row by 2^s strided slices, one per
    j < 2^s; every s in range(n), given as k = s and as k = s + n, must
    send each rank where eval_int sends its point."""
    rng = random.Random(20)
    for n in (1, 2, 3, 4, 5, 6, 9, 12):
        f = BinaryField(n)
        units, (exp, log) = f.mult_order, f.tables()
        point = [exp[r] for r in range(units)] + [0, f.order]  # by rank
        rank = {x: r for r, x in enumerate(point)}
        a, b = rng.randrange(1, f.order), rng.randrange(f.order)
        while True:  # a general pair: p, r nonzero, so neither row is a unit
            p, r = rng.randrange(1, f.order), rng.randrange(1, f.order)
            q, t = rng.randrange(f.order), rng.randrange(f.order)
            if f.mul(p, t) != f.mul(q, r):
                break
        for s in range(n):
            for k in (s, s + n):
                for m in (((a, b), (0, 1)), ((0, 1), (a, b)), ((p, q), (r, t))):
                    pair = Semilinear(f, m, k)
                    want = [rank[pair.eval_int(x)] for x in point]
                    assert pair.rank_permutation() == want, (n, k, m)


def test_line_scans_are_sized_before_they_start():
    """Above the exp/log tables the rank kernel refuses at once."""
    wide = BinaryField(20)
    mp = MapSpec("theta", wide.gen, wide.one, 2)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        mp.cycle_structure()
    assert time.perf_counter() - start < 0.5


def test_closed_form_first_iterate_and_geometric_sum():
    a, b = G ** 4, G ** 22
    it = closed_form(a, b, 4, 1)
    assert it.lead == a and it.tail == b
    # the record keeps the answer only: x^(q^m) = x^(2^s), s taken mod n
    assert ClosedFormIterate._fields == ("lead", "tail", "s")
    assert it.s == 2 and closed_form(a, b, 4, 3).s == 6 % 5
    # lead = a^(1 + q + ... + q^(m-1))
    for m in range(1, 8):
        assert closed_form(a, b, 4, m).lead == a ** ((4 ** m - 1) // 3)
        assert closed_form(a, b, 2, m).lead == a ** (2 ** m - 1)
        assert closed_form(a, b, 1, m).lead == a ** m


def test_closed_form_matches_naive_iteration():
    rng = random.Random(22)
    for degree in (3, 4, 5, 20, 64):
        f = BinaryField(degree)
        sampled = degree > 5
        for _ in range(12):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(f.order))
            q = rng.choice((2, 4, 8))
            # past m = n the Frobenius powers b^(q^t) wrap around the degree
            m = (rng.randrange(degree + 1, 2 * degree) if sampled
                 else rng.randrange(1, 11))
            it = closed_form(a, b, q, m)
            step = q.bit_length() - 1
            sample = ([rng.randrange(f.order) for _ in range(3)] if sampled
                      else range(f.order))
            for bits in sample:
                x = f.element(bits)
                cur = x
                for _ in range(m):
                    cur = a * cur.frob(step) + b
                assert it.eval(x) == cur


def test_closed_form_matches_reference_loop():
    rng = random.Random(23)
    for degree in (1, 2, 3, 5, 8, 17, 64):
        f = BinaryField(degree)
        for _ in range(10):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(f.order))
            q = rng.choice((1, 2, 4, 8, 1 << 70))
            m = rng.randrange(1, 3 * degree + 4)
            it = closed_form(a, b, q, m)
            assert (it.lead, it.tail) == ref_closed_form(a, b, q, m), \
                (degree, a, b, q, m)


def test_closed_form_of_a_huge_iterate():
    f = BinaryField(64)
    rng = random.Random(24)
    a = f.element(rng.randrange(1, f.order))
    b = f.element(rng.randrange(f.order))
    m = 1 << 70
    start = time.perf_counter()
    it = closed_form(a, b, 4, m)
    assert time.perf_counter() - start < 1.0
    m1 = rng.randrange(1, m)
    first, second = closed_form(a, b, 4, m1), closed_form(a, b, 4, m - m1)
    for _ in range(3):
        x = f.element(rng.randrange(f.order))
        assert it.eval(x) == second.eval(first.eval(x))


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form(G, G, 3, 2)
    with pytest.raises(ValueError):
        closed_form(G, G, 4, 0)
    with pytest.raises(ValueError):
        closed_form(F32.zero, G, 4, 2)
    with pytest.raises(FieldMismatchError):
        closed_form(G, BinaryField(4).one, 4, 2)


def test_reduce_to_quartic_known_odd_case():
    red = reduce_to_quartic(G ** 7, G ** 3, 3)
    assert red.parity == "odd" and red.j == 3
    assert red.embedding.relative_degree == 1
    assert red.c == G ** 3 and red.d == G ** 15
    assert red.verify()
    # the quartic map realizes six 5-cycles and three fixed points
    assert red.quartic_map().cycle_structure().summary == {1: 3, 5: 6}


def test_reduce_to_quartic_even_k_is_identity_rewrite():
    red = reduce_to_quartic(G ** 7, G ** 3, 2)
    assert red.parity == "even" and red.j == 1
    assert red.c == G ** 7 and red.d == G ** 3
    assert red.verify()


def test_reduce_to_quartic_even_k_four():
    f = BinaryField(3)
    g = f.primitive_element()
    red = reduce_to_quartic(g, g ** 3, 4)
    assert red.parity == "even" and red.j == 2
    assert red.verify()
    src = MapSpec("theta", g, g ** 3, 4)
    emb = red.embedding
    quartic = red.quartic_map()
    for bits in range(f.order):
        p = ProjPoint.finite(emb(f.element(bits)))
        for _ in range(red.j):
            p = quartic.eval(p)
        want = emb(src.eval(ProjPoint.finite(f.element(bits))).value)
        assert p == ProjPoint.finite(want)


def test_quartic_reduction_verify_rejects_wrong_pair():
    emb = extension_of(F32, 1)
    good = QuarticReduction(G ** 7, G ** 3, 3, G ** 3, G ** 15, emb)
    assert good.verify() and ref_quartic_verify(good)
    bad = QuarticReduction(G ** 7, G ** 3, 3, G ** 3, G ** 16, emb)
    assert not bad.verify() and not ref_quartic_verify(bad)


def test_quartic_verify_matches_pointwise_reference():
    """Every solved reduction verifies both ways; moving b by a step that
    changes the target tail (b itself for even k, a*b^q + b for odd k) makes
    both say False."""
    rng = random.Random(25)
    solved = 0
    for degree in range(1, 9):
        f = BinaryField(degree)
        for _ in range(8):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(f.order))
            k = rng.randrange(2, 8)
            try:
                red = reduce_to_quartic(a, b, k, max_relative_degree=3)
            except ResourceLimitError:
                continue
            solved += 1
            assert red.verify() and ref_quartic_verify(red), (degree, a, b, k)
            step = next((d for d in map(f.element, range(1, f.order)) if (
                d if red.parity == "even" else a * d.frob(k) + d)), None)
            if step is None:  # over F_2 with a = 1, every b has one tail
                continue
            moved = QuarticReduction(a, b + step, k, red.c, red.d,
                                     red.embedding)
            assert not moved.verify() and not ref_quartic_verify(moved)
    assert solved >= 40, solved


def test_folded_quartic_coefficients_match_the_term_loop():
    """Up to the period P = N/gcd(N, 2) the coefficients are the loop's own
    terms; past it the folded map is the same map of F_{2^N}."""
    rng = random.Random(27)
    for degree in range(1, 9):
        f = BinaryField(degree)
        period = degree // (2 if degree % 2 == 0 else 1)
        basis = [f.element(1 << i) for i in range(degree)]
        for _ in range(6):
            c = f.element(rng.randrange(1, f.order))
            for j in range(1, 3 * degree + 1):
                want = ref_quartic_coefficients(c, j)
                got = _quartic_coefficients(c, j)
                if j <= period:
                    assert got == want
                assert len(got) == min(j, period)
                assert [ref_linearized(got, x) for x in basis] == \
                    [ref_linearized(want, x) for x in basis], (degree, c, j)


def test_quartic_search_past_the_root_budget_is_refused():
    """theta_{1,0,24} over F_2^24 needs the roots of x^d = 1 with
    d = gcd(s_12, 2^24 - 1) = 5592405: refused before any search."""
    f = BinaryField(24)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        reduce_to_quartic(f.one, f.zero, 24)
    assert time.perf_counter() - start < 1.0


def test_reduce_to_quartic_of_a_huge_exponent():
    """k near 10^9 over F_32: s_j by modular powering and the linearized map
    folded to the period, so the search costs what k = 3 costs."""
    for k in (10**9 + 3, 999999937, 10**9 + 1):
        start = time.perf_counter()
        red = reduce_to_quartic(G ** 7, G ** 3, k)
        assert time.perf_counter() - start < 1.0
        assert red.parity == "odd" and red.j == k
        assert red.verify()


def test_reduce_to_quartic_validation_and_limits():
    with pytest.raises(ValueError):
        reduce_to_quartic(G, G, 1)
    with pytest.raises(ValueError):
        reduce_to_quartic(F32.zero, G, 2)
    with pytest.raises(ResourceLimitError):
        reduce_to_quartic(G ** 7, G ** 3, 3, max_relative_degree=0)


def test_pair_composites_match_pointwise_iteration():
    psi = MapSpec("psi", G ** 4, G ** 9, 3)
    theta = MapSpec("theta", G ** 7, G ** 3, 2)
    both = psi.pair.then(theta.pair)  # psi first
    cube = psi.pair.power(3)
    for i in range(F32.order + 1):
        assert both.eval_int(i) == theta.pair.eval_int(psi.pair.eval_int(i))
        assert cube.eval_int(i) == psi.pair.eval_int(
            psi.pair.eval_int(psi.pair.eval_int(i)))
    assert cube.same_map(psi.pair.then(psi.pair).then(psi.pair))
    assert not cube.same_map(psi.pair.power(2))
    scalar = Semilinear(F32, ((G.bits, 0), (0, G.bits)), 0)
    assert psi.pair.power(0).same_map(scalar)
    with pytest.raises(ValueError):
        psi.pair.power(-1)
    with pytest.raises(FieldMismatchError):
        psi.pair.then(Semilinear(BinaryField(4), ((1, 0), (0, 1)), 0))


def test_affine_then_is_the_general_product():
    """Two theta pairs compose, top row only, to exactly the matrix and twist
    of the general product, at every twist 0..2n of the second, over
    tabled, fresh and wide fields and a dense modulus."""
    rng = random.Random(30)
    tabled = BinaryField(8)
    tabled.tables()
    cases = [BinaryField(1), BinaryField(3), tabled, BinaryField(12),
             BinaryField(17), BinaryField(64), BinaryField(131),
             BinaryField(64, 0x18000000000000049)]
    for f in cases:
        n = f.degree
        for s2 in range(2 * n + 1):
            first, second = (Semilinear(
                f, ((rng.randrange(1, f.order), rng.randrange(f.order)),
                    (0, 1)), s) for s in (rng.randrange(3 * n), s2))
            got, want = first.then(second), ref_then(first, second)
            assert (got.m, got.s) == (want.m, want.s), (f, s2)
            assert got.m[1] == (0, 1)


def test_power_is_the_e_fold_product():
    """power(e) has exactly the matrix and twist of e general products, for
    e = 0..40 and 2^j +- 1, on theta, psi and random full pairs over a
    tabled, a fresh and a wide field."""
    rng = random.Random(31)
    exponents = set(range(41)) | {(1 << j) + d for j in range(2, 10)
                                  for d in (-1, 1)}
    for n in (5, 12, 64):
        f = BinaryField(n)
        a, b = rng.randrange(1, f.order), rng.randrange(f.order)
        k = rng.randrange(1, 2 * n)
        pairs = [MapSpec(kind, f.element(a), f.element(b), k).pair
                 for kind in ("theta", "psi")]
        while len(pairs) < 4:
            p, q, r, t = (rng.randrange(f.order) for _ in range(4))
            if f.mul(p, t) != f.mul(q, r):
                pairs.append(Semilinear(f, ((p, q), (r, t)),
                                        rng.randrange(2 * n)))
        for pair in pairs:
            folded = Semilinear(f, ((1, 0), (0, 1)), 0)
            for e in range(max(exponents) + 1):
                if e in exponents:
                    got = pair.power(e)
                    assert (got.m, got.s) == (folded.m, folded.s), (f, e)
                folded = ref_then(folded, pair)


def test_same_map_is_pointwise_equality():
    """Scaling the matrix keeps the map; moving the twist by 1 changes it
    except over F_2, and moving it by the degree never does."""
    rng = random.Random(26)
    for degree in (1, 2, 3, 5):
        f = BinaryField(degree)
        units = range(1, f.order)
        for _ in range(30):
            p, q, r, t = (rng.randrange(f.order) for _ in range(4))
            if f.mul(p, t) == f.mul(q, r):
                continue
            lam = rng.choice(units)
            pair = Semilinear(f, ((p, q), (r, t)), rng.randrange(degree))
            scaled = [[f.mul(lam, v) for v in row] for row in pair.m]
            for shift in (0, 1, degree):
                other = Semilinear(f, scaled, pair.s + shift)
                pointwise = all(pair.eval_int(i) == other.eval_int(i)
                                for i in range(f.order + 1))
                assert pair.same_map(other) == pointwise, (degree, shift)
                assert pointwise == (shift % degree == 0)

