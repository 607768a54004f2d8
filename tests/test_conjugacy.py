"""Conjugating reciprocal maps to theta_{c,0,k} and counting fixed points."""

import hashlib
import math
import random
import time
from collections import Counter

import pytest

from f2dyn import (BinaryField, ConjugacyData, FieldMismatchError,
                   InvariantViolationError, MapSpec, ProjPoint,
                   ResourceLimitError, Semilinear, SubsetXorSolver, TauMap,
                   bluher_counts, bluher_distribution, bluher_root_count,
                   conjugacy, element_echo, extension_of, fixed_point_count,
                   maps, polynomial_roots, solve_conjugation,
                   verify_conjugation)
from f2dyn.cli import main

F32 = BinaryField(5)
G = F32.primitive_element()
PSI = MapSpec("psi", G, G ** 2, 2)


def scan_root_count(a, k, field):
    """Small-field oracle: (roots of x^(2^k+1) + x + a, finite fixed points
    of psi_{1/a,1/a}), each by scanning the whole field."""
    s = k % field.degree
    roots = sum(1 for x in range(field.order)
                if field.mul(field.frob(x, s), x) ^ x == a.bits)
    inv = a.inv()
    psi = MapSpec("psi", inv, inv, k).pair
    fixed = sum(1 for x in range(field.order) if psi.eval_int(x) == x)
    return roots, fixed


def ref_projective_roots(u, v, w, k):
    """Reference for the fixed points of psi: ascending encodings of the
    roots of u*x^(2^k+1) + v*x + w (u nonzero) in the coefficients' field,
    by a root search on degree 2^t + 1, t = min(s, n - s), s = k mod n.
    When n - s < s the substitution x = y^(2^(n-s)) (a bijection, with
    x^(2^s) = y) turns the polynomial into u*y^(q+1) + v*y^q + w with
    q = 2^(n-s)."""
    field = u.field
    n = field.degree
    s = k % n
    t = min(s, n - s)
    q = 1 << t
    coeffs = [w] + [field.zero] * q + [u]
    coeffs[1 if t == s else q] = v
    return sorted(r.bits if t == s else field.frob(r.bits, n - s)
                  for r in polynomial_roots(coeffs))


def line(field):
    yield ProjPoint.infinity(field)
    for bits in range(field.order):
        yield ProjPoint.finite(field.element(bits))


# -- pointwise oracle of verify_conjugation: the maps by their formulas, None
# standing for infinity

def ref_psi(a, b, k, x):
    if x is None:
        return a.field.zero
    t = a * x.frob(k) + b
    return t.inv() if t else None


def ref_theta(c, k, x):
    return None if x is None else c * x.frob(k)


def ref_tau(data, x):
    if x is None:
        return data.c2.inv()
    denom = data.c2 * x + data.c3
    return (x + data.c1) / denom if denom else None


def ref_verify_conjugation(data):
    """psi(tau(x)) = tau(theta_{c,0,k}(x)) at every point of the line."""
    emb, k = data.embedding, data.map.k
    a, b = emb(data.map.a), emb(data.map.b)
    ext = emb.ext
    points = [None] + [ext.element(i) for i in range(ext.order)]
    return all(ref_psi(a, b, k, ref_tau(data, x))
               == ref_tau(data, ref_theta(data.c, k, x)) for x in points)


def test_known_tuple_is_found_in_the_base_field():
    data = solve_conjugation(PSI)
    assert data.is_base_field
    assert (data.c1, data.c2, data.c3, data.c) == (G, G ** 3, G ** 8, G ** 12)
    assert data.system_holds()
    assert verify_conjugation(data) and ref_verify_conjugation(data)


def test_documented_tuple_validates_independently():
    emb = extension_of(F32, 1)
    data = ConjugacyData(map=PSI, embedding=emb, c=G ** 12, c1=G,
                         c2=G ** 3, c3=G ** 8)
    assert data.system_holds()
    assert verify_conjugation(data) and ref_verify_conjugation(data)


def test_perturbed_constant_fails_the_system():
    emb = extension_of(F32, 1)
    data = ConjugacyData(map=PSI, embedding=emb, c=G ** 12, c1=G,
                         c2=G ** 3, c3=G ** 30)
    assert not data.system_holds()
    assert not verify_conjugation(data) and not ref_verify_conjugation(data)


def test_conjugacy_data_validation():
    emb = extension_of(F32, 1)
    with pytest.raises(
            ValueError,
            match="^conjugacy data describes reciprocal maps only$"):
        ConjugacyData(map=MapSpec("theta", G, G ** 2, 2), embedding=emb,
                      c=G ** 12, c1=G, c2=G ** 3, c3=G ** 8)
    with pytest.raises(ValueError, match="^c2 and c3 must be nonzero$"):
        ConjugacyData(map=PSI, embedding=emb, c=G ** 12, c1=G,
                      c2=F32.zero, c3=G ** 8)
    with pytest.raises(FieldMismatchError,
                       match="^c1 lies outside the extension field$"):
        ConjugacyData(PSI, emb, G ** 12, extension_of(F32, 2).ext.one,
                      G ** 3, G ** 8)
    with pytest.raises(FieldMismatchError,
                       match="^embedding does not start at the map's field$"):
        ConjugacyData(PSI, extension_of(BinaryField(4), 1), G ** 12, G,
                      G ** 3, G ** 8)
    with pytest.raises(ValueError):
        solve_conjugation(MapSpec("theta", G, G ** 2, 2))
    data = ConjugacyData(PSI, emb, G ** 12, G, G ** 3, G ** 8)
    assert data == solve_conjugation(PSI)
    assert hash(data) == hash(solve_conjugation(PSI))
    assert TauMap(data) == TauMap(solve_conjugation(PSI))
    with pytest.raises(AttributeError):
        data.c = G


def test_tau_special_points_and_inverse():
    data = solve_conjugation(PSI)
    tau = TauMap(data)
    inf = ProjPoint.infinity(F32)
    assert tau.eval(inf) == ProjPoint.finite(G ** 28)           # 1/c2
    assert tau.eval(ProjPoint.finite(data.c3 / data.c2)) == inf  # the pole
    assert tau.eval(ProjPoint.finite(data.c1)) == ProjPoint.finite(F32.zero)
    assert tau.eval(ProjPoint.finite(F32.zero)) == ProjPoint.finite(G ** 24)
    assert tau.eval(inf) == tau.pair.eval(inf)
    for p in line(F32):
        want = ref_tau(data, p.value)
        assert tau.eval(p) == (inf if want is None else ProjPoint.finite(want))


def test_conjugation_transports_cycles():
    data = solve_conjugation(PSI)
    assert PSI.cycle_structure().summary == {1: 3, 5: 6}
    assert data.normal_form().cycle_structure().summary == {1: 3, 5: 6}
    # conjugation identity at every point: psi(tau(x)) == tau(theta(x))
    tau = TauMap(data)
    theta = data.normal_form()
    for p in line(F32):
        assert PSI.eval(tau.eval(p)) == tau.eval(theta.eval(p))


def test_fixed_point_count_known_case():
    assert fixed_point_count(G ** 12, 2) == 3
    fixed = {p for p in line(F32) if PSI.eval(p) == p}
    assert fixed == {ProjPoint.finite(G ** 14), ProjPoint.finite(G ** 24),
                     ProjPoint.finite(G ** 28)}


def test_fixed_point_count_matches_normal_form_sweep():
    f = BinaryField(4)
    for cbits in range(1, f.order):
        c = f.element(cbits)
        for k in (1, 2, 3):
            theta = MapSpec("theta", c, f.zero, k).pair
            assert fixed_point_count(c, k) == len(theta.fixed_points())
    # both branches of the formula occur: gcd(2^2-1, 2^4-1) = 3
    g = f.primitive_element()
    assert fixed_point_count(g, 2) == 2
    assert fixed_point_count(g ** 3, 2) == 5


def test_fixed_point_count_validation():
    with pytest.raises(ValueError):
        fixed_point_count(F32.zero, 2)
    with pytest.raises(ValueError):
        fixed_point_count(G, 0)


def test_theta_fixed_points_known_case():
    mp = MapSpec("theta", G ** 12, F32.zero, 2)
    pts = mp.pair.fixed_points()
    assert pts == [0, (G ** 27).bits, F32.order]
    assert pts == [i for i in range(F32.order + 1) if mp.pair.eval_int(i) == i]


def test_fixed_points_fail_loudly_when_the_count_disagrees(monkeypatch):
    """The eigenlines listed must be exactly fixed_line_count fixed points.
    With k = 5 over F_32, N is the map's own matrix: for (a, b) = (g, g^3)
    x^2 + x = det/tr^2 has no root, and (g, g) has two fixed points."""
    none, two = (MapSpec("psi", G, G ** j, 5).pair for j in (3, 1))
    assert none.fixed_points() == [] and len(two.fixed_points()) == 2
    for pair, count in ((none, 2), (two, 1)):
        monkeypatch.setattr(maps, "fixed_line_count", lambda f, m, g: count)
        with pytest.raises(InvariantViolationError,
                           match=f"are not the {count} fixed points"):
            pair.fixed_points()


def test_wide_fixed_points_match_the_substituted_root_search():
    """Over F_2^17..F_2^64, the fixed points of psi_{a,b,k} are the roots of
    a*x^(q+1) + b*x + 1, which the reference finds by a root search of
    degree 2^t + 1 (t <= 11 keeps it short); psi_{1/a,1/a,k} includes the
    Bluher polynomials."""
    rng = random.Random(71)
    for _ in range(40):
        f = BinaryField(rng.randrange(17, 65))
        n, t = f.degree, rng.randrange(12)
        k = rng.choice([t, n - t]) + n * rng.randrange(3) or n
        a = f.element(rng.randrange(1, f.order))
        b = rng.choice([a, f.element(rng.randrange(f.order))])
        pair = MapSpec("psi", a, b, k).pair
        want = ref_projective_roots(a, b, f.one, k)
        assert pair.fixed_points() == want, (n, k, a, b)
        assert pair.fixed_count() == len(want)


def test_scalar_power_listing_is_sized():
    """T*sigma^20(T)^-1 over F_2^40 is T o sigma^20 o T^-1, whose fixed
    points are T's image of P^1(F_2^20): the count answers, the listing
    refuses before it builds anything."""
    f = BinaryField(40)
    t = ((2, 3), (5, 1))
    det_inv = f.inv(f.mul(2, 1) ^ f.mul(3, 5))
    t_inv = Semilinear(f, ((f.mul(1, det_inv), f.mul(3, det_inv)),
                           (f.mul(5, det_inv), f.mul(2, det_inv))), 0)
    pair = t_inv.then(Semilinear(f, ((1, 0), (0, 1)), 20)).then(
        Semilinear(f, t, 0))
    assert pair.s == 20 and pair.power(2).m == ((1, 0), (0, 1))
    start = time.perf_counter()
    assert pair.fixed_count() == (1 << 20) + 1
    with pytest.raises(ResourceLimitError, match="fixed points"):
        pair.fixed_points()
    assert time.perf_counter() - start < 0.5


def test_bluher_known_counts_over_f8():
    f = BinaryField(3)
    g = f.primitive_element()
    want = {0: 3, 3: 1, 5: 1, 6: 1}
    counts = {e: bluher_root_count(g ** e, 2) for e in range(7)}
    assert counts == {e: want.get(e, 0) for e in range(7)}
    from collections import Counter
    assert Counter(counts.values()) == {0: 3, 1: 3, 3: 1}


def test_bluher_counts_match_direct_root_scan():
    for degree, ks in ((4, (1, 2, 3, 4)), (5, (2,))):
        f = BinaryField(degree)
        q_allowed = {0, 1, 2}
        for k in ks:
            import math
            allowed = q_allowed | {(1 << math.gcd(k, degree)) + 1}
            for abits in range(1, f.order):
                a = f.element(abits)
                count = bluher_root_count(a, k)
                assert count in allowed
                brute = sum(
                    1 for xbits in range(f.order)
                    for x in [f.element(xbits)]
                    if x.frob(k) * x + x + a == f.zero)
                assert count == brute
                if math.gcd(k, degree) == 1:
                    assert count != 2


def test_bluher_root_count_matches_scan_oracle():
    for n in range(1, 9):
        f = BinaryField(n)
        for k in (1, 2, 3):
            for abits in range(1, f.order):
                a = f.element(abits)
                roots, fixed = scan_root_count(a, k, f)
                assert bluher_root_count(a, k) == roots == fixed, (n, k, a)


def test_bluher_counts_match_scan_oracle():
    for n in range(1, 7):
        f = BinaryField(n)
        for k in range(1, n + 3):
            counts = bluher_counts(k, f)
            assert len(counts) == f.order
            s = k % n
            assert counts[0] == sum(1 for x in range(f.order)
                                    if f.mul(f.frob(x, s), x) == x) == 2
            for abits in range(1, f.order):
                a = f.element(abits)
                assert counts[abits] == scan_root_count(a, k, f)[0], (n, k, a)


def test_bluher_counts_follow_bluher_theorem():
    # hand-counted over F_8 (test_bluher_known_counts_over_f8)
    assert bluher_distribution(2, 3) == {0: 3, 1: 3, 2: 0, 3: 1}
    assert bluher_distribution(3, 3) == {0: 4, 1: 0, 2: 3, 9: 0}
    for n in range(1, 15):
        f = BinaryField(n)
        for k in range(1, n + 3):
            theorem = bluher_distribution(k, n)
            assert sum(theorem.values()) == f.order - 1
            assert min(theorem.values()) >= 0
            if math.gcd(k, n) == 1:
                assert theorem[2] == 0
            histogram = Counter(bluher_counts(k, f)[1:])
            assert histogram == Counter(theorem), (n, k)


def test_bluher_validation():
    with pytest.raises(ValueError):
        bluher_root_count(F32.zero, 2)
    with pytest.raises(ValueError):
        bluher_root_count(G, 0)
    with pytest.raises(ValueError):
        bluher_counts(0, F32)
    # the sweep is sized before it allocates; a single count never searches
    with pytest.raises(ResourceLimitError):
        bluher_counts(2, BinaryField(21))
    f40 = BinaryField(40)
    start = time.perf_counter()
    assert bluher_root_count(f40.element(2), 25) in (0, 1, 2, 33)
    assert time.perf_counter() - start < 1.0
    assert bluher_root_count(f40.element(2), 36) in (0, 1, 2, 5)


def test_random_maps_solve_and_verify():
    rng = random.Random(41)
    attempted = solved = 0
    for degree in (2, 3, 4, 5, 6):
        f = BinaryField(degree)
        for _ in range(6):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(f.order))
            k = rng.randrange(1, 4)
            mp = MapSpec("psi", a, b, k)
            attempted += 1
            try:
                data = solve_conjugation(mp)
            except ResourceLimitError:
                continue
            solved += 1
            assert data.system_holds()
            assert data.embedding.ext.degree % degree == 0
            assert verify_conjugation(data)
            ext = data.embedding.ext
            # spot-check the identity psi(tau(x)) == tau(theta(x))
            tau = TauMap(data)
            psi, theta = data.embedded_map(), data.normal_form()
            sample = [ProjPoint.infinity(ext)]
            sample += [ProjPoint.finite(ext.element(rng.randrange(ext.order)))
                       for _ in range(12)]
            for p in sample:
                assert psi.eval(tau.eval(p)) == tau.eval(theta.eval(p))
            if data.is_base_field:
                count = fixed_point_count(data.c, k)
                fixed = sum(1 for p in line(f) if mp.eval(p) == p)
                assert count == fixed
    assert solved >= int(0.7 * attempted), (solved, attempted)


def test_exact_verification_matches_pointwise_oracle():
    """Solved data verifies both ways; moving c (theta's constant) breaks the
    identity for both, since tau o theta then changes; moving c1 (tau's
    constant) must get the same answer from both."""
    rng = random.Random(42)
    compared = 0
    for degree in range(1, 9):
        f = BinaryField(degree)
        for _ in range(10):
            a = f.element(rng.randrange(1, f.order))
            b = f.element(rng.randrange(f.order))
            mp = MapSpec("psi", a, b, rng.randrange(1, 2 * degree + 1))
            try:
                data = solve_conjugation(mp, max_relative_degree=3)
            except ResourceLimitError:
                continue
            if data.embedding.ext.order > 1 << 12:
                continue
            compared += 1
            assert verify_conjugation(data) and ref_verify_conjugation(data)
            ext = data.embedding.ext
            delta = ext.element(rng.randrange(1, ext.order))
            fields = dict(map=mp, embedding=data.embedding, c=data.c,
                          c1=data.c1, c2=data.c2, c3=data.c3)
            if data.c != delta:
                moved = ConjugacyData(**{**fields, "c": data.c + delta})
                assert not verify_conjugation(moved)
                assert not ref_verify_conjugation(moved)
            moved = ConjugacyData(**{**fields, "c1": data.c1 + delta})
            if moved.c3 + moved.c1 * moved.c2:  # tau bijective
                assert (verify_conjugation(moved)
                        == ref_verify_conjugation(moved))
    assert compared >= 30, compared


def test_deep_extension_instance():
    f = BinaryField(6)
    mp = MapSpec("psi", f.element(0x38), f.element(0x3B), 2)
    with pytest.raises(ResourceLimitError):
        solve_conjugation(mp, max_relative_degree=4)
    data = solve_conjugation(mp, max_relative_degree=16)
    assert data.embedding.relative_degree == 15
    assert data.system_holds()


def test_c2_search_with_a_large_twist_is_sized():
    """k = 40 over F_64 reaches q = 2^40 at relative degree 7: c2 is read
    off the lines of ker v over the extension, which never lists 2^s
    coefficients, so degree 7 is ruled out at once and degree 8 answers."""
    f = BinaryField(6)
    mp = MapSpec("psi", f.element(0x3F), f.element(0x36), 40)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="no conjugation"):
        solve_conjugation(mp, max_relative_degree=7)
    data = solve_conjugation(mp)
    assert data.ext_degree == 48
    assert data.system_holds() and verify_conjugation(data)
    assert time.perf_counter() - start < 1.0


def test_whole_field_kernel_is_not_enumerated():
    """k = 32 over F_2^32 with a + b = 1 makes v(x) = (1 + a + b)*x zero, so
    the kernel of v is the whole field, and c2 = 1 kills it again through
    u(x) = x + x.  c3 is read off the kernel's basis, so the next root
    c2 = a answers over the base field at once."""
    f = BinaryField(32)
    mp = MapSpec("psi", f.element(2), f.element(3), 32)
    start = time.perf_counter()
    data = solve_conjugation(mp)
    assert time.perf_counter() - start < 1.0
    assert data.ext_degree == 32
    assert (data.c2, data.c3) == (mp.a, f.one)
    assert data.system_holds() and verify_conjugation(data)


def ref_degree_solves(mp, r):
    """Whether F_2^(n*r) holds a conjugation, found in the extension itself:
    the roots c2 = 1/y by a root search on a*y^(q+1) + b*y + 1, and for
    each a kernel of v strictly larger than that of u(x) = x + c2*x^q."""
    emb = extension_of(mp.field, r)
    ext = emb.ext
    a, b = emb(mp.a), emb(mp.b)
    s = mp.k % ext.degree

    def kernel_dim(image):
        return len(SubsetXorSolver(
            [image(1 << j) for j in range(ext.degree)]).kernel_masks)

    v_dim = kernel_dim(lambda x: x ^ ext.mul(b.bits, ext.frob(x, s))
                       ^ ext.mul(a.bits, ext.frob(x, 2 * s)))
    return any(
        v_dim > kernel_dim(lambda x: x ^ ext.mul(ext.inv(y), ext.frob(x, s)))
        for y in ref_projective_roots(a, b, ext.one, mp.k))


def test_candidate_degrees_are_exact_for_every_k():
    """A degree is yielded exactly when its extension holds a solution, for
    every k, near 10^9 too, and without building any extension."""
    rng = random.Random(43)
    cases = []
    lookups = extension_of.cache_info()
    for _ in range(40):
        f = BinaryField(rng.randrange(2, 5))
        k = rng.choice([rng.randrange(1, 41), rng.randrange(10**9, 10**9 + 100)])
        mp = MapSpec("psi", f.element(rng.randrange(1, f.order)),
                     f.element(rng.randrange(f.order)), k)
        cases.append((mp, set(conjugacy._candidate_degrees(mp, 4))))
    after = extension_of.cache_info()
    assert after.hits + after.misses == lookups.hits + lookups.misses
    for mp, yielded in cases:
        for r in range(1, 5):
            assert (r in yielded) == ref_degree_solves(mp, r), (mp, r)
    assert sum(len(y) for _, y in cases) >= 20
    assert sum(not y for _, y in cases) >= 5


@pytest.mark.parametrize("n, a, b, k", [(12, 0x796, 0x218, 45),
                                        (10, 0x22a, 0x3cf, 32)])
def test_maps_without_a_conjugation_are_refused_at_once(n, a, b, k):
    """No degree up to 24 holds a solution, and the probes say so from the
    base field without building any of the extensions."""
    f = BinaryField(n)
    mp = MapSpec("psi", f.element(a), f.element(b), k)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="no conjugation found in "
                       "extensions up to relative degree 24"):
        solve_conjugation(mp)
    assert time.perf_counter() - start < 0.2


def test_a_solve_in_f2_16_builds_no_tables():
    """The extension a solve lands in sees a few hundred operations, too
    few to pay for its exp/log tables; the labels of the answer build them
    and read the same discrete logs as ever."""
    extension_of.cache_clear()
    f = BinaryField(8)
    data = solve_conjugation(MapSpec("psi", f.element(0x8), f.element(0x1a), 1))
    ext = data.embedding.ext
    assert ext.degree == 16 and ext._exp is None
    assert [element_echo(x) for x in (data.c, data.c1, data.c2, data.c3)] == [
        {"hex": "0xdff0", "g_exp": 15677}, {"hex": "0x9511", "g_exp": 59149},
        {"hex": "0x8967", "g_exp": 40606}, {"hex": "0x5b20", "g_exp": 62342}]
    assert ext._exp is not None


def ker_v(ext, a, b, s):
    """A GF(2) basis of the kernel of v(x) = a*x^(q^2) + b*x^q + x, q = 2^s,
    over ext, coefficients given as encodings."""
    def v(x):
        t = ext.frob(x, s)
        return x ^ ext.mul(b, t) ^ ext.mul(a, ext.frob(t, s))

    return SubsetXorSolver([v(1 << j) for j in range(ext.degree)]).kernel_masks


def every_degree_outcome(mp, bound):
    """solve_conjugation's answer, or its refusal, from a search that builds
    every degree up to the bound in turn: the least c2 (a fixed point 1/c2
    of psi over the extension) whose c3 is the least kernel element of v
    outside ker u."""
    for r in range(1, bound + 1):
        emb = extension_of(mp.field, r)
        ext = emb.ext
        a, b = emb(mp.a), emb(mp.b)
        s = mp.k % ext.degree
        kernel = ker_v(ext, a.bits, b.bits, s)
        psi = MapSpec("psi", a, b, mp.k).pair
        for c2 in sorted(ext.inv(y) for y in psi.fixed_points()):
            c3 = next((x for x in kernel if x ^ ext.mul(c2, ext.frob(x, s))),
                      None)
            if c3 is not None:
                c2, c3 = ext.element(c2), ext.element(c3)
                return ConjugacyData(map=mp, embedding=emb, c=c2.frob(s),
                                     c1=c3.frob(s), c2=c2, c3=c3).describe()
    return f"no conjugation found in extensions up to relative degree {bound}"


def test_probes_do_not_change_answers():
    """solve_conjugation answers as if it built every degree up to the bound."""
    def outcome(mp, bound):
        try:
            data = solve_conjugation(mp, max_relative_degree=bound)
        except ResourceLimitError as exc:
            return str(exc)
        return data.describe()

    rng = random.Random(44)
    maps = []
    for _ in range(30):
        f = BinaryField(rng.randrange(2, 6))
        k = rng.choice([rng.randrange(7, 41), rng.randrange(10**9, 10**9 + 100)])
        maps.append((MapSpec("psi", f.element(rng.randrange(1, f.order)),
                             f.element(rng.randrange(f.order)), k),
                     rng.randrange(1, 7)))
    probed = [outcome(mp, bound) for mp, bound in maps]
    assert [every_degree_outcome(mp, bound) for mp, bound in maps] == probed
    assert sum(" over F_2^" in p for p in probed) >= 10, probed


def test_a_probe_naming_an_empty_degree_is_an_invariant_violation(monkeypatch):
    """Only the degree the probes name is built: if it held no (c2, c3) the
    probes would be wrong, and the solver says so instead of searching on."""
    f = BinaryField(12)
    mp = MapSpec("psi", f.element(0x796), f.element(0x218), 45)
    assert every_degree_outcome(mp, 2).startswith("no conjugation")
    monkeypatch.setattr(conjugacy, "_candidate_degrees",
                        lambda mp, bound: iter([2]))
    with pytest.raises(InvariantViolationError, match="F_2\\^24"):
        solve_conjugation(mp)


def test_huge_k_is_probed_per_degree():
    """psi_{g^19, g^15} with k = 1000000002 over F_32: every degree below 9
    is ruled out by a probe or by its kernel, and degree 9 (s = 12) answers
    through the lines of ker v over F_2^45, whose 6 GF(2) dimensions make a
    plane over F_8 (g = gcd(12, 45) = 3)."""
    mp = MapSpec("psi", G ** 19, G ** 15, 1000000002)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="no conjugation"):
        solve_conjugation(mp, max_relative_degree=8)
    assert time.perf_counter() - start < 0.5
    data = solve_conjugation(mp)
    assert time.perf_counter() - start < 2.0
    assert data.ext_degree == 45
    assert (data.c2.bits, data.c3.bits) == (0xD5CAED233F, 0x352050658)
    assert data.system_holds() and verify_conjugation(data)


def test_kernel_c2_candidates_invert_the_fixed_points():
    """Whenever ker v is 2g-dimensional over F_2^N, its lines give exactly
    the c2 = 1/y for y a fixed point of psi over F_2^N: the listing that
    every_degree_outcome, the oracle of test_probes_do_not_change_answers,
    still takes.  k runs over [1, 3n], multiples of N and k near 10^9."""
    rng = random.Random(45)
    planes = others = 0
    for _ in range(100):
        base = BinaryField(rng.randrange(1, 11))
        n = base.degree
        a = base.element(rng.randrange(1, base.order))
        b = base.element(rng.randrange(base.order))
        for r in range(1, min(6, 30 // n) + 1):
            emb = extension_of(base, r)
            ext = emb.ext
            k = rng.choice([rng.randrange(1, 3 * n + 1),
                            ext.degree * rng.randrange(1, 4),
                            rng.randrange(10**9, 10**9 + 100)])
            s = k % ext.degree
            kernel = ker_v(ext, emb(a).bits, emb(b).bits, s)
            if len(kernel) != 2 * math.gcd(s, ext.degree):
                others += 1
                continue
            planes += 1
            fixed = MapSpec("psi", emb(a), emb(b), k).pair.fixed_points()
            got = conjugacy.kernel_c2_candidates(ext, s, kernel)
            assert sorted(got) == sorted(ext.inv(y) for y in fixed), (n, r, k)
            g = math.gcd(k, ext.degree)
            assert len(got) == len(set(got)) == (1 << g) + 1, (n, r, k)
    assert planes >= 60 and others >= 60, (planes, others)


def test_kernel_route_refuses_before_listing(monkeypatch):
    """PSI lands in F_32 with a 2-dimensional ker v (g = 1): with the budget
    below its 2^1 + 1 lines, the solve refuses with the listing's message,
    before the subfield is solved for or psi's fixed points are asked."""
    def unreachable(*args):
        raise AssertionError("listed past the budget")

    monkeypatch.setattr(maps, "POINT_LIMIT", 2)
    monkeypatch.setattr(maps, "SubsetXorSolver", unreachable)
    monkeypatch.setattr(Semilinear, "fixed_points", unreachable)
    with pytest.raises(ResourceLimitError,
                       match=r"^2\^1 \+ 1 fixed points exceed the budget of 2$"):
        solve_conjugation(PSI)
    monkeypatch.setattr(maps, "POINT_LIMIT", 3)
    with pytest.raises(AssertionError, match="listed past the budget"):
        solve_conjugation(PSI)


# SHA-256 of the stdout of `conjugate --degree 12 ... --k 2` for the three
# ladder maps that land in F_2^60 (r = 5), recorded while every c2 still
# came from psi's fixed points over the extension; the lines of ker v must
# reproduce every byte.
CONJUGATE_DIGESTS = {
    "--a 0xe9f --b 0xfc7":
        "fc980f2437accaebd48b382edab7cfd030e8fbe70f6fb6502cf41977640a35d7",
    "--a 0xe9f --b 0xfc7 --format json":
        "46a3c5853e0a0da30500c99bdd35d19cf018c28acba75107772a74ca668d788a",
    "--a 0x6d1 --b 0x872":
        "ff78643582fcde789c520e654fb4d658feb04992562134e9ab5f2306f8f4f6bf",
    "--a 0x6d1 --b 0x872 --format json":
        "a23f49a7427f431a2043ab47c78dfa6fed719075211110e0ef426c95d8f0bf1b",
    "--a 0x989 --b 0xc37":
        "42dbc030ce4452976b3812cacc836a2a2b435e95489b84a96f25a3fe22139beb",
    "--a 0x989 --b 0xc37 --format json":
        "d3d93c98295040876c8b65738a6c58e089b77d3e4b204d28c1b8e907a68f3d5c",
}


def test_conjugate_output_is_unchanged(capsys):
    for args, digest in CONJUGATE_DIGESTS.items():
        code = main(["conjugate", "--degree", "12", "--map", "psi", "--k", "2"]
                    + args.split())
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), args
        assert "relative_degree: 5" in out or '"relative_degree": 5' in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
