"""Field construction, arithmetic axioms, linear algebra, and root finding."""

import math
import random
from collections import defaultdict

import pytest

from f2dyn import (BinaryField, ExtensionRootCounter, FieldMismatchError,
                   InvariantViolationError, MapSpec, ResourceLimitError,
                   SubsetXorSolver, bluher_counts, extension_of, fields, gf2x,
                   nth_roots, polynomial_roots)
from f2dyn.gf2x import CONWAY_POLYNOMIALS
from test_gf2x import DENSE_MODULI, ref_mulmod


# -- reference root search: coefficient lists, one field.mul per product ------
#
# Coefficient lists are little-endian; b in ref_pmod and both arguments of
# ref_pdiv_exact must be monic.


def ref_strip(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def ref_monic(field, c):
    lead = c[-1]
    if lead == 1:
        return c
    ilead = field.inv(lead)
    return [field.mul(ci, ilead) for ci in c]


def ref_pmod(field, a, b):
    a = a[:]
    db = len(b) - 1
    while len(a) - 1 >= db:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - db
            for i in range(db):
                if b[i]:
                    a[shift + i] ^= field.mul(lead, b[i])
        a.pop()
    return ref_strip(a)


def ref_pgcd(field, a, b):
    a, b = ref_strip(a[:]), ref_strip(b[:])
    while b:
        b = ref_monic(field, b)
        a, b = b, ref_pmod(field, a, b)
    return a


def ref_psqr_mod(field, a, f):
    sq = [0] * (2 * len(a) - 1) if a else []
    for i, c in enumerate(a):
        if c:
            sq[2 * i] = field.sqr(c)
    return ref_pmod(field, sq, f)


def ref_pdiv_exact(field, a, b):
    a = a[:]
    db = len(b) - 1
    q = [0] * (len(a) - db)
    while len(a) - 1 >= db:
        lead = a[-1]
        shift = len(a) - 1 - db
        if lead:
            q[shift] = lead
            for i in range(db):
                if b[i]:
                    a[shift + i] ^= field.mul(lead, b[i])
        a.pop()
    return q


def ref_frobenius_gcd(field, f, times):
    """gcd(f, x^(2^times) - x) for the monic f."""
    t = ref_pmod(field, [0, 1], f)
    for _ in range(times):
        t = ref_psqr_mod(field, t, f)
    t = t + [0] * (2 - len(t))
    t[1] ^= 1
    return ref_pgcd(field, f, ref_strip(t))


def ref_poly_roots(field, coeffs):
    """Sorted roots in the field: x^(2^n) - x keeps the roots lying there,
    trace polynomials Tr(x^j * x) split them."""
    f = ref_strip(list(coeffs))
    if len(f) <= 1:
        return []
    f = ref_frobenius_gcd(field, ref_monic(field, f), field.degree)
    if len(f) <= 1:
        return []
    roots = []

    def split(g):
        if len(g) == 2:
            roots.append(g[0])
            return
        for j in range(field.degree):
            u = ref_pmod(field, [0, 1 << j], g)
            acc = u[:]
            for _ in range(field.degree - 1):
                u = ref_psqr_mod(field, u, g)
                acc = [x ^ y for x, y in
                       zip(acc + [0] * len(u), u + [0] * len(acc))]
            h = ref_pgcd(field, g, ref_strip(acc))
            if 0 < len(h) - 1 < len(g) - 1:
                h = ref_monic(field, h)
                split(h)
                split(ref_pdiv_exact(field, g, h))
                return
        raise AssertionError("trace splitting failed")

    split(ref_monic(field, f))
    return sorted(roots)


def ref_root_count(field, coeffs, r):
    """Distinct roots in F_2^(n*r), as deg gcd(f, x^(2^(n*r)) - x)."""
    f = ref_monic(field, ref_strip(list(coeffs)))
    return max(len(ref_frobenius_gcd(field, f, field.degree * r)) - 1, 0)


def test_construction_defaults_and_validation():
    for n in range(1, 13):
        assert BinaryField(n).modulus == CONWAY_POLYNOMIALS[n]
    f = BinaryField(3, 0b1101)
    assert f.modulus == 0b1101 and f.order == 8
    with pytest.raises(ValueError):
        BinaryField(0)
    with pytest.raises(ValueError):
        BinaryField(3, 0b101)  # wrong degree
    with pytest.raises(ValueError):
        BinaryField(4, 0b11111 ^ 0b100)  # x^4 + x^3 + x + 1 = (x+1)(...)


def test_each_modulus_is_tested_for_irreducibility_once(monkeypatch):
    """A default modulus is a Conway or smallest-irreducible entry the gf2x
    tests pin (degrees up to 128), or was proven when it was found, so
    building its field runs no second Rabin test; a given modulus is tested
    every time."""
    gf2x.default_modulus(40)
    gf2x.default_modulus(131)
    tested = []
    real = gf2x.is_irreducible
    monkeypatch.setattr(gf2x, "is_irreducible",
                        lambda f: tested.append(f) or real(f))
    for n in (1, 8, 12, 40, 131):
        assert BinaryField(n).modulus == gf2x.default_modulus(n)
    assert tested == []
    BinaryField(3, 0b1101)
    BinaryField(40, gf2x.default_modulus(40))
    assert tested == [0b1101, gf2x.default_modulus(40)]
    with pytest.raises(ValueError, match="is reducible"):
        BinaryField(4, 0b11011)


def test_element_range_and_equality():
    f = BinaryField(4)
    with pytest.raises(ValueError):
        f.element(16)
    with pytest.raises(ValueError):
        f.element(-1)
    assert f.element(5) == BinaryField(4).element(5)
    assert hash(f.element(5)) == hash(BinaryField(4).element(5))
    assert f.element(5) != BinaryField(4, 0b11001).element(5)


def test_field_axioms_randomized():
    rng = random.Random(11)
    fields = [BinaryField(n) for n in (1, 2, 3, 5, 8, 11, 17, 20, 32, 64)]
    fields.append(BinaryField(20, 0x180007))  # deg(modulus - x^20) > 10
    for f in fields:
        degree = f.degree
        one, zero = f.one, f.zero
        for _ in range(40):
            a = f.element(rng.randrange(f.order))
            b = f.element(rng.randrange(f.order))
            c = f.element(rng.randrange(f.order))
            assert a + a == zero
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a * one == a and a * zero == zero
            if a:
                assert a * a.inv() == one
                assert (a / a) == one
            assert (a + b).frob(1) == a.frob(1) + b.frob(1)
            assert a.frob(1) == a * a
            assert a.sqrt().frob(1) == a
            assert a.frob(degree) == a


def test_frob_matches_repeated_squaring():
    def squarings(f, a, k):
        for _ in range(k):
            a = f.sqr(a)
        return a

    rng = random.Random(13)
    # its first 64 calls run without exp/log tables, the rest read them
    fresh = BinaryField(10)
    assert fresh._exp is None
    assert fresh.frob(0x2F5, 3) == squarings(BinaryField(10), 0x2F5, 3)
    # wide fields on both sides of the byte and window edges (17, 33, 65
    # leave a part-filled window; 127 and 128 read twists as small as s = 1
    # off their tables), and a dense user modulus, reduced by division
    wide = [BinaryField(n) for n in (17, 33, 64, 65, 127, 128)]
    wide.append(BinaryField(64, DENSE_MODULI[1]))
    # a twist k = 0 mod n is the identity, and builds no window table
    for f in [BinaryField(10)] + wide:
        for a in (1, f.order - 1, rng.getrandbits(f.degree)):
            for k in (0, f.degree, -f.degree, 3 * f.degree):
                assert f.frob(a, k) == a, (f, a, k)
        assert f._exp is None and f._frob_windows == {}, f
    for f, values in ((BinaryField(8), range(256)),
                      (BinaryField(16),
                       [0, 1, 2, 0xFFFF] + rng.sample(range(1 << 16), 60)),
                      (fresh, range(1 << 10)),
                      (BinaryField(20), [0, 1, 0xBEEF5, 0xFFFFF]),
                      *((f, [0, 1, f.order >> 1, f.order - 1]
                         + [rng.getrandbits(f.degree) for _ in range(4)])
                        for f in wide)):
        for a in values:
            want = a
            for k in range(2 * f.degree + 1):
                assert f.frob(a, k) == want, (f, a, k)
                want = f.sqr(want)
            assert f.sqr(f.sqrt(a)) == a


def test_frob_tables_compose_from_a_cached_half(monkeypatch):
    """Once the tables of a twist t are cached, those of s = 2t mod n come
    from them without a basis scan, and both read off s squarings of every
    basis element and of random elements.  n % 4 != 0 leaves a part-filled
    window, n < 8 a part-filled byte; odd s over odd n takes the wrap-around
    half t = (s + n)/2, and even s over even n either half."""
    rng = random.Random(30)
    real_images = BinaryField.basis_images

    def no_scan(self, terms):
        raise AssertionError("a basis scan for a composable twist")

    for n in (1, 2, 3, 5, 9, 10, 31, 60, 64, 131):
        f = BinaryField(n)
        ref = [[1 << j for j in range(n)]]  # ref[s][j] = (x^j)^(2^s)
        for _ in range(n - 1):
            ref.append([f.sqr(v) for v in ref[-1]])
        values = [0, f.order - 1] + [rng.getrandbits(n) for _ in range(2)]
        for s in range(n):
            halves = {t for t in (s >> 1, (s + n) >> 1) if 2 * t % n == s}
            # odd n halves every s once; even n halves even s twice (once
            # at n = 2, s = 0 and t = 0 or 1) and odd s never
            assert len(halves) == (1 if n % 2 else 2 * (s % 2 == 0)), (n, s)
            for t in sorted(halves) or [None]:
                f._frob_windows.clear()
                monkeypatch.setattr(BinaryField, "basis_images", real_images)
                if t is not None:
                    f._frob_table(t)
                    monkeypatch.setattr(BinaryField, "basis_images", no_scan)
                windows = f._frob_table(s)
                assert [fields._through_windows(windows, 1 << j)
                        for j in range(n)] == ref[s], (n, s, t)
                for a in values:
                    want = a
                    for _ in range(s):
                        want = f.sqr(want)
                    assert fields._through_windows(windows, a) == want
                    if n > 16 and 128 * (s - 1) > n:  # frob reads them
                        assert f.frob(a, s) == want, (n, s, t, a)


def test_inverse_by_division_free_euclid_is_the_power_2n_minus_2():
    """a^-1 = a^(2^n - 2) for 1, x, the all-ones element and random ones,
    at every degree up to 131 and over dense moduli, which are reduced by
    division."""
    rng = random.Random(31)
    cases = [BinaryField(n) for n in range(1, 132)]
    cases += [BinaryField(gf2x.degree(m), m) for m in DENSE_MODULI]
    for f in cases:
        n = f.degree
        values = {1, f.gen.bits, f.order - 1}
        values |= {rng.randrange(1, f.order) for _ in range(3)}
        for a in sorted(values):
            inv = f._inv_euclid(a)
            assert inv >> n == 0 and inv == f._pow_raw(a, f.order - 2), (f, a)
            assert f.mul(a, inv) == 1, (f, a)


def ref_pow(a, e, modulus):
    """a^e modulo the modulus by square and multiply, bit by bit."""
    result = 1
    while e:
        if e & 1:
            result = ref_mulmod(result, a, modulus)
        a = ref_mulmod(a, a, modulus)
        e >>= 1
    return result


def test_wide_power_matches_square_and_multiply():
    """Powers above the exp/log tables, one twist-4 window pass per base-16
    digit, against square and multiply: exponents with zero, repeated and
    single digits, both ends of the range, inverses of 5 and 21 (whose
    digits repeat), and negative ones through FieldElement."""
    rng = random.Random(33)
    for n in (17, 20, 33, 62, 64, 127, 128, 200):
        f = BinaryField(n)
        M = f.mult_order
        exponents = {0, 1, 15, 16, 17, 255, 256, M - 1, M, M + 1}
        exponents |= {rng.randrange(M) for _ in range(4)}
        exponents |= {pow(s, -1, M) for s in (5, 21) if math.gcd(s, M) == 1}
        for e in sorted(exponents):
            for a in (1, f.gen.bits, rng.randrange(2, f.order)):
                want = ref_pow(a, e, f.modulus)
                assert f.pow(a, e) == f._pow_raw(a, e) == want, (n, e, a)
                x = f.element(a)
                assert (x ** -e).bits == ref_pow(a, -e % M, f.modulus), (n, e)
        assert 4 in f._frob_windows  # read off the twist-4 windows


def test_wide_power_takes_a_quarter_of_the_products(monkeypatch):
    """In F_2^64, once the twist-4 window tables exist, a^(2^64 - 2) takes
    16 window passes and at most 30 products; square and multiply takes 63
    products (and 63 squarings)."""
    f = BinaryField(64)
    a = 0x9E3779B97F4A7C15
    f.frob(a, 4)
    real_mul = gf2x.mul
    calls = []

    def counted_mul(x, y):
        calls.append((x, y))
        return real_mul(x, y)

    monkeypatch.setattr(gf2x, "mul", counted_mul)
    inverse = f.pow(a, (1 << 64) - 2)
    monkeypatch.undo()
    assert len(calls) <= 30
    assert f.mul(a, inverse) == 1


def test_tabled_fields_build_no_window_tables():
    """Up to degree 16, _pow_raw runs while the exp/log tables are built
    (primitive_bits), so its 16th powers are squarings: window tables are
    built by basis_images through mul, which would build the exp/log tables
    again.  The generator is the least v of full order, as before."""
    for n in range(1, 17):
        f = BinaryField(n)
        f.tables()
        assert f._frob_windows == {}, n
        M = f.mult_order
        primes = [p for p in range(2, M + 1) if M % p == 0
                  and all(p % q for q in range(2, math.isqrt(p) + 1))]
        least = next(v for v in range(1, f.order)
                     if all(ref_pow(v, M // p, f.modulus) != 1 for p in primes))
        assert f.primitive_bits() == least, n


def test_tables_match_repeated_mulmod_by_the_generator():
    # g = 2 for most degrees, g = 3 for F_2^16 and g = 7 for F_2^14
    for n in range(1, 17):
        f = BinaryField(n)
        g = f.primitive_bits()
        exp, log = f.tables()
        cur = 1
        for i in range(f.mult_order):
            assert exp[i] == exp[i + f.mult_order] == cur, (n, i)
            assert log[cur] == i, (n, i)
            cur = ref_mulmod(cur, g, f.modulus)
        assert cur == 1


def test_tables_are_built_where_they_pay():
    """Arithmetic builds the exp/log tables on the order/16-th call without
    them; tables() and log() build them at once, so cycle listings,
    root-count sweeps and labels always read them."""
    f = BinaryField(12)
    for x in range(1, f.order >> 4):
        f.mul(x, x)
    assert f._exp is None
    assert f.mul(0x5A5, 0x3C3) == ref_mulmod(0x5A5, 0x3C3, f.modulus)
    assert f._exp is not None
    f = BinaryField(16)
    assert f.element(0x8967).log() == 40606 and f._exp is not None
    f = BinaryField(16)
    MapSpec("theta", f.element(0xF13A), f.element(0x2B7B), 0).cycle_structure()
    assert f._exp is not None
    f = BinaryField(10)
    bluher_counts(3, f)
    assert f._exp is not None


def test_inverse_of_zero_raises():
    f = BinaryField(5)
    with pytest.raises(ZeroDivisionError):
        f.zero.inv()
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero


def test_cross_field_operations_rejected():
    a = BinaryField(4).one
    b = BinaryField(5).one
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_primitive_element_generates():
    for degree in (1, 2, 3, 5, 8):
        f = BinaryField(degree)
        g = f.primitive_element()
        seen = {g.bits}
        cur = g
        for _ in range(f.order - 2):
            cur = cur * g
            seen.add(cur.bits)
        assert len(seen) == f.order - 1
        assert cur == f.one  # g^(order-1) closes the cycle


def test_primitive_element_of_wide_fields():
    # 2^n - 1 with prime factors far beyond trial division
    for degree, primes in ((59, (179951, 3203431780337)),
                           (62, (3, 715827883, 2147483647))):
        f = BinaryField(degree)
        assert math.prod(primes) == f.mult_order
        g = f.primitive_element()
        for p in primes:
            assert g ** (f.mult_order // p) != f.one, (degree, p)


def test_conway_modulus_makes_x_primitive():
    # the class of x itself generates; g-exponent labels rely on this
    for degree in range(1, 13):
        f = BinaryField(degree)
        assert f.primitive_element() == (f.element(2) if degree > 1 else f.one)


def test_log_and_pow_agree():
    f = BinaryField(6)
    g = f.primitive_element()
    for bits in range(1, f.order):
        e = f.element(bits)
        assert g ** e.log() == e
    assert (g ** 5) ** -1 == (g ** 5).inv()
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        f.zero.log()


def test_trace_is_balanced_and_frobenius_invariant():
    for degree in (3, 4, 7):
        f = BinaryField(degree)
        traces = [f.trace(b) for b in range(f.order)]
        assert set(traces) <= {0, 1}
        assert sum(traces) == f.order // 2
        for b in range(f.order):
            assert f.trace(b) == f.trace(f.frob(b, 1))


def test_large_field_without_tables():
    f = BinaryField(20)
    a = f.element(0xBEEF5)
    assert a * a.inv() == f.one
    assert a.sqrt() * a.sqrt() == a
    with pytest.raises(ResourceLimitError):
        a.log()
    # one refusal for the one limit: log() refuses through tables()
    wide = BinaryField(17)
    with pytest.raises(ResourceLimitError) as info:
        wide.element(3).log()
    assert str(info.value) == "no exp/log tables for fields larger than 2^16"


def xor_of_columns(cols, mask):
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= cols[low.bit_length() - 1]
        mask ^= low
    return acc


def test_subset_xor_solver_round_trip():
    """16 columns in 12 bits: every reachable target gives back the least of
    its 2^dim preimages, and the kernel basis is reduced echelon."""
    rng = random.Random(12)
    cols = [rng.getrandbits(12) for _ in range(16)]
    solver = SubsetXorSolver(cols)
    preimages = {}
    for mask in range(1 << 16):
        preimages.setdefault(xor_of_columns(cols, mask), mask)  # least first
    for _ in range(50):
        target = xor_of_columns(cols, rng.getrandbits(16))
        assert solver.solve(target) == preimages[target]
    kernel = solver.kernel_masks
    rank = len(preimages).bit_length() - 1  # 2^rank reachable targets
    assert len(kernel) == 16 - rank
    leads = [m.bit_length() - 1 for m in kernel]
    assert leads == sorted(set(leads))
    for m, lead in zip(kernel, leads):
        assert xor_of_columns(cols, m) == 0
        assert sum(r >> lead & 1 for r in kernel) == 1  # only m holds it


def test_linearized_poly_solutions_by_brute_force():
    """L(x) = c0*x + c1*x^2 + c2*x^4 is GF(2)-linear, so a solver on the
    images of the basis answers L(x) = t with its least solution."""
    rng = random.Random(13)
    f = BinaryField(6)
    for _ in range(20):
        coeffs = [rng.randrange(f.order) for _ in range(3)]
        if not any(coeffs):
            continue

        def poly(x):
            return f.mul(coeffs[0], x) ^ f.mul(coeffs[1], f.frob(x, 1)) \
                ^ f.mul(coeffs[2], f.frob(x, 2))

        solver = SubsetXorSolver([poly(1 << j) for j in range(f.degree)])
        assert f.basis_images(list(zip(coeffs, range(3)))) == [
            poly(1 << j) for j in range(f.degree)]
        target = rng.randrange(f.order)
        brute = [b for b in range(f.order) if poly(b) == target]
        assert solver.solve(target) == (brute[0] if brute else None)
        assert solver.solve(0) == 0


def pointwise_basis_images(field, terms):
    """Reference for BinaryField.basis_images: each column L(x^j) on its
    own, c times x^j squared e mod n times for each term (c, e)."""
    columns = []
    for j in range(field.degree):
        acc = 0
        for c, e in terms:
            y = 1 << j
            for _ in range(e % field.degree):
                y = field.sqr(y)
            acc ^= field.mul(c, y)
        columns.append(acc)
    return columns


def test_basis_images_match_pointwise_evaluation(monkeypatch):
    """The columns of sum c*x^(2^e), over fresh and tabled fields up to
    2^16 and wide ones up to 2^131 (and a dense modulus): zero coefficients,
    e = 0, e >= n, repeated e, and terms that cancel.  No column takes a
    Frobenius power."""
    rng = random.Random(29)
    tabled = BinaryField(16)
    tabled.tables()
    fields = [BinaryField(n) for n in (1, 2, 5, 8, 12)] + [tabled] + [
        BinaryField(n) for n in (17, 33, 64, 65, 100, 131)]
    fields.append(BinaryField(64, DENSE_MODULI[1]))

    real_frob = BinaryField.frob

    def no_frob(self, a, k):
        raise AssertionError("a Frobenius power per column")

    monkeypatch.setattr(BinaryField, "frob", no_frob)
    for f in fields:
        n = f.degree
        assert f.basis_images([]) == [0] * n
        assert f.basis_images([(1, 0)]) == [1 << j for j in range(n)]
        assert f.basis_images([(1, 0), (1, n)]) == [0] * n  # z^(2^n) = z
        cases = [[(0, rng.randrange(3 * n))], [(1, 1), (1, 0)],
                 [(1, rng.randrange(n, 3 * n))]]
        for _ in range(4):
            cases.append([(rng.randrange(f.order), rng.randrange(3 * n))
                          for _ in range(rng.randrange(1, 5))])
        c = rng.randrange(1, f.order)
        cases.append([(c, 2), (0, 1), (c, 2 + n), (1, 0)])
        for terms in cases:
            assert f.basis_images(terms) == pointwise_basis_images(f, terms), (
                f, terms)

    # a term (1, 0) takes the same columns as any other term, next to
    # other terms with e = 0 and with e != 0: in a tabled field, in fresh
    # untabled ones (one call stays below the table build) and in wide ones
    for n in (16, 12, 64):
        for _ in range(3):
            c, e = rng.randrange(2, 1 << n), rng.randrange(1, 2 * n)
            for terms in ([(1, 0), (c, e)], [(c, 0), (1, 0)],
                          [(c, e), (1, 0), (1, e), (c, 0)],
                          [(1, 0), (1, 0), (c, e)]):
                f = tabled if n == 16 else BinaryField(n)
                got = f.basis_images(terms)
                assert (f._exp is None) == (f is not tabled), (f, terms)
                assert got == pointwise_basis_images(f, terms), (f, terms)

    # wide fields, over a default sparse modulus and a dense one: a twist e
    # with 2^e < n (or e = n + 3) has rho = x^(2^e), one bit, and builds its
    # columns by shifts; 2^e >= n takes n - 1 products.  frob matches e
    # squarings: for e != 0 mod n it reads window tables built from the same
    # columns (cleared before each twist, so none is composed from a half).
    products = []
    real_mul = BinaryField.mul

    def counted_mul(self, a, b):
        products.append(a)
        return real_mul(self, a, b)

    monkeypatch.setattr(BinaryField, "mul", counted_mul)
    for f in (BinaryField(64), BinaryField(100),
              BinaryField(64, DENSE_MODULI[1])):
        n = f.degree
        low = [e for e in range(n) if 1 << e < n]
        for e in low + [len(low), len(low) + 1, n - 1, n + 3]:
            shifted = 1 << (e % n) < n
            c = rng.randrange(2, f.order)
            for terms in ([(c, e)], [(1, e)], [(c, e), (1, 0)]):
                want = pointwise_basis_images(f, terms)
                products.clear()
                assert f.basis_images(terms) == want, (f, terms)
                assert len(products) == (0 if shifted else n - 1), (f, terms)
            values = [1, f.order - 1] + [rng.getrandbits(n) for _ in range(3)]
            for a in values:
                f._frob_windows.clear()
                want = a
                for _ in range(e):
                    want = f.sqr(want)
                assert real_frob(f, a, e) == want, (f, a, e)


def test_polynomial_roots_by_brute_force():
    rng = random.Random(14)
    f = BinaryField(6)
    for _ in range(30):
        coeffs = [f.element(rng.randrange(f.order)) for _ in range(6)]
        if not any(coeffs):
            continue
        roots = polynomial_roots(coeffs)
        assert roots == sorted(roots, key=lambda e: e.bits)
        brute = set()
        for b in range(f.order):
            x = f.element(b)
            acc = f.zero
            for c in reversed(coeffs):
                acc = acc * x + c
            if not acc:
                brute.add(x)
        assert set(roots) == brute


def test_nth_roots_by_brute_force():
    # M = 2^m - 1 is prime for m = 5, so d = gcd(n, M) is 1 or 31 there;
    # the composite M of m = 6, 8 and 12 give d = 3, 5, 7, 9, 13, 15, 17,
    # 21, 35, 51, 63, 65, 85, 91 and 315
    cases = {5: (1, 2, 3, 5, 11, 31, 33),
             6: (3, 6, 7, 9, 14, 21, 42, 45),  # M = 63 = 3^2 * 7
             8: (3, 5, 10, 15, 17, 34, 51, 85),  # M = 255 = 3 * 5 * 17
             12: (9, 13, 15, 35, 63, 65, 91, 315, 4116)}  # M = 3^2 * 5 * 7 * 13
    rng = random.Random(16)
    for degree, exponents in cases.items():
        f = BinaryField(degree)
        for n in exponents:
            roots = defaultdict(set)
            for x in range(1, f.order):
                roots[f.pow(x, n)].add(x)
            powers = sorted(roots)
            alphas = {1, 7, 19} | set(rng.sample(range(1, f.order), 3))
            alphas |= set(rng.sample(powers, min(3, len(powers))))
            for bits in alphas:
                got = {x.bits for x in nth_roots(f.element(bits), n)}
                assert got == roots.get(bits, set()), (degree, n, bits)


def test_nth_roots_takes_one_power_when_the_root_is_unique(monkeypatch):
    """With d = gcd(n, 2^m - 1) = 1 every alpha has the one root
    alpha^(1/n), found with one field power and no solvability test."""
    rng = random.Random(31)
    real_pow = BinaryField.pow
    powers = []

    def counted_pow(self, a, e):
        powers.append(e)
        return real_pow(self, a, e)

    for f in [BinaryField(n) for n in (2, 5, 8, 12, 17, 64, 131)]:
        M = f.mult_order
        exponents = [n for n in (1, 2, 4, 7, 11, 13, 19, 2 * M + 1, M - 2)
                     if n % M and math.gcd(n, M) == 1]
        for n in exponents:
            for bits in (1, f.order - 1, rng.randrange(1, f.order)):
                monkeypatch.setattr(BinaryField, "pow", counted_pow)
                powers.clear()
                (root,) = nth_roots(f.element(bits), n)
                monkeypatch.undo()
                assert powers == [pow(n % M, -1, M)], (f, n, bits)
                assert real_pow(f, root.bits, n) == bits, (f, n, bits)


def test_extension_embedding_is_a_homomorphism():
    rng = random.Random(15)
    base = BinaryField(4)
    for r in (1, 2, 3):
        emb = extension_of(base, r)
        assert emb.relative_degree == r
        assert emb.ext.degree == 4 * r
        assert repr(emb) == f"ExtensionEmbedding(F_2^4 -> F_2^{4 * r})"
        # the image of the base generator is a root of the base modulus
        img = emb(base.gen)
        acc = emb.ext.zero
        for i in range(base.modulus.bit_length() - 1, -1, -1):
            acc = acc * img
            if base.modulus >> i & 1:
                acc = acc + emb.ext.one
        assert not acc
        for _ in range(25):
            x = base.element(rng.randrange(base.order))
            y = base.element(rng.randrange(base.order))
            assert emb(x + y) == emb(x) + emb(y)
            assert emb(x * y) == emb(x) * emb(y)
        assert emb(base.one) == emb.ext.one


def test_embedding_refuses_an_image_that_is_not_a_root(monkeypatch):
    """Only the kept image is evaluated on the base modulus, which vouches
    for its whole orbit; an image off the modulus, or an orbit that is not
    n distinct elements, is still refused."""
    base = BinaryField(4)  # x^4 + x + 1
    # a root of x^4 + x^3 + 1 in F_2^8: its orbit has 4 distinct elements
    # and closes under squaring, but it is no root of base's modulus
    other = extension_of(BinaryField(4, 0b11001), 2)
    foreign = other(other.base.gen).bits
    build = extension_of.__wrapped__
    assert build(base, 2)(base.gen) == extension_of(base, 2)(base.gen)
    for image in (foreign, 1):
        monkeypatch.setattr(fields._Splitter, "split",
                            lambda self, *args, image=image, **kw: [image])
        with pytest.raises(InvariantViolationError, match="did not split"):
            build(base, 2)


def test_quadratic_extension_solves_every_lift():
    base = BinaryField(3)
    emb = extension_of(base, 2)
    assert emb.ext.degree == 6
    # every base element becomes a square of the half-trace machinery:
    # x^2 + x = w is solvable for all w in the extension of even degree
    # exactly when trace(w) = 0 there; embedded elements always qualify
    for b in range(base.order):
        assert emb.ext.trace(emb(base.element(b)).bits) == 0


def test_extension_root_counter_matches_explicit_roots():
    f = BinaryField(3)
    rng = random.Random(16)
    for _ in range(10):
        coeffs = [f.element(rng.randrange(f.order)) for _ in range(5)]
        if not any(coeffs) or not any(coeffs[1:]):
            continue
        counter = ExtensionRootCounter(coeffs)
        for r in (1, 2, 3):
            emb = extension_of(f, r)
            lifted = [emb(c) for c in coeffs]
            assert counter.count(r) == len(polynomial_roots(lifted)), (
                [c.bits for c in coeffs], r)
        # asking for a smaller degree again restarts cleanly
        assert counter.count(1) == len(polynomial_roots(coeffs))


# -- the packed root search against the reference ------------------------------

# table fields (the Conway moduli of F_2^6, F_2^10 and F_2^12 have dense
# tails), wide fields with sparse default moduli, and dense wide moduli
ROOT_SEARCH_FIELDS = ([BinaryField(n) for n in range(4, 13)]
                      + [BinaryField(17), BinaryField(32), BinaryField(64),
                         BinaryField(20, 0x180007),
                         BinaryField(64, 0x18000000000000049)])


def poly_from_roots(field, roots):
    """Little-endian coefficients of the monic product of the x - r."""
    c = [1]
    for r in roots:
        c = [0] + c
        for i in range(len(c) - 1):
            c[i] ^= field.mul(r, c[i + 1])
    return c


def root_search_cases(field, rng):
    """(path, coefficients): the path the packed search must take, or None
    for random polynomials."""
    def el():
        return rng.randrange(1, field.order)
    roots = [el() for _ in range(3)]
    yield "fold", [el(), el(), 0, 0, 0, 1]             # tail of degree 1
    yield "divide", [el(), el(), el(), 0, el(), el()]  # degree 4 both ways
    yield "reciprocal", [el(), 0, 0, 0, el(), el()]    # reversed: degree 1
    yield None, [0, 0] + poly_from_roots(field, roots[:2])       # f(0) = 0
    yield None, poly_from_roots(field, roots + roots[:2] + roots[:1])
    yield None, poly_from_roots(field, [el() for _ in range(6)])
    for _ in range(4):
        yield None, [rng.randrange(field.order)
                     for _ in range(rng.randrange(2, 9))]


def ref_search_form(ring, coeffs):
    """The search form read off a coefficient list: trailing zeros dropped,
    the factors x shifted off, the reciprocal taken when its tail is
    shorter, and every coefficient divided by the lead."""
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    if not c:
        raise ValueError("the zero polynomial has every root")
    v = next(i for i, x in enumerate(c) if x)
    c = c[v:]
    d = len(c) - 1
    reverse = False
    if d > 0:
        tail = next(i for i in range(d - 1, -1, -1) if c[i])
        reverse = d - next(i for i in range(1, d + 1) if c[i]) < tail
        if reverse:
            c.reverse()
    if c[-1] != 1:
        field = ring.field
        inv = field.inv(c[-1])
        c = [field.mul(x, inv) if x else 0 for x in c]
    return v > 0, ring.pack(c), reverse


def test_packed_search_form_matches_the_list_reference():
    """The search form built on the packed int is the one read off the
    coefficient list: the same zero-root flag, g and reverse flag."""
    rng = random.Random(23)
    for field in ROOT_SEARCH_FIELDS:
        ring = fields._ring(field)

        def el():
            return rng.randrange(1, field.order)
        cases = [c for _, c in root_search_cases(field, rng)]
        cases += [[el()], [1], [el(), 0, 0], [1, 0]]            # constants
        cases += [[0] * v + [el(), el(), 0, el()]               # X^v, v <= 3
                  for v in range(1, 4)]
        cases += [[0] * v + [el()] for v in range(1, 4)]        # c * X^v
        cases += [[el(), el(), el()], [1, 0, 0, 0, el()],       # leads != 1
                  [el(), 0, el(), el(), el()]]
        for q in (4, 8, 16):  # a + b*X^q + X^(q+1), and with lead b
            a, b = el(), el()
            cases += [[a] + [0] * (q - 1) + [b, 1],
                      [1, a] + [0] * (q - 1) + [b]]
        cases += [[rng.randrange(field.order)
                   for _ in range(rng.randrange(1, 12))] for _ in range(20)]
        for coeffs in cases:
            if not any(coeffs):
                continue
            assert fields._search_form(ring, ring.pack(coeffs)) \
                == ref_search_form(ring, coeffs), (field, coeffs)
    with pytest.raises(ValueError, match="zero polynomial"):
        fields._search_form(fields._ring(BinaryField(4)), 0)


def test_packed_root_search_matches_reference():
    rng = random.Random(17)
    for field in ROOT_SEARCH_FIELDS:
        ring = fields._ring(field)
        for path, coeffs in root_search_cases(field, rng):
            if not any(coeffs[1:]):
                continue
            case = (field, path, coeffs)
            zero_root, g, reverse = fields._search_form(ring,
                                                        ring.pack(coeffs))
            assert zero_root == (coeffs[0] == 0), case
            if path is not None:
                assert reverse == (path == "reciprocal"), case
                kind = "divide" if path == "divide" else "fold"
                assert ring.reducer(g).__name__ == kind, case
            assert fields._poly_roots_bits(field, ring.pack(coeffs)) \
                == ref_poly_roots(field, coeffs), case
            counter = ExtensionRootCounter([field.element(c) for c in coeffs])
            for r in (1, 2, 3, 1):
                assert counter.count(r) == ref_root_count(field, coeffs, r), \
                    (case, r)


def test_packed_ring_divides_and_reduces():
    rng = random.Random(18)
    for field in ROOT_SEARCH_FIELDS:
        ring = fields._ring(field)
        for _ in range(5):
            b = ref_monic(field, [rng.randrange(field.order)
                                  for _ in range(rng.randrange(1, 6))]
                          + [rng.randrange(1, field.order)])
            a = [rng.randrange(field.order) for _ in range(rng.randrange(12))]
            q, r = ring.divmod(ring.pack(a), ring.pack(b))
            assert ring.pack(ref_pmod(field, a, b)) == r
            # a = q*b + r, with q*b multiplied out coefficient by coefficient
            qb = [0] * (len(b) + max(ring.degree(q), 0))
            for i, qi in enumerate(ring.coefficients(q)):
                for j, bj in enumerate(b):
                    qb[i + j] ^= field.mul(qi, bj)
            assert ring.pack(qb) ^ r == ring.pack(a)
            square = ring.pack(ref_psqr_mod(field, a, b))
            assert ring.reducer(ring.pack(b))(gf2x.sqr(ring.pack(a))) == square
        # folding divisors X^d + T, deg T <= d/2, whose tail coefficients are
        # all 0 or 1, or have at most eight bits set: each term of T is one
        # packed product like any other
        n = field.degree
        for _ in range(6):
            d = rng.randrange(2, 9)
            if rng.random() < 0.5:
                tail = [rng.randrange(2) for _ in range(d // 2 + 1)]
            else:
                tail = [sum(1 << i for i in rng.sample(
                    range(n), rng.randrange(min(n, 8) + 1)))
                    for _ in range(d // 2 + 1)]
            b = tail + [0] * (d - len(tail)) + [1]
            fold = ring.reducer(ring.pack(b))
            assert fold.__name__ == "fold", b
            a = [rng.randrange(field.order) for _ in range(rng.randrange(12))]
            square = ring.pack(ref_psqr_mod(field, a, b))
            assert fold(gf2x.sqr(ring.pack(a))) == square, (field, a, b)


def test_embedding_is_the_smallest_reference_root():
    for n, r in [(n, 2) for n in range(2, 13)] + [(3, 3), (4, 3), (5, 3),
                                                  (8, 3), (6, 4), (12, 5),
                                                  (10, 3), (8, 5)]:
        base = BinaryField(n)
        emb = extension_of(base, r)
        coeffs = [(base.modulus >> i) & 1 for i in range(n + 1)]
        roots = ref_poly_roots(emb.ext, coeffs)
        assert len(roots) == n
        assert emb(base.gen).bits == roots[0], (n, r)


# -- the splitter stops at the period of its roots -----------------------------


def ref_root_traces(field, m):
    """T_j = sum over i < N of (x^j)^(2^i) * (X^(2^i) mod m), for j < N: all
    N powers of X, one coefficient product per term (m monic, little-endian)."""
    powers = [ref_pmod(field, [0, 1], m)]
    for _ in range(field.degree - 1):
        powers.append(ref_psqr_mod(field, powers[-1], m))
    traces = []
    for j in range(field.degree):
        t, v = [0] * len(m), 1 << j
        for p in powers:
            for i, c in enumerate(p):
                t[i] ^= field.mul(v, c)
            v = field.sqr(v)
        traces.append(ref_strip(t))
    return traces


def assert_root_traces(splitter, m):
    """Every root-level trace of splitter is the N-term sum modulo m."""
    ring = splitter.ring
    for j, trace in enumerate(ref_root_traces(ring.field,
                                              ring.coefficients(m))):
        assert splitter._rem((), j) == ring.pack(trace), (ring.field, j)


def subfield_period(field, roots):
    """The least e dividing N with every root in F_2^e."""
    n = field.degree
    return next(e for e in range(1, n + 1) if n % e == 0
                and all(field.frob(x, e) == x for x in roots))


def subfield_roots(field, e, rng):
    """Up to three relative traces Tr_{N/e} of random elements, which lie in
    F_2^e, drawn until they are nonzero and generate F_2^e; sorted."""
    while True:
        roots = set()
        for _ in range(3):
            y, t = rng.randrange(1, field.order), 0
            for s in range(0, field.degree, e):
                t ^= field.frob(y, s)
            roots.add(t)
        if 0 not in roots and subfield_period(field, roots) == e:
            return sorted(roots)


def test_base_modulus_splitter_stops_at_the_base_degree():
    """Over F_2^(nr) the roots of the base modulus lie in F_2^n, so the
    splitter keeps n powers of X, and H is the modulus itself."""
    for n, r in [(8, 2), (10, 3), (12, 5), (6, 4), (16, 2)]:
        ring = fields._ring(BinaryField(n * r))
        g = ring.pack([BinaryField(n).modulus >> i & 1 for i in range(n + 1)])
        splitter = fields._Splitter(ring, g)
        assert len(splitter._powers) == n and splitter.H == g, (n, r)
        assert_root_traces(splitter, g)


def test_subfield_roots_stop_at_their_period():
    """A product of linear factors with roots in a proper subfield F_2^e
    keeps e powers of X: its own when the roots are distinct, those of the
    splitter built for H when one repeats."""
    rng = random.Random(19)
    for field in ROOT_SEARCH_FIELDS:
        n, ring = field.degree, fields._ring(field)
        for e in (e for e in range(2, n) if n % e == 0):
            roots = subfield_roots(field, e, rng)
            for listed in (roots, roots + roots[:1]):
                coeffs = poly_from_roots(field, listed)
                case = (field, e, listed)
                _, g, _ = fields._search_form(ring, ring.pack(coeffs))
                splitter = fields._Splitter(ring, g)
                assert len(splitter._powers) == e, case
                assert (splitter.H == g) == (listed is roots), case
                found = fields._poly_roots_bits(field, ring.pack(coeffs))
                assert found == roots == ref_poly_roots(field, coeffs), case
                assert_root_traces(splitter, splitter.H)


def test_irreducible_of_foreign_degree_runs_the_full_chain():
    """A GF(2) irreducible of degree d not dividing N has its roots in
    F_2^d, outside F_2^N: the chain runs to N, H = 1, and no root is found.
    The splitter then keeps g's N powers, so its traces are sums mod g."""
    for field, d in [(BinaryField(12), 5), (BinaryField(12), 8),
                     (BinaryField(17), 4), (BinaryField(64), 3),
                     (BinaryField(20, 0x180007), 3)]:
        ring = fields._ring(field)
        g = ring.pack([gf2x.smallest_irreducible(d) >> i & 1
                       for i in range(d + 1)])
        splitter = fields._Splitter(ring, g)
        assert len(splitter._powers) == field.degree, (field, d)
        assert splitter.H == 1 and splitter.split() == [], (field, d)
        assert_root_traces(splitter, g)


def test_binary_modulus_traces_are_xors_of_weights(monkeypatch):
    """A GF(2) modulus over F_2^(nr) has 0/1 slots in every X^(2^i) mod H,
    so its traces are XORs of the weights; the packed products that any
    other H takes give the same traces and the same embedding."""
    cases = [(2, 2), (3, 5), (5, 2), (8, 2), (7, 3), (10, 3), (6, 4), (12, 5)]
    want = {}
    for n, r in cases:
        base = BinaryField(n)
        ring = fields._ring(BinaryField(n * r))
        g = ring.pack([base.modulus >> i & 1 for i in range(n + 1)])
        xors, products = fields._Splitter(ring, g), fields._Splitter(ring, g)
        assert xors._slots is not None, (n, r)
        products._slots = None
        for j in range(n * r):
            assert xors._rem((), j) == products._rem((), j), (n, r, j)
        want[n, r] = extension_of(base, r)(base.gen).bits
    monkeypatch.setattr(fields, "_binary_slots", lambda ring, powers: None)
    for (n, r), image in want.items():
        base = BinaryField(n)
        assert extension_of.__wrapped__(base, r)(base.gen).bits == image
    # a modulus with a coefficient outside GF(2) keeps the products
    field = BinaryField(8)
    ring = fields._ring(field)
    coeffs = poly_from_roots(field, [3, 5, 7])
    _, g, _ = fields._search_form(ring, ring.pack(coeffs))
    assert fields._Splitter(ring, g)._slots is None
