"""Packed-int polynomial arithmetic over GF(2)."""

import math
import random

import pytest

import f2dyn
from f2dyn import BinaryField, fields, gf2x

# Irreducible moduli x^n + r with deg r > n/2, which the field reducer hands to
# gf2x.mod instead of folding.
DENSE_MODULI = (0x180007, 0x18000000000000049)


# -- reference kernels: one coefficient at a time --------------------------------


def ref_mul(a, b):
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def ref_sqr(a):
    r = 0
    i = 0
    while a:
        if a & 1:
            r |= 1 << (2 * i)
        a >>= 1
        i += 1
    return r


def ref_mod(a, b):
    db = gf2x.degree(b)
    while gf2x.degree(a) >= db:
        a ^= b << (gf2x.degree(a) - db)
    return a


def ref_mulmod(a, b, m):
    return ref_mod(ref_mul(a, b), m)


def test_degree():
    assert gf2x.degree(0) == -1
    assert gf2x.degree(1) == 0
    assert gf2x.degree(0b100101) == 5


def test_mul_known_products():
    # (x + 1)^2 = x^2 + 1, (x^2 + x + 1)(x + 1) = x^3 + 1
    assert gf2x.mul(0b11, 0b11) == 0b101
    assert gf2x.mul(0b111, 0b11) == 0b1001
    assert gf2x.mul(0, 0b1011) == 0
    assert gf2x.mul(1, 0b1011) == 0b1011


def test_ring_axioms_randomized():
    rng = random.Random(1)
    for _ in range(300):
        a, b, c = (rng.getrandbits(24) for _ in range(3))
        assert gf2x.mul(a, b) == gf2x.mul(b, a)
        assert gf2x.mul(a, b ^ c) == gf2x.mul(a, b) ^ gf2x.mul(a, c)
        assert gf2x.mul(gf2x.mul(a, b), c) == gf2x.mul(a, gf2x.mul(b, c))
        assert gf2x.sqr(a) == gf2x.mul(a, a)


def test_divmod_identity():
    rng = random.Random(2)
    for _ in range(300):
        a = rng.getrandbits(30)
        b = rng.getrandbits(12) | 1 << 12
        q, r = gf2x.divmod_(a, b)
        assert gf2x.mul(q, b) ^ r == a
        assert gf2x.degree(r) < gf2x.degree(b)
        assert gf2x.mod(a, b) == r
    with pytest.raises(ZeroDivisionError):
        gf2x.divmod_(1, 0)
    with pytest.raises(ZeroDivisionError):
        gf2x.mod(1, 0)


def test_gcd_divides_and_scales():
    rng = random.Random(3)
    for _ in range(100):
        a = rng.getrandbits(16) | 1 << 16
        b = rng.getrandbits(12) | 1 << 12
        c = rng.getrandbits(6) | 1 << 6
        g = gf2x.gcd(a, b)
        assert gf2x.mod(a, g) == 0 and gf2x.mod(b, g) == 0
        # over GF(2) every nonzero polynomial is monic, so gcd scales exactly
        assert gf2x.gcd(gf2x.mul(a, c), gf2x.mul(b, c)) == gf2x.mul(g, c)


def test_is_irreducible_known_cases():
    for f in (0b11, 0b111, 0b1011, 0b1101, 0b10011, 0b100101, 0x11D):
        assert gf2x.is_irreducible(f), bin(f)
    # x^2 + 1 = (x+1)^2, x^2, x^3 + x = x(x+1)^2, x^4 + x^3 + x^2 + x + 1? no:
    # 0b11111 is irreducible; use genuine composites
    for f in (0b101, 0b100, 0b1010, 0b110, gf2x.mul(0b111, 0b1011), 1, 0):
        assert not gf2x.is_irreducible(f), bin(f)
    # squarefree products of irreducibles whose degrees d divide the degree
    # n: x^(2^n) = x mod f, so only the gcd at some n/p, p a prime of n
    # dividing n/d, rejects them
    def irreducibles(d, count):
        found = [gf2x.smallest_irreducible(d)]
        f = found[0] + 2
        while len(found) < count:
            if gf2x.is_irreducible(f):
                found.append(f)
            f += 2
        return found

    for degrees in ((15, 15), (5, 5, 10, 10), (6, 6, 6, 6, 6), (10, 20, 30),
                    (35, 35), (42, 42, 42, 42, 42), (14, 21, 35, 70, 70)):
        factors = []
        for d in set(degrees):
            factors += irreducibles(d, degrees.count(d))
        f = 1
        for g in factors:
            f = gf2x.mul(f, g)
        n = gf2x.degree(f)
        assert all(n % d == 0 for d in degrees)
        assert not gf2x.is_irreducible(f), degrees


def x_power(e, m):
    """x^e mod m by square and multiply."""
    result, base = 1, 2
    while e:
        if e & 1:
            result = ref_mulmod(result, base, m)
        base = ref_mulmod(base, base, m)
        e >>= 1
    return result


def test_conway_table_entries_are_irreducible_and_primitive():
    for n, f in gf2x.CONWAY_POLYNOMIALS.items():
        assert gf2x.degree(f) == n
        assert gf2x.is_irreducible(f)
        # x generates the multiplicative group: x^(2^n - 1) = 1 and
        # x^((2^n - 1)/p) != 1 for every prime p dividing 2^n - 1
        order = (1 << n) - 1
        assert x_power(order, f) == 1
        for p in gf2x.factorize(order):
            assert x_power(order // p, f) != 1, (n, p)


def test_factorize_small_and_wide():
    for n in range(1, 3000):
        factors = gf2x.factorize(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert list(factors) == sorted(factors)
        assert all(p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))
                   for p in factors)
    assert gf2x.factorize(2**64 + 1) == {274177: 1, 67280421310721: 1}
    assert gf2x.factorize(2**62 - 1) == {3: 1, 715827883: 1, 2147483647: 1}
    assert gf2x.factorize(2**61 - 1) == {2**61 - 1: 1}
    assert gf2x.factorize(1031**2 * 2**40) == {2: 40, 1031: 2}
    with pytest.raises(ValueError):
        gf2x.factorize(0)


def test_factorize_agrees_with_sympy():
    """2^n - 1 and 2^n + 1 for n <= 80 against an independent factorizer."""
    sympy = pytest.importorskip("sympy")
    for n in range(1, 81):
        for m in ((1 << n) - 1, (1 << n) + 1):
            assert gf2x.factorize(m) == sympy.factorint(m), m


def test_is_irreducible_agrees_with_sympy():
    """Every polynomial of degree 1 to 10 over GF(2) against sympy's test."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for f in range(2, 1 << 11):
        coeffs = [int(c) for c in format(f, "b")]
        want = sympy.Poly(coeffs, x, modulus=2).is_irreducible
        assert gf2x.is_irreducible(f) == want, bin(f)


def test_factorize_refuses_past_its_rho_budget(monkeypatch):
    """2^101 - 1 takes 6.8 million rho steps; with the budget lowered to
    10,000 it is refused with ResourceLimitError, the class the field layer
    re-exports, and a number rho splits within the budget still factors."""
    monkeypatch.setattr(gf2x, "RHO_STEP_LIMIT", 10_000)
    with pytest.raises(gf2x.ResourceLimitError, match="Pollard rho"):
        gf2x.factorize(2**101 - 1)
    assert gf2x.ResourceLimitError is fields.ResourceLimitError
    assert gf2x.factorize(2**64 + 1) == {274177: 1, 67280421310721: 1}


def test_rho_charges_each_step_by_the_width_of_its_number():
    """Rho meets the factor p = 2^31 - 1 after the same steps whatever its
    cofactor, as its sequence runs mod p; a step on a number wider than 128
    bits is charged (bits/128)^2.  So the 552-bit p * (2^521 - 1) costs
    (552/128)^2 times what the 120-bit p * (2^89 - 1) costs, and a budget
    of twice the narrow cost refuses the wide number."""
    p = 2**31 - 1
    narrow, wide = p * (2**89 - 1), p * (2**521 - 1)
    assert gf2x._split(narrow, gf2x.RHO_STEP_LIMIT) == (p, 50302)
    factor, charged = gf2x._split(wide, gf2x.RHO_STEP_LIMIT)
    assert factor == p and charged == pytest.approx(50302 * (552 / 128) ** 2)
    with pytest.raises(gf2x.ResourceLimitError, match="552-bit"):
        gf2x._split(wide, 2 * 50302)


def test_rho_budget_covers_the_last_round(monkeypatch):
    """The narrow split above costs 50302 steps.  With the budget a tenth
    above that, factorize still splits it: batches are charged as they run,
    so the last round is not refused for the 2r steps it could take at
    most.  A budget one step short of the cost refuses it."""
    p, q = 2**31 - 1, 2**89 - 1
    monkeypatch.setattr(gf2x, "RHO_STEP_LIMIT", 50302 * 11 // 10)
    assert gf2x.factorize(p * q) == {p: 1, q: 1}
    monkeypatch.setattr(gf2x, "RHO_STEP_LIMIT", 50302 - 1)
    with pytest.raises(gf2x.ResourceLimitError, match="120-bit"):
        gf2x.factorize(p * q)


def test_unreachable_ends_raise_invariant_violations(monkeypatch):
    """A rho that never finds a proper factor and a modulus search that
    finds no irreducible end in InvariantViolationError, which the command
    line turns into exit 1; gf2x defines the one class the package uses."""
    with monkeypatch.context() as patch:
        patch.setattr(gf2x, "_int_gcd", lambda a, n: n)
        with pytest.raises(gf2x.InvariantViolationError,
                           match="no factor found"):
            gf2x._split(15, gf2x.RHO_STEP_LIMIT)
    with monkeypatch.context() as patch:
        patch.setattr(gf2x, "is_irreducible", lambda f: False)
        with pytest.raises(gf2x.InvariantViolationError,
                           match="no irreducible polynomial found"):
            gf2x.smallest_irreducible(3)
    assert (gf2x.InvariantViolationError is fields.InvariantViolationError
            is f2dyn.InvariantViolationError)


def test_factorize_reaches_two_to_the_139_minus_one():
    """2^139 - 1 = 5625767248687 * 123876132205208335762278423601: its
    139-bit part takes 6.3 million rho steps, 7.5 million once charged by
    width, within RHO_STEP_LIMIT."""
    n = 2**139 - 1
    factors = gf2x.factorize(n)
    assert math.prod(p**e for p, e in factors.items()) == n
    assert len(factors) == 2


def test_default_modulus_and_smallest_irreducible():
    for n in range(1, 13):
        assert gf2x.default_modulus(n) == gf2x.CONWAY_POLYNOMIALS[n]
    for n in range(13, 17):
        f = gf2x.default_modulus(n)
        assert f == gf2x.smallest_irreducible(n)
        assert gf2x.degree(f) == n and gf2x.is_irreducible(f)
        # nothing smaller of the same degree is irreducible
        for t in range(1 << n, f):
            assert not gf2x.is_irreducible(t)
    with pytest.raises(ValueError):
        gf2x.default_modulus(0)


def ref_smallest_irreducible(n):
    """The unsieved scan: Rabin's test on every candidate with f(0) = 1."""
    for t in range(1, 1 << n, 2):
        f = (1 << n) | t
        if gf2x.is_irreducible(f):
            return f


def test_sieved_modulus_search_matches_the_plain_scan(monkeypatch):
    for n in range(1, 81):
        assert gf2x.smallest_irreducible(n) == ref_smallest_irreducible(n), n
    # a second call for a degree is answered without a search
    first = gf2x.default_modulus(90)

    def no_search(n):
        raise AssertionError(f"degree {n} searched twice")
    monkeypatch.setattr(gf2x, "smallest_irreducible", no_search)
    assert gf2x.default_modulus(90) == first


def test_kernels_match_reference():
    rng = random.Random(4)
    for _ in range(1500):
        a = rng.getrandbits(rng.randrange(1, 301))
        b = rng.getrandbits(rng.randrange(1, 301))
        assert gf2x.mul(a, b) == ref_mul(a, b)
        assert gf2x.sqr(a) == ref_sqr(a)
        if b:
            r = ref_mod(a, b)
            assert gf2x.mod(a, b) == r
            assert gf2x.divmod_(a, b)[1] == r


def test_reducer_matches_reference_mod():
    rng = random.Random(5)
    # explicit moduli first: default_modulus itself runs on the reducer
    composite = gf2x.mul(0b111, 0b1011)  # the reducer takes any modulus
    for m in (composite, 0x1000000000000001B, *DENSE_MODULI):
        reduce = gf2x.reducer(m)
        for _ in range(200):
            a = rng.getrandbits(rng.randrange(1, 4 * gf2x.degree(m)))
            assert reduce(a) == ref_mod(a, m)
    for m in DENSE_MODULI:
        assert gf2x.is_irreducible(m)
        n = gf2x.degree(m)
        assert 2 * gf2x.degree(m ^ (1 << n)) > n
    moduli = [gf2x.default_modulus(n) for n in range(13, 65)]
    for m in moduli:
        n = gf2x.degree(m)
        assert 2 * gf2x.degree(m ^ (1 << n)) <= n  # every default folds
    for m in moduli + list(DENSE_MODULI):
        field = BinaryField(gf2x.degree(m), m)
        for _ in range(40):
            x, y = rng.getrandbits(field.degree), rng.getrandbits(field.degree)
            assert field.mul(x, y) == ref_mod(ref_mul(x, y), m)
            assert field.sqr(x) == ref_mod(ref_sqr(x), m)
