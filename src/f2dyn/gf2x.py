"""Polynomial arithmetic over GF(2), with polynomials packed into Python ints.

Bit i of the integer is the coefficient of x^i, so 0b100101 encodes
x^5 + x^2 + 1.  Addition is XOR; these helpers supply the rest of the ring
structure plus irreducibility testing, which is all the field layer needs,
and the one integer factorizer the field and curve layers share.
"""

from __future__ import annotations

from math import gcd as _int_gcd, isqrt

# Default moduli for the small degrees: the Conway polynomials, which are
# primitive and norm-compatible between a field and its subfields, so labels
# like g^6 mean the same thing across nested fields.
CONWAY_POLYNOMIALS = {
    1: 0x3,     # x + 1
    2: 0x7,     # x^2 + x + 1
    3: 0xB,     # x^3 + x + 1
    4: 0x13,    # x^4 + x + 1
    5: 0x25,    # x^5 + x^2 + 1
    6: 0x5B,    # x^6 + x^4 + x^3 + x + 1
    7: 0x83,    # x^7 + x + 1
    8: 0x11D,   # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,   # x^9 + x^4 + 1
    10: 0x46F,  # x^10 + x^6 + x^5 + x^3 + x^2 + x + 1
    11: 0x805,  # x^11 + x^2 + 1
    12: 0x10EB,  # x^12 + x^7 + x^6 + x^5 + x^3 + x + 1
}


def degree(p: int) -> int:
    """Degree of the polynomial, with degree(0) == -1."""
    return p.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less product of two polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def sqr(a: int) -> int:
    """Square of a polynomial: coefficients spread to even positions."""
    r = 0
    i = 0
    while a:
        if a & 1:
            r |= 1 << (2 * i)
        a >>= 1
        i += 1
    return r


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of polynomial division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = degree(b)
    q = 0
    while degree(a) >= db:
        shift = degree(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def mod(a: int, b: int) -> int:
    """Remainder of polynomial division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = degree(b)
    while degree(a) >= db:
        a ^= b << (degree(a) - db)
    return a


def mulmod(a: int, b: int, m: int) -> int:
    return mod(mul(a, b), m)


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


def pow_x(e: int, m: int) -> int:
    """x^e reduced modulo m, by square and multiply."""
    result, base = mod(1, m), mod(2, m)
    while e:
        if e & 1:
            result = mulmod(result, base, m)
        base = mod(sqr(base), m)
        e >>= 1
    return result


def _frob_iter(t: int, m: int, times: int) -> int:
    for _ in range(times):
        t = mod(sqr(t), m)
    return t


# -- integer factorization ------------------------------------------------------
#
# Group orders 2^n - 1 and curve orders near 4^n reach 2^64 and beyond, so
# trial division stops at a small bound and Pollard rho splits what is left.

def _primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
    return [p for p in range(bound) if sieve[p]]


_SMALL_PRIMES = _primes_below(1 << 10)
# Miller-Rabin with these bases is exact below 3.3 * 10^24
_WITNESSES = _SMALL_PRIMES[:13]


def _is_prime(n: int) -> bool:
    """Miller-Rabin for n with no prime factor below 2^10."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(n: int) -> int:
    """A proper factor of the odd composite n: Pollard rho with Brent's
    cycle finding, taking gcds over batches of 128 steps."""
    for c in range(1, n):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = _int_gcd(acc, n)
                k += 128
            r <<= 1
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = _int_gcd(abs(x - saved), n)
        if g != n:
            return g
    raise AssertionError("no factor found")  # unreachable for composite n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, ascending in p: trial division
    by the primes below 2^10, then Miller-Rabin and Pollard rho."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            if n > 1:
                out[n] = 1
            return out
        if not n % p:
            n //= p
            e = 1
            while not n % p:
                n //= p
                e += 1
            out[p] = e
    pending = [n] if n > 1 else []  # no prime factor of n is below 2^10
    while pending:
        m = pending.pop()
        if m < 1 << 20 or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _split(m)
            pending += [d, m // d]
    return dict(sorted(out.items()))


def is_irreducible(f: int) -> bool:
    """Rabin's irreducibility test.

    f of degree n is irreducible iff x^(2^n) == x mod f and, for every prime
    p dividing n, gcd(x^(2^(n/p)) - x, f) == 1.
    """
    n = degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if not f & 1:  # divisible by x
        return False
    x = mod(2, f)
    if _frob_iter(x, f, n) != x:
        return False
    for p in factorize(n):
        h = _frob_iter(x, f, n // p)
        if gcd(h ^ x, f) != 1:
            return False
    return True


def smallest_irreducible(n: int) -> int:
    """The irreducible polynomial of degree n with the smallest encoding."""
    if n < 1:
        raise ValueError("degree must be positive")
    for t in range(1, 1 << n, 2):  # constant term must be 1 for n > 1
        f = (1 << n) | t
        if is_irreducible(f):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def default_modulus(n: int) -> int:
    """Default modulus for F_{2^n}: Conway polynomial when tabulated,
    otherwise the smallest irreducible polynomial of that degree."""
    if n < 1:
        raise ValueError("degree must be positive")
    got = CONWAY_POLYNOMIALS.get(n)
    return got if got is not None else smallest_irreducible(n)
