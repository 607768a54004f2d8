"""Polynomial arithmetic over GF(2), with polynomials packed into Python ints.

Bit i of the integer is the coefficient of x^i, so 0b100101 encodes
x^5 + x^2 + 1.  Addition is XOR; these helpers supply the rest of the ring
structure, a reducer built once per modulus (and its slot-wise form for
polynomials over F_{2^n} packed into one int), and irreducibility testing,
which is all the field layer needs, and the one integer factorizer the field
and curve layers share.

It also defines the package's two runtime exceptions: ResourceLimitError
(the command line's exit 3) and InvariantViolationError (exit 1).  fields
re-exports both.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from math import gcd as _int_gcd, isqrt

# Default moduli for the small degrees: the Conway polynomials, which are
# primitive, so x generates each field and its g^i labels are reproducible.
# Labels are per field: fields.extension_of embeds a field by the least root
# of its modulus, so the image of its g is in general not the extension's
# g^((Q - 1)/(q - 1)): a label such as g^6 names an element of one field.
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
    """Carry-less product of two polynomials.

    The shorter operand b is read four bits at a time against a table of the
    16 multiples of a; below a byte the plain shift-and-add loop is cheaper
    than building the table.
    """
    if a.bit_length() < b.bit_length():
        a, b = b, a
    if b < 256:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        return r
    a2 = a << 1
    a3 = a2 ^ a
    a4 = a << 2
    a8 = a << 3
    a12 = a8 ^ a4
    table = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
             a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
    r = 0
    s = 0
    while b:
        r ^= table[b & 15] << s
        b >>= 4
        s += 4
    return r


def sqr(a: int) -> int:
    """Square of a polynomial: coefficient i moves to position 2i.

    Reading the binary digits of a as base-4 digits does exactly that spread,
    in one pass of C code.
    """
    return int(format(a, "b"), 4)


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of polynomial division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    nb = b.bit_length()
    q = 0
    na = a.bit_length()
    while na >= nb:
        shift = na - nb
        q |= 1 << shift
        a ^= b << shift
        na = a.bit_length()
    return q, a


def mod(a: int, b: int) -> int:
    """Remainder of polynomial division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    nb = b.bit_length()
    na = a.bit_length()
    while na >= nb:
        a ^= b << (na - nb)
        na = a.bit_length()
    return a


def _fold_shifts(m: int) -> tuple[int, ...] | None:
    """The exponents of the tail r of m = x^n + r when deg r <= n/2, so that
    two folds reduce any product of two residues; None for a denser tail,
    which folding could take up to n rounds to clear."""
    n = degree(m)
    r = m ^ (1 << n)
    if 2 * degree(r) > n:
        return None
    return tuple(i for i in range(n) if (r >> i) & 1)


def reducer(m: int) -> Callable[[int], int]:
    """A function reducing polynomials modulo m, built once per modulus.

    When m = x^n + r with deg r <= n/2, the part of a above x^n is folded
    back as hi * r, a XOR of shifted copies of hi (one per term of r); two
    folds reduce any product of two residues.  Any other m is reduced by
    mod().
    """
    n = degree(m)
    shifts = _fold_shifts(m)
    if shifts is None:
        def reduce(a: int) -> int:
            return mod(a, m)
        return reduce
    mask = (1 << n) - 1

    def fold(a: int) -> int:
        hi = a >> n
        while hi:
            a &= mask
            for s in shifts:
                a ^= hi << s
            hi = a >> n
        return a
    return fold


def slot_reducer(m: int) -> Callable[[int], int]:
    """A function reducing every slot of a packed int modulo m, all at once.

    With n = deg m, slot i is bits [2n*i, 2n*i + 2n) and may hold any
    polynomial of degree below 2n, such as a product of two residues; this
    is how fields.py packs a polynomial over F_{2^n}.  The rule is
    reducer()'s: a sparse tail r is folded, the high halves of all slots
    shifted back once per term of r.  Any other m is divided by Barrett's
    method, exact over GF(2): with mu = x^(2n) div m, every slot's quotient
    is (hi * mu) div x^n, so two packed products stand for the n - 1 steps
    of long division.
    """
    n = degree(m)
    width = 2 * n
    shifts = _fold_shifts(m)
    low = cover = 0  # bits [0, n) of every slot, over the widest argument

    def widen(bits: int) -> int:
        nonlocal low, cover
        slots = 2 * (bits // width + 1)
        unit = ((1 << (width * slots)) - 1) // ((1 << width) - 1)
        low, cover = unit * ((1 << n) - 1), width * slots
        return low

    def fold(a: int) -> int:
        lo = low if a.bit_length() <= cover else widen(a.bit_length())
        hi = (a >> n) & lo
        while hi:
            a &= lo
            for s in shifts:
                a ^= hi << s
            hi = (a >> n) & lo
        return a

    if shifts is not None:
        return fold
    mu = divmod_(1 << width, m)[0]

    def divide(a: int) -> int:
        lo = low if a.bit_length() <= cover else widen(a.bit_length())
        hi = (a >> n) & lo
        if not hi:
            return a
        return a ^ mul((mul(hi, mu) >> n) & lo, m)
    return divide


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


# -- integer factorization ------------------------------------------------------
#
# Group orders 2^n - 1 and curve orders near 4^n reach 2^64 and beyond, so
# trial division stops at a small bound and Pollard rho splits what is left.

# Pollard rho steps one factorization may take, counted at 128 bits: a step
# on a b-bit number is charged max(1, (b/128)^2) steps, the growth of its
# modular squaring.  Steps are charged as they run, batch by batch, so the
# whole budget is usable.  Every 2^n - 1 and 2^n + 1 with n <= 121 is below
# 128 bits and factors within it; the slowest, 2^101 - 1, takes 6.8 million
# steps (2-3 s).  Wider ones factor when their second-largest prime is small
# enough: 2^139 - 1 (7.5 million charged steps) in 2.6 s, 2^215 + 1 in 2.3 s.
# Charged by width, a refusal comes no later on a wider number: factorize
# refuses 2^137 - 1 in about 4 s, 2^151 + 1 in 2 s and 2^1000 - 1 in
# 0.8 s (2 vCPUs, Python 3.11).
RHO_STEP_LIMIT = 1 << 23


class ResourceLimitError(RuntimeError):
    """A bounded search or enumeration exhausted its configured budget."""


class InvariantViolationError(RuntimeError):
    """A computation contradicted a structural guarantee; indicates a bug."""


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


def _split(n: int, budget: float) -> tuple[int, float]:
    """A proper factor of the odd composite n and the rho steps charged for
    it: Pollard rho with Brent's cycle finding, taking gcds over batches of
    128 steps, each step charged max(1, (bits/128)^2) for n of that many
    bits.  Each run of steps, a round's advance or one batch, is charged as
    it starts, and the run that would take the charge past `budget` raises
    ResourceLimitError instead."""
    bits = n.bit_length()
    weight = max(1.0, (bits / 128) ** 2)
    steps = 0.0

    def charge(count: int) -> None:
        nonlocal steps
        steps += count * weight
        if steps > budget:
            raise ResourceLimitError(
                f"Pollard rho found no factor of the {bits}-bit {n} within "
                f"the budget of one factorization, {RHO_STEP_LIMIT} steps "
                f"at 128 bits, each step on {bits} bits charged "
                f"{weight:.2f}")

    for c in range(1, n):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            charge(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                batch = min(128, r - k)
                charge(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = _int_gcd(acc, n)
                k += batch
            r <<= 1
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = _int_gcd(abs(x - saved), n)
        if g != n:
            return g, steps
    raise InvariantViolationError("no factor found")  # unreachable for composite n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, ascending in p: trial division
    by the primes below 2^10, then Miller-Rabin and Pollard rho.  The rho
    rounds of one call share RHO_STEP_LIMIT steps, charged by the width of
    the number they split as the steps run (see _split); the batch that
    would pass it raises ResourceLimitError instead of starting."""
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
    budget = RHO_STEP_LIMIT
    while pending:
        m = pending.pop()
        if m < 1 << 20 or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d, steps = _split(m, budget)
            budget -= steps
            pending += [d, m // d]
    return dict(sorted(out.items()))


def is_irreducible(f: int) -> bool:
    """Rabin's irreducibility test.

    f of degree n is irreducible iff x^(2^n) == x mod f and, for every prime
    p dividing n, gcd(x^(2^(n/p)) - x, f) == 1.  One squaring chain takes
    x^(2^i) for i <= n and keeps the powers at i = n/p on the way; the gcds
    run only once the last power has passed.
    """
    n = degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if not f & 1:  # divisible by x
        return False
    reduce = reducer(f)
    stops = {n // p for p in factorize(n)}
    kept = []  # x^(2^i) - x mod f at the stops
    h = 2  # x, reduced as n >= 2
    for i in range(1, n + 1):
        h = reduce(sqr(h))
        if i in stops:
            kept.append(h ^ 2)
    return h == 2 and all(gcd(t, f) == 1 for t in kept)


def _has_small_factor(f: int, depth: int) -> bool:
    """Whether f, with f(0) = f(1) = 1 and degree at least 2 * depth, has an
    irreducible factor of degree 2..depth: gcd(x^(2^d) - x, f) != 1 for
    some d there."""
    reduce = reducer(f)
    h = 4  # x^2
    for _ in range(depth - 1):
        h = reduce(sqr(h))
        if gcd(h ^ 2, f) != 1:
            return True
    return False


def smallest_irreducible(n: int) -> int:
    """The irreducible polynomial of degree n with the smallest encoding.

    Two sieves come before Rabin's test: for n > 1 an even number of terms
    means x + 1 divides f, and a factor of degree d <= min(8, n // 2) shows
    as gcd(x^(2^d) - x, f) != 1.  Neither skips an irreducible f, whose
    only factor has degree n > d and is not x + 1 for n > 1.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    depth = min(8, n // 2)
    for t in range(1, 1 << n, 2):  # constant term must be 1 for n > 1
        f = (1 << n) | t
        if n > 1 and not f.bit_count() & 1:
            continue
        if not _has_small_factor(f, depth) and is_irreducible(f):
            return f
    raise InvariantViolationError("no irreducible polynomial found")  # unreachable


@cache
def default_modulus(n: int) -> int:
    """Default modulus for F_{2^n}: Conway polynomial when tabulated,
    otherwise the smallest irreducible polynomial of that degree.  Each
    degree is searched once per process."""
    if n < 1:
        raise ValueError("degree must be positive")
    got = CONWAY_POLYNOMIALS.get(n)
    return got if got is not None else smallest_irreducible(n)
