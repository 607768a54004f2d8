"""Supersingular curves y^2 + a1*y = x^3 + a2*x behind the quartic maps.

On such a curve the x-coordinate of point duplication is x -> a*x^4 + b with
a = 1/a1^2 and b = (a2/a1)^2.  Cycle lengths of those maps on P^1 therefore
come down to the order of 2 modulo point orders in the group E(F_{2^n}),
which this module computes and catalogs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from math import isqrt, lcm

from .fields import (
    BinaryField,
    ExtensionEmbedding,
    FieldElement,
    FieldMismatchError,
    InvariantViolationError,
    POINT_LIMIT,
    ResourceLimitError,
    extension_of,
)
from .gf2x import factorize


class CurveSpec(namedtuple("CurveSpec", "a1 a2")):
    """The curve y^2 + a1*y = x^3 + a2*x over a binary field (a1 nonzero)."""

    __slots__ = ()

    def __new__(cls, a1: FieldElement, a2: FieldElement):
        if a1.field != a2.field:
            raise FieldMismatchError("curve coefficients lie in different fields")
        if not a1:
            raise ValueError("a1 must be nonzero (the curve would be singular)")
        return tuple.__new__(cls, (a1, a2))

    @property
    def field(self) -> BinaryField:
        return self.a1.field

    @property
    def identity(self) -> "CurvePoint":
        return CurvePoint(self, None, None)

    def lift_target(self) -> Callable[[int], int]:
        """x -> w = (x^3 + a2*x)/a1^2 on encodings of the curve's field:
        y = a1*z turns the equation at x into z^2 + z = w, so x lifts to two
        points over the field when Tr w = 0 and to none when Tr w = 1."""
        f = self.field
        mul = f.mul
        c, a2 = f.inv(mul(self.a1.bits, self.a1.bits)), self.a2.bits
        return lambda x: mul(c, mul(x, mul(x, x) ^ a2))

    def extended(self, embedding: ExtensionEmbedding) -> "CurveSpec":
        if embedding.base != self.field:
            raise FieldMismatchError("embedding does not start at the curve's field")
        return CurveSpec(embedding(self.a1), embedding(self.a2))


class CurvePoint(namedtuple("CurvePoint", "curve x y")):
    """A point of E: the identity (x and y None), or an affine pair
    satisfying the equation."""

    __slots__ = ()

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "CurvePoint":
        if self.is_identity:
            return self
        return CurvePoint(self.curve, self.x, self.y + self.curve.a1)

    def __repr__(self) -> str:
        if self.is_identity:
            return "CurvePoint(identity)"
        return f"CurvePoint({self.x.hex}, {self.y.hex})"


def curve_from_map(a: FieldElement, b: FieldElement) -> CurveSpec:
    """The curve whose duplication x-map is x -> a*x^4 + b.

    Squaring is a bijection in characteristic two, so a1 = sqrt(1/a) and
    a2 = a1*sqrt(b) are the unique coefficients with 1/a1^2 = a and
    (a2/a1)^2 = b.
    """
    if a.field != b.field:
        raise FieldMismatchError("map coefficients lie in different fields")
    if not a:
        raise ValueError("coefficient a must be nonzero")
    a1 = a.inv().sqrt()
    return CurveSpec(a1, a1 * b.sqrt())


def point_add(p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-and-tangent group law.

    For y^2 + a1*y = x^3 + a2*x over F_{2^n} the slopes are
    lambda = (y1 + y2)/(x1 + x2) for a chord and (x1^2 + a2)/a1 for a
    tangent; then x3 = lambda^2 + (x1 + x2 for the chord case) and
    y3 = lambda*(x1 + x3) + y1 + a1.
    """
    curve = p.curve
    if q.curve != curve:
        raise FieldMismatchError("points lie on different curves")
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    a1, a2 = curve.a1, curve.a2
    if p.x == q.x:
        if p.y != q.y:  # q == -p, since the two lifts of an x differ by a1
            return curve.identity
        slope = (p.x * p.x + a2) / a1
        x3 = slope * slope
    else:
        slope = (p.y + q.y) / (p.x + q.x)
        x3 = slope * slope + p.x + q.x
    y3 = slope * (p.x + x3) + p.y + a1
    return CurvePoint(curve, x3, y3)


# -- lifting x-coordinates ---------------------------------------------------------


def lift_x(curve: CurveSpec, x0: FieldElement) -> set[CurvePoint]:
    """The points of E with x-coordinate x0: in the base field when
    Tr w(x0) = 0 (CurveSpec.lift_target), otherwise in the quadratic
    extension (where it always is).  The two returned points are negatives
    of each other."""
    if x0.field != curve.field:
        raise FieldMismatchError("x0 lies outside the curve's field")
    w = curve.lift_target()(x0.bits)
    z = curve.field.artin_schreier(w)
    if z is None:
        emb = extension_of(curve.field, 2)
        curve, x0 = curve.extended(emb), emb(x0)
        z = curve.field.artin_schreier(emb.embed_bits(w))
        if z is None:  # pragma: no cover
            raise InvariantViolationError(
                "quadratic equation unsolvable in the quadratic extension")
    return {CurvePoint(curve, x0, curve.a1 * curve.field.element(y))
            for y in (z, z ^ 1)}


# -- point counting ---------------------------------------------------------------


def point_count(curve: CurveSpec) -> int:
    """|E| over the curve's field: 1 + twice the number of x with
    Q(x) = Tr w(x) = 0, w = (x^3 + a2*x)/a1^2 (CurveSpec.lift_target).

    Q is a quadratic form over GF(2) with polar form
    B(x, y) = Q(x+y) + Q(x) + Q(y) = Tr(c*x^2*y) + Tr(c*x*y^2), c = 1/a1^2.
    Symplectic reduction of B on the polynomial basis splits the space into
    p hyperbolic pairs plus a radical of dimension d; when Q vanishes on
    the radical the count of its zeros is 2^d * (2^(2p-1) + (-1)^Arf *
    2^(p-1)), where Arf is the sum of Q(u)*Q(v) over the pairs, and
    otherwise it is 2^(n-1) (Lidl-Niederreiter, Finite Fields, ch. 6): O(n^2)
    field operations.
    """
    field = curve.field
    n, mul, tr = field.degree, field.mul, field.trace
    gen = field.gen.bits
    target = curve.lift_target()
    c = field.inv(mul(curve.a1.bits, curve.a1.bits))

    def q(x: int) -> int:
        return tr(target(x))

    # Tr(v*x^j) = parity(v & (traces >> j)), bit k of traces being Tr(x^k)
    traces, power = 0, 1
    for k in range(2 * n - 1):
        traces |= tr(power) << k
        power = mul(power, gen)
    # a[i][j] = Tr(c*e_i^2*e_j) for e_i = x^i; B is a + a^T
    a, v = [], c
    gen_sq = mul(gen, gen)
    for _ in range(n):
        a.append([(v & (traces >> j)).bit_count() & 1 for j in range(n)])
        v = mul(v, gen_sq)
    # each vector carries its B-image: bit j of bu is B(u, e_j)
    basis = [(1 << i, sum((a[i][j] ^ a[j][i]) << j for j in range(n)))
             for i in range(n)]
    pairs = arf = radical_dim = radical_q = 0
    while basis:
        u, bu = basis.pop()
        partner = next((k for k, (w, _) in enumerate(basis)
                        if (w & bu).bit_count() & 1), None)
        if partner is None:  # u is orthogonal to everything: a radical vector
            radical_dim += 1
            radical_q |= q(u)
            continue
        v, bv = basis.pop(partner)
        pairs += 1
        arf ^= q(u) & q(v)
        for k, (w, bw) in enumerate(basis):  # project off the plane <u, v>
            on_u, on_v = (w & bu).bit_count() & 1, (w & bv).bit_count() & 1
            if on_v:
                w, bw = w ^ u, bw ^ bu
            if on_u:
                w, bw = w ^ v, bw ^ bv
            basis[k] = (w, bw)
    if radical_q:
        return 1 + (1 << n)
    sign = -1 if arf else 1  # with no pairs (n = 1) there are 2^d zeros
    return 1 + (1 << (radical_dim + pairs)) * ((1 << pairs) + sign)


# -- group structure ---------------------------------------------------------------


class GroupStructure(namedtuple("GroupStructure", "order n1 n2")):
    """E(F) as Z/n1 x Z/n2 with n1 | n2 (and n1 | field's 2^m - 1)."""

    __slots__ = ()


def _divisor_phis(m: int) -> dict[int, int]:
    """Every positive divisor of m mapped to its Euler phi, from a single
    factorization of m (cycle_catalog's orders reach 2^64)."""
    out = {1: 1}
    for p, e in factorize(m).items():
        out = {d * p**i: phi * (p**i - p**(i - 1) if i else 1)
               for d, phi in out.items() for i in range(e + 1)}
    return out


def group_structure(curve: CurveSpec) -> GroupStructure:
    """Compute (order, n1, n2) with E = Z/n1 x Z/n2 over the curve's field
    and n1 | n2, from the point count (see _schoof_shape)."""
    return _schoof_shape(curve.field.order, point_count(curve))


def _schoof_shape(q: int, total: int) -> GroupStructure:
    """The group of a supersingular curve over F_q with `total` points.

    The trace t = q + 1 - #E has t^2 in {0, q, 2q, 4q}.  By Schoof's theorem
    ("Nonsingular plane cubic curves over finite fields", JCTA 1987) E is
    (Z/s)^2 with s = sqrt(#E) when t^2 = 4q, and cyclic otherwise (#E is
    odd, which rules out the Z/2 x Z/((q+1)/2) case).
    """
    t = q + 1 - total
    if t * t not in (0, q, 2 * q, 4 * q):
        raise InvariantViolationError(
            f"trace {t} is not that of a supersingular curve over F_{q}")
    n1 = isqrt(total) if t * t == 4 * q else 1
    n2 = total // n1
    if total != n1 * n2:
        raise InvariantViolationError("group exponent does not divide the order")
    if n2 % n1:
        raise InvariantViolationError(
            f"structure Z/{n1} x Z/{n2} is not of the required shape")
    if (q - 1) % n1:
        raise InvariantViolationError(
            f"n1 = {n1} does not divide the multiplicative order {q - 1}")
    return GroupStructure(order=total, n1=n1, n2=n2)


# -- cycle-length prediction ------------------------------------------------------


def predict_orbit_length(p: CurvePoint) -> int:
    """Least k >= 1 with 2^k * P = P or -P: the orbit length of x(P) under
    the duplication x-map (the identity predicts the fixed point at infinity)."""
    if p.is_identity:
        return 1
    neg = -p
    q = point_add(p, p)
    # Binary supersingular curves have embedding degree e <= 4: ord(P)
    # divides 2^(e*m) - 1 over F_{2^m}, so the length is at most 4m.
    for k in range(1, 4 * p.curve.field.degree + 1):
        if q == p or q == neg:
            return k
        q = point_add(q, q)
    raise InvariantViolationError("doubling never returned to the start point")


# -- the divisor-pair catalog ------------------------------------------------------


def _signed_exponents(modulus: int) -> tuple[int, int | None]:
    """(least k with 2^k = 1, least k with 2^k = -1 or None) mod modulus,
    from one walk through the powers of 2: -1, when it comes, comes first."""
    if modulus <= 1:
        return 1, 1
    k, v, minus = 1, 2 % modulus, None
    while v != 1:
        if v == modulus - 1:
            minus = k
        v = (v + v) % modulus
        k += 1
        if k > modulus:  # pragma: no cover
            raise InvariantViolationError("order of 2 exceeded the modulus")
    return k, minus


class CycleCatalogEntry(namedtuple(
        "CycleCatalogEntry",
        "d1 d2 m1 m2 length possible_lengths point_count cycle_count")):
    """Divisor pair (d1, d2) of (n1, n2) and the dynamics of its points.

    The phi(m1)*phi(m2) points whose coordinates have exact orders (m1, m2)
    share one orbit length under duplication-x: the least k with 2^k = 1 or
    2^k = -1 simultaneously mod m1 and m2 (length).  possible_lengths lists
    both one-sign candidates (a tuple); over a subfield of the catalog's
    field only those are attainable.
    """

    __slots__ = ()


def cycle_catalog(gs: GroupStructure) -> list[CycleCatalogEntry]:
    """One entry per divisor pair (d1 | n1, d2 | n2), sorted by
    (length, d1, d2).  The (m1, m2) = (1, 1) entry is the identity point,
    whose x-coordinate is the fixed point at infinity.  Refuses before
    building any row when there are more than POINT_LIMIT of them."""
    entries = []
    phi1, phi2 = _divisor_phis(gs.n1), _divisor_phis(gs.n2)
    rows = len(phi1) * len(phi2)
    if rows > POINT_LIMIT:
        raise ResourceLimitError(
            f"a catalog of {rows} rows exceeds the budget of {POINT_LIMIT}")
    for d1 in sorted(phi1):
        m1 = gs.n1 // d1
        for d2 in sorted(phi2):
            m2 = gs.n2 // d2
            joint = lcm(m1, m2)
            k_plus, k_minus = _signed_exponents(joint)
            length = k_plus if k_minus is None else min(k_plus, k_minus)
            possible = tuple(sorted({k_plus, k_minus} - {None}))
            points = phi1[m1] * phi2[m2]
            if m1 == 1 and m2 == 1:
                cycles = 1
            else:
                if points % (2 * length):
                    raise InvariantViolationError(
                        f"{points} points cannot split into cycles of "
                        f"length {length}")
                cycles = points // (2 * length)
            entries.append(CycleCatalogEntry(
                d1=d1, d2=d2, m1=m1, m2=m2, length=length,
                possible_lengths=possible, point_count=points,
                cycle_count=cycles))
    entries.sort(key=lambda e: (e.length, e.d1, e.d2))
    return entries


def twist_and_extension(gs: GroupStructure,
                        q: int) -> tuple[GroupStructure, GroupStructure]:
    """E'(F_q) and E(F_{q^2}) from the group gs of a curve E over F_q,
    with no field built and no point counted.

    The quadratic twist E': y^2 + a1*y = x^3 + a2*x + a1^2*d (Tr d = 1) has
    #E' = 2(q + 1) - #E, and by Weil #E(F_{q^2}) = (q + 1)^2 - t^2 =
    #E * #E' with t = q + 1 - #E; the same Schoof rule shapes both.
    """
    twist = _schoof_shape(q, 2 * (q + 1) - gs.order)
    return twist, _schoof_shape(q * q, gs.order * twist.order)


def line_cycle_counts(curve_catalog: list[CycleCatalogEntry],
                      twist_catalog: list[CycleCatalogEntry]) -> dict[int, int]:
    """The cycle summary of x -> a*x^4 + b on P^1(F_q) from the catalogs of
    its curve E and of E's quadratic twist E' over F_q.

    E' has the same duplication x-map, and each x in F_q lifts to exactly
    one of E(F_q) and E'(F_q), so the two catalogs together count every
    cycle of the line; the fixed point at infinity, the x-coordinate of both
    identities, is counted once.
    """
    counts = {1: -1}  # both identities are the point at infinity
    for entries in (curve_catalog, twist_catalog):
        for e in entries:
            counts[e.length] = counts.get(e.length, 0) + e.cycle_count
    return dict(sorted(counts.items()))
