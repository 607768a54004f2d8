"""Power-affine maps x -> a*x^(2^k) + b and their reciprocals on P^1(F_{2^n}).

Both families are bijections of the projective line, so the functional graph
of a map is a disjoint union of cycles.  Decompositions are canonical: points
are ordered by discrete log of the field's primitive element (then the zero
element, then infinity), each cycle starts at its smallest point, and cycles
are listed by starting point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .fields import (
    BinaryField,
    ExtensionEmbedding,
    FieldElement,
    FieldMismatchError,
    InvariantViolationError,
    LinearizedPoly,
    ResourceLimitError,
    extension_of,
    nth_roots,
)


class ProjPoint:
    """A point of the projective line: a field element, or infinity."""

    __slots__ = ("field", "value")

    def __init__(self, field: BinaryField, value: FieldElement | None):
        if value is not None and value.field != field:
            raise FieldMismatchError("point value lies in a different field")
        self.field = field
        self.value = value

    @classmethod
    def finite(cls, value: FieldElement) -> "ProjPoint":
        return cls(value.field, value)

    @classmethod
    def infinity(cls, field: BinaryField) -> "ProjPoint":
        return cls(field, None)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ProjPoint)
                and self.field == other.field and self.value == other.value)

    def __hash__(self) -> int:
        bits = -1 if self.value is None else self.value.bits
        return hash((self.field.modulus, bits))

    def __repr__(self) -> str:
        if self.value is None:
            return f"ProjPoint(inf, F_2^{self.field.degree})"
        return f"ProjPoint({self.value.hex}, F_2^{self.field.degree})"


def _point_int(p: ProjPoint) -> int:
    """Internal encoding: finite points by element bits, infinity = order."""
    return p.field.order if p.value is None else p.value.bits


def _point_from_int(field: BinaryField, i: int) -> ProjPoint:
    if i == field.order:
        return ProjPoint.infinity(field)
    return ProjPoint(field, field.element(i))


def _sort_key(field: BinaryField, i: int) -> int:
    """Canonical order: g^0, g^1, ..., g^(2^n-2), then 0, then infinity."""
    if i == field.order:
        return field.order
    if i == 0:
        return field.order - 1
    return field.log(i)


class Semilinear:
    """A Frobenius-semilinear fractional-linear map of P^1: w -> M*sigma^s(w)
    on homogeneous coordinates, sigma the squaring automorphism.  M holds
    encodings ((p, q), (r, t)) and s is taken mod the degree: x goes to
    (p*x' + q)/(r*x' + t) with x' = x^(2^s), and infinity to p/r."""

    __slots__ = ("field", "m", "s")

    def __init__(self, field: BinaryField, m, s: int):
        self.field = field
        self.m = tuple(map(tuple, m))
        self.s = s % field.degree

    def then(self, other: "Semilinear") -> "Semilinear":
        """self first, then other: (M2, s2) o (M1, s1) is
        (M2 * sigma^s2(M1), s1 + s2)."""
        if other.field != self.field:
            raise FieldMismatchError("maps act on different lines")
        mul, frob, s = self.field.mul, self.field.frob, other.s
        (p, q), (r, t) = other.m
        (p1, q1), (r1, t1) = self.m
        p1, q1, r1, t1 = frob(p1, s), frob(q1, s), frob(r1, s), frob(t1, s)
        return Semilinear(self.field,
                          ((mul(p, p1) ^ mul(q, r1), mul(p, q1) ^ mul(q, t1)),
                           (mul(r, p1) ^ mul(t, r1), mul(r, q1) ^ mul(t, t1))),
                          self.s + s)

    def power(self, e: int) -> "Semilinear":
        """The e-fold composite, by square-and-multiply."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result, base = Semilinear(self.field, ((1, 0), (0, 1)), 0), self
        while e:
            if e & 1:
                result = result.then(base)
            e >>= 1
            base = base.then(base) if e else base
        return result

    def same_map(self, other: "Semilinear") -> bool:
        """Equal as maps of the line: proportional matrices, equal twist."""
        if other.field != self.field or other.s != self.s:
            return False
        u, w, mul = sum(self.m, ()), sum(other.m, ()), self.field.mul
        return any(u) and any(w) and all(
            mul(u[i], w[j]) == mul(u[j], w[i])
            for i in range(4) for j in range(i + 1, 4))

    def eval_int(self, i: int) -> int:
        """The image of a point encoding (the field order is infinity)."""
        field = self.field
        mul, inf = field.mul, field.order
        (p, q), (r, t) = self.m
        if i == inf:
            return inf if r == 0 else mul(p, field.inv(r))
        y = field.frob(i, self.s)
        den = mul(r, y) ^ t
        if den == 0:
            return inf
        num = mul(p, y) ^ q
        if den == 1:  # theta
            return num
        return field.inv(den) if num == 1 else mul(num, field.inv(den))  # psi

    def eval(self, x: ProjPoint) -> ProjPoint:
        if x.field != self.field:
            raise FieldMismatchError("point lies in a different field")
        return _point_from_int(self.field, self.eval_int(_point_int(x)))


@dataclass(frozen=True)
class MapSpec:
    """One of the two bijection families on P^1 of a binary field.

    kind "theta" is x -> a*x^(2^k) + b with infinity fixed; kind "psi" is its
    reciprocal x -> 1/(a*x^(2^k) + b), which swaps infinity into the finite
    part of the line.  a must be nonzero; psi needs k >= 1.
    """

    kind: str
    a: FieldElement
    b: FieldElement
    k: int

    def __post_init__(self):
        if self.kind not in ("theta", "psi"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.a.field != self.b.field:
            raise FieldMismatchError("coefficients lie in different fields")
        if self.a.is_zero:
            raise ValueError("coefficient a must be nonzero")
        if self.k < 0 or (self.kind == "psi" and self.k < 1):
            raise ValueError("k must be >= 0 for theta and >= 1 for psi")

    @property
    def field(self) -> BinaryField:
        return self.a.field

    @cached_property
    def pair(self) -> Semilinear:
        """theta is ((a, b), (0, 1)) and psi ((0, 1), (a, b)), twisted by k;
        the parity of k as given still matters to the quartic-reduction
        length bookkeeping."""
        a, b = self.a.bits, self.b.bits
        m = ((a, b), (0, 1)) if self.kind == "theta" else ((0, 1), (a, b))
        return Semilinear(self.field, m, self.k)

    def describe(self) -> str:
        return f"{self.kind}(a={self.a.hex}, b={self.b.hex}, k={self.k})"

    # -- evaluation ---------------------------------------------------------

    def eval(self, x: ProjPoint) -> ProjPoint:
        return self.pair.eval(x)

    def eval_int(self, i: int) -> int:
        return self.pair.eval_int(i)

    def permutation(self) -> list[int]:
        """Image table over the point encoding 0..order (order = infinity)."""
        ev = self.pair.eval_int
        return [ev(i) for i in range(self.field.order + 1)]

    def is_bijection(self) -> bool:
        perm = self.permutation()
        return len(set(perm)) == len(perm)

    # -- orbits and cycles ----------------------------------------------------

    def orbit(self, x0: ProjPoint) -> list[ProjPoint]:
        """The cycle through x0, listed from x0 (both families are bijections,
        so every forward orbit is a pure cycle)."""
        if x0.field != self.field:
            raise FieldMismatchError("point lies in a different field")
        start = _point_int(x0)
        out = [start]
        cur = self.eval_int(start)
        limit = self.field.order + 1
        while cur != start:
            out.append(cur)
            cur = self.eval_int(cur)
            if len(out) > limit:  # pragma: no cover
                raise InvariantViolationError("orbit failed to close")
        return [_point_from_int(self.field, i) for i in out]

    def cycle_structure(self) -> "CycleStructure":
        field = self.field
        perm = self.permutation()
        n_points = field.order + 1
        order = sorted(range(n_points), key=lambda i: _sort_key(field, i))
        seen = bytearray(n_points)
        cycles = []
        for start in order:
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = 1
            cur = perm[start]
            while cur != start:
                cyc.append(cur)
                seen[cur] = 1
                cur = perm[cur]
            cycles.append(tuple(_point_from_int(field, i) for i in cyc))
        return CycleStructure(map=self, cycles=tuple(cycles))


@dataclass(frozen=True)
class CycleStructure:
    """A complete cycle decomposition of P^1 under one map."""

    map: MapSpec
    cycles: tuple[tuple[ProjPoint, ...], ...]

    def __post_init__(self):
        total = sum(len(c) for c in self.cycles)
        if total != self.map.field.order + 1:
            raise InvariantViolationError(
                f"cycles cover {total} points, expected {self.map.field.order + 1}")

    @property
    def summary(self) -> dict[int, int]:
        """How many cycles of each length, keyed by ascending length."""
        counts: dict[int, int] = {}
        for c in self.cycles:
            counts[len(c)] = counts.get(len(c), 0) + 1
        return dict(sorted(counts.items()))

    def lengths(self) -> set[int]:
        return {len(c) for c in self.cycles}

    def cycle_of(self, x: ProjPoint) -> tuple[ProjPoint, ...]:
        for c in self.cycles:
            if x in c:
                return c
        raise KeyError(x)


# -- closed-form iteration -------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormIterate:
    """The m-fold composite of x -> a*x^q + b, in closed form.

    With s_t = 1 + q + ... + q^(t-1) (and s_0 = 0), the composite is
    lead * x^(q^m) + tail where lead = a^(s_m) and
    tail = sum over t < m of a^(s_t) * b^(q^t): the top row of the m-th
    power of the pair ((a, b), (0, 1)).
    """

    a: FieldElement
    b: FieldElement
    q: int
    m: int
    lead: FieldElement
    tail: FieldElement

    def eval(self, x: FieldElement) -> FieldElement:
        step = self.q.bit_length() - 1
        return self.lead * x.frob(step * self.m) + self.tail


def closed_form(a: FieldElement, b: FieldElement, q: int, m: int) -> ClosedFormIterate:
    """Closed form of the m-th iterate of x -> a*x^q + b (q a power of two),
    in O(log m) twisted 2x2 products."""
    if q < 1 or q & (q - 1):
        raise ValueError("q must be a power of two")
    if m < 1:
        raise ValueError("m must be positive")
    theta = MapSpec("theta", a, b, q.bit_length() - 1)  # validates a and b
    (lead, tail), _ = theta.pair.power(m).m
    return ClosedFormIterate(a=a, b=b, q=q, m=m, lead=a.field.element(lead),
                             tail=a.field.element(tail))


# -- reduction of theta_{a,b,k} to an iterated quartic map -------------------------


@dataclass(frozen=True)
class QuarticReduction:
    """theta_{a,b,k} (k even) or its square (k odd) written as the j-fold
    composite of the quartic map x -> c*x^4 + d over an extension field."""

    source_a: FieldElement
    source_b: FieldElement
    source_k: int
    c: FieldElement
    d: FieldElement
    embedding: ExtensionEmbedding
    parity: str
    j: int

    def quartic_map(self) -> MapSpec:
        return MapSpec("theta", self.c, self.d, 2)

    def verify(self) -> bool:
        """Exact check of the defining identity on the extension's line: j
        quartic steps equal theta (even k) or theta twice (odd k)."""
        emb = self.embedding
        theta = MapSpec("theta", emb(self.source_a), emb(self.source_b),
                        self.source_k).pair
        want = theta if self.parity == "even" else theta.then(theta)
        return self.quartic_map().pair.power(self.j).same_map(want)


def reduce_to_quartic(a: FieldElement, b: FieldElement, k: int,
                      max_relative_degree: int = 6) -> QuarticReduction:
    """Write theta_{a,b,k} (k >= 2) in terms of x -> c*x^4 + d.

    For even k = 2j the composite of the quartic map j times must equal the
    map itself; for odd k, j = k and the composite must equal the square of
    the map.  c solves c^(s_j) = A with s_j = (4^j - 1)/3, and d solves the
    linearized equation sum of c^(s_i) d^(4^i) = B (i < j).  Solutions are
    searched in extensions of increasing degree and the smallest (extension
    degree, encoding of c, encoding of d) is returned.
    """
    theta = MapSpec("theta", a, b, k).pair  # validates the coefficients
    if k < 2:
        raise ValueError("k must be at least 2")
    parity, j = ("even", k // 2) if k % 2 == 0 else ("odd", k)
    # theta's own coefficients, or (a^(2^k + 1), a*b^(2^k) + b) for its square
    top = (theta if parity == "even" else theta.then(theta)).m[0]
    target_a, target_b = (a.field.element(v) for v in top)
    s_j = (4**j - 1) // 3
    for r in range(1, max_relative_degree + 1):
        emb = extension_of(a.field, r)
        big_a, big_b = emb(target_a), emb(target_b)
        for c in sorted(nth_roots(big_a, s_j), key=lambda e: e.bits):
            coeffs = []
            pow_c = emb.ext.one  # c^(s_i) starting from s_0 = 0
            for _ in range(j):
                coeffs.append(pow_c)
                pow_c = pow_c.frob(2) * c
            solutions = LinearizedPoly(4, coeffs).solve(big_b)
            if solutions:
                d = min(solutions, key=lambda e: e.bits)
                return QuarticReduction(source_a=a, source_b=b, source_k=k,
                                        c=c, d=d, embedding=emb,
                                        parity=parity, j=j)
    raise ResourceLimitError(
        f"no quartic reduction found in extensions up to degree "
        f"{max_relative_degree} over the base field")


# -- orbit-length bookkeeping ------------------------------------------------------


def iterated_orbit_length(length: int, m: int) -> int:
    """Orbit length under f^m of a point whose f-orbit has the given length."""
    if length < 1 or m < 1:
        raise ValueError("lengths and exponents must be positive")
    return length // gcd(length, m)


def orbit_length_options(quartic_length: int, parity: str) -> tuple[int, ...]:
    """Possible orbit lengths of the original map given the orbit length of
    its quartic reduction: exact for even k, one doubling of slack for odd k."""
    if quartic_length < 1:
        raise ValueError("length must be positive")
    if parity == "even":
        return (quartic_length,)
    if parity == "odd":
        return (quartic_length, 2 * quartic_length)
    raise ValueError(f"unknown parity {parity!r}")
