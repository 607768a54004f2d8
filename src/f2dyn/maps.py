"""Power-affine maps x -> a*x^(2^k) + b and their reciprocals on P^1(F_{2^n}).

Both families are bijections of the projective line, so the functional graph
of a map is a disjoint union of cycles.  Decompositions are canonical and are
computed in rank coordinates: with N = 2^n - 1, the point g^i (g the field's
primitive element) has rank i, the zero element rank N and infinity rank
N + 1.  Each cycle starts at its smallest rank and cycles are listed by
starting rank, so ascending rank is the canonical order and no sort is
needed.  Ranks need the field's exp/log tables, so cycle decompositions stop
at fields of 2^16 elements.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .fields import (
    BinaryField,
    FieldElement,
    FieldMismatchError,
    InvariantViolationError,
    POINT_LIMIT,
    ResourceLimitError,
    SubsetXorSolver,
    extension_of,
    nth_roots,
)


class ProjPoint(namedtuple("ProjPoint", "field value")):
    """A point of the projective line: a field element, or infinity, the
    one point whose value is None (test `p.value is None`).  The
    classmethods build points whose value lies in field by construction, so
    they skip the check that ProjPoint(field, value) makes."""

    __slots__ = ()

    def __new__(cls, field: BinaryField, value: FieldElement | None):
        if value is not None and value.field != field:
            raise FieldMismatchError("point value lies in a different field")
        return tuple.__new__(cls, (field, value))

    @classmethod
    def finite(cls, value: FieldElement) -> "ProjPoint":
        return tuple.__new__(cls, (value.field, value))

    @classmethod
    def infinity(cls, field: BinaryField) -> "ProjPoint":
        return tuple.__new__(cls, (field, None))

    @classmethod
    def from_int(cls, field: BinaryField, i: int) -> "ProjPoint":
        """The point of an encoding: the field order stands for infinity."""
        value = None if i == field.order else field.element(i)
        return tuple.__new__(cls, (field, value))

    def __repr__(self) -> str:
        if self.value is None:
            return f"ProjPoint(inf, F_2^{self.field.degree})"
        return f"ProjPoint({self.value.hex}, F_2^{self.field.degree})"


def _point_int(p: ProjPoint) -> int:
    """Internal encoding: finite points by element bits, infinity = order."""
    return p.field.order if p.value is None else p.value.bits


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
        (M2 * sigma^s2(M1), s1 + s2).

        Two affine pairs, bottom row (0, 1) like theta and its powers,
        compose to an affine pair: only the top row
        (p*sigma^s2(p1), p*sigma^s2(q1) + q) is formed, 2 products and 2
        Frobenius images, and none of the 6 and 2 the constant row takes."""
        if other.field != self.field:
            raise FieldMismatchError("maps act on different lines")
        mul, frob, s = self.field.mul, self.field.frob, other.s
        (p, q), (r, t) = other.m
        (p1, q1), (r1, t1) = self.m
        if (r, t) == (r1, t1) == (0, 1):
            return Semilinear(self.field,
                              ((mul(p, frob(p1, s)), mul(p, frob(q1, s)) ^ q),
                               (0, 1)),
                              self.s + s)
        p1, q1, r1, t1 = frob(p1, s), frob(q1, s), frob(r1, s), frob(t1, s)
        return Semilinear(self.field,
                          ((mul(p, p1) ^ mul(q, r1), mul(p, q1) ^ mul(q, t1)),
                           (mul(r, p1) ^ mul(t, r1), mul(r, q1) ^ mul(t, t1))),
                          self.s + s)

    def power(self, e: int) -> "Semilinear":
        """The e-fold composite, by square-and-multiply.  The running
        product starts as f^(2^i) for the lowest set bit i of e, not as the
        identity composed with it, and no square is taken past the top bit;
        power(0) is the identity."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return Semilinear(self.field, ((1, 0), (0, 1)), 0)
        base = self
        while not e & 1:
            base, e = base.then(base), e >> 1
        result = base
        while e > 1:
            base, e = base.then(base), e >> 1
            if e & 1:
                result = result.then(base)
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
        return mul(mul(p, y) ^ q, field.inv(den))

    def eval(self, x: ProjPoint) -> ProjPoint:
        if x.field != self.field:
            raise FieldMismatchError("point lies in a different field")
        return ProjPoint.from_int(self.field, self.eval_int(_point_int(x)))

    def fixed_count(self) -> int:
        """How many points of the line f fixes, without listing them: the
        fixed_line_count of N = f^m with g = gcd(s, n), m = n/g."""
        n = self.field.degree
        g = gcd(self.s, n)
        return fixed_line_count(self.field, self.power(n // g).m, g)

    def fixed_points(self) -> list[int]:
        """Ascending encodings of the fixed points (the field order is
        infinity), without a search of the line.

        With g = gcd(s, n) and m = n/g, N = f^m has twist 0, so a fixed line
        of f is an eigenline of N (McGuire and Sheekey, Finite Fields Appl.
        57, 2019), and fixed_line_count says how many there are.  A
        nonscalar N has one eigenline per eigenvalue lam: sqrt(det) if tr = 0
        (one fixed point), else tr*z, tr*(z + 1) with z^2 + z = det/tr^2,
        solved in F_{2^n} (two).  A nonzero row (alpha, beta) of N + lam*I
        gives the line (beta : alpha).  Lines that do not come out as
        exactly that many fixed points raise InvariantViolationError.

        When N = c*I, lam0 = sqrt(det M) has norm c down to F_{2^g}, as
        Norm(det M) = det N = c^2, and every fixed line holds a w with
        M*sigma^s(w) = lam0*w.  Those w form a plane over F_{2^g}, whose
        2^g + 1 lines are the fixed points: plane_lines lists them, and
        refuses past POINT_LIMIT before the plane is solved for.
        """
        field, s = self.field, self.s
        n, g = field.degree, gcd(s, field.degree)
        mul, order = field.mul, field.order
        nm = self.power(n // g).m
        count = fixed_line_count(field, nm, g)
        if count <= 2:  # N is not scalar: its fixed eigenlines
            (p, q), (r, t) = nm
            tr, det = p ^ t, mul(p, t) ^ mul(q, r)
            lams = [field.sqrt(det)] if count == 1 else []
            if count == 2 and tr:
                z = field.artin_schreier(mul(det, field.inv(mul(tr, tr))))
                lams = [] if z is None else [mul(tr, z), mul(tr, z ^ 1)]
            points = set()
            for lam in lams:
                alpha, beta = (p ^ lam, q) if p ^ lam or q else (r, t ^ lam)
                points.add(order if alpha == 0 else mul(beta, field.inv(alpha)))
            if len(points) != count or any(self.eval_int(x) != x
                                            for x in points):
                raise InvariantViolationError(
                    f"eigenlines {sorted(points)} are not the {count} fixed "
                    f"points of the map")
            return sorted(points)
        (p, q), (r, t) = self.m
        lam = field.sqrt(mul(p, t) ^ mul(q, r))

        def plane() -> list[tuple[int, int]]:
            # w -> M*sigma^s(w) + lam*w at w = (x^j, 0), then (0, x^j),
            # packed x | y << n: one basis_images per block of the matrix
            px, rx, qy, ty = (field.basis_images(terms) for terms in (
                [(p, s), (lam, 0)], [(r, s)], [(q, s)], [(t, s), (lam, 0)]))
            kernel = SubsetXorSolver(
                [x | y << n for x, y in zip(px + qy, rx + ty)]).kernel_masks
            return [(w & (order - 1), w >> n) for w in kernel]

        return sorted(order if y == 0 else mul(x, field.inv(y))
                      for x, y in plane_lines(field, g, plane))

    def rank_permutation(self) -> list[int]:
        """The map on ranks (g^i is i, zero N = 2^n - 1, infinity N + 1):
        g^i goes to log(p*y + q) - log(r*y + t) mod N, y = g^(i*2^s), with
        the zero of the numerator sent to N and that of the denominator to
        N + 1.  Refuses, through the field's tables, above 2^16 elements.

        The image is built untwisted, with y = g^i, and then twisted: i goes
        to 2^s*i mod N, and the i with floor(2^s*i / N) = j read the untwisted
        row at 2^s*i - j*N, one stride-2^s slice per j < 2^s."""
        field = self.field
        exp, log = field.tables()
        n, N, s = field.degree, field.mult_order, self.s
        (p, q), (r, t) = self.m
        mod = N.__rmod__

        def logs(c: int, d: int) -> list[int] | None:
            # log(c*g^i + d) for every i < N (log 0 reads -1), None when c = 0
            if c == 0:
                return None
            lc = log[c]
            return list(map(log.__getitem__, map(d.__xor__, exp[lc:lc + N])))

        def vanishes_at(c: int, d: int) -> int | None:
            # the rank i with c*y + d = 0, y = g^(i*2^s); 2^(n-s) inverts 2^s
            if c == 0 or d == 0:
                return None
            return ((log[d] - log[c]) << (n - s)) % N

        def ratio(u: int, v: int) -> int:
            if v == 0:
                return N + 1
            return N if u == 0 else (log[u] - log[v]) % N

        num, den = logs(p, q), logs(r, t)
        if den is None:  # theta: the denominator is the unit t
            lt = log[t]
            image = num if lt == 0 else list(map(mod, map((-lt).__add__, num)))
        elif num is None:  # psi: the numerator is the unit q
            image = list(map(mod, map(log[q].__sub__, den)))
        else:
            image = list(map(mod, map(int.__sub__, num, den)))
        if s:
            step, row, image = 1 << s, image, []
            for j in range(step):
                image += row[(-j * N) % step::step]
        for c, d, rank in ((p, q, N), (r, t, N + 1)):
            i = vanishes_at(c, d)
            if i is not None:
                image[i] = rank
        image.append(ratio(q, t))  # zero: y = 0
        image.append(ratio(p, r))  # infinity
        return image

    def rank_cycles(self) -> tuple[tuple[int, ...], ...]:
        """The cycles of rank_permutation, each from its smallest rank, in
        ascending order of that rank: the canonical decomposition."""
        image = self.rank_permutation()
        seen = bytearray(len(image))
        cycles = []
        for start in range(len(image)):
            if seen[start]:
                continue
            seen[start] = 1
            cyc = [start]
            cur = image[start]
            while cur != start:
                if seen[cur]:
                    raise InvariantViolationError("the map is not a bijection")
                seen[cur] = 1
                cyc.append(cur)
                cur = image[cur]
            cycles.append(tuple(cyc))
        return tuple(cycles)


def fixed_line_count(field: BinaryField, m, g: int) -> int:
    """How many points of P^1(L) a semilinear map f of twist s fixes, from
    the matrix m = ((p, q), (r, t)) of its twist-free power N = f^(D/g),
    where L = F_{2^D} contains field, m has its entries in field, and
    g = gcd(s, D).

    f sends the eigenline of N for lam to the one for sigma^s(lam), so it
    fixes that line exactly when lam lies in F_{2^g} (McGuire and Sheekey,
    Finite Fields Appl. 57, 2019).  A scalar N fixes all 2^g + 1 lines of
    a plane over F_{2^g} (see Semilinear.fixed_points); with tr = 0 there
    is one eigenline, which f must fix.  Otherwise the eigenvalues tr*z,
    tr*(z + 1), z^2 + z = w = det/tr^2, both lie in F_{2^g} or neither
    does.  f commutes with N, so sigma^s(N) = M^-1*N*M for f's matrix M:
    tr and det are fixed by sigma^s, and lie in F_{2^d}, d = gcd(n, g) for
    field = F_{2^n}.  So z lies in F_{2^g} exactly when
    Tr_{F_{2^g}/F_2}(w) = (g/d) * Tr_{F_{2^d}/F_2}(w) is 0.
    """
    mul = field.mul
    (p, q), (r, t) = m
    if not (q or r or p != t):
        return (1 << g) + 1
    tr, det = p ^ t, mul(p, t) ^ mul(q, r)
    if tr == 0:
        return 1
    d = gcd(field.degree, g)
    w = mul(det, field.inv(mul(tr, tr)))
    trace = 0
    for _ in range(d):
        trace ^= w
        w = field.sqr(w)
    return 0 if (g // d) * trace % 2 else 2


def plane_lines(field: BinaryField, g: int, plane) -> list[tuple[int, int]]:
    """One vector on each of the 2^g + 1 lines of a plane W over F_{2^g}
    inside field^2 (g dividing the field's degree): w2, and w1 + mu*w2 for
    mu in F_{2^g}, with w1, w2 not proportional.  plane() returns a GF(2)
    basis of W (2g vectors (x, y)); it is called only once the lines are
    within budget, so past POINT_LIMIT the listing is refused before W is
    solved for.  The lines of a twist-free power's fixed plane are the
    fixed points of a semilinear map, so that is what the refusal names.
    """
    if (1 << g) + 1 > POINT_LIMIT:
        raise ResourceLimitError(
            f"2^{g} + 1 fixed points exceed the budget of {POINT_LIMIT}")
    mul = field.mul
    ws = plane()
    if len(ws) != 2 * g:
        raise InvariantViolationError(
            f"fixed plane of GF(2)-dimension {len(ws)}, not {2 * g}")
    x2, y2 = ws[0]
    x1, y1 = next((x, y) for x, y in ws if mul(x, y2) != mul(x2, y))
    subfield = [0]
    for e in SubsetXorSolver(
            field.basis_images([(1, g), (1, 0)])).kernel_masks:
        subfield += [u ^ e for u in subfield]
    return [(x2, y2)] + [(x1 ^ mul(mu, x2), y1 ^ mul(mu, y2))
                         for mu in subfield]


class MapSpec(namedtuple("MapSpec", "kind a b k")):
    """One of the two bijection families on P^1 of a binary field.

    kind "theta" is x -> a*x^(2^k) + b with infinity fixed; kind "psi" is its
    reciprocal x -> 1/(a*x^(2^k) + b), which swaps infinity into the finite
    part of the line.  a must be nonzero; psi needs k >= 1.
    """

    __slots__ = ()

    def __new__(cls, kind: str, a: FieldElement, b: FieldElement, k: int):
        if kind not in ("theta", "psi"):
            raise ValueError(f"unknown map kind {kind!r}")
        if a.field != b.field:
            raise FieldMismatchError("coefficients lie in different fields")
        if not a:
            raise ValueError("coefficient a must be nonzero")
        if k < 0 or (kind == "psi" and k < 1):
            raise ValueError("k must be >= 0 for theta and >= 1 for psi")
        return tuple.__new__(cls, (kind, a, b, k))

    @property
    def field(self) -> BinaryField:
        return self.a.field

    @property
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

    # -- orbits and cycles ----------------------------------------------------

    def cycle_structure(self) -> "CycleStructure":
        return CycleStructure(map=self, ranks=self.pair.rank_cycles())


class CycleStructure(namedtuple("CycleStructure", "map ranks")):
    """A complete cycle decomposition of P^1 under one map, held as point
    ranks (see the module docstring)."""

    __slots__ = ()

    def __new__(cls, map: MapSpec, ranks: tuple[tuple[int, ...], ...]):
        total = sum(len(c) for c in ranks)
        if total != map.field.order + 1:
            raise InvariantViolationError(
                f"cycles cover {total} points, expected {map.field.order + 1}")
        return tuple.__new__(cls, (map, ranks))

    @property
    def summary(self) -> dict[int, int]:
        """How many cycles of each length, keyed by ascending length."""
        counts: dict[int, int] = {}
        for c in self.ranks:
            counts[len(c)] = counts.get(len(c), 0) + 1
        return dict(sorted(counts.items()))


# -- closed-form iteration -------------------------------------------------------


class ClosedFormIterate(namedtuple("ClosedFormIterate", "lead tail s")):
    """The m-fold composite of x -> a*x^q + b, in closed form: the map
    x -> lead * x^(2^s) + tail.

    With s_t = 1 + q + ... + q^(t-1) (and s_0 = 0), lead = a^(s_m) and
    tail = sum over t < m of a^(s_t) * b^(q^t): the top row of the m-th
    power of the pair ((a, b), (0, 1)).  s, that power's twist, is
    m*log2(q) mod the field's degree, so x^(2^s) = x^(q^m) on the field.
    """

    __slots__ = ()

    def eval(self, x: FieldElement) -> FieldElement:
        return self.lead * x.frob(self.s) + self.tail


def closed_form(a: FieldElement, b: FieldElement, q: int, m: int) -> ClosedFormIterate:
    """Closed form of the m-th iterate of x -> a*x^q + b (q a power of two),
    in O(log m) twisted 2x2 products."""
    if q < 1 or q & (q - 1):
        raise ValueError("q must be a power of two")
    if m < 1:
        raise ValueError("m must be positive")
    theta = MapSpec("theta", a, b, q.bit_length() - 1)  # validates a and b
    power = theta.pair.power(m)
    (lead, tail), _ = power.m
    return ClosedFormIterate(a.field.element(lead), a.field.element(tail),
                             power.s)


# -- reduction of theta_{a,b,k} to an iterated quartic map -------------------------


class QuarticReduction(namedtuple(
        "QuarticReduction", "source_a source_b source_k c d embedding")):
    """theta_{a,b,k} (k even) or its square (k odd) written as the j-fold
    composite of the quartic map x -> c*x^4 + d over an extension field."""

    __slots__ = ()

    @property
    def parity(self) -> str:
        return "odd" if self.source_k % 2 else "even"

    @property
    def j(self) -> int:
        """Quartic steps per theta step (even k) or per two (odd k)."""
        return self.source_k if self.source_k % 2 else self.source_k // 2

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
    linearized equation sum of c^(s_i) d^(4^i) = B (i < j), whose terms are
    folded to at most N of them over F_{2^N} (_quartic_coefficients).
    Solutions are searched in extensions of increasing degree and the
    smallest (extension degree, encoding of c, encoding of d) is returned;
    d is the least solution, which SubsetXorSolver reads off the images of
    the basis.  A search for c past nth_roots' degree budget raises
    ResourceLimitError.
    """
    theta = MapSpec("theta", a, b, k).pair  # validates the coefficients
    if k < 2:
        raise ValueError("k must be at least 2")
    j = k if k % 2 else k // 2
    # theta's own coefficients, or (a^(2^k + 1), a*b^(2^k) + b) for its square
    top = (theta.then(theta) if k % 2 else theta).m[0]
    target_a, target_b = (a.field.element(v) for v in top)
    for r in range(1, max_relative_degree + 1):
        emb = extension_of(a.field, r)
        ext = emb.ext
        big_a, big_b = emb(target_a), emb(target_b)
        units = ext.mult_order
        # s_j mod 2^N - 1 without building 4^j (s_j = 0 reads as units)
        s_j = (pow(4, j, 3 * units) - 1) // 3 or units
        for c in sorted(nth_roots(big_a, s_j), key=lambda e: e.bits):
            terms = [(coef.bits, 2 * i)
                     for i, coef in enumerate(_quartic_coefficients(c, j))]
            d = SubsetXorSolver(ext.basis_images(terms)).solve(big_b.bits)
            if d is not None:
                return QuarticReduction(source_a=a, source_b=b, source_k=k,
                                        c=c, d=ext.element(d), embedding=emb)
    raise ResourceLimitError(
        f"no quartic reduction found in extensions up to degree "
        f"{max_relative_degree} over the base field")


def _quartic_coefficients(c: FieldElement, j: int) -> list[FieldElement]:
    """Coefficients of the linearized map sum over i < j of c^(s_i) d^(4^i),
    s_i = (4^i - 1)/3, folded to at most P = N/gcd(N, 2) terms over F_{2^N}.

    d^(4^i) repeats with period P, and c^(s_(r + tP)) = c^(s_r) * C^t with
    C = c^(s_P) (C^3 = 1, since 3*s_P = 4^P - 1), so term r < P collects
    c^(s_r) times the geometric sum of C^t over t < T_r, T_r the number of
    i < j with i = r mod P.  For j <= P these are the j terms themselves.
    """
    field = c.field
    period = field.degree // gcd(field.degree, 2)
    coeffs = []
    pow_c = field.one  # c^(s_i) starting from s_0 = 0
    for _ in range(min(j, period)):
        coeffs.append(pow_c)
        pow_c = pow_c.frob(2) * c
    if j <= period:
        return coeffs
    big_c, one = pow_c, field.one  # c^(s_P)

    def geometric(t: int) -> FieldElement:
        if big_c == one:
            return one if t & 1 else field.zero
        return (big_c ** t + one) / (big_c + one)

    return [coef * geometric((j - r + period - 1) // period)
            for r, coef in enumerate(coeffs)]
