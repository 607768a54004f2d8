"""Conjugating x -> 1/(a*x^(2^k) + b) to its normal form c*x^(2^k).

The fractional-linear map tau(x) = (x + c1)/(c2*x + c3) transports the
reciprocal map psi_{a,b,k} to theta_{c,0,k} once (c, c1, c2, c3) satisfy

    c = c2^q,  c1 = c3^q,  c2*c = a + b*c2^q,  c3 = a*c1^q + b*c3^q

with q = 2^k.  fixed_point_count (the paper's theorem) counts psi's fixed
points from c alone; Semilinear.fixed_points lists them without a search.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import gcd

from .fields import (
    BinaryField,
    ExtensionEmbedding,
    FieldElement,
    FieldMismatchError,
    InvariantViolationError,
    POINT_LIMIT,
    ResourceLimitError,
    SubsetXorSolver,
    extension_of,
)
from .maps import (MapSpec, ProjPoint, Semilinear, fixed_line_count,
                   plane_lines)


class ConjugacyData(namedtuple("ConjugacyData", "map embedding c c1 c2 c3")):
    """A solved conjugation for one reciprocal map.

    The constants live in embedding.ext, an extension of the map's field
    (possibly the field itself); the map's coefficients are embedded there
    when the defining system is checked.
    """

    __slots__ = ()

    def __new__(cls, map: MapSpec, embedding: ExtensionEmbedding,
                c: FieldElement, c1: FieldElement, c2: FieldElement,
                c3: FieldElement):
        if map.kind != "psi":
            raise ValueError("conjugacy data describes reciprocal maps only")
        if embedding.base != map.field:
            raise FieldMismatchError("embedding does not start at the map's field")
        for name, value in (("c", c), ("c1", c1), ("c2", c2), ("c3", c3)):
            if value.field != embedding.ext:
                raise FieldMismatchError(f"{name} lies outside the extension field")
        if not c2 or not c3:
            raise ValueError("c2 and c3 must be nonzero")
        return tuple.__new__(cls, (map, embedding, c, c1, c2, c3))

    @property
    def ext_degree(self) -> int:
        return self.embedding.ext.degree

    @property
    def is_base_field(self) -> bool:
        return self.embedding.relative_degree == 1

    @property
    def q_step(self) -> int:
        """x^(2^k) acts as x^(2^(k mod N)) on the degree-N extension."""
        return self.map.k % self.embedding.ext.degree

    def normal_form(self) -> MapSpec:
        """theta_{c,0,k} over the extension field."""
        return MapSpec("theta", self.c, self.embedding.ext.zero, self.map.k)

    def embedded_map(self) -> MapSpec:
        """The source reciprocal map with coefficients pushed up."""
        emb = self.embedding
        return MapSpec("psi", emb(self.map.a), emb(self.map.b), self.map.k)

    def system_holds(self) -> bool:
        """The four defining equations, plus nondegeneracy c3 + c1*c2 != 0."""
        emb = self.embedding
        a, b = emb(self.map.a), emb(self.map.b)
        s = self.q_step
        return (self.c == self.c2.frob(s)
                and self.c1 == self.c3.frob(s)
                and self.c2 * self.c == a + b * self.c2.frob(s)
                and self.c3 == a * self.c1.frob(s) + b * self.c3.frob(s)
                and bool(self.c3 + self.c1 * self.c2))

    def describe(self) -> str:
        return (f"c={self.c.hex} c1={self.c1.hex} c2={self.c2.hex} "
                f"c3={self.c3.hex} over F_2^{self.ext_degree}")


class TauMap(namedtuple("TauMap", "data")):
    """tau(x) = (x + c1)/(c2*x + c3) on P^1 of the extension field: the
    untwisted pair ((1, c1), (c2, c3)), so tau(inf) = 1/c2 and the pole
    c3/c2 goes to infinity."""

    __slots__ = ()

    @property
    def pair(self) -> Semilinear:
        d = self.data
        return Semilinear(d.embedding.ext,
                          ((1, d.c1.bits), (d.c2.bits, d.c3.bits)), 0)

    def eval(self, x: ProjPoint) -> ProjPoint:
        return self.pair.eval(x)


def _root_counts(map: MapSpec, bound: int):
    """(P, V) over L = F_{2^(n*r)} for r = 1, ..., bound: P roots c2 of
    X^(q+1) + b*X^q + a and V nonzero kernel elements of
    v(x) = a*x^(q^2) + b*x^q + x, from base-field data alone.

    With g0 = gcd(k, n), psi's base pair has the twist-free power
    N0 = psi^(n/g0).  With g1 = gcd(k, n*r), psi^(n*r/g1) over L is
    N' = N0^j, j = r*g0/g1, as sigma^k acts on base-field entries as it does
    on the base.  The 1/c2 are psi's fixed points, so P is
    fixed_line_count(N', g1).  v(x) = 0 exactly when w = (x, x^q) satisfies
    w = B*sigma^k(w) for B = ((b, a), (1, 0)), psi's matrix with both
    coordinates swapped; those w form an F_{2^g1}-space that spans the
    eigenspace of the swapped N' for 1 over L.  So V + 1 is 2^(2*g1) when
    N' = I, 2^g1 when 1 is an eigenvalue (det + tr + 1 = 0), and 1
    otherwise.
    """
    base, k = map.field, map.k
    mul, n = base.mul, base.degree
    g0 = gcd(k, n)
    n0 = map.pair.power(n // g0)
    for r in range(1, bound + 1):
        g1 = gcd(k, n * r)
        m = n0.power(r * g0 // g1).m
        (p, x), (y, t) = m
        if not (x or y or p != t):
            v = (1 << 2 * g1) - 1 if p == 1 else 0
        else:
            v = 0 if mul(p, t) ^ mul(x, y) ^ p ^ t ^ 1 else (1 << g1) - 1
        yield fixed_line_count(base, m, g1), v


def _candidate_degrees(map: MapSpec, bound: int):
    """The relative degrees r <= bound whose extension F_{2^(n*r)} holds a
    solution, in ascending order; no extension is built to find them.

    A root c2 comes with a c3 unless ker v = ker u (u(x) = x + c2*x^q).
    ker u lies in ker v, and the nonzero w with v(w) = 0 map g-to-one onto
    the roots c2 whose 1/c2 is a (q - 1)-th power, g = 2^gcd(k, n*r) - 1,
    where |ker u| = g + 1; for the other roots ker u = {0}.  So the degree
    holds a solution exactly when both counts of _root_counts are positive
    and V > g or P*g > V.
    """
    for r, (p, v) in enumerate(_root_counts(map, bound), 1):
        g = (1 << gcd(map.k, map.field.degree * r)) - 1
        if p and v and (v > g or p * g > v):
            yield r


def kernel_c2_candidates(ext: BinaryField, s: int,
                         kernel: list[int]) -> list[int]:
    """The roots c2 of X^(q+1) + b*X^q + a in ext = F_{2^N} when the kernel
    of v(x) = a*x^(q^2) + b*x^q + x, q = 2^s, has GF(2)-dimension 2g,
    g = gcd(s, N); kernel is its GF(2) basis.

    That dimension means psi's twist-free power N' is I (see _root_counts).
    Every fixed line of psi then holds a w with M*sigma^s(w) = w (Hilbert
    90: the line's eigenvalue has norm 1 down to F_{2^g}), and those w are
    (x^q, x) for x in ker v.  So psi's fixed points 1/c2 are the points
    (x^q : x), one per line of ker v over F_{2^g}, and the c2 are the
    points (x : x^q) of the swapped plane (plane_lines, which refuses past
    POINT_LIMIT).
    """
    return plane_lines(ext, gcd(s, ext.degree),
                       lambda: [(x, ext.frob(x, s)) for x in kernel])


def solve_conjugation(map: MapSpec, max_relative_degree: int = 24) -> ConjugacyData:
    """Find conjugation constants for a reciprocal map.

    c2 must be a nonzero root of X^(q+1) + b*X^q + a and c3 a kernel element
    of v(x) = a*x^(q^2) + b*x^q + x avoiding the kernel of u(x) = x + c2*x^q;
    then c = c2^q and c1 = c3^q.  The smallest (extension degree, encoding
    of c2, encoding of c3) is returned: _candidate_degrees names the least
    degree that holds a solution, so only that extension is built, and a
    degree it names without a (c2, c3) raises InvariantViolationError.
    The c2 come from kernel_c2_candidates when ker v is 2g-dimensional
    (g = gcd(k, N) in F_{2^N}) and from Semilinear.fixed_points otherwise;
    either listing refuses past POINT_LIMIT with ResourceLimitError.
    """
    if map.kind != "psi":
        raise ValueError("conjugation targets reciprocal maps")
    r = next(_candidate_degrees(map, max_relative_degree), None)
    if r is None:
        raise ResourceLimitError(
            f"no conjugation found in extensions up to relative degree "
            f"{max_relative_degree}")
    emb = extension_of(map.field, r)
    ext = emb.ext
    a, b = emb(map.a), emb(map.b)
    s = map.k % ext.degree
    kernel = SubsetXorSolver(ext.basis_images(
        [(1, 0), (b.bits, s), (a.bits, 2 * s)])).kernel_masks
    # c2 is a root of X^(q+1) + b X^q + a, never 0 as a != 0, so 1/c2 is a
    # root of a Y^(q+1) + b Y + 1: a fixed point of psi_{a,b,k}.  The roots
    # come off ker v when it is 2g-dimensional; otherwise psi.fixed_points()
    # lists its fixed points, which at a degree the probes name come from
    # the eigenlines of a nonscalar N'.  In ascending order the span of a
    # reduced echelon basis lists every combination of its first i vectors
    # before the (i+1)-th, so the least kernel element outside ker u is a
    # basis vector.
    if len(kernel) == 2 * gcd(s, ext.degree):
        c2s = kernel_c2_candidates(ext, s, kernel)
    else:
        psi = MapSpec("psi", a, b, map.k).pair
        c2s = [ext.inv(y) for y in psi.fixed_points()]
    found = next(((c2, c3) for c2 in sorted(c2s)
                  for c3 in kernel if c3 ^ ext.mul(c2, ext.frob(c3, s))), None)
    if found is None:
        raise InvariantViolationError(
            f"the probes name F_2^{ext.degree}, which holds no (c2, c3)")
    c2, c3 = (ext.element(x) for x in found)
    data = ConjugacyData(map=map, embedding=emb, c=c2.frob(s), c1=c3.frob(s),
                         c2=c2, c3=c3)
    if not (data.system_holds()
            and verify_conjugation(data)):  # pragma: no cover
        raise InvariantViolationError(
            "solver output violates the defining system or "
            "psi o tau = tau o theta")
    return data


def verify_conjugation(data: ConjugacyData) -> bool:
    """Exact check of psi(tau(x)) = tau(theta_{c,0,k}(x)) on the whole line
    of the field of definition, in O(1) field operations at any degree: as
    pairs Psi*sigma^k(T) is proportional to T*Theta, and det T = c3 + c1*c2
    is nonzero.  It implies every special point of tau's formula and the
    fixed points tau(0) = c1/c3 and tau(inf) = 1/c2."""
    if not (data.c3 + data.c1 * data.c2):
        return False
    tau, psi = TauMap(data).pair, data.embedded_map().pair
    return tau.then(psi).same_map(data.normal_form().pair.then(tau))


def fixed_point_count(c: FieldElement, k: int) -> int:
    """Number of fixed points on P^1(F_{2^m}) of a reciprocal map whose
    conjugation constant is c, when the conjugacy data lies in c's field
    F_{2^m}, the map's own.

    With d = gcd(2^k - 1, 2^m - 1) = 2^gcd(k, m) - 1: exactly 2 fixed points
    when (1/c)^((2^m-1)/d) != 1, and d + 2 when it equals 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not c:
        raise ValueError("c must be nonzero")
    m = c.field.degree
    d = (1 << gcd(k, m)) - 1
    return 2 if c.inv() ** (((1 << m) - 1) // d) != c.field.one else d + 2


def bluher_distribution(k: int, n: int) -> dict[int, int]:
    """Bluher's theorem: how many nonzero a in F_{2^n} give x^(2^k+1) + x + a
    exactly 0, 1, 2 or Q + 1 roots, where Q = 2^gcd(k, n).

    With m = n/d (d = gcd(k, n)): N_1 = Q^(m-1) - [m odd],
    N_{Q+1} = (Q^(m-1) - Q)/(Q^2 - 1) for m even and (Q^(m-1) - 1)/(Q^2 - 1)
    for m odd, N_2 = (Q - 2)(Q^m - 1)/(2(Q - 1)), and N_0 takes the rest
    (Bluher, "On x^(q+1) + ax + b", Finite Fields Appl. 10, 2004).  The keys,
    in order, are the admissible root counts.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    d = gcd(k, n)
    Q, m = 1 << d, n // d
    if m % 2:
        n1, nq1 = Q ** (m - 1) - 1, (Q ** (m - 1) - 1) // (Q * Q - 1)
    else:
        n1, nq1 = Q ** (m - 1), (Q ** (m - 1) - Q) // (Q * Q - 1)
    n2 = (Q - 2) * (Q ** m - 1) // (2 * (Q - 1))
    return {0: (1 << n) - 1 - n1 - n2 - nq1, 1: n1, 2: n2, Q + 1: nq1}


def bluher_counts(k: int, field: BinaryField) -> list[int]:
    """counts[a] = number of roots of x^(2^k+1) + x + a in the field, for every
    encoding a (a = 0 included), from one pass over x -> x^(2^k+1) + x.

    The pass costs one mul and one frob per point.  Its answers are checked
    against facts it does not use: x^(2^k+1) + x = x(x + 1)^(2^k) has the
    two roots 0 and 1, and the histogram over nonzero a is the one Bluher's
    theorem gives, so every count lies in the admissible set.

    The pass is sized: it refuses fields above POINT_LIMIT elements.  The
    bluher command runs it only for its per-a listing of fields of at most
    256 elements; a sweep's histogram is bluher_distribution at any degree.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if field.order > POINT_LIMIT:
        raise ResourceLimitError(
            f"a root-count sweep over 2^{field.degree} values is out of range")
    n = field.degree
    s = k % n
    mul, frob = field.mul, field.frob
    counts = [0] * field.order
    for x in range(field.order):
        counts[mul(frob(x, s), x) ^ x] += 1
    if counts[0] != 2:
        raise InvariantViolationError(
            f"x^(2^{k}+1) + x has {counts[0]} roots, not 2 (0 and 1)")
    theorem = bluher_distribution(k, n)
    histogram = Counter(counts[1:])
    if histogram != Counter(theorem):
        raise InvariantViolationError(
            f"root-count histogram {dict(sorted(histogram.items()))} differs "
            f"from Bluher's theorem {theorem}")
    return counts


def bluher_root_count(a: FieldElement, k: int) -> int:
    """Number of roots of x^(2^k+1) + x + a in a's field: the fixed points
    of psi_{1/a,1/a,k}(x) = a/(x^q + 1), which solve x*(x^q + 1) = a.
    The count must lie in the admissible set {0, 1, 2, 2^gcd(k,n) + 1}.
    """
    if not a:
        raise ValueError("a must be nonzero")
    if k < 1:
        raise ValueError("k must be positive")
    inv = a.inv()
    count = MapSpec("psi", inv, inv, k).pair.fixed_count()
    allowed = bluher_distribution(k, a.field.degree)
    if count not in allowed:
        raise InvariantViolationError(
            f"root count {count} outside the admissible set {sorted(allowed)}")
    return count
