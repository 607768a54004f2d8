"""Binary finite fields F_{2^n}: arithmetic, extensions, and equation solvers.

Elements are Python ints under the hood (bit i = coefficient of x^i in the
polynomial basis), wrapped in FieldElement for safe public arithmetic.  The
module also provides the solvers the dynamics layers lean on: roots of
x^N = alpha, kernels and affine solutions of linearized polynomials, and
roots of arbitrary polynomials inside a fixed field.
"""

from __future__ import annotations

import functools
from math import gcd
from typing import Iterator, Sequence

from . import gf2x

# Fields up to this degree get exp/log tables (built lazily) so that
# multiplication, inversion and discrete logs are table lookups; wider fields
# multiply with the gf2x kernels and reduce with a reducer for their modulus.
_TABLE_LIMIT = 16

# Affine linearized solves refuse to expand solution sets beyond this many
# GF(2) dimensions; nothing at desk scale comes close.
_KERNEL_ENUM_LIMIT = 20


class FieldMismatchError(ValueError):
    """Elements of two different fields met in a single operation."""


class InvariantViolationError(RuntimeError):
    """A computation contradicted a structural guarantee; indicates a bug."""


class ResourceLimitError(RuntimeError):
    """A bounded search or enumeration exhausted its configured budget."""


class BinaryField:
    """The field F_{2^degree} presented as GF(2)[x] modulo an irreducible."""

    def __init__(self, degree: int, modulus: int | None = None,
                 primitive: int | None = None):
        if degree < 1:
            raise ValueError("field degree must be at least 1")
        if modulus is None:
            modulus = gf2x.default_modulus(degree)
        if gf2x.degree(modulus) != degree:
            raise ValueError("modulus degree does not match field degree")
        if not gf2x.is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        self.mult_order = self.order - 1
        self._wide = degree > _TABLE_LIMIT
        self._reduce = gf2x.reducer(modulus)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._mult_factors: list[int] | None = None
        self._trace_mask: int | None = None
        if primitive is not None:
            if not 0 < primitive < self.order:
                raise ValueError("primitive element out of range")
            if self._order_of(primitive) != self.mult_order:
                raise ValueError(f"{primitive:#x} is not primitive")
        self._primitive = primitive

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BinaryField)
                and self.degree == other.degree
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"BinaryField({self.degree}, {self.modulus:#x})"

    # -- element construction ----------------------------------------------

    def element(self, bits: int) -> "FieldElement":
        if not 0 <= bits < self.order:
            raise ValueError(f"encoding {bits:#x} out of range for {self!r}")
        return FieldElement(self, bits)

    def from_hex(self, text: str) -> "FieldElement":
        return self.element(int(text, 16))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def gen(self) -> "FieldElement":
        """The class of x modulo the field modulus."""
        return FieldElement(self, gf2x.mod(2, self.modulus))

    def elements(self) -> Iterator["FieldElement"]:
        for bits in range(self.order):
            yield FieldElement(self, bits)

    # -- raw arithmetic on int encodings -------------------------------------

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self._exp is None:
            if self._wide:
                return self._reduce(gf2x.mul(a, b))
            self._build_tables()
        if a == 0 or b == 0:
            return 0
        exp, log = self._exp, self._log
        return exp[log[a] + log[b]]

    def sqr(self, a: int) -> int:
        if self._exp is None:
            if self._wide:
                return self._reduce(gf2x.sqr(a))
            self._build_tables()
        if a == 0:
            return 0
        return self._exp[(2 * self._log[a]) % self.mult_order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is None:
            if self._wide:
                return self._inv_euclid(a)
            self._build_tables()
        return self._exp[self.mult_order - self._log[a]]

    def _inv_euclid(self, a: int) -> int:
        # extended Euclid in GF(2)[x]
        r0, r1 = self.modulus, a
        s0, s1 = 0, 1
        while r1:
            q, r = gf2x.divmod_(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 ^ gf2x.mul(q, s1)
        if r0 != 1:  # pragma: no cover - modulus is irreducible
            raise InvariantViolationError("gcd with irreducible modulus != 1")
        return self._reduce(s0)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 1 if e == 0 else 0
        e %= self.mult_order
        if self._exp is None:
            if self._wide:
                return self._pow_raw(a, e)
            self._build_tables()
        return self._exp[(self._log[a] * e) % self.mult_order]

    def _pow_raw(self, a: int, e: int) -> int:
        reduce = self._reduce
        result, base = 1, a
        while e:
            if e & 1:
                result = reduce(gf2x.mul(result, base))
            base = reduce(gf2x.sqr(base))
            e >>= 1
        return result

    def frob(self, a: int, k: int) -> int:
        """a^(2^k); the exponent only matters modulo the degree."""
        k %= self.degree
        if self._exp is None:
            if self._wide:
                for _ in range(k):
                    a = self.sqr(a)
                return a
            self._build_tables()
        if a == 0:
            return 0
        return self._exp[(self._log[a] << k) % self.mult_order]

    def sqrt(self, a: int) -> int:
        """The unique square root (squaring is a bijection)."""
        return self.frob(a, self.degree - 1)

    def trace(self, a: int) -> int:
        """Absolute trace down to GF(2)."""
        if self._trace_mask is None:
            mask = 0
            for i in range(self.degree):
                if self._trace_slow(1 << i):
                    mask |= 1 << i
            self._trace_mask = mask
        return (a & self._trace_mask).bit_count() & 1

    def _trace_slow(self, a: int) -> int:
        acc = 0
        t = a
        for _ in range(self.degree):
            acc ^= t
            t = self.sqr(t)
        return acc & 1  # the sum lies in GF(2)

    def log(self, a: int) -> int:
        """Discrete log of a nonzero element, base primitive_element()."""
        if a == 0:
            raise ZeroDivisionError("discrete log of zero")
        if self._exp is None and not self._build_tables():
            raise ResourceLimitError(
                f"no discrete logs for fields larger than 2^{_TABLE_LIMIT}")
        return self._log[a]

    def exp(self, i: int) -> int:
        """primitive_element() raised to the i-th power, as an encoding."""
        if self._exp is None:
            if self._wide:
                return self.pow(self.primitive_bits(), i)
            self._build_tables()
        return self._exp[i % self.mult_order]

    # -- primitive elements and tables ----------------------------------------

    def _factors_of_mult_order(self) -> list[int]:
        if self._mult_factors is None:
            self._mult_factors = list(gf2x.factorize(self.mult_order))
        return self._mult_factors

    def _order_of(self, a: int) -> int:
        # raw arithmetic only: this runs while exp/log tables are being built
        order = self.mult_order
        for p in self._factors_of_mult_order():
            while order % p == 0 and self._pow_raw(a, order // p) == 1:
                order //= p
        return order

    def primitive_bits(self) -> int:
        """Encoding of the smallest generator of the multiplicative group."""
        if self._primitive is None:
            for v in range(1, self.order):
                if self._order_of(v) == self.mult_order:
                    self._primitive = v
                    break
            else:  # pragma: no cover - the group is cyclic
                raise InvariantViolationError("no primitive element found")
        return self._primitive

    def primitive_element(self) -> "FieldElement":
        return FieldElement(self, self.primitive_bits())

    def _build_tables(self) -> bool:
        if self._wide:
            return False
        if self._exp is not None:
            return True
        g = self.primitive_bits()
        M = self.mult_order
        exp = [0] * (2 * M)
        log = [-1] * self.order
        modulus, order, reduce = self.modulus, self.order, self._reduce
        cur = 1
        if g == 2:  # multiplication by x is a shift
            for i in range(M):
                exp[i] = exp[i + M] = cur
                log[cur] = i
                cur <<= 1
                if cur & order:
                    cur ^= modulus
        else:
            for i in range(M):
                exp[i] = exp[i + M] = cur
                log[cur] = i
                cur = reduce(gf2x.mul(cur, g))
        if cur != 1:  # pragma: no cover
            raise InvariantViolationError("primitive element order mismatch")
        self._exp, self._log = exp, log
        return True

    def tables(self) -> tuple[list[int], list[int]]:
        """(exp, log) tables for hot loops; exp is doubled for index safety."""
        if not self._build_tables():
            raise ResourceLimitError(
                f"no exp/log tables for fields larger than 2^{_TABLE_LIMIT}")
        return self._exp, self._log


class FieldElement:
    """An element of a BinaryField; arithmetic never mixes fields."""

    __slots__ = ("field", "bits")

    def __init__(self, field: BinaryField, bits: int):
        self.field = field
        self.bits = bits

    def _coerce(self, other: "FieldElement") -> int:
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine field element with {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"elements of {self.field!r} and {other.field!r} do not mix")
        return other.bits

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, self.bits ^ self._coerce(other))

    __sub__ = __add__  # characteristic 2

    def __neg__(self) -> "FieldElement":
        return self

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.field, self.field.mul(self.bits, self._coerce(other)))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        bits = self._coerce(other)
        return FieldElement(self.field, self.field.mul(self.bits, self.field.inv(bits)))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.bits, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.bits))

    def frob(self, k: int = 1) -> "FieldElement":
        """Frobenius power: self^(2^k)."""
        return FieldElement(self.field, self.field.frob(self.bits, k))

    def sqrt(self) -> "FieldElement":
        return FieldElement(self.field, self.field.sqrt(self.bits))

    def trace(self) -> int:
        return self.field.trace(self.bits)

    def log(self) -> int:
        return self.field.log(self.bits)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.bits == other.bits)

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.bits))

    def __repr__(self) -> str:
        return f"<{self.bits:#x} in F_2^{self.field.degree}>"

    @property
    def hex(self) -> str:
        return f"{self.bits:#x}"


# -- GF(2)-linear algebra on packed columns ----------------------------------

class SubsetXorSolver:
    """Echelonizes a list of GF(2) columns once, then answers XOR-combination
    queries.  Masks returned use bit j for column j, so when columns are the
    images of the polynomial basis under a linear map, a mask is exactly the
    encoding of the preimage element."""

    def __init__(self, columns: Sequence[int]):
        self._pivots: dict[int, tuple[int, int]] = {}
        kernel = []
        for j, value in enumerate(columns):
            value, mask = self._reduce(value, 1 << j)
            if value:
                self._pivots[value.bit_length() - 1] = (value, mask)
            else:
                kernel.append(mask)
        self.kernel_masks = sorted(kernel)

    def _reduce(self, value: int, mask: int) -> tuple[int, int]:
        pivots = self._pivots
        while value:
            hit = pivots.get(value.bit_length() - 1)
            if hit is None:
                break
            value ^= hit[0]
            mask ^= hit[1]
        return value, mask

    def solve(self, target: int) -> int | None:
        """A mask m with XOR of columns[j] over bits j of m == target, or None."""
        value, mask = self._reduce(target, 0)
        return mask if value == 0 else None

    def kernel_dim(self) -> int:
        return len(self.kernel_masks)

    def kernel_elements(self) -> Iterator[int]:
        """All masks whose column combination vanishes (2^dim of them)."""
        basis = self.kernel_masks
        if len(basis) > _KERNEL_ENUM_LIMIT:
            raise ResourceLimitError(
                f"kernel of dimension {len(basis)} too large to enumerate")
        for sel in range(1 << len(basis)):
            acc = 0
            while sel:
                low = sel & -sel
                acc ^= basis[low.bit_length() - 1]
                sel ^= low
            yield acc


# -- linearized polynomials ----------------------------------------------------


class LinearizedPoly:
    """L(x) = sum of coeffs[i] * x^(q^i), a GF(2)-linear map on its field."""

    def __init__(self, q: int, coeffs: Sequence[FieldElement]):
        if q < 2 or q & (q - 1):
            raise ValueError("q must be a power of two, at least 2")
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        field = coeffs[0].field
        if any(c.field != field for c in coeffs):
            raise FieldMismatchError("linearized coefficients mix fields")
        self.q = q
        self.coeffs = coeffs
        self.field = field
        self._step = q.bit_length() - 1  # q = 2^step
        self._solver: SubsetXorSolver | None = None

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field != self.field:
            raise FieldMismatchError("argument lies in a different field")
        return self.field.element(self.eval_bits(x.bits))

    def eval_bits(self, x: int) -> int:
        field = self.field
        acc = 0
        t = x
        for c in self.coeffs:
            if c.bits:
                acc ^= field.mul(c.bits, t)
            t = field.frob(t, self._step)
        return acc

    def embedded(self, embedding: "ExtensionEmbedding") -> "LinearizedPoly":
        """The same symbolic map with coefficients pushed into the extension."""
        if embedding.base != self.field:
            raise FieldMismatchError("embedding does not start at this field")
        return LinearizedPoly(self.q, [embedding(c) for c in self.coeffs])

    def _ensure_solver(self) -> SubsetXorSolver:
        if self._solver is None:
            cols = [self.eval_bits(1 << j) for j in range(self.field.degree)]
            self._solver = SubsetXorSolver(cols)
        return self._solver

    def kernel_basis(self) -> list[FieldElement]:
        """GF(2)-basis of the kernel inside the coefficient field."""
        solver = self._ensure_solver()
        return [self.field.element(m) for m in solver.kernel_masks]

    def kernel_elements(self) -> list[FieldElement]:
        solver = self._ensure_solver()
        return sorted((self.field.element(m) for m in solver.kernel_elements()),
                      key=lambda e: e.bits)

    def solve(self, target: FieldElement) -> set[FieldElement]:
        """All x in the coefficient field with L(x) == target."""
        if target.field != self.field:
            raise FieldMismatchError("target lies in a different field")
        solver = self._ensure_solver()
        x0 = solver.solve(target.bits)
        if x0 is None:
            return set()
        return {self.field.element(x0 ^ m) for m in solver.kernel_elements()}


# -- field extensions -----------------------------------------------------------


class ExtensionEmbedding:
    """An embedding of a base field into an extension, fixed by the image of
    the base generator (a root of the base modulus in the extension)."""

    def __init__(self, base: BinaryField, ext: BinaryField, image_of_root: int):
        self.base = base
        self.ext = ext
        self.image_of_root = ext.element(image_of_root)
        powers = [1]
        for _ in range(base.degree - 1):
            powers.append(ext.mul(powers[-1], image_of_root))
        self._powers = powers

    @property
    def relative_degree(self) -> int:
        return self.ext.degree // self.base.degree

    def embed_bits(self, bits: int) -> int:
        acc = 0
        powers = self._powers
        while bits:
            low = bits & -bits
            acc ^= powers[low.bit_length() - 1]
            bits ^= low
        return acc

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field != self.base:
            raise FieldMismatchError("element does not lie in the base field")
        return self.ext.element(self.embed_bits(x.bits))

    def __repr__(self) -> str:
        return (f"ExtensionEmbedding(F_2^{self.base.degree} -> "
                f"F_2^{self.ext.degree})")


@functools.lru_cache(maxsize=None)
def extension_of(base: BinaryField, relative_degree: int) -> ExtensionEmbedding:
    """Build F_{2^(n*r)} together with an embedding of the degree-n base.

    The image of the base generator is the smallest-encoding root of the base
    modulus inside the extension, so the construction is reproducible.
    """
    if relative_degree < 1:
        raise ValueError("relative degree must be positive")
    if relative_degree == 1:
        return ExtensionEmbedding(base, base, base.gen.bits)
    ext = BinaryField(base.degree * relative_degree)
    coeffs = [(base.modulus >> i) & 1 for i in range(base.degree + 1)]
    roots = _poly_roots_bits(ext, coeffs)
    if len(roots) != base.degree:  # pragma: no cover
        raise InvariantViolationError("base modulus did not split in extension")
    return ExtensionEmbedding(base, ext, roots[0])


def quadratic_extension(base: BinaryField) -> ExtensionEmbedding:
    """F_{2^(2n)} over F_{2^n}, the setting where every x-coordinate lifts."""
    return extension_of(base, 2)


# -- polynomial roots inside a fixed field ---------------------------------------
#
# Coefficient lists are little-endian: coeffs[i] multiplies x^i.  The search
# never enumerates the field: it reduces x^(2^m) - x modulo f to keep only
# roots lying in the field, then splits with trace polynomials Tr(v*x), trying
# the GF(2)-basis elements v = x^j in order.  Some basis element separates any
# two distinct roots, so the recursion always terminates.


def _pstrip(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmonic(field: BinaryField, c: list[int]) -> list[int]:
    lead = c[-1]
    if lead == 1:
        return c
    ilead = field.inv(lead)
    return [field.mul(ci, ilead) for ci in c]


def _pmod(field: BinaryField, a: list[int], b: list[int]) -> list[int]:
    # b must be monic
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
    return _pstrip(a)

def _pgcd(field: BinaryField, a: list[int], b: list[int]) -> list[int]:
    a, b = _pstrip(a[:]), _pstrip(b[:])
    while b:
        b = _pmonic(field, b)
        a, b = b, _pmod(field, a, b)
    return a


def _psqr_mod(field: BinaryField, a: list[int], f: list[int]) -> list[int]:
    sq = [0] * (2 * len(a) - 1) if a else []
    for i, c in enumerate(a):
        if c:
            sq[2 * i] = field.sqr(c)
    return _pmod(field, sq, f)


def _poly_roots_bits(field: BinaryField, coeffs: Sequence[int]) -> list[int]:
    f = _pstrip(list(coeffs))
    if not f:
        raise ValueError("the zero polynomial has every root")
    if len(f) == 1:
        return []
    f = _pmonic(field, f)
    # keep only the part of f whose roots lie in this field
    t = _pmod(field, [0, 1], f)
    for _ in range(field.degree):
        t = _psqr_mod(field, t, f)
    t = t[:]  # t = x^(2^m) mod f; subtract x
    while len(t) < 2:
        t.append(0)
    t[1] ^= 1
    f = _pgcd(field, f, _pstrip(t))
    if len(f) <= 1:
        return []
    f = _pmonic(field, f)

    roots: list[int] = []

    def split(g: list[int]) -> None:
        if len(g) == 2:  # monic x + c has root c in characteristic 2
            roots.append(g[0])
            return
        for j in range(field.degree):
            v = 1 << j
            u = _pmod(field, [0, v], g)
            acc = u[:]
            for _ in range(field.degree - 1):
                u = _psqr_mod(field, u, g)
                for i, c in enumerate(u):
                    if i < len(acc):
                        acc[i] ^= c
                    else:
                        acc.append(c)
            h = _pgcd(field, g, _pstrip(acc))
            if 0 < len(h) - 1 < len(g) - 1:
                h = _pmonic(field, h)
                split(h)
                split(_pdiv_exact(field, g, h))
                return
        raise InvariantViolationError(  # pragma: no cover
            "trace splitting failed on a fully split polynomial")

    split(f)
    return sorted(roots)


def _pdiv_exact(field: BinaryField, a: list[int], b: list[int]) -> list[int]:
    # exact quotient of monic polynomials
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


def polynomial_roots(coeffs: Sequence[FieldElement]) -> list[FieldElement]:
    """Roots, inside the coefficients' own field, sorted by encoding."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    field = coeffs[0].field
    if any(c.field != field for c in coeffs):
        raise FieldMismatchError("polynomial coefficients mix fields")
    return [field.element(r)
            for r in _poly_roots_bits(field, [c.bits for c in coeffs])]


class ExtensionRootCounter:
    """Distinct-root counts of one polynomial in extensions of its field.

    count(r) is the number of distinct roots in F_{2^(n*r)}, computed as
    deg gcd(x^(2^(n*r)) - x, f) over the base field itself -- no extension
    field is ever constructed.  Frobenius powers are cached, so probing
    r = 1, 2, 3, ... costs n squarings mod f per new step.
    """

    def __init__(self, coeffs: Sequence[FieldElement]):
        if not coeffs:
            raise ValueError("empty coefficient list")
        self.field = coeffs[0].field
        if any(c.field != self.field for c in coeffs):
            raise FieldMismatchError("polynomial coefficients mix fields")
        f = _pstrip([c.bits for c in coeffs])
        if len(f) <= 1:
            raise ValueError("the polynomial must have positive degree")
        self._f = _pmonic(self.field, f)
        self._power = _pmod(self.field, [0, 1], self._f)  # x^(2^(n*r)) mod f
        self._r = 0

    def count(self, r: int) -> int:
        if r < 1:
            raise ValueError("relative degree must be positive")
        if r < self._r:
            self._power = _pmod(self.field, [0, 1], self._f)
            self._r = 0
        while self._r < r:
            for _ in range(self.field.degree):
                self._power = _psqr_mod(self.field, self._power, self._f)
            self._r += 1
        t = self._power[:]
        while len(t) < 2:
            t.append(0)
        t[1] ^= 1
        g = _pgcd(self.field, self._f, _pstrip(t))
        return max(len(g) - 1, 0)


# -- roots of x^N = alpha ----------------------------------------------------------


def nth_roots(alpha: FieldElement, n: int) -> set[FieldElement]:
    """All x in alpha's field with x^n == alpha (alpha nonzero, n >= 1).

    Solvable exactly when alpha^((2^m - 1)/d) == 1 with d = gcd(n, 2^m - 1),
    in which case there are exactly d solutions.  The solution set is cut out
    of x^(2^m - 1) = 1 by a Euclidean descent on binomial constraints, which
    avoids any discrete logarithms.
    """
    if n < 1:
        raise ValueError("exponent must be positive")
    if alpha.is_zero:
        raise ValueError("alpha must be nonzero")
    field = alpha.field
    M = field.mult_order
    n0 = n % M
    if n0 == 0:
        # x^n = 1 for every nonzero x
        if alpha.bits != 1:
            return set()
        if M > (1 << _TABLE_LIMIT):
            raise ResourceLimitError("solution set is the whole unit group")
        return {field.element(b) for b in range(1, field.order)}
    d = gcd(n0, M)
    if field.pow(alpha.bits, M // d) != 1:
        return set()
    # maintain constraints x^e1 == b1, x^e2 == b2 with e1 >= e2
    e1, b1 = M, 1
    e2, b2 = n0, alpha.bits
    while True:
        q, r = divmod(e1, e2)
        if r == 0:
            if field.pow(b2, q) != b1:  # pragma: no cover - solvability held
                raise InvariantViolationError("binomial descent lost solvability")
            break
        b3 = field.mul(b1, field.inv(field.pow(b2, q)))
        e1, b1, e2, b2 = e2, b2, r, b3
    if e2 != d:  # pragma: no cover
        raise InvariantViolationError("binomial descent missed the gcd")
    if d == 1:
        return {field.element(b2)}
    coeffs = [0] * (d + 1)
    coeffs[0] = b2
    coeffs[d] = 1
    roots = _poly_roots_bits(field, coeffs)
    if len(roots) != d:  # pragma: no cover
        raise InvariantViolationError("wrong number of roots of x^d - beta")
    return {field.element(r) for r in roots}
