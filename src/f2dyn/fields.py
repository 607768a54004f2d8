"""Binary finite fields F_{2^n}: arithmetic, extensions, and equation solvers.

Elements are Python ints under the hood (bit i = coefficient of x^i in the
polynomial basis), wrapped in FieldElement for safe public arithmetic.  The
module also provides the solvers the dynamics layers lean on: roots of
x^N = alpha, least solutions of GF(2)-linear equations, and roots of
arbitrary polynomials inside a fixed field.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence
from math import gcd

from . import gf2x
from .gf2x import InvariantViolationError, ResourceLimitError

# Fields up to this degree get exp/log tables, so that multiplication,
# inversion and discrete logs are table lookups.  The tables hold 3*2^n
# entries (about 5 MB and 15 ms at n = 16), so they are built on the first
# tables() or log(), or once the field has made order/16 arithmetic calls
# without them.  Until then, and in wider fields, arithmetic runs on the gf2x
# kernels and reduces with a reducer for the modulus.
_TABLE_LIMIT = 16

# Enumerations refuse to list more than this many items: the 2^g + 1 fixed
# lines of a plane in maps.plane_lines, the rows of curves.cycle_catalog, and
# the field elements of conjugacy.bluher_counts' image pass (which the bluher
# command runs only for its per-a listing, up to 256 elements).
POINT_LIMIT = 1 << 20

# nth_roots refuses to search for the roots of x^d = beta above this degree.
# One search at the limit over F_2^64 takes seconds; its coefficient lists and
# trace polynomials grow with the degree.
ROOT_DEGREE_LIMIT = (1 << 14) + 1


def check_table_degree(degree: int) -> None:
    """Refuses, with ResourceLimitError, the exp/log tables of F_{2^degree}
    above _TABLE_LIMIT.  It reads the degree alone, so a caller can refuse
    before building the field, whose default modulus is searched for."""
    if degree > _TABLE_LIMIT:
        raise ResourceLimitError(
            f"no exp/log tables for fields larger than 2^{_TABLE_LIMIT}")


class FieldMismatchError(ValueError):
    """Elements of two different fields met in a single operation."""


class BinaryField:
    """The field F_{2^degree} presented as GF(2)[x] modulo an irreducible."""

    def __init__(self, degree: int, modulus: int | None = None):
        if degree < 1:
            raise ValueError("field degree must be at least 1")
        if modulus is None:
            # proven irreducible already: the tests pin the tabled Conway
            # polynomials and smallest irreducibles (up to degree 128)
            # against Rabin's test, and above 128 smallest_irreducible runs it
            modulus = gf2x.default_modulus(degree)
        elif modulus >> degree != 1:  # a negative modulus fails here too
            raise ValueError("modulus degree does not match field degree")
        elif not gf2x.is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        self.mult_order = self.order - 1
        self._wide = degree > _TABLE_LIMIT
        self._reduce = gf2x.reducer(modulus)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        # arithmetic calls left before the exp/log tables get built
        self._untabled = self.order >> 4
        self._primitive: int | None = None
        # per twist s: for each byte of an argument, the images of the 16
        # values of its low and of its high 4 bits under x -> x^(2^s)
        self._frob_windows: dict[int, list[tuple[list[int], list[int]]]] = {}

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

    # -- raw arithmetic on int encodings -------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self._exp is None and (self._wide or not self._tabled()):
            return self._reduce(gf2x.mul(a, b))
        if a == 0 or b == 0:
            return 0
        exp, log = self._exp, self._log
        return exp[log[a] + log[b]]

    def sqr(self, a: int) -> int:
        if self._exp is None and (self._wide or not self._tabled()):
            return self._reduce(gf2x.sqr(a))
        if a == 0:
            return 0
        return self._exp[(2 * self._log[a]) % self.mult_order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is None and (self._wide or not self._tabled()):
            return self._inv_euclid(a)
        return self._exp[self.mult_order - self._log[a]]

    def _inv_euclid(self, a: int) -> int:
        """Extended Euclid in GF(2)[x] without division: each step cancels
        the leading term of the longer remainder u with a shifted copy of v,
        and does the same to u's cofactor g1 (g1*a = u mod the modulus).
        deg g1 + deg v <= n holds throughout, so the answer comes reduced."""
        u, v, g1, g2 = a, self.modulus, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
                if not v:  # pragma: no cover - the modulus is irreducible
                    raise InvariantViolationError(
                        "gcd with irreducible modulus != 1")
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def pow(self, a: int, e: int) -> int:
        """a^e for any integer e (negative e inverts a nonzero a).

        Within the exp/log tables this is a product of the discrete log;
        without them it is _pow_raw's base-16 pass on e mod 2^n - 1.
        """
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero to a negative power")
            return 1 if e == 0 else 0
        e %= self.mult_order
        if self._exp is None and (self._wide or not self._tabled()):
            return self._pow_raw(a, e)
        return self._exp[(self._log[a] * e) % self.mult_order]

    def _pow_raw(self, a: int, e: int) -> int:
        """a^e for e >= 0 without exp/log tables: Horner's rule on the
        base-16 digits of e from the top.  Each step raises the running
        result to the 16th power and multiplies in a^d for the next nonzero
        digit d.  Each a^d is built on first use (_digit_power), so at most
        14 products and squarings build them all, and an exponent whose
        digits repeat, such as s^-1 mod 2^n - 1, builds few.

        Above _TABLE_LIMIT the 16th power is x -> x^(2^4), read off the
        twist-4 window tables as frob reads it: an N-bit exponent takes
        ceil(N/4) table passes, not N squarings.  Below it this runs while
        the exp/log tables are built (primitive_bits), and building window
        tables there would recurse (basis_images multiplies through mul,
        which builds the exp/log tables): the 16th power is four squarings.
        """
        reduce, mul, sqr = self._reduce, gf2x.mul, gf2x.sqr
        powers = [1, a] + [0] * 14  # a^d, 0 until built
        windows = self._wide and (
            self._frob_windows.get(4) or self._frob_table(4))
        shift = max(e.bit_length() - 1, 0) & ~3
        result = self._digit_power(powers, e >> shift)
        while shift:
            shift -= 4
            if windows:
                result = _through_windows(windows, result)
            else:
                for _ in range(4):
                    result = reduce(sqr(result))
            d = (e >> shift) & 15
            if d:
                result = reduce(mul(result, self._digit_power(powers, d)))
        return result

    def _digit_power(self, powers: list[int], d: int) -> int:
        """powers[d] = a^d, built from powers[1] = a and those already
        built: a^(2i) as the square of a^i, a^(2i + 1) as a^(2i)*a."""
        if not powers[d]:
            powers[d] = self._reduce(
                gf2x.mul(self._digit_power(powers, d - 1), powers[1]) if d & 1
                else gf2x.sqr(self._digit_power(powers, d >> 1)))
        return powers[d]

    def frob(self, a: int, k: int) -> int:
        """a^(2^k); the exponent only matters modulo the degree.

        Within the exp/log tables this is a shift of the discrete log.
        Without them x -> x^(2^s), s = k mod n, is GF(2)-linear, and for
        s != 0 it is read off tables built on the first use of each s: one
        lookup and one XOR per 4-bit window of a.
        """
        k %= self.degree
        if self._exp is None and (self._wide or not self._tabled()):
            if not k:
                return a
            return _through_windows(
                self._frob_windows.get(k) or self._frob_table(k), a)
        if a == 0:
            return 0
        return self._exp[(self._log[a] << k) % self.mult_order]

    def _frob_table(self, s: int) -> list[tuple[list[int], list[int]]]:
        """The byte tables of x -> x^(2^s): each 4-bit window's 16 entries
        are XORs of the images of its four basis elements.

        When the tables of a twist t with 2t = s mod n are cached (t = s/2,
        or (s + n)/2), the images are sigma^t applied to sigma^t's own
        columns, read from its windows: n table reads, and none of the n
        field products of basis_images."""
        n, cached = self.degree, self._frob_windows
        half = next((cached[t] for t in (s >> 1, (s + n) >> 1)
                     if 2 * t % n == s and t in cached), None)
        if half is None:
            images = self.basis_images([(1, s)])
        else:  # column j of sigma^t: entry 2^(j & 3) of its window j >> 2
            images = [_through_windows(
                half, half[j >> 3][(j >> 2) & 1][1 << (j & 3)])
                for j in range(n)]
        tables = []
        for w in range(0, self.degree, 4):
            table = [0]
            for image in images[w:w + 4]:
                table += [t ^ image for t in table]
            tables.append(table)
        if len(tables) & 1:
            tables.append([0])  # the high half of a last, half-filled byte
        windows = list(zip(tables[::2], tables[1::2]))
        self._frob_windows[s] = windows
        return windows

    def basis_images(self, terms: Iterable[tuple[int, int]]) -> list[int]:
        """[L(x^j) for j < n]: the columns, in the basis x^j, of the
        GF(2)-linear map L(z) = sum of c*z^(2^e) over the terms (c, e).

        Frobenius is a ring map, so L(x^j) = sum of c*rho^j with
        rho = x^(2^e): each column is one product per term away from the one
        before, and no column takes a Frobenius power.  The rho come off
        one squaring chain up to the largest e mod n, not off frob, whose
        window tables are built here.  In a wide field, a rho that is a
        single bit x^t (as when 2^e < n) makes each step a shift by t and a
        reduction instead of a product.
        """
        n, mul, reduce = self.degree, self.mul, self._reduce
        columns = [0] * n
        rho, s = reduce(2), 0  # x^(2^s)
        for e, c in sorted((e % n, c) for c, e in terms if c):
            for _ in range(e - s):
                rho = reduce(gf2x.sqr(rho))
            s = e
            v = c
            columns[0] ^= v
            if self._wide and not rho & (rho - 1):
                t = rho.bit_length() - 1
                for j in range(1, n):
                    v = reduce(v << t)
                    columns[j] ^= v
                continue
            for j in range(1, n):
                v = mul(v, rho)
                columns[j] ^= v
        return columns

    def sqrt(self, a: int) -> int:
        """The unique square root (squaring is a bijection)."""
        return self.frob(a, self.degree - 1)

    def trace(self, a: int) -> int:
        """Absolute trace down to GF(2)."""
        return (a & self._trace_mask).bit_count() & 1

    @functools.cached_property
    def _trace_mask(self) -> int:
        """The basis elements x^i of trace 1, as a bit mask."""
        return sum(1 << i for i in range(self.degree)
                   if self._trace_slow(1 << i))

    def _trace_slow(self, a: int) -> int:
        acc = 0
        t = a
        for _ in range(self.degree):
            acc ^= t
            t = self.sqr(t)
        return acc & 1  # the sum lies in GF(2)

    def artin_schreier(self, w: int) -> int | None:
        """The least z with z^2 + z = w, or None when the trace of w is 1;
        the other solution is z + 1."""
        return self._artin_schreier.solve(w)

    @functools.cached_property
    def _artin_schreier(self) -> SubsetXorSolver:
        return SubsetXorSolver(self.basis_images([(1, 1), (1, 0)]))

    def log(self, a: int) -> int:
        """Discrete log of a nonzero element, base primitive_element()."""
        if a == 0:
            raise ZeroDivisionError("discrete log of zero")
        if self._exp is None:
            self.tables()
        return self._log[a]

    # -- primitive elements and tables ----------------------------------------

    def primitive_bits(self) -> int:
        """Encoding of the smallest generator of the multiplicative group:
        the least v with v^(M/p) != 1 for every prime p of M = mult_order."""
        if self._primitive is None:
            # raw arithmetic only: this runs while exp/log tables are being built
            cofactors = [self.mult_order // p
                         for p in gf2x.factorize(self.mult_order)]
            self._primitive = next(
                v for v in range(1, self.order)
                if all(self._pow_raw(v, c) != 1 for c in cofactors))
        return self._primitive

    def primitive_element(self) -> "FieldElement":
        return FieldElement(self, self.primitive_bits())

    def _tabled(self) -> bool:
        """Counts one arithmetic call made without tables, and builds them on
        the order/16-th such call, from where they pay for themselves."""
        self._untabled -= 1
        return self._untabled <= 0 and self._build_tables()

    def _build_tables(self) -> bool:
        # callers check the degree first: _wide, or check_table_degree
        if self._exp is not None:
            return True
        g = self.primitive_bits()
        M = self.mult_order
        exp = [0] * (2 * M)
        log = [-1] * self.order
        # cur*g from the products of its low and high byte with g; each
        # table is the XOR span of the products of its bits
        lo, hi = [0], [0]
        for j in range(self.degree):
            image = self._reduce(gf2x.mul(1 << j, g))
            table = lo if j < 8 else hi
            table += [t ^ image for t in table]
        cur = 1
        for i in range(M):
            exp[i] = exp[i + M] = cur
            log[cur] = i
            cur = lo[cur & 255] ^ hi[cur >> 8]
        if cur != 1:  # pragma: no cover
            raise InvariantViolationError("primitive element order mismatch")
        self._exp, self._log = exp, log
        return True

    def tables(self) -> tuple[list[int], list[int]]:
        """(exp, log) tables for hot loops; exp is doubled for index safety."""
        check_table_degree(self.degree)
        self._build_tables()
        return self._exp, self._log


def _through_windows(windows: list[tuple[list[int], list[int]]],
                     a: int) -> int:
    """The image of a under the GF(2)-linear map whose byte tables (see
    BinaryField._frob_table) are windows: one lookup per 4-bit window."""
    r = 0
    for (lo, hi), byte in zip(
            windows, a.to_bytes((a.bit_length() + 7) >> 3, "little")):
        r ^= lo[byte & 15] ^ hi[byte >> 4]
    return r


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

    def log(self) -> int:
        return self.field.log(self.bits)

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
    queries.  Masks use bit j for column j, so when columns are the images of
    the polynomial basis under a linear map, a mask is exactly the encoding
    of the preimage element.

    Column j either becomes a pivot, whose mask holds only pivot columns (j
    and earlier pivots), or leaves the kernel vector e_j plus such a mask.
    So kernel_masks is a reduced echelon basis: led by the non-pivot
    columns in ascending order, each leading bit absent from the other
    vectors.  solve combines pivot masks only, so its answer has every
    leading bit clear, which makes it the least of its coset: adding a
    nonzero kernel element sets the largest leading bit it involves and
    changes no higher bit.

    A vector and its mask share one int, value << J | mask with J the
    number of columns, and a pivot is keyed by that int's bit length (J
    plus its value's), so each elimination step is one lookup and one XOR.
    """

    def __init__(self, columns: Sequence[int]):
        self._width = width = len(columns)
        self._pivots: dict[int, int] = {}
        self.kernel_masks: list[int] = []
        for j, value in enumerate(columns):
            packed = self._reduce(value << width | 1 << j)
            if packed >> width:
                self._pivots[packed.bit_length()] = packed
            else:
                self.kernel_masks.append(packed)

    def _reduce(self, packed: int) -> int:
        """packed reduced until its leading bit is no pivot's: at the
        latest once its value is 0, as the mask lies below every key."""
        pivots = self._pivots
        while (hit := pivots.get(packed.bit_length())) is not None:
            packed ^= hit
        return packed

    def solve(self, target: int) -> int | None:
        """The least mask m with XOR of columns[j] over bits j of m equal to
        target, or None."""
        packed = self._reduce(target << self._width)
        return None if packed >> self._width else packed


# -- field extensions -----------------------------------------------------------


class ExtensionEmbedding:
    """An embedding of a base field into an extension, fixed by the image of
    the base generator (a root of the base modulus in the extension, given
    as its encoding; emb(emb.base.gen) reads it back)."""

    def __init__(self, base: BinaryField, ext: BinaryField, image_of_root: int):
        self.base = base
        self.ext = ext
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
    modulus inside the extension, so the construction is reproducible.  The
    modulus is irreducible over GF(2), so its roots in the extension are the
    Frobenius orbit rho, rho^2, ..., rho^(2^(n-1)) of any one of them, all
    in the subfield F_{2^n}: the splitter's chain stops at X^(2^n), its
    period, and forms each trace from n powers of X, not n*r.  A single
    root is split out, its orbit is checked to be n distinct elements
    closed under squaring, and the smallest is checked to be a root.
    Squaring permutes the roots of a polynomial over GF(2), so that one
    evaluation vouches for the whole orbit.
    """
    if relative_degree < 1:
        raise ValueError("relative degree must be positive")
    if relative_degree == 1:
        return ExtensionEmbedding(base, base, base.gen.bits)
    n, modulus = base.degree, base.modulus
    ext = BinaryField(n * relative_degree)
    ring = _ring(ext)
    # the modulus divides x^(2^(nr)) - x, so its gcd with it is free
    rho = _Splitter(ring, ring.pack([modulus >> i & 1 for i in range(n + 1)])
                    ).split(one=True)[0]
    orbit = [rho]
    for _ in range(n - 1):
        orbit.append(ext.sqr(orbit[-1]))
    image = min(orbit)
    if (len(set(orbit)) != n or ext.sqr(orbit[-1]) != rho
            or _eval_binary(ext, modulus, image)):
        raise InvariantViolationError("base modulus did not split in extension")
    return ExtensionEmbedding(base, ext, image)


def _eval_binary(field: BinaryField, p: int, x: int) -> int:
    """p(x) for p in GF(2)[x], by Horner's rule."""
    acc = 0
    for i in range(gf2x.degree(p), -1, -1):
        acc = field.mul(acc, x) ^ ((p >> i) & 1)
    return acc


# -- polynomials over a field, packed into ints ---------------------------------
#
# A polynomial over F_{2^n} is one int: coefficient i occupies bits
# [w*i, w*i + w) with w = 2n.  A product of two reduced coefficients has
# degree below 2n - 1, so it stays inside its slot and the GF(2)[x] kernels
# act on all coefficients at once: gf2x.sqr squares the whole polynomial
# (the cross terms cancel in characteristic 2), gf2x.mul(c, p) scales it by
# the field element c, and gf2x.slot_reducer brings every slot back below
# x^n.  Slots may stay unreduced between steps; they are reduced before a
# degree or a leading coefficient is read.


class _PolyRing:
    """Packed polynomials over one field."""

    def __init__(self, field: BinaryField):
        self.field = field
        self.width = 2 * field.degree
        self.reduce_slots = gf2x.slot_reducer(field.modulus)

    def pack(self, coeffs: Sequence[int]) -> int:
        w = self.width
        p = 0
        for i, c in enumerate(coeffs):
            if c:
                p |= c << (w * i)
        return p

    def coefficients(self, p: int) -> list[int]:
        """The slots of p, little-endian."""
        w = self.width
        bits = format(p, "b")
        bits = bits.zfill(-(-len(bits) // w) * w)
        return [int(bits[j - w:j], 2) for j in range(len(bits), 0, -w)]

    def degree(self, p: int) -> int:
        return (p.bit_length() - 1) // self.width

    def monic(self, p: int) -> int:
        lead = p >> (self.width * self.degree(p))
        if lead == 1:
            return p
        return self.reduce_slots(gf2x.mul(self.field.inv(lead), p))

    def divmod(self, a: int, f: int) -> tuple[int, int]:
        """Quotient and remainder of a by the monic f, one packed product per
        step; a may have unreduced slots, the results are reduced."""
        w = self.width
        top = w * self.degree(f)
        tail = f ^ (1 << top)
        reduce = self.field._reduce
        q = 0
        shift = w * ((a.bit_length() - 1) // w)
        while shift >= top:
            c = reduce(a >> shift)
            a &= (1 << shift) - 1
            if c:
                q |= c << (shift - top)
                a ^= gf2x.mul(c, tail) << (shift - top)
            shift = w * ((a.bit_length() - 1) // w)
        return q, self.reduce_slots(a)

    def gcd(self, a: int, b: int) -> int:
        """gcd of two reduced polynomials, monic once b is nonzero."""
        while b:
            b = self.monic(b)
            a, b = b, self.divmod(a, b)[1]
        return a

    def reducer(self, f: int) -> Callable[[int], int]:
        """Remainders modulo the monic f, by gf2x.reducer's rule one level up.

        With f = X^d + T and deg T <= d/2, the slots above X^d are folded
        back as hi * T, twice at most for a square; any other f is divided.
        A term c*X^i of T costs one packed product.
        """
        w = self.width
        top = w * self.degree(f)
        tail = f ^ (1 << top)
        if 2 * self.degree(tail) > self.degree(f):
            def divide(a: int) -> int:
                return self.divmod(a, f)[1]
            return divide
        terms = [(c, w * i)
                 for i, c in enumerate(self.coefficients(tail)) if c]
        mask = (1 << top) - 1
        reduce_slots = self.reduce_slots

        def fold(a: int) -> int:
            hi = a >> top
            while hi:
                hi = reduce_slots(hi)
                a &= mask
                for c, s in terms:
                    a ^= gf2x.mul(c, hi) << s
                hi = a >> top
            return reduce_slots(a)
        return fold


@functools.lru_cache(maxsize=None)
def _ring(field: BinaryField) -> _PolyRing:
    return _PolyRing(field)


# -- polynomial roots inside a fixed field ---------------------------------------
#
# Coefficient lists are little-endian: coeffs[i] multiplies x^i.  The search
# never enumerates the field.  It squares X modulo the search form g of f
# (_search_form) up to X^(2^n), or up to the first X^(2^e) = X with e | n,
# where g's roots all lie in F_{2^e} (the period of its roots).  It keeps
# H = gcd(g, X^(2^n) - X), whose roots are those in the field (g itself
# after a stop), and splits H by the traces T_j = Tr(x^j * X) for the basis
# x^j in order; some x^j separates any two roots.  Each T_j is formed once
# mod H, from the powers X^(2^i) mod H, i < e: g's when H = g, else
# recomputed mod the smaller H (g may have degree 2^t + 1), never reduced
# from g's.


def _search_form(ring: _PolyRing,
                 coeffs: Sequence[int]) -> tuple[bool, int, bool]:
    """(0 is a root, g, g is reversed) for the polynomial f of coeffs.

    g is monic and packed: f with its factors x removed, or the reciprocal
    of that when the reciprocal has the shorter tail (and so folds where f
    would be divided).  The nonzero roots of the reciprocal are the inverses
    of those of f.
    """
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


class _Splitter:
    """Splits H = gcd(g, X^(2^n) - X) by the traces T_i = Tr(x^i * X).

    X^(2^i) mod H has a period e dividing n: the degree of the least
    subfield holding H's roots.  _powers keeps one period, so each trace
    T_i = sum over s < n of (x^i)^(2^s) * X^(2^s) is formed as e weighted
    powers, the weights summing x^i's n conjugates by s mod e.  Over
    F_{2^(nr)} a base modulus has e = n: 1/r of the products of n*r terms.

    When H has GF(2) coefficients, as a base modulus always has, so does
    every X^(2^i) mod H, and slot k of a trace is the XOR of the weights
    whose power has slot k set: no packed product at all.  _slots lists
    those powers per slot, or is None for any other H, whose traces take
    one packed product per weight.
    """

    def __init__(self, ring: _PolyRing, g: int):
        reduce = ring.reducer(g)
        n = ring.field.degree
        powers = [reduce(1 << ring.width)]  # X^(2^i) mod g, i <= e
        for e in range(1, n + 1):
            powers.append(reduce(gf2x.sqr(powers[-1])))
            if n % e == 0 and powers[-1] == powers[0]:
                break  # g divides X^(2^e) - X, which divides X^(2^n) - X
        self.ring, self.H = ring, ring.gcd(g, powers.pop() ^ powers[0])
        # X^(2^i) mod H, i < e: g's, or those of H's own splitter (H splits
        # fully, so that one stops at its period); an H of degree < 2 is
        # split without them
        if self.H == g or ring.degree(self.H) < 2:
            self._powers, self._slots = powers, _binary_slots(ring, powers)
        else:
            inner = _Splitter(ring, self.H)
            self._powers, self._slots = inner._powers, inner._slots
        self._rems: dict[tuple[int, int], int] = {}  # (h, i) -> T_i mod h

    def _rem(self, chain: tuple[int, ...], i: int) -> int:
        """T_i mod the last factor of chain (H if it is empty), each factor
        dividing the one before, reduced once from its value mod that one."""
        h = chain[-1] if chain else self.H
        if (h, i) not in self._rems:
            if chain:
                t = self.ring.divmod(self._rem(chain[:-1], i), h)[1]
            else:  # n squarings, then XORs or e packed products
                powers, field = self._powers, self.ring.field
                weights, v = [0] * len(powers), 1 << i
                for s in range(field.degree):
                    weights[s % len(powers)] ^= v
                    v = field.sqr(v)
                if self._slots is not None:
                    t = self.ring.pack([functools.reduce(
                        int.__xor__, map(weights.__getitem__, slot), 0)
                        for slot in self._slots])
                else:  # none for weight 0, 1
                    t = 0
                    for w, p in zip(weights, powers):
                        if w:
                            t ^= p if w == 1 else gf2x.mul(w, p)
                    t = self.ring.reduce_slots(t)
            self._rems[h, i] = t
        return self._rems[h, i]

    def split(self, chain: tuple[int, ...] = (), j: int = 0,
              one: bool = False) -> list[int]:
        """The roots of the last factor of chain (H if it is empty), on whose
        roots T_i is constant for i < j; with one, only the root reached
        through the smaller factor of every split."""
        ring, h = self.ring, chain[-1] if chain else self.H
        d = ring.degree(h)
        if d < 2:
            return [h ^ (1 << ring.width)] if d == 1 else []
        for j in range(j, ring.field.degree):
            g = ring.gcd(h, self._rem(chain, j))
            if 0 < ring.degree(g) < d:
                break
        else:  # pragma: no cover
            raise InvariantViolationError(
                "trace splitting failed on a fully split polynomial")
        # T_j is constant on the roots of g and of f: neither splits on it
        f = ring.divmod(h, g)[0]
        if one:
            return self.split(chain + (min(g, f, key=ring.degree),), j + 1, one)
        return self.split(chain + (g,), j + 1) + self.split(chain + (f,), j + 1)


def _binary_slots(ring: _PolyRing,
                  powers: Sequence[int]) -> list[list[int]] | None:
    """For each slot k, the indices of the powers whose slot k is 1, when
    every slot of every power is 0 or 1; otherwise None."""
    rows = [ring.coefficients(p) for p in powers]
    if any(c > 1 for row in rows for c in row):
        return None
    return [[i for i, row in enumerate(rows) if k < len(row) and row[k]]
            for k in range(max(map(len, rows)))]


def _poly_roots_bits(field: BinaryField, coeffs: Sequence[int]) -> list[int]:
    ring = _ring(field)
    zero_root, g, reverse = _search_form(ring, coeffs)
    roots = [0] if zero_root else []
    if ring.degree(g) > 0:
        found = _Splitter(ring, g).split()
        roots += [field.inv(r) for r in found] if reverse else found
    return sorted(roots)


def _coefficient_field(coeffs: Sequence[FieldElement]) -> BinaryField:
    """The one field a nonempty coefficient list lies in."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    field = coeffs[0].field
    if any(c.field != field for c in coeffs):
        raise FieldMismatchError("polynomial coefficients mix fields")
    return field


def polynomial_roots(coeffs: Sequence[FieldElement]) -> list[FieldElement]:
    """Roots, inside the coefficients' own field, sorted by encoding."""
    field = _coefficient_field(coeffs)
    return [field.element(r)
            for r in _poly_roots_bits(field, [c.bits for c in coeffs])]


class ExtensionRootCounter:
    """Distinct-root counts of one polynomial in extensions of its field.

    count(r) is the number of distinct roots in F_{2^(n*r)}, computed as
    deg gcd(x^(2^(n*r)) - x, f) over the base field itself -- no extension
    field is ever constructed.  Frobenius powers are cached, so probing
    r = 1, 2, 3, ... costs n squarings mod f per new step.  The search form
    of f (see _search_form) has the same count, less the root 0.

    The package answers its own root counts from 2x2 matrices (see
    maps.fixed_line_count and conjugacy._root_counts).  This counter takes
    any polynomial; the tests, selftest and perfbench use it as their
    independent oracle.
    """

    def __init__(self, coeffs: Sequence[FieldElement]):
        self.field = _coefficient_field(coeffs)
        if not any(c.bits for c in coeffs[1:]):
            raise ValueError("the polynomial must have positive degree")
        self._ring = ring = _ring(self.field)
        self._zero_root, self._g, _ = _search_form(
            ring, [c.bits for c in coeffs])
        self._reduce = ring.reducer(self._g)
        self._x = self._reduce(1 << ring.width)
        self._power = self._x  # x^(2^(n*r)) mod g
        self._r = 0

    def count(self, r: int) -> int:
        if r < 1:
            raise ValueError("relative degree must be positive")
        if r < self._r:
            self._power = self._x
            self._r = 0
        while self._r < r:
            for _ in range(self.field.degree):
                self._power = self._reduce(gf2x.sqr(self._power))
            self._r += 1
        h = self._ring.gcd(self._g, self._power ^ self._x)
        return self._zero_root + self._ring.degree(h)


# -- roots of x^N = alpha ----------------------------------------------------------


def nth_roots(alpha: FieldElement, n: int) -> set[FieldElement]:
    """All x in alpha's field with x^n == alpha (alpha nonzero, n >= 1).

    Solvable exactly when alpha^((2^m - 1)/d) == 1 with d = gcd(n, 2^m - 1),
    in which case there are exactly d solutions.  They are the roots of
    x^d = alpha^e with e the inverse of n/d modulo (2^m - 1)/d: as
    x^(2^m - 1) = 1, x^d = alpha^e gives x^n = alpha^(e*n/d) = alpha, and
    x^n = alpha gives alpha^e = x^(d*e*n/d) = x^d.  d above
    ROOT_DEGREE_LIMIT raises ResourceLimitError before that search.
    """
    if n < 1:
        raise ValueError("exponent must be positive")
    if not alpha:
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
    if d == 1:  # alpha^M = 1 always holds: one root, alpha^(1/n)
        return {field.element(field.pow(alpha.bits, pow(n0, -1, M)))}
    if field.pow(alpha.bits, M // d) != 1:
        return set()
    if d > ROOT_DEGREE_LIMIT:
        raise ResourceLimitError(
            f"root search on x^{d} = beta is out of range")
    beta = field.pow(alpha.bits, pow(n0 // d, -1, M // d))
    coeffs = [0] * (d + 1)
    coeffs[0] = beta
    coeffs[d] = 1
    roots = _poly_roots_bits(field, coeffs)
    if len(roots) != d:  # pragma: no cover
        raise InvariantViolationError("wrong number of roots of x^d - beta")
    return {field.element(r) for r in roots}
