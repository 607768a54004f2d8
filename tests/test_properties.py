"""Property-based checks of the GF(2)[x] kernels, of wide-field and
slot-wise reduction, and of Frobenius exponents reduced mod the degree."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from f2dyn import (BinaryField, MapSpec, ResourceLimitError, fields,
                   fixed_point_count, gf2x, solve_conjugation,
                   theta_fixed_points)
from test_gf2x import DENSE_MODULI, ref_mod, ref_mul

polys = st.integers(min_value=0, max_value=(1 << 300) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 300) - 1)

# fields above the exp/log table limit: the default moduli of F_2^17, F_2^32
# and F_2^64 (given explicitly, so that a broken kernel fails a test instead
# of stalling the modulus search at import), and moduli that reduce through
# gf2x.mod instead of folding
DEFAULT_MODULI = (0x20009, 0x10000008D, 0x1000000000000001B)
WIDE_FIELDS = [BinaryField(gf2x.degree(m), m)
               for m in DEFAULT_MODULI + DENSE_MODULI]


@st.composite
def field_pairs(draw):
    field = draw(st.sampled_from(WIDE_FIELDS))
    elements = st.integers(min_value=0, max_value=field.order - 1)
    return field, draw(elements), draw(elements)


@settings(deadline=None)
@given(polys, polys, polys)
def test_mul_is_a_commutative_ring_product(a, b, c):
    assert gf2x.mul(a, b) == gf2x.mul(b, a)
    assert gf2x.mul(gf2x.mul(a, b), c) == gf2x.mul(a, gf2x.mul(b, c))
    assert gf2x.mul(a, b ^ c) == gf2x.mul(a, b) ^ gf2x.mul(a, c)


@settings(deadline=None)
@given(polys)
def test_sqr_is_mul_by_itself(a):
    assert gf2x.sqr(a) == gf2x.mul(a, a)


@settings(deadline=None)
@given(polys, nonzero_polys)
def test_divmod_identity(a, b):
    q, r = gf2x.divmod_(a, b)
    assert gf2x.mul(q, b) ^ r == a
    assert gf2x.degree(r) < gf2x.degree(b)


@settings(deadline=None)
@given(field_pairs())
def test_wide_field_inverse(pair):
    field, a, _ = pair
    if a:
        assert field.mul(a, field.inv(a)) == 1


@settings(deadline=None)
@given(field_pairs())
def test_reducer_is_reference_mulmod(pair):
    field, a, b = pair
    want = ref_mod(ref_mul(a, b), field.modulus)
    assert field.mul(a, b) == want
    assert gf2x.reducer(field.modulus)(ref_mul(a, b)) == want


# slot-wise reduction folds or divides by the same rule as the field: the
# Conway moduli of F_2^6, F_2^10 and F_2^12 divide, those of F_2^4 and F_2^8
# fold
SLOT_FIELDS = WIDE_FIELDS + [BinaryField(n) for n in (4, 6, 8, 10, 12)]


@st.composite
def packed_slots(draw):
    field = draw(st.sampled_from(SLOT_FIELDS))
    full = st.integers(min_value=0, max_value=(1 << 2 * field.degree) - 1)
    return field, draw(st.lists(full, max_size=40))


@settings(deadline=None)
@given(packed_slots())
def test_slot_reduction_is_per_coefficient_reduction(case):
    field, slots = case
    w = 2 * field.degree
    packed = sum(v << (w * i) for i, v in enumerate(slots))
    want = sum(field._reduce(v) << (w * i) for i, v in enumerate(slots))
    # the ring's reducer persists across examples, so its masks grow
    assert fields._ring(field).reduce_slots(packed) == want


# x^(2^k) is x^(2^(k + j*n)) on F_2^n, so every answer about the field is the
# same at k and k + j*n; none may build 2^k to find it
@st.composite
def shifted_exponents(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    field = BinaryField(n)
    units = st.integers(min_value=1, max_value=field.order - 1)
    c = field.element(draw(units))
    b = field.element(draw(st.integers(min_value=0, max_value=field.order - 1)))
    k = draw(st.integers(min_value=1, max_value=3 * n))
    j = draw(st.integers(min_value=1, max_value=10**9))
    return field, c, b, k, k + j * n


def _base_field_solution(mp):
    try:
        data = solve_conjugation(mp, max_relative_degree=1)
    except ResourceLimitError:
        return None
    return data.c, data.c1, data.c2, data.c3


@settings(deadline=1000)
@given(shifted_exponents())
def test_frobenius_exponent_reduces_mod_the_degree(case):
    field, c, b, k, shifted = case
    n = field.degree
    assert fixed_point_count(c, k, n) == fixed_point_count(c, shifted, n)
    assert (theta_fixed_points(c, k, field)
            == theta_fixed_points(c, shifted, field))
    # the base field is the one extension where both exponents act alike
    assert (_base_field_solution(MapSpec("psi", c, b, k))
            == _base_field_solution(MapSpec("psi", c, b, shifted)))
