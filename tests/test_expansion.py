import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab.curves import build_dual_chain, enumerate_curve
from agstab.expansion import (
    ExpansionMap,
    expand_chain,
    expand_code,
    random_dual_containing_code,
)
from agstab.errors import CertificationError
from agstab.fields import EPS, EPS_BAR, SelfDualBasis, get_field, self_dual_basis
from agstab.linear import (
    binary_code,
    code_from_matrix,
    code_from_rref,
    from_symbols,
    make_code,
    to_matrix,
    to_symbols,
)

GF2 = get_field(1)
GF4 = get_field(2)
GF16 = get_field(4)


def zero_code(field, n):
    return code_from_matrix(field, n, from_symbols(field, np.zeros((0, n), dtype=np.uint8)))


def emap(field):
    return ExpansionMap(field=field, basis=self_dual_basis(field))


def expand_word(m, symbols):
    """Bit-packed binary image of a symbol vector: bit j*k + i is Tr(x_j * alpha_i)."""
    f = m.field
    out = 0
    for j, x in enumerate(symbols):
        for i, alpha in enumerate(m.basis.elements):
            if x and f.trace(f.mul(x, alpha)):
                out |= 1 << (j * f.k + i)
    return out


def test_expansion_of_conjugate_pair_span_is_self_dual():
    c = make_code(GF4, 2, [[EPS, EPS]])
    d = expand_code(c, emap(GF4))
    # coordinates (Tr(x*w), Tr(x*w^2)) per symbol: (w,w) -> 1010, (w^2,w^2) -> 0101
    assert d == binary_code(4, [0b0101, 0b1010])
    assert d.dual() == d


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3, 4, 6]), data=st.data())
def test_expand_code_equals_the_elimination_of_its_rows(k, data):
    f = get_field(k)
    n = data.draw(st.integers(1, 6), label="n")
    symbol = st.integers(0, f.order - 1)
    rows = data.draw(st.lists(st.lists(symbol, min_size=n, max_size=n), max_size=n), label="rows")
    code = make_code(f, n, rows)
    m = emap(f)
    image = [
        expand_word(m, [f.mul(a, x) for x in g])
        for g in code.generators for a in m.basis.elements
    ]
    assert expand_code(code, m) == binary_code(k * n, image)


class TestRREFCertificate:
    def test_rref_rows_accepted(self):
        mat = to_matrix(70, [0b101, 0b110, 1 << 69])
        assert code_from_rref(GF2, 70, mat.copy(), [0, 1, 69]) == code_from_matrix(GF2, 70, mat)

    def test_pivot_column_set_in_another_row_rejected(self):
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF2, 8, to_matrix(8, [0b011, 0b010]), [0, 1])

    def test_bit_below_the_pivot_rejected(self):
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF2, 8, to_matrix(8, [0b110]), [2])
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF2, 70, to_matrix(70, [1 | 1 << 68]), [68])

    def test_missing_pivot_bit_rejected(self):
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF2, 8, to_matrix(8, [0b100]), [1])

    def test_pivots_must_increase(self):
        with pytest.raises(CertificationError, match="pivots"):
            code_from_rref(GF2, 8, to_matrix(8, [0b10, 0b01]), [1, 0])

    def test_symbol_rows_accepted(self):
        mat = np.array([[0, 1, 0, EPS], [0, 0, 1, 3]], dtype=np.uint8)
        assert code_from_rref(GF4, 4, mat.copy(), [1, 2]) == code_from_matrix(GF4, 4, mat)

    @pytest.mark.parametrize(
        "rows, pivots",
        [
            ([[1, EPS, 0], [0, 1, 0]], [0, 1]),  # pivot column nonzero in another row
            ([[EPS, 1, 0]], [1]),  # nonzero left of the pivot
            ([[0, EPS, 1]], [1]),  # pivot entry not 1
        ],
    )
    def test_symbol_rows_not_in_rref_rejected(self, rows, pivots):
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF4, 3, np.array(rows, dtype=np.uint8), pivots)

    @pytest.mark.parametrize("field", [GF2, GF4])
    def test_rows_past_the_first_block_are_checked(self, field):
        rng = np.random.default_rng(7)
        symbols = rng.integers(0, field.order, (150, 300), dtype=np.uint8)
        code = code_from_matrix(field, 300, from_symbols(field, symbols))
        assert code.k_dim == 150
        assert code_from_rref(field, 300, code.matrix.copy(), code.pivots) == code
        symbols = to_symbols(field, code.matrix, 300).copy()
        symbols[140, code.pivots[10]] = 1  # another row's pivot column
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(field, 300, from_symbols(field, symbols), code.pivots)


def test_zero_code_expands_to_zero():
    d = expand_code(zero_code(GF4, 3), emap(GF4))
    assert d == zero_code(get_field(1), 6)


def test_length_and_dimension_arithmetic():
    rng = random.Random(5)
    c = random_dual_containing_code(GF4, 8, rng)
    d = expand_code(c, emap(GF4))
    assert d.n == 2 * c.n
    assert d.k_dim == 2 * c.k_dim


def test_non_self_dual_basis_rejected():
    with pytest.raises(ValueError):
        SelfDualBasis(field=GF4, elements=(1, EPS))


def test_weight_never_shrinks():
    m = emap(GF16)
    rng = random.Random(9)
    for _ in range(50):
        word = tuple(rng.randrange(16) for _ in range(7))
        symbol_weight = sum(1 for s in word if s)
        bits = expand_word(m, word).bit_count()
        assert bits >= symbol_weight


@pytest.mark.parametrize("field", [GF4, GF16])
def test_dual_commutes_with_expansion(field):
    m = emap(field)
    rng = random.Random(field.k)
    for _ in range(40):
        n = rng.randint(2, 10)
        c = random_dual_containing_code(field, n, rng)
        assert expand_code(c, m).dual() == expand_code(c.dual(), m)


def test_random_generator_produces_dual_containing_codes():
    rng = random.Random(77)
    for _ in range(25):
        c = random_dual_containing_code(GF4, rng.randint(2, 10), rng)
        assert c.contains(c.dual())


def test_expand_chain_hermitian_instance():
    triple = build_dual_chain(enumerate_curve("hermitian", 2), 3, 1)
    pair = expand_chain(triple, emap(GF4))
    assert (pair.d.n, pair.d.k_dim) == (16, 10)
    assert (pair.d_prime.n, pair.d_prime.k_dim) == (16, 14)
    assert pair.d_prime.contains(pair.d)
    assert pair.d.contains(pair.d.dual())
    # the containment chain descends with the same dual relation
    assert pair.d.dual() == expand_code(triple.c.dual(), emap(GF4))


def test_expand_chain_refuses_d_without_its_dual():
    triple = build_dual_chain(enumerate_curve("hermitian", 2), 3, 1)
    small = dataclasses.replace(triple, c=triple.c.dual())  # [8,3] < [8,5]
    assert small.c_prime.contains(small.c)
    with pytest.raises(CertificationError, match="expanded D does not contain its dual"):
        expand_chain(small, emap(GF4))


def test_field_mismatch_rejected():
    c = make_code(GF4, 2, [[1, 1]])
    with pytest.raises(ValueError):
        expand_code(c, emap(GF16))
