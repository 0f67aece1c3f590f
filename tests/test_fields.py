import gc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from agstab.fields import (
    EPS,
    EPS_BAR,
    SelfDualBasis,
    element_to_hex,
    get_field,
    hex_to_symbols,
    ordered_elements,
    self_dual_basis,
    symbols_to_hex,
)

# Table-free oracle: schoolbook carry-less multiply mod the pinned polynomial.
_MODULI = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101,
           6: 0b1000011, 7: 0b10000011, 8: 0b100011101}


def oracle_mul(a, b, k):
    p = 0
    mod = _MODULI[k]
    top = 1 << k
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & top:
            a ^= mod
        b >>= 1
    return p


def oracle_trace(x, k):
    t = x
    cur = x
    for _ in range(k - 1):
        cur = oracle_mul(cur, cur, k)
        t ^= cur
    return t


def test_gf2_trace_is_identity():
    f = get_field(1)
    assert [f.trace(x) for x in range(2)] == [0, 1]


def test_gf4_trace_table_matches_polynomial_oracle():
    f = get_field(2)
    assert [f.trace(x) for x in range(4)] == [oracle_trace(x, 2) for x in range(4)]
    assert [f.trace(x) for x in range(4)] == [0, 0, 1, 1]


def test_gf16_generator_has_order_15():
    f = get_field(4)
    x = 1
    order = 0
    while True:
        x = oracle_mul(x, f.generator, 4)
        order += 1
        if x == 1:
            break
    assert order == 15
    assert len(set(f.exp)) == 15


@pytest.mark.parametrize("k", [0, 9, -1])
def test_degree_out_of_range(k):
    with pytest.raises(ValueError):
        get_field(k)


@pytest.mark.parametrize("k", range(1, 9))
def test_tables_match_oracle(k):
    f = get_field(k)
    elems = list(range(f.order))
    sample = elems if k <= 5 else elems[::5] + [f.order - 1]
    for a in sample:
        for b in sample:
            assert f.mul(a, b) == oracle_mul(a, b, k)
    for x in elems:
        assert f.trace(x) == oracle_trace(x, k)


@given(st.integers(1, 8), st.data())
def test_trace_is_linear_and_frobenius_invariant(k, data):
    f = get_field(k)
    x = data.draw(st.integers(0, f.order - 1))
    y = data.draw(st.integers(0, f.order - 1))
    assert f.trace(f.add(x, y)) == f.trace(x) ^ f.trace(y)
    assert f.trace(f.mul(x, x)) == f.trace(x)


@pytest.mark.parametrize("k", range(1, 9))
def test_sqrt_squares_back(k):
    # squaring is a bijection in characteristic 2; x^(2^(k-1)) inverts it
    f = get_field(k)
    for x in range(f.order):
        r = f.pow(x, 1 << (k - 1))
        assert f.mul(r, r) == x


def test_sqrt_examples():
    f = get_field(2)
    assert f.pow(0, 2) == 0
    assert f.pow(1, 2) == 1
    assert f.pow(EPS, 2) == EPS_BAR  # (w^2)^2 = w^4 = w


def test_gf16_trace_of_one_is_zero():
    assert get_field(4).trace(1) == 0


def test_inverse_and_division():
    # inv_table is the kernels' inverse; 0 has none and maps to 0
    for k in range(1, 9):
        f = get_field(k)
        assert f.inv_table[0] == 0
        for x in range(1, f.order):
            assert f.mul(x, int(f.inv_table[x])) == 1
            assert f.pow(x, f.order - 2) == f.inv_table[x]


def conj4(x):
    """Conjugation on GF(4): x -> x^2 (fixes 0, 1; swaps the others)."""
    if not 0 <= x < 4:
        raise ValueError(f"not a GF(4) element: {x}")
    return get_field(2).mul(x, x)


def test_conj4():
    assert conj4(0) == 0
    assert conj4(1) == 1
    assert conj4(EPS) == EPS_BAR
    for x in range(4):
        assert conj4(conj4(x)) == x
    with pytest.raises(ValueError):
        conj4(4)


def coordinates(basis, x):
    """GF(2) coordinates of x in a self-dual basis; entry i is Tr(x * alpha_i)."""
    f = basis.field
    return tuple(f.trace(f.mul(x, a)) for a in basis.elements)


def combine(basis, bits):
    """The element with the given GF(2) coordinates in the basis."""
    x = 0
    for b, a in zip(bits, basis.elements):
        if b:
            x ^= a
    return x


class TestSelfDualBasis:
    def test_gf2(self):
        assert self_dual_basis(get_field(1)).elements == (1,)

    def test_gf4_is_the_conjugate_pair(self):
        assert self_dual_basis(get_field(2)).elements == (EPS, EPS_BAR)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_gram_is_identity(self, k):
        f = get_field(k)
        basis = self_dual_basis(f)
        for i, a in enumerate(basis.elements):
            for j, b in enumerate(basis.elements):
                assert f.trace(f.mul(a, b)) == (1 if i == j else 0)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_coordinate_round_trip(self, k):
        f = get_field(k)
        basis = self_dual_basis(f)
        for x in range(f.order):
            assert combine(basis, coordinates(basis, x)) == x

    def test_deterministic(self):
        assert self_dual_basis(get_field(6)).elements == self_dual_basis(get_field(6)).elements

    @pytest.mark.parametrize("k, elements", [
        (1, (1,)),
        (2, (2, 3)),
        (3, (3, 7, 5)),
        (4, (8, 11, 15, 13)),
        (5, (8, 5, 7, 21, 30)),
        (6, (32, 35, 59, 55, 63, 49)),
        (7, (3, 67, 101, 85, 93, 77, 97)),
        (8, (32, 58, 45, 37, 127, 182, 241, 43)),
    ])
    def test_pinned_lexicographic_first_bases(self, k, elements):
        # the pair artifacts store these bases
        assert self_dual_basis(get_field(k)).elements == elements

    def test_search_leaves_no_cyclic_garbage(self):
        f = get_field(6)
        gc.collect()
        self_dual_basis(f)
        assert gc.collect() == 0

    def test_bad_basis_rejected(self):
        f = get_field(2)
        with pytest.raises(ValueError):
            SelfDualBasis(field=f, elements=(1, EPS))  # Tr(1) = 0 breaks the diagonal


def test_ordered_elements_start_at_zero_then_powers():
    f = get_field(3)
    elems = ordered_elements(f)
    assert elems[0] == 0 and elems[1] == 1 and elems[2] == f.generator
    assert sorted(elems) == list(range(8))


def test_hex_round_trip():
    for k in (2, 4, 5, 8):
        f = get_field(k)
        row = np.array([[x % f.order for x in range(11)]], dtype=np.uint8)
        (text,) = symbols_to_hex(f, row)
        assert text == text.lower()
        assert np.array_equal(hex_to_symbols(f, [text], 11), row)
    assert element_to_hex(get_field(8), 255) == "ff"


def test_hex_parse_refuses_upper_case_and_accepts_no_rows():
    # symbols_to_hex writes lowercase only, so a row has one text
    assert hex_to_symbols(get_field(8), ["ff0a"], 2).tolist() == [[255, 10]]
    for text in ("FF0a", "ff0A"):
        with pytest.raises(ValueError, match="non-hex"):
            hex_to_symbols(get_field(8), [text], 2)
    assert hex_to_symbols(get_field(4), [], 5).shape == (0, 5)


def test_hex_row_of_the_wrong_length_rejected():
    with pytest.raises(ValueError, match="digits"):
        hex_to_symbols(get_field(2), ["0123", "012"], 4)
    with pytest.raises(ValueError, match="digits"):
        hex_to_symbols(get_field(8), ["0a1"], 2)  # half a two-digit symbol


@pytest.mark.parametrize("text", ["01g3", "01 3", "0x13", "01\u00e93"])
def test_non_hex_character_rejected(text):
    with pytest.raises(ValueError, match="non-hex"):
        hex_to_symbols(get_field(4), ["0000", text], 4)


def test_hex_symbol_outside_the_field_rejected():
    with pytest.raises(ValueError, match="outside"):
        hex_to_symbols(get_field(2), ["0124"], 4)
    with pytest.raises(ValueError, match="outside"):
        hex_to_symbols(get_field(5), ["1f20"], 2)


@pytest.mark.parametrize(
    "text, message",
    [("0102", "outside"), ("01a0", "outside"), ("01A0", "non-hex"), ("01/0", "non-hex"), ("01g0", "non-hex")],
)
def test_binary_rows_accept_only_0_and_1(text, message):
    """GF(2) rows skip the digit table when every digit is 0 or 1; any
    other digit takes the general route and its message."""
    gf2 = get_field(1)
    assert hex_to_symbols(gf2, ["0110", "1000"], 4).tolist() == [[0, 1, 1, 0], [1, 0, 0, 0]]
    assert hex_to_symbols(gf2, [], 3).shape == (0, 3)
    with pytest.raises(ValueError, match=message):
        hex_to_symbols(gf2, ["0000", text], 4)
