"""Property tests for the numpy row-reduction kernel in ``agstab.linear``.

Matrices are drawn over GF(2^k) for k in {1, 2, 3, 4, 6, 8} with widths
on both sides of the 64-bit word boundary, more rows than columns, zero
rows and duplicate rows.  The kernel is checked against the definition
of reduced row echelon form, against a brute-force span oracle, and
against one-pivot-at-a-time Python eliminations.  Full and near-full
rank matrices up to 200 columns take the blocked GF(2) kernel and the
grouped ``reduce`` through many pivot blocks; GF(2^k) ``reduce`` is
checked at the edges of its batches of basis rows, ``expand_code``
against the symbolwise expansion for every k in 1..8, and both against
their tracemalloc ceilings at the herm-m3 size.  A code's
one stored form is checked to compare and hash canonically, to be
read-only, to round-trip through its int and tuple views, to
serialize to the per-symbol hex rows of a local ``row_to_hex``, and to
parse back from them.  The
enumeration primitive is checked against a plain Python loop in the
order it promises, whole and in blocks.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import linear
from agstab.artifacts import _HEX_BLOCK, code_to_obj
from agstab.errors import CertificationError
from agstab.curves import enumerate_curve, evaluation_code
from agstab.expansion import _EXPAND_BLOCK, ExpansionMap, expand_code
from agstab.fields import element_to_hex, get_field, hex_to_symbols, self_dual_basis, symbols_to_hex
from agstab.linear import (
    GF2,
    _PLAN_ROWS,
    _REDUCE_ROWS,
    _SPAN_BLOCK,
    WeightVector,
    _reverse_columns,
    binary_code,
    code_from_matrix,
    extension_rows,
    from_symbols,
    gray_span,
    make_code,
    nullspace,
    reduce,
    rref,
    to_matrix,
    to_rows,
    to_symbols,
)

from helpers import code_from_obj, generators

KS = (1, 2, 3, 4, 6, 8)
WIDTHS = (1, 63, 64, 65, 129)
SPAN_ORACLE_LIMIT = 4096
REFERENCE_COST_LIMIT = 300_000


@st.composite
def matrices(draw, ks=KS):
    """(field, n, uint8 symbol matrix) with a bounded rank, zero and repeated rows."""
    field = get_field(draw(st.sampled_from(ks)))
    n = draw(st.sampled_from(WIDTHS))
    m = draw(st.integers(0, n + 3))
    rank = draw(st.integers(0, min(m, n, 12)))
    zeros = draw(st.integers(0, 2))
    dups = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = field.order
    base = rng.integers(0, q, (rank, n))
    coeffs = rng.integers(0, q, (m, rank))
    mat = np.zeros((m, n), dtype=np.uint8)
    for t in range(rank):
        mat ^= field.mul_table[coeffs[:, t, None], base[t]]
    extra = [np.zeros(n, dtype=np.uint8)] * zeros
    if m:
        extra += [mat[rng.integers(0, m)] for _ in range(dups)]
    for row in extra:
        mat = np.insert(mat, rng.integers(0, len(mat) + 1), row, axis=0)
    return field, n, mat


def reference_rref(rows, field, n):
    """The elimination the kernel replaced: Python lists and Field.mul."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.pow(mat[r][c], field.order - 2)  # x^(q-2) = 1/x
        mat[r] = [field.mul(inv, e) for e in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [e ^ field.mul(f, p) for e, p in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


def span(rows, field):
    """All linear combinations, each symbol vector packed k bits per symbol."""
    k = field.k

    def pack(row):
        return sum(e << (j * k) for j, e in enumerate(row))

    out = {0}
    for row in rows:
        if pack(row) in out:
            continue
        multiples = [pack([field.mul(c, e) for e in row]) for c in range(1, field.order)]
        out |= {s ^ t for s in out for t in multiples}
    return out


@settings(deadline=None)
@given(matrices())
def test_rref_is_canonical_and_spans_the_input(case):
    field, n, symbols = case
    mat = from_symbols(field, symbols)
    rr, pivots = rref(mat.copy(), field, n)
    out = to_symbols(field, rr, n)
    r = len(pivots)

    assert out.shape == (r, n)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, p in enumerate(pivots):
        assert out[i, p] == 1
        assert not out[i, :p].any()
        assert np.count_nonzero(out[:, p]) == 1
    assert r <= min(len(symbols), n)
    assert not reduce(mat, rr, pivots, field).any()

    if field.order**r <= SPAN_ORACLE_LIMIT:
        want = span(symbols.tolist(), field)
        assert span(out.tolist(), field) == want
        assert len(want) == field.order**r

    if len(symbols) * n * max(r, 1) <= REFERENCE_COST_LIMIT:
        ref_rows, ref_pivots = reference_rref(symbols.tolist(), field, n)
        assert ref_pivots == pivots
        assert ref_rows == [tuple(row) for row in out.tolist()]


def reference_rref_bits(rows, n):
    """The per-column GF(2) elimination on bit-packed int rows, one pivot at a time."""
    rows = list(rows)
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def reference_reduce(vecs, basis, pivots, field):
    """Remainders of symbol rows modulo an RREF basis, one pivot at a time."""
    out = []
    for vec in vecs:
        vec = list(vec)
        for row, p in zip(basis, pivots):
            f = vec[p]
            if f:
                vec = [e ^ field.mul(f, b) for e, b in zip(vec, row)]
        out.append(tuple(vec))
    return out


def high_rank(field, n, m, deficit, seed):
    """An m x n symbol matrix of rank at most min(m, n) - deficit.

    Random rows of that rank, with a quarter of the columns zeroed and a
    few columns copied over others, so that some blocks of columns hold
    fewer pivots than columns, or none.
    """
    rng = np.random.default_rng(seed)
    q = field.order
    rank = min(m, n) - deficit
    base = rng.integers(0, q, (rank, n))
    base[:, rng.choice(n, n // 4, replace=False)] = 0
    for _ in range(3):
        src, dst = rng.integers(0, n, 2)
        base[:, dst] = base[:, src]
    coeffs = rng.integers(0, q, (m, rank))
    mat = np.zeros((m, n), dtype=np.uint8)
    for t in range(rank):
        mat ^= field.mul_table[coeffs[:, t, None], base[t]]
    return mat


# (k, n, m, deficit): full and near-full rank past several pivot blocks,
# with fewer and with more rows than columns.  The Python references
# bound n for k > 1.
HIGH_RANK = [
    (1, n, m, deficit)
    for n in (63, 64, 65, 129, 200)
    for m in (n - 9, n + 11)
    for deficit in (0, 1, 5)
] + [(k, n, n + 3, deficit) for k in (2, 4, 8) for n in (63, 65) for deficit in (0, 2)]


@pytest.mark.parametrize("k, n, m, deficit", HIGH_RANK)
def test_high_rank_rref_matches_the_reference(k, n, m, deficit):
    field = get_field(k)
    symbols = high_rank(field, n, m, deficit, seed=k * 1000 + n + m + deficit)
    rr, pivots = rref(from_symbols(field, symbols), field, n)
    out = to_symbols(field, rr, n)
    if k == 1:
        ref_rows, ref_pivots = reference_rref_bits(to_rows(from_symbols(field, symbols)), n)
        assert to_rows(rr) == ref_rows
    else:
        ref_rows, ref_pivots = reference_rref(symbols.tolist(), field, n)
        assert [tuple(row) for row in out.tolist()] == ref_rows
    assert pivots == ref_pivots
    assert len(pivots) > 16  # several pivot blocks
    # Rows already in RREF change nothing, yet a read-only matrix still raises.
    again = rr.copy()
    again.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        rref(again, field, n)


@pytest.mark.parametrize("k, n, m, deficit", HIGH_RANK)
def test_high_rank_reduce_matches_one_pivot_at_a_time(k, n, m, deficit):
    field = get_field(k)
    symbols = high_rank(field, n, m, deficit, seed=k * 1000 + n + m + deficit)
    basis, pivots = rref(from_symbols(field, symbols), field, n)
    rng = np.random.default_rng(n + m)
    vecs = np.concatenate([rng.integers(0, field.order, (6, n), dtype=np.uint8), symbols[:3]])
    got = to_symbols(field, reduce(from_symbols(field, vecs), basis, pivots, field), n)
    want = reference_reduce(vecs.tolist(), to_symbols(field, basis, n).tolist(), pivots, field)
    assert [tuple(row) for row in got.tolist()] == want
    assert not got[6:].any()  # members of the span reduce to zero


def basis_ending_at_the_last_column(field, n, rows, rng):
    """An RREF of the given number of rows whose last pivot is column n - 1."""
    symbols = np.zeros((rows, n), dtype=np.uint8)
    symbols[:-1, :-1] = to_symbols(field, code_of_dimension(field, n - 1, rows - 1, rng).matrix, n - 1)
    symbols[-1, -1] = 1
    basis, pivots = rref(from_symbols(field, symbols), field, n)
    assert len(pivots) == rows and pivots[-1] == n - 1
    return basis, pivots


# Basis sizes on both sides of a batch of _REDUCE_ROWS rows, and past two.
REDUCE_BASIS_ROWS = [1, _REDUCE_ROWS - 1, _REDUCE_ROWS, _REDUCE_ROWS + 1, 2 * _REDUCE_ROWS + 3]


@pytest.mark.parametrize("k", (2, 3, 6, 8))
@pytest.mark.parametrize("rows", REDUCE_BASIS_ROWS)
def test_reduce_matches_one_pivot_at_a_time_across_batches(k, rows):
    field = get_field(k)
    n = 3 * _REDUCE_ROWS + 5
    rng = np.random.default_rng(100 * k + rows)
    basis, pivots = basis_ending_at_the_last_column(field, n, rows, rng)
    vecs = rng.integers(0, field.order, (7, n), dtype=np.uint8)
    vecs[1, pivots[:_REDUCE_ROWS]] = 0  # every coefficient of the first batch is 0
    vecs[2, pivots[-1]] = 0  # no multiple of the row pivoted at n - 1
    span = rng.integers(0, field.order, (3, rows))
    members = np.zeros((3, n), dtype=np.uint8)
    for t in range(rows):
        members ^= field.mul_table[span[:, t, None], basis[t]]
    vecs = np.concatenate([vecs, members])
    got = reduce(vecs, basis, pivots, field)
    want = reference_reduce(vecs.tolist(), basis.tolist(), pivots, field)
    assert [tuple(row) for row in got.tolist()] == want
    assert got.shape == vecs.shape and got.dtype == vecs.dtype
    assert not got[:, pivots].any()
    assert not got[7:].any()  # members of the span reduce to zero
    if rows <= _REDUCE_ROWS:  # every coefficient is 0: nothing to subtract
        assert np.array_equal(got[1], vecs[1])


def test_reduce_with_an_empty_basis_or_no_vectors():
    field = get_field(4)
    rng = np.random.default_rng(5)
    vecs = rng.integers(0, 16, (4, 9), dtype=np.uint8)
    assert np.array_equal(reduce(vecs, np.zeros((0, 9), dtype=np.uint8), [], field), vecs)
    basis, pivots = rref(np.eye(9, dtype=np.uint8), field, 9)
    assert not reduce(vecs, basis, pivots, field).any()  # no free column
    assert reduce(vecs[:0], basis, pivots, field).shape == (0, 9)


def planned_block(n, m, later, seed):
    """An m x n bit matrix whose first block's first _PLAN_ROWS + 13 nonzero
    values are one value, 0b11, with zero rows among them.  The rows after
    them hold the values ``later``, once each and in a row, then 0 or 0b11;
    every other column is random."""
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, 2, (m, n), dtype=np.uint8)
    head = _PLAN_ROWS + 13
    block = rng.choice([0, 0b11], m)
    block[:head] = 0b11
    block[rng.choice(head, 4, replace=False)] = 0  # zero rows do not count
    block[head : head + len(later)] = later
    symbols[:, :8] = (block[:, None] >> np.arange(8)) & 1
    return symbols


@pytest.mark.parametrize("n", [64, 65, 200])
@pytest.mark.parametrize("later", [(0b100,), (0b1, 0b100, 1 << 3, 1 << 4, 1 << 5, 1 << 6, 1 << 7)])
def test_pivot_rows_past_a_repeated_head_match_the_reference(n, later):
    # The first block is planned past _PLAN_ROWS values that fill no
    # basis, from rows whose values occur once: to rank 2, scanning to
    # the last row, or to full rank 8.
    field = get_field(1)
    symbols = planned_block(n, n + 11, later, seed=n + len(later))
    rows = to_rows(from_symbols(field, symbols))
    rr, pivots = rref(from_symbols(field, symbols), field, n)
    ref_rows, ref_pivots = reference_rref_bits(rows, n)
    assert pivots == ref_pivots
    assert to_rows(rr) == ref_rows
    assert len([p for p in pivots if p < 8]) == 1 + len(later)


@pytest.mark.parametrize("m, n", [(1, 130), (4, 200), (16, 512), (12, 700), (30, 1024)])
@pytest.mark.parametrize("seed", range(4))
def test_short_wide_rref_jumps_to_the_lowest_set_bit(monkeypatch, m, n, seed):
    # leading words empty, then bits in a few 8-column blocks
    rng = random.Random(1000 * m + n + seed)
    lead = rng.randrange(64, n // 2)
    blocks = rng.sample(range(lead // 8, n // 8), min(4, n // 8 - lead // 8))
    support = [c for b in blocks for c in range(8 * b, 8 * b + 8)]
    rows = [sum(1 << c for c in support if rng.random() < 0.4) for _ in range(m)]
    rows += [rows[0] ^ rows[-1]]  # a dependent row
    visited, real = [], linear._pivot_rows
    monkeypatch.setattr(linear, "_pivot_rows", lambda *args: visited.append(args[2]) or real(*args))
    rr, pivots = rref(to_matrix(n, rows), GF2, n)
    ref_rows, ref_pivots = reference_rref_bits(rows, n)
    assert pivots == ref_pivots
    assert to_rows(rr) == ref_rows
    # the first block, the blocks with pivots and the block after each: no
    # block without a bit in the rows left is visited twice in a row
    assert len(visited) <= 1 + 2 * len({p // 8 for p in pivots}) < n // 8


@settings(deadline=None)
@given(matrices())
def test_reverse_columns_matches_the_unpacked_reversal(case):
    field, n, symbols = case
    for width in {n, 64 * ((n + 63) // 64)}:  # includes n % 64 == 0
        wide = np.zeros((len(symbols), width), dtype=np.uint8)
        wide[:, :n] = symbols
        mat = from_symbols(field, wide)
        got = np.empty_like(mat)
        _reverse_columns(mat, got, field, width)
        assert np.array_equal(to_symbols(field, got, width), wide[:, ::-1])
        _reverse_columns(mat, mat, field, width)  # in place
        assert np.array_equal(mat, got)


def nullspace_dual(code):
    """The route that always eliminates the n - k rows of the nullspace."""
    f, n = code.field, code.n
    return code_from_matrix(f, n, nullspace(code.matrix, code.pivots, f, n))


def code_of_dimension(field, n, k_dim, rng):
    """A random code of dimension exactly k_dim: random rows, with the
    identity on k_dim random columns."""
    symbols = rng.integers(0, field.order, (k_dim, n), dtype=np.uint8)
    symbols[:, rng.choice(n, k_dim, replace=False)] = np.eye(k_dim, dtype=np.uint8)
    return code_from_matrix(field, n, from_symbols(field, symbols))


DUAL_KS = (1, 2, 3, 6, 8)
DUAL_WIDTHS = (1, 63, 64, 65, 129, 200)


@pytest.mark.parametrize("k", DUAL_KS)
@pytest.mark.parametrize("n", DUAL_WIDTHS)
@pytest.mark.parametrize("dim", ["0", "1", "n/2-1", "n/2", "n/2+1", "n"])
@settings(deadline=None, max_examples=2)
@given(seed=st.integers(0, 2**32 - 1))
def test_dual_matches_the_nullspace_elimination(k, n, dim, seed):
    # k_dim on both sides of the route rule 2k < n and at the tie
    k_dim = {"0": 0, "1": 1, "n/2-1": n // 2 - 1, "n/2": n // 2, "n/2+1": n // 2 + 1, "n": n}[dim]
    k_dim = min(max(k_dim, 0), n)
    field = get_field(k)
    code = code_of_dimension(field, n, k_dim, np.random.default_rng(seed))
    eliminated = []

    def counted_rref(mat, field, n):
        eliminated.append(len(mat))
        return rref(mat, field, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linear, "rref", counted_rref)
        dual = code.dual()
    assert eliminated == [min(k_dim, n - k_dim)]
    assert dual == nullspace_dual(code)
    assert dual.k_dim == n - k_dim
    assert not dual.matrix.flags.writeable


@pytest.mark.parametrize("k", [1, 2])
def test_dual_certifies_the_nullspace_it_builds(k, monkeypatch):
    # Below the tie the nullspace is taken as the dual's RREF; rows that
    # are not (here, two swapped) must be refused, not stored.
    field = get_field(k)
    code = code_of_dimension(field, 20, 5, np.random.default_rng(k))

    def swapped(basis, pivots, field, n):
        return nullspace(basis, pivots, field, n)[[1, 0, *range(2, n - len(pivots))]]

    monkeypatch.setattr(linear, "nullspace", swapped)
    with pytest.raises(CertificationError, match="reduced row echelon"):
        code.dual()


@settings(deadline=None)
@given(matrices())
def test_nullspace_is_the_orthogonal_complement(case):
    field, n, symbols = case
    rr, pivots = rref(from_symbols(field, symbols), field, n)
    null = to_symbols(field, nullspace(rr, pivots, field, n), n)
    assert null.shape == (n - len(pivots), n)
    if len(null) and len(symbols):
        products = field.mul_table[symbols[:, None, :], null[None, :, :]]
        assert not np.bitwise_xor.reduce(products, axis=2).any()


@settings(deadline=None)
@given(matrices(), st.integers(0, 2**32 - 1))
def test_code_duals_are_involutive(case, seed):
    field, n, symbols = case
    code = code_from_matrix(field, n, from_symbols(field, symbols))
    dual = code.dual()
    assert dual.k_dim == n - code.k_dim
    assert dual.dual() == code
    rng = random.Random(seed)
    w = WeightVector(field, tuple(rng.randrange(1, field.order) for _ in range(n)))
    assert code.weighted_dual(w).weighted_dual(w) == code


@settings(deadline=None)
@given(matrices())
def test_boundary_rows_round_trip(case):
    field, n, symbols = case
    code = code_from_matrix(field, n, from_symbols(field, symbols))
    assert np.array_equal(from_symbols(field, to_symbols(field, code.matrix, n)), code.matrix)
    if field.k == 1:
        assert to_rows(to_matrix(n, code.bit_rows)) == list(code.bit_rows)
        assert binary_code(n, code.bit_rows) == code
    assert make_code(field, n, generators(code)) == code


def row_to_hex(field, row):
    """One hex row, symbol by symbol: the reference for ``symbols_to_hex``."""
    return "".join(element_to_hex(field, x) for x in row)


@settings(deadline=None)
@given(matrices())
def test_hex_rows_match_row_to_hex(case):
    field, n, symbols = case
    assert symbols_to_hex(field, symbols) == [row_to_hex(field, tuple(r)) for r in symbols.tolist()]
    code = code_from_matrix(field, n, from_symbols(field, symbols))
    assert code_to_obj(code)["generators"] == [row_to_hex(field, row) for row in generators(code)]


@settings(deadline=None)
@given(matrices())
def test_hex_rows_parse_back_to_the_symbols(case):
    field, n, symbols = case
    assert np.array_equal(hex_to_symbols(field, symbols_to_hex(field, symbols), n), symbols)
    code = code_from_matrix(field, n, from_symbols(field, symbols))
    assert code_from_obj(code_to_obj(code)) == code


def test_code_to_obj_spans_several_row_blocks():
    field = get_field(1)
    rng = np.random.default_rng(1)
    n = 2 * _HEX_BLOCK + 70
    code = make_code(field, n, rng.integers(0, field.order, (2 * _HEX_BLOCK + 3, n)).tolist())
    assert code.k_dim > 2 * _HEX_BLOCK
    assert code_to_obj(code)["generators"] == [row_to_hex(field, row) for row in generators(code)]


@settings(deadline=None)
@given(matrices(), st.integers(0, 2**32 - 1))
def test_a_code_has_one_stored_form(case, seed):
    field, n, symbols = case
    code = make_code(field, n, symbols.tolist())
    rng = random.Random(seed)
    order = list(range(len(symbols)))
    rng.shuffle(order)
    order += order[: rng.randint(0, len(order))]  # duplicated rows
    other = make_code(field, n, symbols[order].tolist())
    assert other == code and hash(other) == hash(code)
    assert not code.matrix.flags.writeable
    if code.k_dim:
        with pytest.raises(ValueError, match="read-only"):
            rref(code.matrix, field, n)


def reference_extend_basis(sub, sup):
    """Remainders of sup's rows modulo sub and the rows kept so far, one at a time."""
    rows, pivots, ext = list(sub.bit_rows), list(sub.pivots), []
    for vec in sup.bit_rows:
        for row, p in zip(rows, pivots):
            if vec >> p & 1:
                vec ^= row
        if vec:
            rows.append(vec)
            pivots.append((vec & -vec).bit_length() - 1)
            ext.append(vec)
    return ext


@settings(deadline=None)
@given(matrices(ks=(1,)), st.integers(0, 2**32 - 1))
def test_extension_rows_match_the_sequential_procedure(case, seed):
    field, n, symbols = case
    sup = code_from_matrix(field, n, from_symbols(field, symbols))
    rng = random.Random(seed)
    combos = []
    for _ in range(rng.randint(0, sup.k_dim)):
        v = 0
        for row in sup.bit_rows:
            if rng.random() < 0.5:
                v ^= row
        combos.append(v)
    sub = binary_code(n, combos)
    ext = extension_rows(sub, sup, sup.k_dim - sub.k_dim)
    assert ext == reference_extend_basis(sub, sup)
    assert len(ext) == sup.k_dim - sub.k_dim
    assert binary_code(n, list(sub.bit_rows) + ext) == sup


def expand_word(m, symbols):
    """Bit-packed binary image of a symbol vector: bit j*k + i is Tr(x_j * alpha_i)."""
    f = m.field
    out = 0
    for j, x in enumerate(symbols):
        for i, alpha in enumerate(m.basis.elements):
            if x and f.trace(f.mul(x, alpha)):
                out |= 1 << (j * f.k + i)
    return out


@settings(deadline=None)
@given(matrices())
def test_expand_code_matches_symbolwise_expansion(case):
    field, n, symbols = case
    if n > 65:
        return
    code = code_from_matrix(field, n, from_symbols(field, symbols))
    emap = ExpansionMap(field=field, basis=self_dual_basis(field))
    want = [
        expand_word(emap, [field.mul(alpha, e) for e in gen])
        for gen in generators(code)
        for alpha in emap.basis.elements
    ]
    assert expand_code(code, emap) == binary_code(field.k * n, want)


# (n, dim): n not a multiple of the s = lcm(k, 8) / k symbols that fill
# whole bytes (s = 8, 4, 8, 2, 8, 4, 8, 1 for k = 1..8), 24-, 40- and 56-bit
# groups cut at the end of a row (k = 3, n = 21; k = 5, n = 12; k = 7,
# n = 9), more than one block of generators, and the zero code.
EXPAND_CASES = [(1, 1), (9, 4), (12, 5), (13, 13), (21, 7), (37, _EXPAND_BLOCK + 4), (40, 0)]


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("n, dim", EXPAND_CASES)
def test_expand_code_writes_the_symbolwise_rows(k, n, dim):
    field = get_field(k)
    code = code_of_dimension(field, n, dim, np.random.default_rng(100 * k + n))
    emap = ExpansionMap(field=field, basis=self_dual_basis(field))
    image = expand_code(code, emap)
    want = [
        expand_word(emap, [field.mul(alpha, e) for e in gen])
        for gen in generators(code)
        for alpha in emap.basis.elements
    ]
    assert image.bit_rows == tuple(want)  # the same rows, in order, zero past bit kn
    assert image.matrix.shape == (k * dim, (k * n + 63) // 64)
    assert image.pivots == tuple(p * k + a for p in code.pivots for a in range(k))


def test_expand_cases_cut_groups_at_the_row_end():
    """The k = 3, 5 and 7 cases named above have nonzero codes whose
    ceil(n / 8) groups of k bytes are longer than a packed row."""
    dims = dict(EXPAND_CASES)
    for k, n in ((3, 21), (5, 12), (7, 9)):
        assert dims[n] > 0
        assert -(-n // 8) * k > 8 * -(-k * n // 64)


def _peak_bytes(run):
    """tracemalloc's peak over a second call of ``run``, result included."""
    run()  # tables and caches
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reduce_and_expand_code_scratch_at_herm_m3_size():
    """The ceilings that the docstrings of ``reduce`` and ``expand_code``
    state, on herm-m3's codes: E = [512, 223] and E^perp = [512, 289] over
    GF(64).  The one-pivot reduce peaked at 266 KB and the bit-table
    expansion of E^perp at 1.52 MB (666 KB of it the output)."""
    curve = enumerate_curve("hermitian", 8)
    field = curve.field
    ev = evaluation_code(curve, 250)
    dual = ev.dual()
    assert (ev.k_dim, dual.k_dim) == (223, 289)
    emap = ExpansionMap(field=field, basis=self_dual_basis(field))
    assert _peak_bytes(lambda: reduce(ev.matrix, dual.matrix, dual.pivots, field)) < 256_000
    assert _peak_bytes(lambda: expand_code(dual, emap)) < 900_000


def gray_loop(rows):
    """The Gray-code walk as a plain loop: step t flips row (t & -t).bit_length() - 1."""
    out = [0]
    for t in range(1, 1 << len(rows)):
        out.append(out[-1] ^ rows[(t & -t).bit_length() - 1])
    return out


@settings(deadline=None)
@given(
    st.integers(0, 12),
    st.sampled_from((1, 31, 32, 33, 63, 64, 65)),
    st.sampled_from((None, 1 << 10, 1 << 13, _SPAN_BLOCK, _SPAN_BLOCK + 1)),
    st.integers(0, 2**32 - 1),
)
def test_gray_span_matches_the_gray_loop(k, n, row_cells, seed):
    rng = random.Random(seed)
    rows = [rng.getrandbits(n) for _ in range(k)]
    blocks = list(gray_span(to_matrix(n, rows), row_cells))
    cells = to_matrix(n, rows).shape[1] if row_cells is None else row_cells
    for block in blocks[:-1]:
        assert len(block) == len(blocks[0])
    assert len(blocks[0]) == 1 or len(blocks[0]) * cells <= _SPAN_BLOCK
    assert to_rows(np.concatenate(blocks)) == gray_loop(rows)
