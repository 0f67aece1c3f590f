"""Linear codes over GF(2^k), each stored as its canonical kernel matrix.

A ``LinearCode`` keeps one form: its reduced-row-echelon generator
matrix, pivots leftmost first, as a read-only numpy *kernel matrix*:

- GF(2): rows packed into little-endian uint64 words, coordinate j at
  bit j % 64 of word j // 64; a row operation is a word-wise XOR.
- GF(2^k), k > 1: a uint8 symbol matrix; a row operation gathers a
  scaled row from the field's multiplication table and XORs it in.

The form is unique, so codes compare and hash by field, n, pivots and
matrix.  Only ``code_from_matrix`` builds one, and ``code_from_rref``
from rows that it certifies to be in that form already.  ``bit_rows``
(ints, bit j = coordinate j) and ``generators`` (symbol tuples) are
derived views for artifacts and the symplectic layer's (a|b) surgery on
Python ints; ``to_matrix``/``to_rows`` are that GF(2) int boundary.

``rref`` is the one elimination kernel for both, and ``reduce`` and
``nullspace`` work on its output.  ``rref`` and ``reduce`` update rows
by table gathers.  Over GF(2), the Method of Four Russians (Albrecht,
Bard and Hart, ACM TOMS 2010) takes columns or pivots in blocks of
``_BLOCK_COLS`` and gathers from the table of a block's 2^8 row sums;
``rref`` finds a block's pivot rows, and the sum of them at each pivot,
in one Gauss-Jordan pass over the block's 8-bit values as Python ints.
Over GF(2^k), ``rref`` works on the transpose and tables each pivot
column's q multiples, and ``reduce`` those of ``_REDUCE_ROWS`` basis
rows together, on the free columns only (as in M4RIE: Albrecht, ISSAC
2012).

``LinearCode.dual`` eliminates min(k, n - k) rows, choosing by k and n
alone: the n - k rows of the nullspace when 2k >= n, else the k rows
from the right, whose nullspace is already the dual's RREF (MacWilliams
and Sloane, ch. 1: G = [I | A] gives H = [A^T | I]).  A binary code that
``expansion.expand_code`` made remembers its GF(2^k) source, and
``dual`` and ``contains`` work on that source, on n / k symbols.

Codewords are enumerated by one primitive, ``gray_span``: the 2^r XOR
combinations of r kernel rows in blocks, in Gray-code order from 0.
Over GF(2^k) the rows are the symbol rows alpha^i * g (i < k), which
span the code over GF(2).  A block and what its caller builds from it
hold at most ``_SPAN_BLOCK`` cells (8-byte words or symbols), unless
one row alone is larger; the memory of an enumeration is that, plus
whatever the caller keeps whole.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, CertificationError
from .fields import Field, SelfDualBasis, get_field

DEFAULT_BUDGET = 1 << 26

GF2 = get_field(1)

_ONE = np.uint64(1)
_WORD = np.dtype("<u8")
# Rows per block when building a nullspace basis (one per free column)
# or reversing columns; bounds their scratch at 64 rows, of n bytes
# where the binary case unpacks them.
_NULL_BLOCK = 64
# Rows per block when ``code_from_rref`` certifies an RREF, about ten
# numpy calls each; 256 rows would break ``expansion.expand_code``'s
# 900 KB ceiling at herm-m3.
_RREF_BLOCK = 128
# Columns per Four-Russians block in ``rref`` and pivots per group in
# ``reduce``; a block's XOR table has 2^_BLOCK_COLS rows.  It divides 64,
# so a block never straddles a word.
_BLOCK_COLS = 8
# Basis rows per GF(2^k) ``reduce`` table; 16 would raise its peak.
_REDUCE_ROWS = 8
# Nonzero block values that ``_pivot_rows`` converts to Python ints at a
# time; a dense block fills within about 10, so most blocks take one.
_PLAN_ROWS = 32
# Cells per enumeration block: 2^16 words are 512 KB, and a consumer's
# temporaries (XOR, popcount) stay within a few times that.
_SPAN_BLOCK = 1 << 16


# ----------------------------------------------------------------------
# kernel matrices
# ----------------------------------------------------------------------

def _n_words(n: int) -> int:
    return (n + 63) // 64


def to_matrix(n: int, rows: Iterable[int]) -> np.ndarray:
    """Packed GF(2) kernel matrix of bit-packed int rows of length n."""
    rows = list(rows)
    width = 8 * _n_words(n)
    buf = bytearray(len(rows) * width)
    for i, r in enumerate(rows):
        buf[i * width : (i + 1) * width] = r.to_bytes(width, "little")
    return np.frombuffer(buf, dtype=_WORD).reshape(len(rows), _n_words(n))


def to_rows(mat: np.ndarray) -> list[int]:
    """Bit-packed int rows of a packed GF(2) kernel matrix; inverse of ``to_matrix``."""
    return [int.from_bytes(row.tobytes(), "little") for row in mat]


def from_symbols(field: Field, symbols: np.ndarray) -> np.ndarray:
    """Kernel matrix of a uint8 symbol matrix (packs the bits for GF(2))."""
    if field.k > 1:
        return symbols
    m, n = symbols.shape
    out = np.zeros((m, 8 * _n_words(n)), dtype=np.uint8)
    out[:, : (n + 7) // 8] = np.packbits(symbols, axis=1, bitorder="little")
    return out.view(_WORD)


def to_symbols(field: Field, mat: np.ndarray, n: int) -> np.ndarray:
    """uint8 symbol matrix of a kernel matrix; inverse of ``from_symbols``."""
    if field.k > 1:
        return mat
    return np.unpackbits(mat.view(np.uint8), axis=1, count=n, bitorder="little")


def _reverse_columns(src: np.ndarray, dst: np.ndarray, field: Field, n: int) -> None:
    """Write into ``dst`` the kernel matrix whose column j is column
    n - 1 - j of ``src``; ``dst`` may be ``src``.

    Rows go in blocks of ``_NULL_BLOCK``, so the scratch is one block,
    unpacked to n bytes a row over GF(2); over GF(2^k) both conversions
    are the identity, so a block is a reversed view of ``src``.
    """
    for lo in range(0, len(src), _NULL_BLOCK):
        rows = slice(lo, lo + _NULL_BLOCK)
        dst[rows] = from_symbols(field, to_symbols(field, src[rows], n)[:, ::-1])


def dual_code(field: Field, n: int, mat: np.ndarray) -> LinearCode:
    """The dual of the row space of kernel rows ``mat``, left as they are,
    by the route of ``LinearCode.dual`` for 2k < n, certified.

    ``rref`` of the reversed columns, reversed back in place, is the RREF
    taken from the right: row i is 1 at its pivot n - 1 - p_i and zero
    right of it.  Its nullspace has the free columns as pivots.
    """
    rev = np.empty_like(mat)
    _reverse_columns(mat, rev, field, n)
    rr, pv = rref(rev, field, n)
    _reverse_columns(rr, rr, field, n)
    right = [n - 1 - p for p in pv]
    return code_from_rref(field, n, nullspace(rr, right, field, n), _free_columns(right, n))


def _free_columns(pivots: Sequence[int], n: int) -> np.ndarray:
    """The non-pivot columns below n, increasing."""
    free = np.ones(n, dtype=bool)
    free[np.asarray(pivots, dtype=np.intp)] = False
    return np.flatnonzero(free)


def _columns(mat: np.ndarray, cols: np.ndarray, field: Field) -> np.ndarray:
    """uint8 symbol entries of the given columns, one row per matrix row."""
    if field.k > 1:
        return mat[:, cols]
    bits = mat[:, cols >> 6]
    bits >>= (cols & 63).astype(np.uint64)
    bits &= _ONE
    return bits.astype(np.uint8)


# ----------------------------------------------------------------------
# the elimination kernel
# ----------------------------------------------------------------------

def _xor_table(rows: np.ndarray) -> np.ndarray:
    """The 2^j XOR combinations of j packed rows; entry x is the sum of rows i with bit i of x set."""
    j, width = rows.shape
    table = np.zeros((1 << j, width), dtype=rows.dtype)
    for i in range(j):
        np.bitwise_xor(table[: 1 << i], rows[i], out=table[1 << i : 2 << i])
    return table


def _xor_gathered(mat: np.ndarray, w: int, table: np.ndarray, idx: np.ndarray) -> None:
    """mat[:, w:] ^= table[idx] in place, where table[0] is the zero row.

    When more than a third of the rows have a nonzero index, one gather
    over every row, one pass; otherwise the hit rows alone are read,
    gathered and written back, about three passes over them.
    """
    hit = np.flatnonzero(idx)
    if 3 * len(hit) > len(mat):
        mat[:, w:] ^= table[idx]
    else:
        mat[hit, w:] ^= np.take(table, idx[hit], axis=0)


def _pivot_rows(block: np.ndarray, r: int, width: int) -> tuple[list[int], list[int], list[int]]:
    """The pivot rows of a Four-Russians block, its pivot bits and their combinations.

    ``block`` holds every row's value in the block's ``width`` columns;
    rows r and below are zero left of it.  Their nonzero values go in row
    order, ``_PLAN_ROWS`` at a time as Python ints, into one Gauss-Jordan
    basis keyed by lowest set bit: a value is reduced at the basis's
    pivot bits, and a nonzero remainder picks its row, becomes the entry
    at its own lowest bit and is cleared from the other entries, until
    ``width`` picks.  Each entry carries the combination of picked rows
    (bit i: the i-th pick) whose values sum to it.  Returns the picked
    rows, the pivot bits (1 << column in the block) in increasing order,
    and for each the combination whose value has a single 1 among the
    pivot bits, its own.
    """
    nonzero = r + np.flatnonzero(block[r:])
    rows: list[int] = []
    basis: dict[int, tuple[int, int]] = {}  # pivot bit: (value, combination)
    for lo in range(0, len(nonzero), _PLAN_ROWS):
        if len(rows) == width:
            break
        head = nonzero[lo : lo + _PLAN_ROWS]
        for i, x in zip(head.tolist(), block[head].tolist()):
            comb = 1 << len(rows)
            for low, (v, c) in basis.items():
                if x & low:
                    x ^= v
                    comb ^= c
            if not x:
                continue
            low = x & -x
            for key, (v, c) in basis.items():
                if v & low:
                    basis[key] = (v ^ x, c ^ comb)
            basis[low] = (x, comb)
            rows.append(i)
            if len(rows) == width:
                break
    lows = sorted(basis)
    return rows, lows, [basis[low][1] for low in lows]


def rref(mat: np.ndarray, field: Field, n: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a kernel matrix; returns (rows, pivots).

    Gauss-Jordan elimination from the left, where each row update is one
    table gather:

    - GF(2): columns go in blocks of ``_BLOCK_COLS`` inside one word
      (Four Russians).  One pass over the block values of the rows not
      yet used (``_pivot_rows``) picks the pivot rows, those whose value
      lies outside the span of the values above them, and gives the
      combination of them that is the reduced row at each pivot bit.
      A block value indexes the table of the pivot rows' 2^j XOR
      combinations at the sum of the combinations at its pivot bits, and
      one gather of it (``_xor_gathered``) clears the block's pivot
      columns from every row, above and below.  The RREF is unique, so
      which rows are picked changes no output.
    - GF(2^k): on a transposed copy, each pivot tables its column's q
      multiples, and one gather of them, indexed by the normalised pivot
      row, clears every row (``_rref_symbols``).

    Row r of the result is zero left of its pivot, so each update
    touches only the words (or columns) from the pivot onward.  A GF(2)
    block in which rows r and below have no bit jumps to the block of
    their lowest set bit, so a short, wide system visits about one block
    per 8 pivots, not every block.  Beyond ``mat``, one GF(2) update
    gathers table rows and copies the rows they update, each at most the
    trailing matrix, from a table of at most 2^8 rows; ``mat`` is reduced
    in place, which saves a copy of the largest matrices the pipeline
    eliminates.  Over GF(2^k), for m rows of n symbols, the transposed
    copy, one gather of at most n x m, a q x m table and index arrays
    stay under 2mn + qm + 32(m + n) bytes (256 KB by tracemalloc for
    herm-m3's 223 x 512 over GF(64)); the rank-r result is written back
    into ``mat[:r]``.  The returned rows are a view of ``mat``, so a
    read-only ``mat`` of rank >= 1 raises; the rows past them are left
    unspecified.
    """
    if field.k > 1:
        return _rref_symbols(mat, field, n)
    m = len(mat)
    pivots: list[int] = []
    r = c0 = 0
    while c0 < n and r < m:
        w, shift = c0 >> 6, np.uint64(c0 & 63)
        width = min(_BLOCK_COLS, n - c0)
        block = (mat[:, w] >> shift) & np.uint64((1 << width) - 1)
        rows, lows, combs = _pivot_rows(block, r, width)
        if not rows:
            # rows r.. are zero up to c0 + width: on to their lowest set bit
            live = np.bitwise_or.reduce(mat[r:, w:], axis=0)
            words = np.flatnonzero(live)
            if not words.size:
                break
            low = int(live[words[0]])
            c = 64 * (w + int(words[0])) + (low & -low).bit_length() - 1
            c0 = c - c % _BLOCK_COLS
            continue
        # lut[value] is the combination of pivot rows at its pivot bits;
        # lut[0] = 0 selects the zero row of the table.
        comb_at = dict(zip(lows, combs))
        lut = _xor_table(np.array([[comb_at.get(1 << i, 0)] for i in range(width)]))[:, 0]
        table = _xor_table(mat[rows, w:])
        _xor_gathered(mat, w, table, lut[block])
        # The pivot rows are now zero: rows r.. take the reduced rows, and
        # the rows they held move into the freed slots.
        j = len(rows)
        freed = [i for i in rows if i >= r + j]
        mat[freed, w:] = mat[[i for i in range(r, r + j) if i not in rows], w:]
        mat[r : r + j, w:] = table[combs]
        pivots.extend(c0 + low.bit_length() - 1 for low in lows)
        r += j
        c0 += _BLOCK_COLS
    return mat[:r], pivots


def _rref_symbols(mat: np.ndarray, field: Field, n: int) -> tuple[np.ndarray, list[int]]:
    """``rref`` over GF(2^k), k > 1, on the transposed copy ``t``, whose
    row j is column j.  Pivot column c is the contiguous row ``t[c]``;
    row x of its q x m table of multiples is x * t[c] (``mul_table`` is
    symmetric: its rows at t[c] transposed, and copied, so that a gather
    reads whole rows).  Row i takes t[c, i] times the normalised
    pivot row, so one gather of the table, indexed by that row, clears
    columns c.. of every row.
    """
    m = len(mat)
    mul, inv = field.mul_table, field.inv_table
    t = np.ascontiguousarray(mat.T)
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        below = np.flatnonzero(t[c, r:])
        if not below.size:
            continue
        p = r + int(below[0])
        col = t[c].copy()
        prow = np.take(mul[inv[col[p]]], t[c:, p])
        col[p] = 0
        # Row r, zero at c when p > r, moves to slot p; neither row is
        # touched by the gather, and slot r then takes the pivot row.
        t[c:, p] = t[c:, r]
        _xor_gathered(t[c:], 0, np.take(mul, col, axis=0).T.copy(), prow)
        t[c:, r] = prow
        pivots.append(c)
        r += 1
    if r:  # an all-zero matrix is left as it is, even when read-only
        mat[:r] = t[:, :r].T
    return mat[:r], pivots


def reduce(
    vecs: np.ndarray, basis: np.ndarray, pivots: Sequence[int], field: Field
) -> np.ndarray:
    """Remainders of the rows of ``vecs`` modulo the span of ``basis``.

    ``basis`` must be in RREF with the given pivots.  Each remainder is
    the unique member of its coset that vanishes on every pivot column,
    so the result does not depend on the order of elimination.  Basis
    row i enters with the vector's entry at pivot i, which no other
    basis row changes:

    - GF(2): basis rows go in groups of ``_BLOCK_COLS``; the bits at a
      group's pivots index the table of the group's XOR combinations,
      and one gather of it updates every vector with a bit there.
    - GF(2^k): only free columns are updated, one gather per basis row
      from a table of the multiples of ``_REDUCE_ROWS`` rows; with the
      result, the peak is under 256 KB for herm-m3.
    """
    if field.k > 1:
        free = _free_columns(pivots, vecs.shape[1])
        rem = np.take(vecs, free, axis=1)
        powers = field.mul_table[1 << np.arange(field.k)]
        for lo in range(0, len(pivots), _REDUCE_ROWS):
            rows = np.take(basis[lo : lo + _REDUCE_ROWS], free, axis=1)
            b = len(rows)
            # row x * b + i is x * (row i) = XOR of 2^j * (row i), bits j of x
            table = _xor_table(np.take(powers, rows.ravel(), axis=1)).reshape(b << field.k, -1)
            for i in (np.arange(b) + b * vecs[:, list(pivots[lo : lo + b])].astype(np.intp)).T:
                rem ^= np.take(table, i, axis=0)
            del table  # before the next is built
        out = np.zeros_like(vecs)
        out[:, free] = rem
        return out
    out = vecs.copy()
    piv = np.asarray(pivots, dtype=np.uint64)
    for lo in range(0, len(piv), _BLOCK_COLS):
        group = piv[lo : lo + _BLOCK_COLS]
        w = int(group[0]) >> 6
        bits = (out[:, group >> 6] >> (group & 63)) & _ONE
        idx = (bits << np.arange(len(group), dtype=np.uint64)).sum(axis=1)
        _xor_gathered(out, w, _xor_table(basis[lo : lo + len(group), w:]), idx)
    return out


def nullspace(
    basis: np.ndarray, pivots: Sequence[int], field: Field, n: int
) -> np.ndarray:
    """Basis of {x : row . x = 0 for all rows}; ``basis`` must be reduced:
    row i is 1 at pivots[i] and no other row is nonzero there (an RREF
    from the left, or from the right as in ``dual_code``).

    One vector per free column f, in increasing f: x_f = 1, x_p = row[f]
    at the pivot p of each row (characteristic 2, so no sign), zero at
    the other free columns.
    """
    piv = np.asarray(pivots, dtype=np.intp)
    free = _free_columns(piv, n)
    out = np.empty((len(free), basis.shape[1]), dtype=basis.dtype)
    for lo in range(0, len(free), _NULL_BLOCK):
        cols = free[lo : lo + _NULL_BLOCK]
        block = np.zeros((len(cols), n), dtype=np.uint8)
        block[np.arange(len(cols)), cols] = 1
        block[:, piv] = _columns(basis, cols, field).T
        out[lo : lo + len(cols)] = from_symbols(field, block)
    return out


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------

def gray_span(mat: np.ndarray, row_cells: int | None = None) -> Iterator[np.ndarray]:
    """All 2^k XOR combinations of the k kernel rows of ``mat``, in blocks.

    Gray-code order from 0: step t flips row (t & -t).bit_length() - 1.
    The low L rows give a reflected table of 2^L words; block h is that
    table, reversed when h is odd, XOR the high rows at Gray step h.
    ``row_cells`` is what the caller holds per yielded word (by default
    the word's width); 2^L is the largest power of two with
    2^L * row_cells <= _SPAN_BLOCK, and at least 1.
    """
    k, width = mat.shape
    row_cells = width if row_cells is None else row_cells
    low = 0
    while low < k and (2 << low) * row_cells <= _SPAN_BLOCK:
        low += 1
    table = np.zeros((1 << low, width), dtype=mat.dtype)
    for i in range(low):
        h = 1 << i
        table[h : 2 * h] = table[h - 1 :: -1] ^ mat[i]
    high = np.zeros(width, dtype=mat.dtype)
    for h in range(1 << (k - low)):
        if h:
            high ^= mat[low + (h & -h).bit_length() - 1]
        yield (table[::-1] if h & 1 else table) ^ high


# ----------------------------------------------------------------------
# weight vectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """All-nonzero coordinate weights for scaled inner products.
    Kept for the perfbench hook `linear.weighted_dual`."""

    field: Field
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        for e in self.entries:
            if not 0 < e < self.field.order:
                raise ValueError(f"weight entries must be nonzero field elements, got {e}")


# ----------------------------------------------------------------------
# the code type
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code as its unique reduced-row-echelon kernel matrix.

    ``matrix`` is read-only and built only by ``code_from_matrix`` or
    the certifier ``code_from_rref``; row i has its leading 1 at column
    ``pivots[i]``.  ``expanded_from`` is (C, basis) when this binary
    code is the expansion of C in that self-dual basis; only
    ``expansion.expand_code`` sets it, and ``dual`` and ``contains``
    then work on C.  It takes no part in equality.
    """

    field: Field
    n: int
    matrix: np.ndarray
    pivots: tuple[int, ...]
    expanded_from: tuple["LinearCode", SelfDualBasis] | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.field, self.n, self.pivots) == (
            other.field, other.n, other.pivots
        ) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.pivots, self.matrix.tobytes()))

    @property
    def k_dim(self) -> int:
        return len(self.pivots)

    @property
    def is_binary(self) -> bool:
        return self.field.k == 1

    @property
    def bit_rows(self) -> tuple[int, ...]:
        """Rows as bit-packed ints, bit j = coordinate j."""
        if not self.is_binary:
            raise TypeError("bit rows exist only for binary codes")
        return tuple(to_rows(self.matrix))

    def __repr__(self) -> str:
        return f"[{self.n},{self.k_dim}] over {self.field}"

    # -- operations -----------------------------------------------------

    def contains(self, other: "LinearCode") -> bool:
        """True iff every generator of ``other`` lies in this row space.

        Two expansions in the same basis compare their sources over
        GF(2^k): expansion is an injective GF(2)-linear map, so
        expand(A) >= expand(B) iff A >= B.  Any other pair is reduced
        over its own field.
        """
        self._check_compatible(other)
        sources = _sources(self, other)
        if sources is not None:
            return sources[0].contains(sources[1])
        return not reduce(other.matrix, self.matrix, self.pivots, self.field).any()

    def dual(self) -> "LinearCode":
        """Euclidean dual; dim n - k, involutive on canonical forms.

        One elimination, of min(k, n - k) rows; the route reads only k
        and n:

        - 2k >= n: ``nullspace`` of this RREF, whose n - k rows
          ``code_from_matrix`` eliminates.
        - 2k < n: the k rows are eliminated from the right
          (``dual_code``): row i is 1 at its pivot p_i and zero right
          of it, and no other row is nonzero at p_i.  The nullspace
          vector of a free column f is 1 at f, zero at every other free
          column, and row i's entry at f in place p_i, which is nonzero
          only when f < p_i.  So its leftmost nonzero entry is the 1 at
          f, and the vectors in increasing f are already the left RREF
          of the dual, pivoted at the free columns: the lex-first
          information set of the dual is the complement of the lex-last
          one of this code.  ``code_from_rref`` certifies that with no
          second elimination.

        Scratch of the second route beyond the two codes: one copy of
        this matrix, reversed, ``rref``'s scratch on it (over GF(2^k), a
        transposed copy, not in place), and blocks of rows.

        An expansion of C, a length-m code over GF(2^s), in a self-dual
        basis (a_i) is dualized over GF(2^s) instead, as expand(C^perp):
        one elimination on m symbols in place of one on n = s m bits.
        Since y = sum_i Tr(y a_i) a_i, <expand x, expand y> =
        sum_j sum_i Tr(x_j a_i) Tr(y_j a_i) = Tr <x, y>, so
        expand(C^perp) is orthogonal to expand(C), and its dimension
        s(m - dim C) = n - k is the dual's.  ``SelfDualBasis`` validated
        the basis's trace-Gram matrix, and ``code_from_rref`` certifies
        the result, which is an expansion again.
        """
        if self.expanded_from is not None:
            from .expansion import ExpansionMap, expand_code

            source, basis = self.expanded_from
            return expand_code(source.dual(), ExpansionMap(basis.field, basis))
        f, n, k = self.field, self.n, self.k_dim
        if 2 * k >= n:
            return code_from_matrix(f, n, nullspace(self.matrix, self.pivots, f, n))
        return dual_code(f, n, self.matrix)

    def weighted_dual(self, w: WeightVector) -> "LinearCode":
        """Dual under the w-weighted form sum(w_i x_i y_i), that is (w * C)^perp.
        Kept for the perfbench hook `linear.weighted_dual`."""
        return self.scale(w).dual()

    def scale(self, v: WeightVector) -> "LinearCode":
        """Coordinatewise multiplication by v; pivots stay, so v_j / v_pivot scales row i to RREF.
        Kept for the perfbench hook `linear.weighted_dual`."""
        if v.field != self.field or len(v.entries) != self.n:
            raise ValueError("weight vector does not match the code")
        if self.is_binary:
            return self  # GF(2)* = {1}
        f = self.field
        ratio = f.mul_table[f.inv_table[np.take(v.entries, self.pivots), None], v.entries]
        return code_from_rref(f, self.n, f.mul_table[ratio, self.matrix], self.pivots)

    def min_distance_exact(self, budget: int = DEFAULT_BUDGET) -> int:
        """Exact minimum Hamming weight over nonzero codewords.

        Raises BudgetExceeded when q^k enumerations would exceed the
        budget; the caller may fall back to designed-distance bounds.
        """
        k = self.k_dim
        if k == 0:
            raise ValueError("the zero code has no minimum distance")
        f = self.field
        if f.order**k > budget:
            raise BudgetExceeded(f"{f.order}^{k} codewords exceed budget {budget}")
        if self.is_binary:
            weights = (np.bitwise_count(b).sum(axis=1) for b in gray_span(self.matrix))
        else:  # alpha^i * g_j, i < f.k, span over GF(2) what the g_j span over GF(2^k)
            alphas = np.array(f.exp[: f.k], dtype=np.uint8)[:, None, None]
            mat = f.mul_table[alphas, self.matrix].reshape(-1, self.n)
            weights = (np.count_nonzero(b, axis=1) for b in gray_span(mat))
        best = self.n + 1
        for w in weights:  # only the zero message gives weight 0
            best = int(np.min(w, initial=best, where=w > 0))
            if best == 1:
                break
        return best

    def second_or_weight(self, budget: int = DEFAULT_BUDGET) -> int:
        """Min weight of the bitwise OR over pairs of distinct nonzero words.

        Defined for binary codes only (the pairwise-support notion used
        by the enlargement distance bound).  Raises BudgetExceeded, before
        it enumerates a word, when the pairs exceed ``budget``.

        Only the 2^k weights are enumerated.  Indexed by message, word x
        XOR word y is word x ^ y, so wt(x | y) = (wt x + wt y +
        wt(x ^ y)) / 2; the pairs go in blocks of messages x against
        every y, within ``_SPAN_BLOCK`` cells.
        """
        if not self.is_binary:
            raise TypeError("the OR-weight is defined for binary codes only")
        k = self.k_dim
        m = (1 << k) - 1
        if m < 2:
            raise ValueError("need at least two nonzero codewords")
        if m * (m - 1) // 2 > budget:  # named by k: a large k has too many digits to print
            raise BudgetExceeded(f"(2^{k} - 1)(2^{k} - 2)/2 codeword pairs exceed budget {budget}")
        msg = np.arange(m + 1, dtype=np.int32)
        wt = np.empty(m + 1, dtype=np.int32)
        # gray_span's word t is the sum of the rows at the bits of t ^ (t >> 1)
        wt[msg ^ (msg >> 1)] = np.concatenate(
            [np.bitwise_count(b).sum(axis=1) for b in gray_span(self.matrix)]
        )
        best = 3 * self.n
        step = max(1, _SPAN_BLOCK // m)
        for lo in range(1, m + 1, step):
            x = msg[lo : lo + step, None]
            s = wt[x ^ msg[1:]]
            s += wt[x]
            s += wt[1:]
            s[np.arange(len(x)), x[:, 0] - 1] = 3 * self.n  # y = x is no pair
            best = min(best, int(s.min()))
        return best // 2

    def _check_compatible(self, other: "LinearCode") -> None:
        if other.field != self.field:
            raise ValueError("codes live over different fields")
        if other.n != self.n:
            raise ValueError("codes have different lengths")


def _sources(a: LinearCode, b: LinearCode) -> tuple[LinearCode, LinearCode, SelfDualBasis] | None:
    """(A, B, basis) when ``a`` and ``b`` are the expansions of A and B in one basis."""
    if a.expanded_from is None or b.expanded_from is None or a.expanded_from[1] != b.expanded_from[1]:
        return None
    return a.expanded_from[0], b.expanded_from[0], a.expanded_from[1]


def code_from_matrix(field: Field, n: int, mat: np.ndarray) -> LinearCode:
    """The code spanned by the rows of a kernel matrix, which ``rref`` overwrites."""
    rr, pv = rref(mat, field, n)
    if len(rr) < len(mat):
        rr = rr.copy()  # let the dependent rows go
    rr.flags.writeable = False
    return LinearCode(field, n, rr, tuple(pv))


def code_from_rref(field: Field, n: int, mat: np.ndarray, pivots: Sequence[int]) -> LinearCode:
    """The code of kernel rows that are already in RREF with these pivots,
    certified with no elimination, in O(rows x row cells) and blocks of
    ``_RREF_BLOCK`` rows.  A block's scratch is at most 17 bytes a
    binary word (its pivot cells, numpy's buffer for them, of the same
    size up to 8192 words, and a byte a word for the leading-entry
    scan), 104 KB for herm-m3's 3072-bit rows, or 2 bytes a symbol over
    GF(2^k).

    Row i must be zero left of pivots[i] and 1 there, the pivots must
    increase, and no other row may be nonzero at pivots[i].  Raises
    CertificationError otherwise; ``mat`` becomes the read-only kernel.
    """
    pv = np.asarray(pivots, dtype=np.int64)
    m = len(mat)
    if len(pv) != m or (np.diff(pv) <= 0).any() or (m and not 0 <= pv[0] <= pv[-1] < n):
        raise CertificationError(f"{len(pv)} pivots do not increase within n={n} for {m} rows")
    # Row i's pivot is the value unit[i] in cell lead[i] (a word for GF(2)).
    if field.k > 1:
        lead, unit = pv, np.ones(m, dtype=mat.dtype)
    else:
        lead, unit = pv >> 6, _ONE << (pv & 63).astype(np.uint64)
        at_pivots = np.zeros(mat.shape[1], dtype=mat.dtype)
        np.bitwise_or.at(at_pivots, lead, unit)
    for lo in range(0, m, _RREF_BLOCK):
        block, own = mat[lo : lo + _RREF_BLOCK], slice(lo, lo + _RREF_BLOCK)
        rows = np.arange(len(block))
        # every pivot column's entries, less the row's own pivot: all zero
        cells = block[:, pv] if field.k > 1 else block & at_pivots
        cells[rows, rows + lo if field.k > 1 else lead[own]] ^= unit[own]
        if (
            cells.any()
            or not np.array_equal((block != 0).argmax(axis=1), lead[own])
            or (block[rows, lead[own]] & (unit[own] - 1)).any()
        ):
            raise CertificationError("rows are not in reduced row echelon form with the given pivots")
    mat.flags.writeable = False
    return LinearCode(field, n, mat, tuple(pv.tolist()))


def make_code(field: Field, n: int, rows: Iterable[Sequence[int]]) -> LinearCode:
    """Canonicalize generator rows (symbol sequences) into a LinearCode.
    Kept for the perfbench hook `linear.make_code`."""
    rows = list(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError(f"generator length {len(r)} != n = {n}")
    try:
        symbols = np.array(rows, dtype=np.uint8).reshape(len(rows), n)
    except OverflowError:  # a symbol below 0 or above 255
        symbols = None
    if symbols is None or (symbols >= field.order).any():
        bad = next(e for r in rows for e in r if not 0 <= e < field.order)
        raise ValueError(f"symbol {bad} outside {field}")
    return code_from_matrix(field, n, from_symbols(field, symbols))


def binary_code(n: int, bit_rows: Iterable[int]) -> LinearCode:
    """Canonicalize bit-packed rows into a binary LinearCode."""
    bit_rows = [int(r) for r in bit_rows]
    for r in bit_rows:
        if r < 0 or r >> n:
            raise ValueError(f"row {r:#x} does not fit in {n} bits")
    return code_from_matrix(GF2, n, to_matrix(n, bit_rows))


def extension_rows(sub: LinearCode, sup: LinearCode, count: int) -> list[int]:
    """The first ``count`` rows completing binary ``sub``'s basis to one of
    sub + sup, or all dim(sub + sup) - dim sub of them when fewer.

    Each generator of ``sup``, in order, is reduced modulo ``sub`` and
    the rows kept before it; a nonzero remainder is kept, with its
    lowest set bit as pivot.  The remainders modulo ``sub`` are taken in
    blocks; each is then cleared at the kept rows' pivots, in the order
    they were kept, as Python ints.

    Only the generators that the echelon reaches are reduced: it stops
    at ``count`` rows, and each block of generators is as many as could
    still be needed, or as many as were reduced already, whichever is
    more.  When ``sup`` contains ``sub`` and ``count`` is k(sup) - k(sub),
    the rows are all of them; the caller certifies that containment
    (``symplectic._compose``'s two front doors, ``quantum_params``'
    coset transversal), and none is checked here.  A count of k(sup)
    returns all of them whether or not ``sup`` contains ``sub``.

    Two expansions in the same basis take the remainders from their
    sources over GF(2^k): expansion is injective and GF(2)-linear and
    ``sub``'s pivots are the bits p k + a of its source's pivots p, so
    the remainder of expand(x) modulo ``sub`` is the expansion of x's
    remainder modulo the source.  A block is then a block of source rows,
    reduced on n / k symbols and expanded k rows each, in ``sup``'s
    order (``expansion.expand_rows``).
    """
    sources = _sources(sub, sup)
    if sources is not None:
        from .expansion import expand_rows

        source, sup_source, basis = sources
        rows, step = sup_source.matrix, basis.field.k

        def remainders(block: np.ndarray) -> np.ndarray:
            return expand_rows(reduce(block, source.matrix, source.pivots, source.field), basis, source.n)
    else:
        rows, step = sup.matrix, 1

        def remainders(block: np.ndarray) -> np.ndarray:
            return reduce(block, sub.matrix, sub.pivots, GF2)

    kept: list[tuple[int, int]] = []  # (lowest set bit, row)
    done = 0
    while done < len(rows) and len(kept) < count:
        size = max(-(-(count - len(kept)) // step), done)
        for x in to_rows(remainders(rows[done : done + size])):
            for low, row in kept:
                if x & low:
                    x ^= row
            if x:
                kept.append((x & -x, x))
                if len(kept) == count:
                    break
        done += size
    return [row for _, row in kept]
