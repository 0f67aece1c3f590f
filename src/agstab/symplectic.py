"""Symplectic GF(4) codes in binary (a|b) coordinates and their quantum parameters.

A vector of GF(4)^n is held as a length-2n bit vector: bit j is the
a-part and bit n+j the b-part of coordinate j, under the fixed
identification (0,0)=0, (0,1)=eps, (1,0)=eps-bar, (1,1)=1 with eps the
GF(4) generator.  The form is then the plain binary pairing
sum_j (a_j b'_j + a'_j b_j), which agrees with the coordinatewise trace
of x times the conjugate of y.

``_compose`` builds the enlarged code F of a chain D' > D >= D_perp:
its canonical RREF is assembled from D's and the r = k' - k extension
rows, eliminating r rows of 2n bits, and both flags follow from
D >= D_perp (the proof is in its docstring).  It has two front doors,
which differ only in what they check and in the bound they record when
the binary distances are out of budget: ``compose_pair`` takes a chain
that ``expansion.expand_chain`` certified and rechecks neither
relation; ``steane_compose`` takes raw binary codes and checks both by
containment first.
``make_symplectic`` eliminates any generators over 2n bits and checks
the flags by containment; ``verify`` and the tests keep it as the
independent route.  F^omega has one construction, ``_form_dual``: the
half-swapped nullspace of F, eliminated over 2n bits.
``SymplecticCode.dual_space`` derives it on first read, once per code,
so a run that reports only the recorded bound never builds it.
``quantum_params`` trusts the certified flag and extracts the quantum
dimension and, within budget, the exact minimum weight over the large
code minus its symplectic dual (the stabilizer side).

The exact distance has two certificates.  The weight distribution B
of the stabilizer side (2^k_small words in ``gray_span`` blocks within
``linear._SPAN_BLOCK`` cells) fixes the large side's A by the quantum
MacWilliams identity W_A(x, y) = 2^-k_small W_B(x + 3y, x - y) (Shor
and Laflamme 1997; Calderbank, Rains, Shor and Sloane 1998).  A is
checked by ``_distance_floor``, and min{w >= 1 : A_w > B_w} bounds d_Q
from below; the coset search below stops at its first word of that
weight, the witness.

That coset search splits each 2n-bit vector into an a-part and a
b-part, so the GF(4) weight is one OR and popcount at every n.  A half
is one word of the narrowest unsigned dtype holding n bits (uint8, 16,
32 or 64) when n <= 64, else ceil(n/64) uint64 words; a cell below is
one such word.  Each representative of the transversal span (walked
with ``linear.gray_span``) meets the subgroup span in a block of
2 * words * R * S cells for R representatives and S subgroup elements,
at most ``linear._SPAN_BLOCK``.  When one representative against the
whole subgroup fits, the subgroup span is held whole (2^k_small
elements) and R grows to fill the block; otherwise R = 1 and the
subgroup is streamed in ``gray_span`` blocks, so memory stays within
the ceiling at any subgroup size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, CertificationError
from .expansion import ExpandedPair
from .fields import EPS, EPS_BAR
from .linear import (
    DEFAULT_BUDGET,
    GF2,
    LinearCode,
    _SPAN_BLOCK,
    binary_code,
    code_from_rref,
    extension_rows,
    gray_span,
    nullspace,
    reduce,
    rref,
    to_matrix,
    to_rows,
)

_SYMBOL_FROM_BITS = {(0, 0): 0, (0, 1): EPS, (1, 0): EPS_BAR, (1, 1): 1}
_BITS_FROM_SYMBOL = {v: k for k, v in _SYMBOL_FROM_BITS.items()}


def unpack_gf4(v: int, n: int) -> tuple[int, ...]:
    return tuple(
        _SYMBOL_FROM_BITS[((v >> j) & 1, (v >> (n + j)) & 1)] for j in range(n)
    )


def _swap_halves(v: int, n: int) -> int:
    mask = (1 << n) - 1
    return ((v & mask) << n) | (v >> n)


@dataclass(frozen=True)
class SymplecticCode:
    """An F2-subspace F of GF(4)^n, both certificates, and its form-dual F^omega on demand."""

    n: int
    space: LinearCode
    is_isotropic: bool
    is_large: bool
    distance_bound: int | None = None

    @property
    def k_dim(self) -> int:
        return self.space.k_dim

    @cached_property
    def dual_space(self) -> LinearCode:
        """F^omega, eliminated on first read and kept (``_form_dual``)."""
        return _form_dual(self.space, self.n)

    def __repr__(self) -> str:
        tags = []
        if self.is_isotropic:
            tags.append("isotropic")
        if self.is_large:
            tags.append("large")
        return f"symplectic(n={self.n}, k={self.k_dim}, {'|'.join(tags) or 'neither'})"


def _form_dual(space: LinearCode, n: int) -> LinearCode:
    """F^omega, dimension 2n - k_F: the form pairs x with the half-swap
    of y, so it is the half-swap of the Euclidean dual, read off the
    nullspace of F's RREF and eliminated over 2n bits."""
    null = nullspace(space.matrix, space.pivots, GF2, 2 * n)
    return binary_code(2 * n, [_swap_halves(r, n) for r in to_rows(null)])


def make_symplectic(
    n: int, vectors, distance_bound: int | None = None
) -> SymplecticCode:
    """Canonicalize packed 2n-bit generators and compute both flags exactly.

    The flags are containments between F and F^omega, computed here and
    kept as the code's ``dual_space``.  k_F > n rules out
    F <= F^omega, and k_F < n rules out F >= F^omega; both containments
    run when k_F = n.  ``binary_code`` refuses a vector wider than 2n bits.
    """
    space = binary_code(2 * n, vectors)
    dual, k = _form_dual(space, n), space.k_dim
    code = SymplecticCode(
        n, space, k <= n and dual.contains(space), k >= n and space.contains(dual), distance_bound
    )
    vars(code)["dual_space"] = dual  # the cached_property's slot
    return code


def _grown_rref(base: LinearCode, extra: list[int]) -> LinearCode:
    """base + base plus the 2n-bit rows ``extra``, which vanish at its pivots
    and are independent on the a-half.

    base's RREF G gives (G|0) and (0|G), the latter G's packed matrix
    shifted up n bits, carried across words.  ``rref`` of the extra
    rows keeps both conditions, so all their pivots lie in the a-half,
    where the (0|g) rows are zero: only the (g|0) rows are reduced by
    them, which keeps each zero left of and 1 at its pivot.  Each row is
    written once, at its pivot's rank: the a-half pivots of the (g|0)
    and extra rows merged, then the (0|g) rows, whose pivots are all
    past n.  ``code_from_rref`` certifies the result, so a dependent
    extra row or one with a bit at a base pivot (or at a (0|g) row's)
    raises CertificationError.
    """
    n, k, g = base.n, base.k_dim, base.matrix
    x, x_piv = rref(to_matrix(2 * n, extra), GF2, 2 * n)
    if len(x_piv) < len(extra):
        raise CertificationError(f"{len(extra) - len(x_piv)} extension rows are dependent")
    w, s = divmod(n, 64)
    top = np.zeros((k, x.shape[1]), dtype=g.dtype)
    top[:, : g.shape[1]] = g
    top = reduce(top, x, x_piv, GF2)  # before F is allocated: the peak is F and this half
    a_piv = [*base.pivots, *x_piv]
    rank = np.empty(len(a_piv), dtype=np.intp)
    # a Python sort: np.argsort's first call pages in about 256 KB of its code
    rank[sorted(range(len(a_piv)), key=a_piv.__getitem__)] = np.arange(len(a_piv))
    mat = np.zeros((len(a_piv) + k, x.shape[1]), dtype=g.dtype)
    mat[rank[:k]], mat[rank[k:]] = top, x
    del top
    shifted = mat[len(a_piv) :]  # the (0|g) rows
    shifted[:, w : w + g.shape[1]] = g << np.uint64(s)
    if s:
        shifted[:, w + 1 :] |= (g >> np.uint64(64 - s))[:, : mat.shape[1] - w - 1]
    return code_from_rref(GF2, 2 * n, mat, [*sorted(a_piv), *(p + n for p in base.pivots)])


def _mixed(rows) -> list:
    """Rows 1..r-1, then row 0 + row 1 (r >= 2): the companion matrix A of
    x^r + x + 1.  det(A) = det(A + I) = 1 over GF(2), so A has no nonzero
    fixed vector and distinct enlargement-row combinations on the two
    halves stay distinct modulo D.  A bare row permutation would not do:
    every permutation fixes the all-ones combination.
    """
    return [*rows[1:], rows[0] ^ rows[1]]


def steane_compose(
    d: LinearCode, d_prime: LinearCode, budget: int = DEFAULT_BUDGET
) -> SymplecticCode:
    """Enlarge the chain D' > D >= D_perp of raw binary codes, checking it first.

    D' >= D and D >= D^perp are checked by containment (``contains``,
    which refuses codes of different lengths); either failing raises
    ValueError, as does k' < k + 2 from ``_compose``.  No bound is
    recorded when the binary distances are out of budget.  ``_compose``
    has the flags' proof and the memory, a traced peak of 4.1 MB (about
    1.6 F) at m=3.  ``compose_pair`` is the same construction for a
    chain that is certified already.
    """
    if not d.is_binary or not d_prime.is_binary:
        raise ValueError("composition takes binary codes")
    if not d_prime.contains(d):
        raise ValueError("D' does not contain D")
    if not d.contains(d.dual()):
        raise ValueError("D does not contain its dual")
    return _compose(d, d_prime, budget, None)


def compose_pair(pair: ExpandedPair, budget: int = DEFAULT_BUDGET) -> SymplecticCode:
    """Enlarge the certified chain D' > D >= D_perp of ``pair``, rechecking neither relation.

    ``pair`` comes from ``expansion.expand_chain``, directly or through
    ``artifacts.pair_from_obj``: ``build_dual_chain`` certified its
    source triple, and expansion in a self-dual basis keeps both
    relations, which is why ``expand_chain`` trusts the triple.  So no
    ``contains`` runs and D^perp is not built.  The bound recorded when
    the binary distances are out of budget is the source's designed
    one, ``designed_quantum_bound`` of its designed d and d'.  Otherwise
    the result equals ``steane_compose(pair.d, pair.d_prime, budget)``,
    and ``make_symplectic``, the 2n-bit route ``verify`` runs, stays its
    independent check.
    """
    src = pair.source
    return _compose(pair.d, pair.d_prime, budget, designed_quantum_bound(src.designed_d, src.designed_d_prime))


def _compose(
    d: LinearCode, d_prime: LinearCode, budget: int, designed_bound: int | None
) -> SymplecticCode:
    """The large code F of a chain D' > D >= D_perp that the caller certified.

    F is spanned by (g|0) and (0|g) for g in D, plus the r = k' - k rows
    (e_j|m_j): the e_j extend D to D' (``extension_rows`` with count r,
    which D' >= D makes all of them, no ``contains`` run), and the m_j
    are a fixed-point-free mixing of the e_j.  Records
    min(d(D), or-weight2(D')) as the distance bound when both are
    enumerable within budget, otherwise ``designed_bound``.  The
    OR-weight is asked for first: D' has more pairs than D has words
    (k' >= k + 2), so D is within budget whenever it is, and when it is
    refused no word of D has been enumerated.  Raises ValueError when
    k' < k + 2.

    F's RREF is assembled by ``_grown_rref``, not eliminated over 2n
    bits (the e_j are remainders modulo D, so they and the m_j vanish
    at D's pivots), and certified with k_F = 2k + r rows.  The flags
    follow: F >= D + D, so F^omega <= D^perp + D^perp <= D + D <= F since
    D >= D^perp, and k_F = k + k' >= n + 2 rules out isotropy.  F^omega
    is not built here; ``dual_space`` derives it when read.  A failed
    RREF certificate raises CertificationError.  ``make_symplectic`` is
    the 2n-bit route to the same code.

    Memory: ``_grown_rref`` reduces the (g|0) rows before it allocates
    F, then writes each row once at its pivot's rank, so it holds F and
    the reduced half, about 1.5 F, at once; the extension rows are far
    smaller.  At m=3 (n = 3072, k_F = 3354, F 2.6 MB) tracemalloc puts
    ``compose_pair``'s peak at 4.1 MB (1.6 F) above what was live before
    it, F included.
    """
    n, k, k_prime = d.n, d.k_dim, d_prime.k_dim
    if k_prime < k + 2:
        raise ValueError(f"need k' >= k + 2, got k={k}, k'={k_prime}")

    bound = designed_bound
    try:
        d2_val = d_prime.second_or_weight(budget)
        bound = quantum_bound(d.min_distance_exact(budget), d2_val)
    except BudgetExceeded:
        pass

    ext = extension_rows(d, d_prime, k_prime - k)
    space = _grown_rref(d, [e | (m << n) for e, m in zip(ext, _mixed(ext))])
    return SymplecticCode(n, space, is_isotropic=False, is_large=True, distance_bound=bound)


def quantum_bound(d: int, d2: int) -> int:
    """min(d, d2): the enlargement distance guarantee."""
    if d < 1 or d2 < 1:
        raise ValueError("distances must be >= 1")
    return min(d, d2)


def designed_quantum_bound(d: int, d_prime: int) -> int:
    """min(d, ceil(3 d'/2)): the enlargement guarantee from designed distances."""
    return quantum_bound(d, -(-3 * d_prime // 2))


@dataclass(frozen=True)
class QuantumCodeReport:
    """[[n, k_Q, d_Q]] with exactness flag and the construction trace."""

    n: int
    k_q: int
    d_q: int | None
    d_exact: bool
    d_witness: tuple[int, ...] | None
    trace: tuple[str, ...]

    def params(self) -> str:
        if self.d_q is None:
            return f"[[{self.n}, {self.k_q}, ?]]"
        rel = "" if self.d_exact else ">="
        return f"[[{self.n}, {self.k_q}, {rel}{self.d_q}]]"


def _word_dtype(n: int) -> type:
    """The narrowest unsigned dtype holding n bits, or uint64 words past 64."""
    for t in (np.uint8, np.uint16, np.uint32):
        if n <= np.iinfo(t).bits:
            return t
    return np.uint64


def _halves(rows, n: int) -> np.ndarray:
    """Packed rows of 2n-bit vectors, the a-part words then the b-part words.

    A half is one word of ``_word_dtype(n)`` when n <= 64, else
    ceil(n/64) uint64 words.
    """
    mask = (1 << n) - 1
    a = to_matrix(n, [r & mask for r in rows])
    b = to_matrix(n, [r >> n for r in rows])
    return np.hstack([a, b]).astype(_word_dtype(n), copy=False)


def _block_weights(reps: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """(R, S) GF(4) weights of representative r XOR subgroup element s.

    ``reps`` and ``sub`` hold their R and S vectors word-major, as
    (2W, R) and (2W, S) with the a-part words first; the two XOR
    arrays hold the block's 2W R S cells.
    """
    half = len(sub) // 2
    v = reps[:half, :, None] ^ sub[:half, None, :]
    v |= reps[half:, :, None] ^ sub[half:, None, :]
    w = np.bitwise_count(v)
    return w[0] if half == 1 else w.sum(axis=0)


def _weight_distribution(code: LinearCode, n: int) -> list[int]:
    """B_0..B_n: the GF(4) weights of all 2^k words, in ``gray_span`` blocks."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for block in gray_span(_halves(code.bit_rows, n)):
        half = block.shape[1] // 2
        w = np.bitwise_count(block[:, :half] | block[:, half:]).sum(axis=1)
        counts += np.bincount(w.astype(np.intp), minlength=n + 1)
    return counts.tolist()


def _krawtchouk(n: int, w: int) -> list[int]:
    """K_0(w)..K_n(w), K_j(w) = [y^j] (1 + 3y)^(n-w) (1 - y)^w, the
    quaternary Krawtchouk polynomials, by their three-term recurrence
    (j+1) K_{j+1} = (3(n - j) + j - 4w) K_j - 3(n - j + 1) K_{j-1}
    (MacWilliams and Sloane, ch. 5) in exact ints; each division is exact.
    """
    k = [1, 3 * n - 4 * w]
    for j in range(1, n):
        k.append(((3 * (n - j) + j - 4 * w) * k[j] - 3 * (n - j + 1) * k[j - 1]) // (j + 1))
    return k[: n + 1]


def _macwilliams(b: list[int], n: int, size: int) -> list[Fraction]:
    """The weight distribution of the form-dual of a code of ``size`` words.

    A_j = sum_w b_w K_j(w) / size, with K_j(w) = [y^j] (1 + 3y)^(n-w) (1 - y)^w
    the quaternary Krawtchouk polynomial (``_krawtchouk``), in exact arithmetic.
    """
    total = [0] * (n + 1)
    for w, bw in enumerate(b):
        if bw:
            for j, kj in enumerate(_krawtchouk(n, w)):
                total[j] += bw * kj
    return [Fraction(t, size) for t in total]


def _distance_floor(b: list[int], n: int, k_big: int) -> int:
    """min{w >= 1 : A_w > B_w}, A the distribution of the form-dual (dim k_big).

    Raises CertificationError unless A = ``_macwilliams(b)`` is integral
    and nonnegative, B and A sum to 2^(2n - k_big) and 2^k_big,
    A_w >= B_w, and size * W_A(1, t) = W_B(1 + 3t, 1 - t) at the n + 1
    points t = 0..n, which determines A from B however A was computed.
    Both sides are evaluated by Horner's rule, W_B's powers of 1 - t
    built step by step.
    """
    size = 1 << (2 * n - k_big)
    a = _macwilliams(b, n, size)
    if any(x.denominator != 1 or x < 0 for x in a):
        raise CertificationError("transformed weight distribution is not a nonnegative integer one")
    a = [int(x) for x in a]
    if sum(b) != size or sum(a) != 1 << k_big:
        raise CertificationError(f"weight distributions do not sum to {size} and 2^{k_big}")
    if any(x < y for x, y in zip(a, b)):
        raise CertificationError("transformed weight distribution is below the code's")
    for t in range(n + 1):
        lhs = 0
        for x in reversed(a):
            lhs = lhs * t + x
        rhs, power = 0, 1  # after w: sum_{i <= w} b_i (1 + 3t)^(w - i) (1 - t)^i
        for y in b:
            rhs = rhs * (1 + 3 * t) + y * power
            power *= 1 - t
        if size * lhs != rhs:
            raise CertificationError(f"weight distributions break the MacWilliams identity at y={t}")
    return next(w for w in range(1, n + 1) if a[w] > b[w])


def _min_weight_difference(
    big: LinearCode, small: LinearCode, n: int, floor: int
) -> tuple[int, int]:
    """(weight, witness) minimizing GF(4) weight over big minus small.

    Iterates cosets of the subgroup: the transversal span in Gray order,
    each representative against the subgroup span, also in Gray order,
    the zero representative (the subgroup itself) skipped.  The witness
    is the first minimum in that order.  ``floor`` is a lower bound on
    that minimum (1 holds for any pair): the search stops at the first
    block whose minimum is at most ``floor``, which holds the first
    minimum when the bound is right.  Vectors are ``_halves`` words:
    one ``_word_dtype(n)`` word per half when n <= 64, else uint64
    words.  When one representative against the whole subgroup fits in
    ``_SPAN_BLOCK`` cells, the span is held whole and each block takes
    as many representatives as fit; otherwise each representative walks
    the subgroup's ``gray_span`` blocks.  Either way a block holds at
    most ``_SPAN_BLOCK`` cells, and ``argmin`` runs only on a block
    whose minimum beats the best so far.

    ``big`` must contain ``small``, as the caller's certified flag says:
    the transversal is the first k_big - k_small rows extending
    ``small`` to ``big`` (``extension_rows``), with no ``contains``.
    """
    trans = extension_rows(small, big, big.k_dim - small.k_dim)
    if not trans:
        raise ValueError("the two spaces coincide; the difference set is empty")

    basis = _halves(small.bit_rows, n)
    row_cells = basis.shape[1] << basis.shape[0]  # one representative, whole subgroup
    # Words on the first axis, so the XOR runs along whole rows.  The
    # subgroup span is one gray_span block, kept, when it fits; else it
    # is streamed afresh for each representative.
    whole = [g.T.copy() for g in gray_span(basis)] if row_cells <= _SPAN_BLOCK else None
    best = n + 1
    witness = 0
    for i, block in enumerate(gray_span(_halves(trans, n), min(row_cells, _SPAN_BLOCK))):
        reps = block.T
        for sub in whole or (g.T.copy() for g in gray_span(basis)):
            w = _block_weights(reps, sub)
            if i == 0:
                w[0] = n + 1  # the subgroup itself
            low = w.min()
            if low < best:
                best = int(low)
                r, s = divmod(int(w.argmin()), w.shape[1])
                a, b = to_rows((reps[:, r] ^ sub[:, s]).astype(np.uint64).reshape(2, -1))
                witness = a | (b << n)
                if best <= floor:
                    return best, witness
    return best, witness


def quantum_params(code: SymplecticCode, budget: int = DEFAULT_BUDGET) -> QuantumCodeReport:
    """Quantum dimension and distance of the stabilizer code attached to F.

    For a large code the stabilizer side is the form-dual, so
    k_Q = k_F - n and the distance enumerates F minus F-dual; for a
    small (isotropic) code the roles swap symmetrically.  When the
    2^k_big states exceed ``budget`` the recorded ``code.distance_bound``
    is reported with d_exact = False.

    Within budget, the module's two certificates give d_Q: a search
    weight other than the MacWilliams floor raises CertificationError.
    They enumerate 2^k_small states plus the search's prefix up to the
    witness, at most a quarter more than the full 2^k_big when k_Q >= 1,
    in blocks within ``_SPAN_BLOCK`` cells.  The trace's "enumerated
    over 2^k_big states" holds since their distribution is exact.
    Only that branch reads ``code.dual_space``: both dimensions follow
    from k_F, since dim F^omega = 2n - k_F.  The flag is trusted, not
    rechecked: ``make_symplectic`` computes it by containment and
    ``compose_pair``/``steane_compose`` certify it, so the coset
    transversal is the first k_big - k_small rows extending the small
    side to the big one, and the MacWilliams floor cross-checks d_Q.
    """
    n = code.n
    trace = []
    if code.is_large:
        k_q = code.k_dim - n
        big_bits = code.k_dim
        trace.append(
            f"stabilizer side is the form-dual (dim {2 * n - code.k_dim}); "
            f"k_Q = k_F - n = {code.k_dim} - {n} = {k_q}"
        )
    elif code.is_isotropic:
        k_q = n - code.k_dim
        big_bits = 2 * n - code.k_dim
        trace.append(
            f"code is isotropic; roles swap: k_Q = n - k_F = {n} - {code.k_dim} = {k_q}"
        )
    else:
        raise ValueError("code is neither isotropic nor dual-containing")

    small_bits = 2 * n - big_bits
    if big_bits == small_bits:
        trace.append("self-dual case: the difference set is empty, no distance")
        return QuantumCodeReport(
            n=n, k_q=k_q, d_q=None, d_exact=False, d_witness=None,
            trace=tuple(trace),
        )

    if (1 << big_bits) <= budget:
        big, small = (code.space, code.dual_space) if code.is_large else (code.dual_space, code.space)
        floor = _distance_floor(_weight_distribution(small, n), n, big_bits)
        d_q, wit = _min_weight_difference(big, small, n, floor)
        if d_q != floor:
            raise CertificationError(
                f"coset search found weight {d_q}, the weight distributions d_Q = {floor}"
            )
        trace.append(
            f"distance enumerated over 2^{big_bits} states minus "
            f"2^{small_bits} (subgroup skipped): d_Q = {d_q}"
        )
        return QuantumCodeReport(
            n=n, k_q=k_q, d_q=d_q, d_exact=True,
            d_witness=unpack_gf4(wit, n), trace=tuple(trace),
        )

    trace.append(
        f"enumeration of 2^{big_bits} states exceeds budget {budget}; "
        f"reporting recorded bound {code.distance_bound}"
    )
    return QuantumCodeReport(
        n=n, k_q=k_q, d_q=code.distance_bound, d_exact=False, d_witness=None,
        trace=tuple(trace),
    )
