"""Operator-level verification of stabilizer projectors at tiny qubit counts.

Everything is exact: matrices carry Gaussian-integer entries (separate
int64 real and imaginary parts) with a power-of-two denominator, so
projector identities, traces, and detectability are integer equalities.
Dense matrices are capped at 2^8; this is a verifier for small
instances, not a simulator.

A Pauli operator sigma(w) is a monomial matrix: row x has its one
nonzero entry, a power of i, at column perm[x].  Both are read off the
symplectic (X|Z) bits of w, the (a|b) identification of ``symplectic``
with X the b-bit and Z the a-bit: 0 -> identity, eps -> X, eps-bar ->
Z, 1 -> Y = [[0,-i],[i,0]] (Calderbank, Rains, Shor and Sloane,
"Quantum error correction via codes over GF(4)", IEEE Trans. IT 1998).
perm[x] is x with the X bits flipped, and the power of i is 3 per Y
plus 2 per Z bit that x has set.  A product of monomials is a monomial,
found by one gather per row, never by a dense product.

**The projector is a group sum.**  For independent, commuting
generators f_1 .. f_s with signs mu_i,

    P = prod_i (I + mu_i sigma(f_i)) / 2 = 2^-s sum_{g in S} mu_g sigma(g),

a sum over the 2^s elements of the stabilizer group S (Gottesman's
stabilizer formalism, PhD thesis, Caltech 1997).  ``stabilizer_projector``
grows the 2^s monomials from the identity, each generator doubling the
list, and adds them into the numerators: O(2^s * 2^n) entries, never
more than 4^n, in integers only.

**Detectability on a range basis.**  P E P = lambda P is decided on a
basis of range(P): with B = P[:, J] for r = tr(P) columns J, and P an
orthogonal projector whose range is span(B),

    P E P = lambda P   iff   B^dagger (E B) = lambda B^dagger B,

since P = B (B^dagger B)^-1 B^dagger.

J is read off the nonzero pattern of P: j is in J when P[j, j] != 0 and
no row above j is nonzero in column j.  For Hermitian P this makes
P[J, J] diagonal: P[j, k] = 0 for j < k in J, and P[k, j] is its
conjugate.  The premise is certified once per matrix, exactly: P is
Hermitian, r = tr(P) = sum |P_ij|^2 is a positive integer, every row of
B has at most one nonzero entry, P B = B and |J| = r.  With P Hermitian
and P B = B, B^dagger B = (P P)[J, J] = P[J, J], a diagonal of
|b_j|^2 > 0, so the r columns of B are orthogonal eigenvectors of
eigenvalue 1; the trace identity then forces every other eigenvalue to
0.  A matrix that fails raises ValueError.

**Disjoint supports.**  Every stabilizer projector meets the rule, with
columns of B that have disjoint supports.  For each element s of the
stabilizer group, sigma(s) e_x is a phase times e_(x + X(s)) and
P sigma(s) = +-P.  So column x of P is supported on the coset x + V,
with V the span of the X parts, and the columns of one coset are unit
multiples of each other.  A nonzero one then has P[y, y] = |P e_y|^2
!= 0 at every y of its coset, hence the whole coset as support, and J
is the first element of each coset whose columns are nonzero.  Distinct
columns of J lie in distinct cosets, so no row meets two of them.
Other orthogonal projectors, such as I - |v><v| for a dense v, can give
|J| < r or overlapping columns, and are rejected.

**The detectability kernel.**  B is stored once, by its rows: owner(x)
is the column of B that holds row x's one nonzero entry v_x, kept with
v_x and the diagonal g of B^dagger B.  The entries of B^dagger (E B) are

    M[i, j] = sum of conj(v_x) * i^power[x] * v_(perm x)
              over the rows x with owner(x) = i and owner(perm x) = j,

one term per row: O(2^n) terms per word, grouped by (i, j) with one
sort per block of words.  Because B^dagger B = diag(g) is positive,
M = lambda diag(g) iff M is diagonal and M[i, i] tr(g) = g_i tr(M) for
every i.  ``_decide`` does this for a block of words at once, with one
XOR and popcount per word and row for the monomials, and accumulates
exactly in int64.  Its temporaries have one cell per word and row, so
a block of at most _SPAN_BLOCK / 2^n words keeps each within
``_SPAN_BLOCK`` cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Iterator, Sequence

import numpy as np

from .fields import EPS, EPS_BAR
from .linear import _SPAN_BLOCK
from .symplectic import _BITS_FROM_SYMBOL, make_symplectic, pack_gf4

HARD_MAX_N = 8  # 2^8 = 256 keeps every intermediate product inside int64
MAX_VIOLATIONS = 4  # undetectable errors listed before a check stops

class ExactMatrix:
    """(re + i*im) / 2^den with int64 numerators; normalized on creation.

    Immutable, so ``check_error`` caches the certified range basis of a
    projector in the private ``_range`` slot.
    """

    __slots__ = ("re", "im", "den", "_range")

    def __init__(self, re: np.ndarray, im: np.ndarray, den: int = 0):
        re = np.asarray(re, dtype=np.int64)
        im = np.asarray(im, dtype=np.int64)
        # cancel the largest power of two that divides every numerator
        bits = int(np.bitwise_or.reduce(re, axis=None) | np.bitwise_or.reduce(im, axis=None))
        shift = min(den, (bits & -bits).bit_length() - 1) if bits else den
        if shift > 0:
            re = re >> shift
            im = im >> shift
            den -= shift
        re.setflags(write=False)
        im.setflags(write=False)
        self.re = re
        self.im = im
        self.den = den
        self._range = None

    @property
    def dim(self) -> int:
        return self.re.shape[0]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        re = self.re @ other.re - self.im @ other.im
        im = self.re @ other.im + self.im @ other.re
        return ExactMatrix(re, im, self.den + other.den)

    def conj_transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.re.T.copy(), -self.im.T.copy(), self.den)

    def trace(self) -> tuple[Fraction, Fraction]:
        den = 1 << self.den
        return (
            Fraction(int(np.trace(self.re)), den),
            Fraction(int(np.trace(self.im)), den),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.den == other.den
            and np.array_equal(self.re, other.re)
            and np.array_equal(self.im, other.im)
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict keys
        return hash((self.den, self.re.tobytes(), self.im.tobytes()))

    def __repr__(self) -> str:
        return f"ExactMatrix(dim={self.dim}, den=2^{self.den})"


def _check_n(n: int, max_n: int) -> None:
    cap = min(max_n, HARD_MAX_N)
    if n > cap:
        raise ValueError(f"n={n} exceeds the dense-matrix cap {cap}")


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^0 .. i^3 as (re, im)
_I_POWER_RE, _I_POWER_IM = np.array(_I_POWERS, dtype=np.int64).T


# X is the b-bit of a symbol's (a|b) pair, set for X and Y; Z is the a-bit
_Z_BIT, _X_BIT = np.array([_BITS_FROM_SYMBOL[s] for s in range(4)], dtype=np.int64).T


def _monomials(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perm, power), each (len(words), 2^n): row x of sigma(words[w]) has
    its only entry, i^power[w, x], at column perm[w, x].

    Qubit 0 is the most significant bit of a row index.  With the word's
    X and Z parts packed into masks, perm = x XOR X-mask and power =
    3 #Y + 2 popcount(x AND Z-mask) mod 4: on one qubit, Z has (-1)^b
    and Y = [[0, -i], [i, 0]] has i^(3 + 2b) at row bit b, X has 1.
    """
    n = words.shape[1]
    place = 1 << np.arange(n - 1, -1, -1)
    x_mask = _X_BIT[words] @ place
    z_mask = _Z_BIT[words] @ place
    rows = np.arange(1 << n)
    perm = rows ^ x_mask[:, None]
    n_y = np.bitwise_count(x_mask & z_mask).astype(np.int64)
    power = (3 * n_y[:, None] + 2 * np.bitwise_count(rows & z_mask[:, None])) & 3
    return perm, power


@dataclass(frozen=True)
class StabilizerSpec:
    """Independent, pairwise form-orthogonal generators with their signs."""

    basis: tuple[tuple[int, ...], ...]
    mu: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mu) != len(self.basis):
            raise ValueError("one sign per basis vector required")
        for m in self.mu:
            if m not in (1, -1):
                raise ValueError("signs must be +1 or -1")
        if not self.basis:
            return
        n = len(self.basis[0])
        if any(len(f) != n for f in self.basis):
            raise ValueError("basis vectors have unequal lengths")
        if any(s not in _BITS_FROM_SYMBOL for f in self.basis for s in f):
            raise ValueError("basis symbols must be GF(4) elements 0..3")
        code = make_symplectic(n, [pack_gf4(f) for f in self.basis])
        if not code.is_isotropic:
            raise ValueError("basis is not isotropic: operators would not commute")
        if code.k_dim != len(self.basis):
            raise ValueError("basis vectors are not independent")

    @property
    def n(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    @property
    def k(self) -> int:
        return len(self.basis)

    @classmethod
    def plus(cls, basis: Sequence[Sequence[int]]) -> "StabilizerSpec":
        """All signs +1 (the default sign pattern)."""
        return cls(tuple(tuple(f) for f in basis), (1,) * len(basis))


def stabilizer_projector(spec: StabilizerSpec, n: int | None = None, max_n: int = 6) -> ExactMatrix:
    """P = prod_i (I + mu_i sigma(f_i)) / 2, an exact orthogonal projector,
    built as the group sum 2^-s sum_{g in S} mu_g sigma(g).

    The 2^s monomials of the stabilizer group grow from the identity:
    generator f doubles the list with the products g sigma(f), whose row
    x has column perm_f[perm_g[x]] and power power_g[x] +
    power_f[perm_g[x]], plus 2 when mu = -1.  One unbuffered
    ``np.add.at`` then adds every monomial's entries into the int64
    numerators, exactly.  Cost O(2^s * 2^n) entries, at most 4^n.
    """
    if n is None:
        if not spec.basis:
            raise ValueError("empty spec needs an explicit n")
        n = spec.n
    elif spec.basis and n != spec.n:
        raise ValueError(f"n={n} but the basis vectors have length {spec.n}")
    _check_n(n, max_n)
    dim = 1 << n
    rows = np.arange(dim)
    perms, powers = rows[None, :], np.zeros((1, dim), dtype=np.int64)
    if spec.basis:
        gen_perms, gen_powers = _monomials(np.array(spec.basis, dtype=np.int64))
        for perm_f, power_f, mu in zip(gen_perms, gen_powers, spec.mu):
            flip = 0 if mu == 1 else 2
            perms, powers = (
                np.concatenate([perms, perm_f[perms]]),
                np.concatenate([powers, powers + power_f[perms] + flip]),
            )
    # entry (x, perm[x]) of every monomial, as an index into the flat matrix
    flat = rows * dim + perms
    re = np.zeros(dim * dim, dtype=np.int64)
    im = np.zeros_like(re)
    np.add.at(re, flat, _I_POWER_RE[powers & 3])
    np.add.at(im, flat, _I_POWER_IM[powers & 3])
    return ExactMatrix(re.reshape(dim, dim), im.reshape(dim, dim), len(spec.basis))


@dataclass(frozen=True)
class _RangeBasis:
    """Certified B = P[:, J] spanning range(P), stored once by its rows.

    Each row of B has at most one nonzero entry: ``owner[x]`` is the
    column of B that holds it, -1 for a zero row, and ``value_re``/
    ``value_im`` are its numerators over the denominator of P, 0 for a
    zero row.  ``gram`` holds the numerators of the diagonal of
    B^dagger B = P[J, J], which is diagonal and positive.
    """

    n: int
    rank: int
    owner: np.ndarray
    value_re: np.ndarray
    value_im: np.ndarray
    gram: np.ndarray


def range_basis(p: ExactMatrix) -> _RangeBasis:
    """The certified range basis B = P[:, J] of P, made on the first call
    and cached on P.

    J holds the columns whose first nonzero entry is on the diagonal.
    The certificate (module docstring) proves that P is the orthogonal
    projector onto span(B) and that each row of B has at most one
    nonzero entry, whose column and value it records for the
    detectability kernel; P B = B is checked as grouped sums of columns
    of P, O(4^n).  Raises ValueError when P is not an orthogonal
    projector, or is one that the rules do not fit (overlapping columns,
    |J| < tr(P)); every stabilizer projector fits them.
    """
    if p._range is None:
        p._range = _certify_projector(p)
    return p._range


def _certify_projector(p: ExactMatrix) -> _RangeBasis:
    """Prove exactly that P is an orthogonal projector with range span(P[:, J])."""
    n = p.dim.bit_length() - 1
    if p.re.shape != (1 << n, 1 << n):
        raise ValueError(f"shape {p.re.shape} is not square of power-of-two size")
    re, im, den = p.re, p.im, p.den
    if not (np.array_equal(re, re.T) and np.array_equal(im, -im.T)):
        raise ValueError("matrix is not Hermitian, so not an orthogonal projector")
    # |P_ij| <= 1 holds for any projector.  With it, every int64 value
    # below and in ``_decide``, up to its cross products, is at most
    # 4^(n+1) * 8^den, which the den cap keeps below 2^63.
    if max(int(np.abs(re).max()), int(np.abs(im).max())) > 1 << den:
        raise ValueError("an entry exceeds 1 in modulus, so not an orthogonal projector")
    if 2 * (n + 1) + 3 * den > 62:
        raise ValueError(f"denominator 2^{den} too fine for exact int64 arithmetic at n={n}")
    rank, rem = divmod(int(np.trace(re)), 1 << den)
    if rem or rank <= 0:
        raise ValueError(f"trace {p.trace()[0]} is not a positive integer")
    if int((re * re).sum() + (im * im).sum()) != rank << (2 * den):
        raise ValueError("tr(P) != sum |P_ij|^2, so not an orthogonal projector")
    nz = (re != 0) | (im != 0)
    cols = np.flatnonzero((nz.argmax(axis=0) == np.arange(p.dim)) & nz.diagonal())
    per_row = nz[:, cols].sum(axis=1)
    if (per_row > 1).any():
        x = int(np.argmax(per_row > 1))
        raise ValueError(
            f"row {x} of B = P[:, J] has {per_row[x]} nonzero entries, not at most one: "
            f"the columns overlap, not a stabilizer projector"
        )
    owner = np.full(p.dim, -1)
    x, j = np.nonzero(nz[:, cols])
    owner[x] = j
    # with one nonzero entry per row at most, a row sum of B is that entry
    value_re, value_im = re[:, cols].sum(axis=1), im[:, cols].sum(axis=1)
    # (P B)[:, j] = sum of P[:, x] B[x, j] over the rows x that j owns;
    # each column j owns row J[j] at least, as B[J[j], j] = P[J[j], J[j]]
    owned = np.flatnonzero(owner >= 0)
    owned = owned[np.argsort(owner[owned])]
    starts = np.flatnonzero(np.diff(owner[owned], prepend=-1))
    v_re, v_im = value_re[owned], value_im[owned]
    pb_re = np.add.reduceat(re[:, owned] * v_re - im[:, owned] * v_im, starts, axis=1)
    pb_im = np.add.reduceat(re[:, owned] * v_im + im[:, owned] * v_re, starts, axis=1)
    if not (np.array_equal(pb_re, re[:, cols] << den) and np.array_equal(pb_im, im[:, cols] << den)):
        raise ValueError("P B != B for the chosen columns, so not an orthogonal projector")
    if len(cols) != rank:
        raise ValueError(
            f"{len(cols)} columns of P have their first nonzero entry on the diagonal, "
            f"not tr(P) = {rank}: not a stabilizer projector"
        )
    # B^dagger B = (P^dagger P)[J, J] = (P B)[J] = P[J, J], as P = P^dagger
    # and P B = B: diagonal and positive, so nonsingular
    return _RangeBasis(
        n=n, rank=rank, owner=owner, value_re=value_re, value_im=value_im,
        gram=re[cols, cols],
    )


def _decide(p: ExactMatrix, basis: _RangeBasis, words: np.ndarray) -> tuple[np.ndarray, ...]:
    """Detectability of each row of ``words`` on the certified basis of P:
    (ok, tr(E P) real and imaginary numerators over 2^p.den), one entry
    per word.

    M = B^dagger (E B) has one term per row x with owner(x) = i and
    owner(perm x) = j >= 0 (module docstring); the terms are summed per
    (word, i, j) after one sort of their keys.  ok holds when every
    off-diagonal sum is 0 and M[i, i] tr(g) = g_i tr(M) for all i, with
    g the diagonal of B^dagger B.  Each temporary has at most
    len(words) * 2^n cells, which callers keep within ``_SPAN_BLOCK``.
    """
    perm, power = _monomials(words)
    ph_re, ph_im = _I_POWER_RE[power], _I_POWER_IM[power]
    # tr(E P) = sum_x (E P)[x, x] = sum_x phase[x] * P[perm[x], x]
    diag = np.arange(p.dim)
    d_re, d_im = p.re[perm, diag], p.im[perm, diag]
    tr_re = (ph_re * d_re - ph_im * d_im).sum(axis=1)
    tr_im = (ph_re * d_im + ph_im * d_re).sum(axis=1)

    # one term per row x: conj(v_x) * phase[x] * v_(perm x), at (owner x, owner(perm x))
    v_re, v_im = basis.value_re, basis.value_im
    a_re = ph_re * v_re[perm] - ph_im * v_im[perm]
    a_im = ph_re * v_im[perm] + ph_im * v_re[perm]
    c_re = v_re * a_re + v_im * a_im
    c_im = v_re * a_im - v_im * a_re
    r, count = basis.rank, len(words)
    j = basis.owner[perm]
    term = (basis.owner >= 0) & (j >= 0)
    keys = ((np.arange(count)[:, None] * r + basis.owner) * r + j)[term]
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    m_re = np.add.reduceat(c_re[term][order], first)
    m_im = np.add.reduceat(c_im[term][order], first)
    word, ij = np.divmod(keys[first], r * r)
    i, j = np.divmod(ij, r)

    ok = np.ones(count, dtype=bool)
    ok[word[(i != j) & ((m_re != 0) | (m_im != 0))]] = False
    on = i == j
    diag_re = np.zeros((count, r), dtype=np.int64)
    diag_im = np.zeros((count, r), dtype=np.int64)
    diag_re[word[on], i[on]] = m_re[on]
    diag_im[word[on], i[on]] = m_im[on]
    g = basis.gram
    tr_g = int(g.sum())
    ok &= (diag_re * tr_g == g * diag_re.sum(axis=1, keepdims=True)).all(axis=1)
    ok &= (diag_im * tr_g == g * diag_im.sum(axis=1, keepdims=True)).all(axis=1)
    return ok, tr_re, tr_im


def check_error(p: ExactMatrix, word: Sequence[int]) -> tuple[bool, Fraction, Fraction]:
    """Is sigma(word) detectable: P E P == lambda P exactly?

    Decided as B^dagger (E B) == lambda B^dagger B on the certified range
    basis B = P[:, J] of P, J the columns whose first nonzero entry is on
    the diagonal (see ``range_basis`` and the module docstring).  As B
    has at most one nonzero entry per row, B^dagger (E B) is a sum of
    one term per row, O(2^n); this is the one-word case of the kernel
    ``detectability_check`` runs on blocks of words.  The certificate is
    made on the first call for P and cached on it; a P that fails it
    raises ValueError.  lambda is tr(E P) / tr(P), which equals
    tr(P E P) / tr(P) whether or not the word is detectable.
    """
    basis = range_basis(p)
    if len(word) != basis.n:
        raise ValueError(f"word of length {len(word)} on {basis.n} qubits")
    if any(s not in _BITS_FROM_SYMBOL for s in word):
        raise ValueError(f"not a GF(4) word: {tuple(word)}")
    ok, tr_re, tr_im = _decide(p, basis, np.array([word], dtype=np.int64))
    tr_p = basis.rank << p.den
    return bool(ok[0]), Fraction(int(tr_re[0]), tr_p), Fraction(int(tr_im[0]), tr_p)


def weight_words(n: int, weight: int) -> Iterator[tuple[int, ...]]:
    """All GF(4)^n words of the given weight, deterministic order."""
    for pos in combinations(range(n), weight):
        for syms in product((1, EPS, EPS_BAR), repeat=weight):
            w = [0] * n
            for p_, s in zip(pos, syms):
                w[p_] = s
            yield tuple(w)


@dataclass(frozen=True)
class DetectabilityReport:
    n: int
    dmax: int
    checked: int
    passed: bool
    violations: tuple[tuple[int, ...], ...]
    rationale: str


_RATIONALE = (
    "Pauli words span every operator supported on fewer than dmax "
    "coordinates, and the projector condition is linear in the error, "
    "so checking Pauli words suffices."
)


def detectability_check(p: ExactMatrix, dmax: int) -> DetectabilityReport:
    """Verify P E P = lambda_E P for every Pauli error of weight < dmax.

    The words of each weight, in ``weight_words`` order, go through the
    kernel of ``check_error`` in blocks of _SPAN_BLOCK / 2^n words, so
    a block's temporaries hold at most _SPAN_BLOCK cells each.  The
    check stops at the MAX_VIOLATIONS-th undetectable word, which is
    the last one counted in ``checked``: the report is the one a
    word-by-word loop over ``check_error`` gives.
    """
    n = p.dim.bit_length() - 1
    if 1 << n != p.dim:
        raise ValueError("projector dimension is not a power of two")
    if dmax > n + 1:
        raise ValueError("dmax exceeds the number of coordinates + 1")
    step = max(1, _SPAN_BLOCK >> n)
    checked = 0
    violations: list[tuple[int, ...]] = []
    for w in range(1, dmax):
        words = weight_words(n, w)
        while block := list(islice(words, step)):
            ok, _, _ = _decide(p, range_basis(p), np.array(block, dtype=np.int64))
            bad = np.flatnonzero(~ok)[: MAX_VIOLATIONS - len(violations)]
            violations.extend(block[k] for k in bad)
            if len(violations) == MAX_VIOLATIONS:
                checked += int(bad[-1]) + 1
                return DetectabilityReport(
                    n=n, dmax=dmax, checked=checked, passed=False,
                    violations=tuple(violations), rationale=_RATIONALE,
                )
            checked += len(block)
    return DetectabilityReport(
        n=n, dmax=dmax, checked=checked, passed=not violations,
        violations=tuple(violations), rationale=_RATIONALE,
    )


def all_mu_traces(
    basis: Sequence[Sequence[int]], max_n: int = 6
) -> dict[tuple[int, ...], tuple[Fraction, Fraction]]:
    """Projector trace for every sign pattern on the given basis."""
    out = {}
    k = len(basis)
    for bits in product((1, -1), repeat=k):
        spec = StabilizerSpec(tuple(tuple(f) for f in basis), bits)
        p = stabilizer_projector(spec, max_n=max_n)
        out[bits] = p.trace()
    return out
