"""Operator-level verification of stabilizer codes on a range basis built from the group.

Nothing here forms a dense projector.  Everything is exact: an entry is
a power of i over a common power-of-two scale, and every decision is
integer arithmetic on exponents mod 4 and on counts.

**Pauli monomials.**  sigma(w) has one nonzero entry per row: row x has
i^power[x] at column perm[x].  Both are read off the symplectic (X|Z)
bits of w, the (a|b) identification of ``symplectic`` with X the b-bit
and Z the a-bit: 0 -> identity, eps -> X, eps-bar -> Z, 1 -> Y =
[[0,-i],[i,0]] (Calderbank, Rains, Shor and Sloane, "Quantum error
correction via codes over GF(4)", IEEE Trans. IT 1998).  Qubit 0 is the
most significant bit of a row index.  perm[x] is x with the X bits
flipped, and power[x] is 3 per Y plus 2 per Z bit that x has set; so
sigma(w) = i^#Y X^x Z^z for the X and Z masks x, z of w.

**The basis, straight from the group.**  For independent, commuting
generators f_1 .. f_s with signs mu_i,

    P = prod_i (I + mu_i sigma(f_i)) / 2 = 2^-s sum_{g in S} g,

a sum over the 2^s signed elements of the stabilizer group S
(Gottesman's stabilizer formalism, PhD thesis, Caltech 1997).  Let V
be the span of the X parts, r = rank(X) its dimension, and S_Z the
elements with no X part.  Column x of P lives on the coset x + V, and
P[x, x] is 2^-r when e_x is a +1 eigenvector of every element of S_Z,
else 0.  For such an x and any h in S with X part v, the 2^(s-r)
elements of S with X part v are h times S_Z, each with the same entry
at (x + v, x), so

    b_x = P e_x has b_x[x + v] = 2^-r h[x + v, x] for every v in V:

every nonzero entry is 2^-r times a unit in {1, i, -1, -i}.  Taking x
the least element of each coset gives one column per coset, with
disjoint supports.  ``_build`` finds them all in O(s 2^n): a
Gauss-Jordan elimination of the s generators, as signed Paulis
i^p X^x Z^z on Python ints, splits them into r with independent X
parts and s - r in S_Z; reducing every row index by the first kind at
once yields its coset's least element and the element h that moves it
there, and the second kind decides which cosets are kept.  The basis
stores, per row, its column (owner, -1 for a zero row) and its power
of i; the scale 2^-r is common.  That is 2^k_Q 2^r nonzero entries in
2^n stored rows.

**The certificate** (``_certify``) is exact, O(s 2^n), and reads only
the stored rows and the spec's own monomials:

1. sigma(f_i) b = mu_i b for every generator and column: the monomial
   keeps every row's owner (owner(perm_f x) = owner(x)) and matches the
   phases;
2. there are 2^(n-s) columns;
3. B^dagger B = 2^r I on the stored units: every column owns 2^r rows,
   and no row has two owners.

Proof that B spans range(P).  P projects onto the common +1
eigenspace of the mu_i sigma(f_i), so by 1 every column lies in
range(P).  The columns are nonzero with disjoint supports, hence
independent.  tr(P) = 2^(n-s), because sigma(w) is traceless for
w != 0 and, the generators being independent, only the empty product
of them has the zero word.  With 2, span(B) = range(P).  So
P = B (B^dagger B)^-1 B^dagger = 2^-r B B^dagger on the stored units,
P[y, x] = 2^-r i^(power[y] - power[x]) when y and x share an owner,
else 0.  Each column's support is also exactly one coset of V.  By 1
it is a union of cosets, so |V| = 2^rank(X) divides 2^r.  And P[y, y]
is nonzero at every owned row y, since b = P b is nonzero there, while
only 2^(n-s+rank(X)) rows have P[y, y] != 0 (each such entry is
2^-rank(X), and they sum to tr(P)); so 2^(n-s) 2^r <= 2^(n-s+rank(X)).
Hence r = rank(X), and each support is a single coset.

**Detectability.**  P E P = lambda P iff M = B^dagger (E B) equals
lambda B^dagger B = lambda 2^r I on the stored units.  E = sigma(w)
maps the support of column a, a coset of V, onto one coset, owned by
a single column t(a) or by none, so row a of M has at most one nonzero
entry,

    M[a, t(a)] = sum over the rows y of column a of i^e(y),
    e(y) = power_E[y] - power[y] + power[perm_E y]  (mod 4),

a count of each exponent.  E is detectable iff t(a) = a wherever that
sum is nonzero and the diagonal sums are all equal; then
lambda = tr(M) / (2^r rank), which is tr(E P) / tr(P) in every case.
``_decide`` does this for a block of words at once.

**Memory.**  A basis stores 2^n rows of an owner and a power of i, and
its build and certificate hold a few arrays of 2^n cells at a time;
``HARD_MAX_N`` caps 2^n at 2^16 rows.  The kernel's temporaries have
one cell per word and owned row (rank 2^r of them), and a block of at
most _SPAN_BLOCK / (rank 2^r) words keeps each within ``_SPAN_BLOCK``
cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Iterator, Sequence

import numpy as np

from .errors import CertificationError
from .fields import EPS, EPS_BAR
from .linear import _SPAN_BLOCK
from .symplectic import _BITS_FROM_SYMBOL

HARD_MAX_N = 16  # at most 2^16 stored rows: an owner, a power of i and a column slot, 1.5 MB
MAX_VIOLATIONS = 4  # undetectable errors listed before a check stops


def _check_n(n: int, max_n: int) -> None:
    cap = min(max_n, HARD_MAX_N)
    if n > cap:
        raise ValueError(f"n={n} exceeds the cap {cap} on qubits (2^n stored rows)")


_I_POWER_RE, _I_POWER_IM = np.array([(1, 0), (0, 1), (-1, 0), (0, -1)], dtype=np.int64).T


# X is the b-bit of a symbol's (a|b) pair, set for X and Y; Z is the a-bit
_Z_BIT, _X_BIT = np.array([_BITS_FROM_SYMBOL[s] for s in range(4)], dtype=np.int64).T


def _monomials(words: np.ndarray, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(perm, power), each (len(words), len(rows)): row x of sigma(words[w])
    has its only entry, i^power[w, x], at column perm[w, x].

    ``rows`` defaults to all 2^n.  With the word's X and Z parts packed
    into masks, perm = x XOR X-mask and power = 3 #Y + 2 popcount(x AND
    Z-mask) mod 4: on one qubit, Z has (-1)^b and Y = [[0, -i], [i, 0]]
    has i^(3 + 2b) at row bit b, X has 1.
    """
    n = words.shape[1]
    if rows is None:
        rows = np.arange(1 << n)
    place = 1 << np.arange(n - 1, -1, -1)
    x_mask = _X_BIT[words] @ place
    z_mask = _Z_BIT[words] @ place
    perm = rows ^ x_mask[:, None]
    n_y = np.bitwise_count(x_mask & z_mask).astype(np.int64)
    power = (3 * n_y[:, None] + 2 * np.bitwise_count(rows & z_mask[:, None])) & 3
    return perm, power


# A signed Pauli i^p X^x Z^z is the triple (x, z, p) of Python ints.

def _signed(basis: Sequence[Sequence[int]], mu: Sequence[int]) -> list[tuple[int, int, int]]:
    """mu_i sigma(f_i) as (x, z, p): sigma(w) = i^#Y X^x Z^z, and -1 = i^2."""
    out = []
    for f, m in zip(basis, mu):
        x = z = 0
        for s in f:
            zb, xb = _BITS_FROM_SYMBOL[s]
            x, z = x << 1 | xb, z << 1 | zb
        out.append((x, z, ((x & z).bit_count() + (m < 0) * 2) & 3))
    return out


def _mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """a b, as Z^z X^x' = (-1)^|z AND x'| X^x' Z^z."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + 2 * (a[1] & b[0]).bit_count()) & 3


def _reduce(gens: list[tuple[int, int, int]]) -> tuple[list, list]:
    """Split commuting generators into (x_rows, z_rows) of the same group.

    x_rows have independent X parts, each without the leading bit (its
    pivot) of any row before it; z_rows have no X part and the same
    property for their Z parts.  Each generator is reduced by the rows
    before it, in order, through group products.  Raises ValueError when
    one reduces to the identity up to a phase: the words are dependent.
    """
    x_rows: list = []
    z_rows: list = []
    for g in gens:
        for h in x_rows:
            if g[0] >> (h[0].bit_length() - 1) & 1:
                g = _mul(g, h)
        if g[0]:
            x_rows.append(g)
            continue
        for h in z_rows:
            if g[1] >> (h[1].bit_length() - 1) & 1:
                g = _mul(g, h)
        if not g[1]:
            raise ValueError("basis vectors are not independent")
        z_rows.append(g)
    return x_rows, z_rows


@dataclass(frozen=True)
class StabilizerSpec:
    """Independent, pairwise commuting generators with their signs."""

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
        gens = _signed(self.basis, self.mu)
        for (x, z, _), (x2, z2, _) in combinations(gens, 2):
            if ((x & z2).bit_count() + (z & x2).bit_count()) & 1:
                raise ValueError("basis is not isotropic: operators would not commute")
        _reduce(gens)

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


@dataclass(frozen=True, eq=False)
class RangeBasis:
    """The certified basis B of range(P), stored by its rows (module docstring).

    Row y of B is i^power[y] (times the common scale 2^-x_rank) in
    column owner[y], or zero when owner[y] = -1.  ``cols[a]`` lists the
    2^x_rank rows of column a in increasing order, its least element
    first.
    """

    n: int
    rank: int
    x_rank: int
    owner: np.ndarray
    power: np.ndarray
    cols: np.ndarray

    def trace(self) -> tuple[Fraction, Fraction]:
        """tr(P) = dim range(P), the number of columns."""
        return Fraction(self.rank), Fraction(0)


def _build(gens: list[tuple[int, int, int]], n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(owner, power, r) of the columns b_x = 2^r P e_x, one per kept coset.

    Every row index y is reduced by the x_rows in order, the product h
    of the rows used is kept as its Z part and phase, and y ends at its
    coset's least element x, where h[y, x] = i^(p + 2 |x AND z|).  The
    coset is kept when e_x is a +1 eigenvector of every z_row.
    """
    x_rows, z_rows = _reduce(gens)
    rows = np.arange(1 << n)
    least = rows.copy()
    z_part = np.zeros_like(rows)
    phase = np.zeros_like(rows)
    for x, z, p in x_rows:
        hit = (least >> (x.bit_length() - 1)) & 1
        phase += hit * (p + 2 * np.bitwise_count(z_part & x))
        z_part ^= hit * z
        least ^= hit * x
    kept = np.ones(1 << n, dtype=bool)
    for _, z, p in z_rows:
        kept &= (p + 2 * np.bitwise_count(least & z)) & 3 == 0
    column = np.cumsum(kept & (least == rows)) - 1
    owner = np.where(kept, column[least], -1)
    power = np.where(kept, (phase + 2 * np.bitwise_count(least & z_part)) & 3, 0)
    return owner, power, len(x_rows)


def _certify(
    basis: Sequence[Sequence[int]], mu: Sequence[int], n: int,
    owner: np.ndarray, power: np.ndarray, x_rank: int,
) -> RangeBasis:
    """Prove that the stored rows are a basis of range(P) with B^dagger B = 2^r I.

    The three checks of the module docstring, against the monomials of
    the spec's own words; raises CertificationError at the first that fails.
    """
    owned = owner >= 0
    words = np.array(basis, dtype=np.int64).reshape(len(basis), n)
    for i, (word, m) in enumerate(zip(words, mu)):
        (perm,), (pw,) = _monomials(word[None])
        if not np.array_equal(owner[perm], owner):
            y = int(np.argmax(owner[perm] != owner))
            raise CertificationError(
                f"sigma(f_{i}) moves row {y} out of its column: B is not in range(P)"
            )
        # (mu sigma(f) b)[y] = mu i^pw[y] b[perm y] must be b[y]
        off = ((pw + 2 * (m < 0) + power[perm] - power) & 3 != 0) & owned
        if off.any():
            raise CertificationError(
                f"sigma(f_{i}) b != mu_{i} b at row {int(np.argmax(off))}: B is not in range(P)"
            )
    rank = 1 << (n - len(words))
    counts = np.bincount(owner[owned], minlength=rank)
    if len(counts) != rank or not counts.all():
        raise CertificationError(
            f"{np.count_nonzero(counts)} columns, not tr(P) = 2^(n-s) = {rank}"
        )
    if (counts != 1 << x_rank).any():
        raise CertificationError(
            f"a column owns {int(counts[np.argmax(counts != 1 << x_rank)])} rows, "
            f"not 2^r = {1 << x_rank}: B^dagger B != 2^r I"
        )
    cols = np.flatnonzero(owned)[np.argsort(owner[owned], kind="stable")]
    arrays = owner, power, cols.reshape(rank, 1 << x_rank)
    for a in arrays:
        a.flags.writeable = False
    return RangeBasis(n, rank, x_rank, *arrays)


def _certified_basis(basis, mu, n: int) -> RangeBasis:
    return _certify(basis, mu, n, *_build(_signed(basis, mu), n))


def stabilizer_projector(spec: StabilizerSpec, n: int | None = None, max_n: int = 6) -> RangeBasis:
    """The certified range basis of P = prod_i (I + mu_i sigma(f_i)) / 2.

    Built from the group in O(s 2^n) and proved a basis of range(P) with
    B^dagger B = 2^r I (module docstring); P itself is never formed.
    Raises CertificationError when the certificate fails.
    """
    if n is None:
        if not spec.basis:
            raise ValueError("empty spec needs an explicit n")
        n = spec.n
    elif spec.basis and n != spec.n:
        raise ValueError(f"n={n} but the basis vectors have length {spec.n}")
    _check_n(n, max_n)
    return _certified_basis(spec.basis, spec.mu, n)


def _decide(basis: RangeBasis, words: np.ndarray) -> tuple[np.ndarray, ...]:
    """Detectability of each row of ``words`` on a certified basis:
    (ok, tr(M) real and imaginary parts), one entry per word, where
    lambda = tr(M) / (2^x_rank rank).

    Row a of M = B^dagger (E B) is the sum of i^e over the rows of
    column a, at column t(a), the owner of E's image of the column's
    least row (module docstring).  Each temporary has len(words) cells
    per owned row (rank 2^x_rank of them), which callers keep within
    ``_SPAN_BLOCK``.
    """
    count, rank = len(words), basis.rank
    y = basis.cols.ravel()
    perm, power = _monomials(words, y)
    e = (power - basis.power[y] + basis.power[perm]) & 3
    m_re = _I_POWER_RE[e].reshape(count, rank, -1).sum(axis=2)
    m_im = _I_POWER_IM[e].reshape(count, rank, -1).sum(axis=2)
    target = basis.owner[perm.reshape(count, rank, -1)[:, :, 0]]
    on = target == np.arange(rank)
    off = (target >= 0) & ~on & ((m_re != 0) | (m_im != 0))
    m_re, m_im = np.where(on, m_re, 0), np.where(on, m_im, 0)
    ok = ~off.any(axis=1) & (m_re == m_re[:, :1]).all(axis=1) & (m_im == m_im[:, :1]).all(axis=1)
    return ok, m_re.sum(axis=1), m_im.sum(axis=1)


def check_error(p: RangeBasis, word: Sequence[int]) -> tuple[bool, Fraction, Fraction]:
    """Is sigma(word) detectable: P E P == lambda P exactly?

    Decided as B^dagger (E B) == lambda 2^r I on the certified basis,
    one term per stored row: the one-word case of the kernel that
    ``detectability_check`` runs on blocks of words.  lambda is
    tr(E P) / tr(P), which equals tr(P E P) / tr(P) whether or not the
    word is detectable.
    """
    if len(word) != p.n:
        raise ValueError(f"word of length {len(word)} on {p.n} qubits")
    if any(s not in _BITS_FROM_SYMBOL for s in word):
        raise ValueError(f"not a GF(4) word: {tuple(word)}")
    ok, tr_re, tr_im = _decide(p, np.array([word], dtype=np.int64))
    scale = p.rank << p.x_rank
    return bool(ok[0]), Fraction(int(tr_re[0]), scale), Fraction(int(tr_im[0]), scale)


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


def detectability_check(p: RangeBasis, dmax: int) -> DetectabilityReport:
    """Verify P E P = lambda_E P for every Pauli error of weight < dmax.

    Pauli words span every operator supported on fewer than dmax
    coordinates, and the projector condition is linear in the error, so
    checking Pauli words suffices.

    The words of each weight, in ``weight_words`` order, go through the
    kernel of ``check_error`` in blocks of _SPAN_BLOCK / (rank 2^r)
    words, so a block's temporaries, one cell per word and owned row,
    hold at most _SPAN_BLOCK cells each.  The check stops at the
    MAX_VIOLATIONS-th undetectable word, which is the last one counted
    in ``checked``: the report is the one a word-by-word loop over
    ``check_error`` gives.
    """
    n = p.n
    if dmax > n + 1:
        raise ValueError("dmax exceeds the number of coordinates + 1")
    step = max(1, _SPAN_BLOCK // p.cols.size)
    checked = 0
    violations: list[tuple[int, ...]] = []
    for w in range(1, dmax):
        words = weight_words(n, w)
        while block := list(islice(words, step)):
            ok, _, _ = _decide(p, np.array(block, dtype=np.int64))
            bad = np.flatnonzero(~ok)[: MAX_VIOLATIONS - len(violations)]
            violations.extend(block[k] for k in bad)
            if len(violations) == MAX_VIOLATIONS:
                checked += int(bad[-1]) + 1
                return DetectabilityReport(
                    n=n, dmax=dmax, checked=checked, passed=False, violations=tuple(violations)
                )
            checked += len(block)
    return DetectabilityReport(
        n=n, dmax=dmax, checked=checked, passed=not violations, violations=tuple(violations)
    )


def all_mu_traces(
    basis: Sequence[Sequence[int]], max_n: int = 6
) -> dict[tuple[int, ...], tuple[Fraction, Fraction]]:
    """Projector trace for every sign pattern on the given basis.

    The basis is validated once; each sign pattern's range basis is
    then built and certified, and its trace is its number of columns.
    """
    spec = StabilizerSpec.plus(basis)
    _check_n(spec.n, max_n)
    return {
        mu: _certified_basis(spec.basis, mu, spec.n).trace()
        for mu in product((1, -1), repeat=spec.k)
    }
