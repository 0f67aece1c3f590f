"""Operator-level verification of stabilizer projectors at tiny qubit counts.

Everything is exact: matrices carry Gaussian-integer entries (separate
int64 real and imaginary parts) with a power-of-two denominator, so
projector identities, traces, and detectability are integer equalities.
Dense matrices are capped at 2^8; this is a verifier for small
instances, not a simulator.

A Pauli operator is a monomial matrix (one entry per row, a phase in
{+-1, +-i}), so products with it are row or column permutations with
phases, never dense products.  Detectability P E P = lambda P is
decided on a basis of range(P): with B = P[:, J] for r = tr(P) columns
J, and P an orthogonal projector whose range is span(B),

    P E P = lambda P   iff   B^dagger (E B) = lambda B^dagger B,

since P = B (B^dagger B)^-1 B^dagger.  Per error, E B is a row
permutation with phases, O(2^n * r), and B^dagger (E B) costs
O(2^n * r^2), against 2^(3n) for the dense P (E P).

J is read off the nonzero pattern of P: j is in J when P[j, j] != 0 and
no row above j is nonzero in column j.  For Hermitian P this makes
P[J, J] diagonal: P[j, k] = 0 for j < k in J, and P[k, j] is its
conjugate.  The premise is certified once per matrix, exactly: P is
Hermitian, r = tr(P) = sum |P_ij|^2 is a positive integer, P B = B and
|J| = r.  With P Hermitian and P B = B, B^dagger B = (P P)[J, J] =
P[J, J], a diagonal of |b_j|^2 > 0, so the r columns of B are
orthogonal eigenvectors of eigenvalue 1; the trace identity then forces
every other eigenvalue to 0.  A matrix that fails raises ValueError.

Every stabilizer projector meets the rule.  For each element s of the
stabilizer group, sigma(s) e_x is a phase times e_(x + X(s)) and
P sigma(s) = +-P.  So column x of P is supported on the coset x + V,
with V the span of the X parts, and the columns of one coset are unit
multiples of each other.  A nonzero one then has P[y, y] = |P e_y|^2
!= 0 at every y of its coset, hence the whole coset as support, and J
is the first element of each coset whose columns are nonzero.  Other
orthogonal projectors, such as I - |v><v| for a dense v, can give
|J| < r and are rejected.

Qubit symbols follow the GF(4) convention of the rest of the package:
0 -> identity, eps -> X, eps-bar -> Z, 1 -> the third Pauli matrix
[[0,-i],[i,0]].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

import numpy as np

from .fields import EPS, EPS_BAR
from .linear import binary_code
from .symplectic import pack_gf4, symplectic_form

HARD_MAX_N = 8  # 2^8 = 256 keeps every intermediate product inside int64
MAX_VIOLATIONS = 4  # undetectable errors listed before a check stops

_PAULI = {
    0: ((np.array([[1, 0], [0, 1]]), np.zeros((2, 2), dtype=np.int64))),
    EPS: ((np.array([[0, 1], [1, 0]]), np.zeros((2, 2), dtype=np.int64))),
    EPS_BAR: ((np.array([[1, 0], [0, -1]]), np.zeros((2, 2), dtype=np.int64))),
    1: ((np.zeros((2, 2), dtype=np.int64), np.array([[0, -1], [1, 0]]))),
}


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

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        return cls(np.eye(dim, dtype=np.int64), np.zeros((dim, dim), dtype=np.int64))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        re = self.re @ other.re - self.im @ other.im
        im = self.re @ other.im + self.im @ other.re
        return ExactMatrix(re, im, self.den + other.den)

    def _aligned(self, other: "ExactMatrix") -> tuple:
        d = max(self.den, other.den)
        sr = self.re << (d - self.den)
        si = self.im << (d - self.den)
        orr = other.re << (d - other.den)
        oi = other.im << (d - other.den)
        return sr, si, orr, oi, d

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        sr, si, orr, oi, d = self._aligned(other)
        return ExactMatrix(sr + orr, si + oi, d)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        sr, si, orr, oi, d = self._aligned(other)
        return ExactMatrix(sr - orr, si - oi, d)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(-self.re, -self.im, self.den)

    def half(self) -> "ExactMatrix":
        return ExactMatrix(self.re, self.im, self.den + 1)

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


_Monomial = tuple[np.ndarray, np.ndarray, np.ndarray]


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^0 .. i^3 as (re, im)
_I_POWER_RE, _I_POWER_IM = np.array(_I_POWERS, dtype=np.int64).T


def _monomial_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per symbol s and row bit b: the column of the one nonzero entry of
    the 2 x 2 Pauli matrix, and that entry as a power of i."""
    col = np.zeros((4, 2), dtype=np.int64)
    power = np.zeros((4, 2), dtype=np.int64)
    for s, (re, im) in _PAULI.items():
        for b in (0, 1):
            c = int(np.argmax(np.abs(re[b]) + np.abs(im[b])))
            col[s, b] = c
            power[s, b] = _I_POWERS.index((int(re[b, c]), int(im[b, c])))
    return col, power


_COL, _I_POWER = _monomial_tables()


def _sigma_monomial(word: Sequence[int]) -> _Monomial:
    """(perm, phase_re, phase_im): row r has its only entry at column perm[r].

    Qubit 0 is the most significant bit of a row index.
    """
    if any(s not in _PAULI for s in word):
        raise ValueError(f"not a GF(4) word: {tuple(word)}")
    n = len(word)
    syms = np.array(word, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1)
    bits = (np.arange(1 << n)[:, None] >> shifts) & 1
    perm = _COL[syms, bits] @ (1 << shifts)
    power = _I_POWER[syms, bits].sum(axis=1) & 3
    return perm, _I_POWER_RE[power], _I_POWER_IM[power]


def _apply_monomial_left(mono: _Monomial, m: ExactMatrix) -> ExactMatrix:
    """sigma @ m without a dense product: row r is phase[r] * row perm[r] of m."""
    perm, ph_re, ph_im = mono
    re = ph_re[:, None] * m.re[perm] - ph_im[:, None] * m.im[perm]
    im = ph_re[:, None] * m.im[perm] + ph_im[:, None] * m.re[perm]
    return ExactMatrix(re, im, m.den)


def _apply_monomial_right(m: ExactMatrix, mono: _Monomial) -> ExactMatrix:
    """m @ sigma without a dense product: column perm[r] is phase[r] * column r of m."""
    perm, ph_re, ph_im = mono
    re = np.empty_like(m.re)
    im = np.empty_like(m.im)
    re[:, perm] = m.re * ph_re - m.im * ph_im
    im[:, perm] = m.re * ph_im + m.im * ph_re
    return ExactMatrix(re, im, m.den)


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
        if any(s not in _PAULI for f in self.basis for s in f):
            raise ValueError("basis symbols must be GF(4) elements 0..3")
        packed = [pack_gf4(f) for f in self.basis]
        for i, x in enumerate(packed):
            for y in packed[i + 1 :]:
                if symplectic_form(x, y, n):
                    raise ValueError("basis is not isotropic: operators would not commute")
        if binary_code(2 * n, packed).k_dim != len(self.basis):
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
    """P = prod_i (I + mu_i sigma(f_i)) / 2, an exact orthogonal projector.

    Each factor multiplies P from the right as a column permutation with
    phases, at O(4^n) per generator.
    """
    if n is None:
        if not spec.basis:
            raise ValueError("empty spec needs an explicit n")
        n = spec.n
    elif spec.basis and n != spec.n:
        raise ValueError(f"n={n} but the basis vectors have length {spec.n}")
    _check_n(n, max_n)
    p = ExactMatrix.identity(1 << n)
    for f, m in zip(spec.basis, spec.mu):
        perm, ph_re, ph_im = _sigma_monomial(f)
        p = (p + _apply_monomial_right(p, (perm, m * ph_re, m * ph_im))).half()
    return p


def proportionality(m: ExactMatrix, p: ExactMatrix) -> tuple[bool, Fraction, Fraction]:
    """Decide m == lambda * p exactly (p must have nonzero trace).

    Cross-multiplication keeps everything in integers: m and lambda*p
    agree iff m * tr(p) == p * tr(m) entrywise over the common
    denominator.
    """
    pr = int(np.trace(p.re))
    pi = int(np.trace(p.im))
    if pr == 0 and pi == 0:
        raise ValueError("reference matrix has zero trace")
    mr = int(np.trace(m.re))
    mi = int(np.trace(m.im))
    lhs_re = m.re * pr - m.im * pi
    lhs_im = m.re * pi + m.im * pr
    rhs_re = p.re * mr - p.im * mi
    rhs_im = p.re * mi + p.im * mr
    ok = bool(np.array_equal(lhs_re, rhs_re) and np.array_equal(lhs_im, rhs_im))
    norm = pr * pr + pi * pi
    scale = Fraction(1 << p.den, 1 << m.den)
    lam_re = Fraction(mr * pr + mi * pi, norm) * scale
    lam_im = Fraction(mi * pr - mr * pi, norm) * scale
    return ok, lam_re, lam_im


@dataclass(frozen=True)
class _RangeBasis:
    """Certified B = P[:, J] spanning range(P), with B^dagger and B^dagger B."""

    n: int
    rank: int
    b: ExactMatrix
    b_adj: ExactMatrix
    gram: ExactMatrix


def range_basis(p: ExactMatrix) -> _RangeBasis:
    """The certified range basis B = P[:, J] of P, made on the first call
    and cached on P.

    J holds the columns whose first nonzero entry is on the diagonal, so
    B^dagger B = P[J, J] is diagonal and positive once P B = B.  With P
    Hermitian, P B = B and |J| = tr(P) = sum |P_ij|^2 prove that P is
    the orthogonal projector onto span(B) (see the module docstring).
    Raises ValueError when P is not an orthogonal projector, or is one
    that the rule does not fit (|J| < tr(P)); every stabilizer projector
    fits it.
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
    # below, up to proportionality's cross products, is at most
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
    b = ExactMatrix(re[:, cols], im[:, cols], den)
    if p @ b != b:
        raise ValueError("P B != B for the chosen columns, so not an orthogonal projector")
    if len(cols) != rank:
        raise ValueError(
            f"{len(cols)} columns of P have their first nonzero entry on the diagonal, "
            f"not tr(P) = {rank}: not a stabilizer projector"
        )
    # B^dagger B = (P^dagger P)[J, J] = (P B)[J] = P[J, J], as P = P^dagger
    # and P B = B: diagonal and positive, so nonsingular
    gram = ExactMatrix(re[np.ix_(cols, cols)], im[np.ix_(cols, cols)], den)
    return _RangeBasis(n=n, rank=rank, b=b, b_adj=b.conj_transpose(), gram=gram)


def check_error(p: ExactMatrix, word: Sequence[int]) -> tuple[bool, Fraction, Fraction]:
    """Is sigma(word) detectable: P E P == lambda P exactly?

    Decided as B^dagger (E B) == lambda B^dagger B on the certified range
    basis B = P[:, J] of P, J the columns whose first nonzero entry is on
    the diagonal (see ``range_basis`` and the module docstring).  E B is
    a row permutation with phases, O(2^n * r) for r = tr(P), and
    B^dagger (E B) costs O(2^n * r^2).  The certificate is made on the
    first call for P and cached on it; a P that fails it raises
    ValueError.  lambda is tr(E P) / tr(P), which equals
    tr(P E P) / tr(P) whether or not the word is detectable.
    """
    basis = range_basis(p)
    if len(word) != basis.n:
        raise ValueError(f"word of length {len(word)} on {basis.n} qubits")
    mono = _sigma_monomial(word)
    ok, _, _ = proportionality(basis.b_adj @ _apply_monomial_left(mono, basis.b), basis.gram)
    perm, ph_re, ph_im = mono
    # (E P)[r, r] = phase[r] * P[perm[r], r]
    diag = np.arange(p.dim)
    d_re, d_im = p.re[perm, diag], p.im[perm, diag]
    tr_p = basis.rank << p.den
    return (
        ok,
        Fraction(int(ph_re @ d_re - ph_im @ d_im), tr_p),
        Fraction(int(ph_re @ d_im + ph_im @ d_re), tr_p),
    )


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
    """Verify P E P = lambda_E P for every Pauli error of weight < dmax."""
    n = p.dim.bit_length() - 1
    if 1 << n != p.dim:
        raise ValueError("projector dimension is not a power of two")
    if dmax > n + 1:
        raise ValueError("dmax exceeds the number of coordinates + 1")
    checked = 0
    violations: list[tuple[int, ...]] = []
    for w in range(1, dmax):
        for word in weight_words(n, w):
            ok, _, _ = check_error(p, word)
            checked += 1
            if not ok:
                violations.append(word)
                if len(violations) >= MAX_VIOLATIONS:
                    return DetectabilityReport(
                        n=n, dmax=dmax, checked=checked, passed=False,
                        violations=tuple(violations), rationale=_RATIONALE,
                    )
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
