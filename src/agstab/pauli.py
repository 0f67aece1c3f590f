"""Operator-level verification of stabilizer projectors at tiny qubit counts.

Everything is exact: matrices carry Gaussian-integer entries (separate
int64 real and imaginary parts) with a power-of-two denominator, so
projector identities, traces, and detectability are integer equalities,
never float comparisons.  Dense matrices are capped at 2^8; this is a
verifier for small instances, not a simulator.

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
    """(re + i*im) / 2^den with int64 numerators; normalized on creation."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re: np.ndarray, im: np.ndarray, den: int = 0):
        re = np.asarray(re, dtype=np.int64)
        im = np.asarray(im, dtype=np.int64)
        while den > 0 and not ((re & 1).any() or (im & 1).any()):
            re = re >> 1
            im = im >> 1
            den -= 1
        re.setflags(write=False)
        im.setflags(write=False)
        self.re = re
        self.im = im
        self.den = den

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

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        re = np.kron(self.re, other.re) - np.kron(self.im, other.im)
        im = np.kron(self.re, other.im) + np.kron(self.im, other.re)
        return ExactMatrix(re, im, self.den + other.den)

    def trace(self) -> tuple[Fraction, Fraction]:
        den = 1 << self.den
        return (
            Fraction(int(np.trace(self.re)), den),
            Fraction(int(np.trace(self.im)), den),
        )

    def is_zero(self) -> bool:
        return not (self.re.any() or self.im.any())

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


def sigma(word: Sequence[int], max_n: int = 6) -> ExactMatrix:
    """Tensor product of per-coordinate Pauli matrices for a GF(4)^n word."""
    n = len(word)
    _check_n(n, max_n)
    out = ExactMatrix(np.array([[1]], dtype=np.int64), np.array([[0]], dtype=np.int64))
    for s in word:
        if s not in _PAULI:
            raise ValueError(f"not a GF(4) symbol: {s}")
        re, im = _PAULI[s]
        out = out.kron(ExactMatrix(re, im))
    return out


def _check_n(n: int, max_n: int) -> None:
    cap = min(max_n, HARD_MAX_N)
    if n > cap:
        raise ValueError(f"n={n} exceeds the dense-matrix cap {cap}")


def _sigma_monomial(word: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(perm, phase_re, phase_im): row r has its only entry at column perm[r]."""
    perm = np.zeros(1, dtype=np.int64)
    ph_re = np.ones(1, dtype=np.int64)
    ph_im = np.zeros(1, dtype=np.int64)
    for s in word:
        re, im = _PAULI[s]
        qp = np.array([int(np.argmax(np.abs(re[r]) + np.abs(im[r]))) for r in (0, 1)])
        qre = np.array([re[r, qp[r]] for r in (0, 1)], dtype=np.int64)
        qim = np.array([im[r, qp[r]] for r in (0, 1)], dtype=np.int64)
        perm = (perm[:, None] * 2 + qp[None, :]).reshape(-1)
        new_re = (ph_re[:, None] * qre[None, :] - ph_im[:, None] * qim[None, :]).reshape(-1)
        new_im = (ph_re[:, None] * qim[None, :] + ph_im[:, None] * qre[None, :]).reshape(-1)
        ph_re, ph_im = new_re, new_im
    return perm, ph_re, ph_im


def _apply_monomial_left(word: Sequence[int], m: ExactMatrix) -> ExactMatrix:
    """sigma(word) @ m without a dense product (row permutation + phases)."""
    perm, ph_re, ph_im = _sigma_monomial(word)
    re = ph_re[:, None] * m.re[perm] - ph_im[:, None] * m.im[perm]
    im = ph_re[:, None] * m.im[perm] + ph_im[:, None] * m.re[perm]
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
    """P = prod_i (I + mu_i sigma(f_i)) / 2, an exact orthogonal projector."""
    if n is None:
        if not spec.basis:
            raise ValueError("empty spec needs an explicit n")
        n = spec.n
    _check_n(n, max_n)
    p = ExactMatrix.identity(1 << n)
    for f, m in zip(spec.basis, spec.mu):
        s = sigma(f, max_n=max_n)
        if m == -1:
            s = -s
        p = (p + (p @ s)).half()
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


def check_error(p: ExactMatrix, word: Sequence[int]) -> tuple[bool, Fraction, Fraction]:
    """Is sigma(word) detectable: P E P == lambda P exactly?"""
    ep = _apply_monomial_left(word, p)
    m = p @ ep
    return proportionality(m, p)


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


def find_violation(p: ExactMatrix, weight: int) -> tuple[int, ...] | None:
    """First weight-w Pauli word that is not detectable, if any."""
    n = p.dim.bit_length() - 1
    for word in weight_words(n, weight):
        ok, _, _ = check_error(p, word)
        if not ok:
            return word
    return None


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
