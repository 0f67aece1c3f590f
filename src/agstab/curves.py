"""One-point evaluation codes on the projective line and Hermitian curves.

The Hermitian curve x^(q+1) = y^q + y over GF(q^2) has q^3 affine
rational points and genus q(q-1)/2; the distinguished point sits at
infinity, where x has pole order q and y pole order q+1.  Monomials
x^i y^j with j < q therefore give an explicit basis of the one-point
Riemann-Roch space, and evaluation at the affine points yields the
codes.  The projective line (genus 0) is the same machinery with plain
polynomials.

Dual containment is arranged through a twist vector w: an all-nonzero
solution of the bilinear system  sum_i w_i f(P_i) g(P_i) = 0  over all
basis pairs (f, g).  With v its entrywise square root, the chain codes
are the plain duals C = (v * ev_a)^perp and C' = (v * ev_a')^perp, so
C_perp = v * ev_a is known from the construction, and one v serves both
divisor degrees.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CertificationError, TwistSearchError
from .fields import Field, get_field, ordered_elements
from .linear import (
    LinearCode,
    WeightVector,
    code_from_matrix,
    combine,
    from_symbols,
    nullspace,
    odometer,
    rref,
    to_symbols,
)

_HERMITIAN_Q = (2, 4, 8)
TWIST_SEARCH_LIMIT = 1 << 16  # combinations tried before the greedy repair

LINE = "line"
HERMITIAN = "hermitian"


@dataclass(frozen=True)
class Curve:
    """A supported curve with its ordered affine point list.

    ``q`` is the Hermitian base parameter (symbol field GF(q^2)); for
    the line it is simply the field size.  Points exclude the
    distinguished point at infinity.
    """

    kind: str
    field: Field
    q: int
    genus: int
    points: tuple[tuple[int, int], ...]

    @property
    def n_points(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"{self.kind}(q={self.q}, genus={self.genus}, points={self.n_points})"


def enumerate_curve(kind: str, q: int) -> Curve:
    """Build a curve with deterministic point order.

    Points are sorted lexicographically on (x, y) with field elements
    in generator-power order (zero first), so generator matrices are
    reproducible.
    """
    if kind == LINE:
        k = q.bit_length() - 1
        if q < 2 or q != 1 << k:
            raise ValueError(f"line needs a field size 2^k, got {q}")
        field = get_field(k)
        pts = [(x, 0) for x in ordered_elements(field)]
        return Curve(kind=LINE, field=field, q=q, genus=0, points=tuple(pts))
    if kind == HERMITIAN:
        if q not in _HERMITIAN_Q:
            raise ValueError(f"hermitian q must be one of {_HERMITIAN_Q}, got {q}")
        s = q.bit_length() - 1
        field = get_field(2 * s)
        order = ordered_elements(field)
        pts = []
        for x in order:
            lhs = field.pow(x, q + 1)
            for y in order:
                if field.add(field.pow(y, q), y) == lhs:
                    pts.append((x, y))
        if len(pts) != q**3:
            raise CertificationError(
                f"hermitian point count {len(pts)} != q^3 = {q ** 3}"
            )
        return Curve(
            kind=HERMITIAN, field=field, q=q, genus=q * (q - 1) // 2, points=tuple(pts)
        )
    raise ValueError(f"unknown curve kind {kind!r}")


@dataclass(frozen=True)
class RRBasis:
    """Monomial basis x^i y^j of the functions with pole order <= a at infinity."""

    curve: Curve
    a: int
    monomials: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.monomials)


def pole_order(curve: Curve, monomial: tuple[int, int]) -> int:
    i, j = monomial
    if curve.kind == LINE:
        return i
    return curve.q * i + (curve.q + 1) * j


def rr_basis(curve: Curve, a: int) -> RRBasis:
    """Monomials with pole order <= a, sorted by pole order.

    For a >= 2g - 1 the count is exactly a - g + 1.
    """
    if a < 0:
        raise ValueError("divisor degree must be nonnegative")
    if curve.kind == LINE:
        monos = [(i, 0) for i in range(a + 1)]
    else:
        q = curve.q
        monos = []
        for j in range(q):
            rem = a - (q + 1) * j
            if rem < 0:
                continue
            monos.extend((i, j) for i in range(rem // q + 1))
        monos.sort(key=lambda m: pole_order(curve, m))
    if a >= 2 * curve.genus - 1 and len(monos) != a - curve.genus + 1:
        raise CertificationError(
            f"basis size {len(monos)} != a - g + 1 = {a - curve.genus + 1}"
        )
    return RRBasis(curve=curve, a=a, monomials=tuple(monos))


def _monomial_values(
    field: Field, monomials: Sequence[tuple[int, int]], points: Sequence[tuple[int, int]]
) -> np.ndarray:
    """uint8 matrix of x^i y^j, one row per monomial (i, j) and one column per point (x, y).

    Powers go through the field's exp/log tables, with 0^0 = 1.
    """
    exp = np.array(field.exp, dtype=np.uint8)
    log = np.array(field.log, dtype=np.int64)
    exponents = np.array(monomials, dtype=np.int64).reshape(-1, 2)
    coords = np.array(points, dtype=np.int64).reshape(-1, 2)
    out = np.ones((len(exponents), len(coords)), dtype=np.uint8)
    for axis in range(2):
        e = exponents[:, axis, None]
        v = coords[None, :, axis]
        power = np.where(v == 0, e == 0, exp[log[v] * e % (field.order - 1)])
        out = field.mul_table[out, power]
    return out


def evaluation_code(
    curve: Curve, a: int, kept: tuple[int, ...] | None = None
) -> LinearCode:
    """Image of evaluating the degree-a basis at the (kept) points."""
    idx = tuple(range(curve.n_points)) if kept is None else kept
    pts = [curve.points[i] for i in idx]
    n = len(pts)
    if a >= n:
        raise ValueError(f"a={a} >= n={n}: evaluation is not injective")
    if a < 2 * curve.genus - 1:
        warnings.warn(
            f"a={a} below 2g-1={2 * curve.genus - 1}: dimension may differ from a-g+1",
            stacklevel=2,
        )
    basis = rr_basis(curve, a)
    field = curve.field
    values = _monomial_values(field, basis.monomials, pts)
    code = code_from_matrix(field, n, from_symbols(field, values))
    if a >= 2 * curve.genus - 1 and code.k_dim != len(basis):
        raise CertificationError(
            f"evaluation rank {code.k_dim} != basis size {len(basis)}"
        )
    return code


@dataclass(frozen=True)
class TwistSolution:
    """An all-nonzero twist vector over the retained point set."""

    weights: WeightVector
    c: LinearCode  # (sqrt(w) * ev_a)^perp, the code that certified w
    kept: tuple[int, ...]
    dropped: tuple[int, ...]
    regime: str  # "standard" | "extended"
    attempts: int


def _product_rows(curve: Curve, a: int) -> np.ndarray:
    """Evaluations of the pairwise products of the degree-a basis, one row per product monomial."""
    monos = rr_basis(curve, a).monomials
    prods = sorted(
        {(m1[0] + m2[0], m1[1] + m2[1]) for m1 in monos for m2 in monos}
    )
    return _monomial_values(curve.field, prods, curve.points)


def _all_nonzero_combination(
    basis: list[tuple[int, ...]], field: Field, limit: int
) -> tuple[list[int], int]:
    """Deterministic search for an all-nonzero vector in a spanned space.

    In echelon form every coefficient must be nonzero (each pivot
    coordinate equals its coefficient), so the search runs over the
    (q-1)^r combinations in ``odometer`` order; attempts counts them up
    to the first hit, the plain sum being the first.  Beyond ``limit``
    combinations a greedy repair pass from the plain sum is used instead.
    """
    r = len(basis)
    nz = list(field.exp)  # 1, g, g^2, ... in generator-power order
    mat = np.array(basis, dtype=np.uint8)

    if len(nz) ** r <= limit:
        seen = 0
        for coeffs in odometer(np.array(nz), r, mat.size):
            words = combine(coeffs, mat, field)
            hit = np.flatnonzero(words.all(axis=1))
            if hit.size:
                return words[hit[0]].tolist(), seen + int(hit[0]) + 1
            seen += len(words)
        raise TwistSearchError(
            "no all-nonzero combination exists in the solution space"
        )

    w = combine([1] * r, mat, field).tolist()
    attempts = 1
    # Greedy repair: accept only strictly fewer zero coordinates, so the
    # loop terminates within n steps; deterministic first-improvement.
    zeros = sum(1 for e in w if e == 0)
    while zeros:
        target = next(i for i, e in enumerate(w) if e == 0)
        improved = None
        for b in basis:
            if b[target] == 0:
                continue
            for c in nz:
                cand = [e ^ field.mul(c, be) for e, be in zip(w, b)]
                attempts += 1
                zc = sum(1 for e in cand if e == 0)
                if zc < zeros and (improved is None or zc < improved[0]):
                    improved = (zc, cand)
            if improved is not None and improved[0] == 0:
                break
        if improved is None:
            raise TwistSearchError(
                f"greedy search stalled with {zeros} zero coordinates"
            )
        zeros, w = improved
    return w, attempts


def solve_twist_vector(curve: Curve, a: int, allow_extended: bool = False) -> TwistSolution:
    """Find w (all entries nonzero) with the degree-a code w-self-orthogonal.

    Coordinates forced to zero by the constraint system are dropped
    from the point set and reported in the solution.  The divisor bound
    2a <= n' + g - 2 is enforced unless ``allow_extended`` is set, in
    which case the regime is recorded.

    One containment certifies w and the chain code C alike.  With
    v = sqrt(w) and U = v * ev_a, C = U^perp = v * (w * ev_a)^perp (x is
    orthogonal to U iff x / v is w-orthogonal to ev_a), so C_perp = U with
    no elimination; and <v e, v f> = sum_i w_i e_i f_i, so C >= U holds
    exactly when ev_a is w-self-orthogonal.  C is returned with w.
    """
    n_full = curve.n_points
    standard = 2 * a <= n_full + curve.genus - 2
    if not standard and not allow_extended:
        raise ValueError(
            f"2a={2 * a} exceeds n'+g-2={n_full + curve.genus - 2}; "
            "pass allow_extended to try anyway"
        )

    field = curve.field
    constraints = from_symbols(field, _product_rows(curve, a))
    rr, pv = rref(constraints, field, n_full)
    null = to_symbols(field, nullspace(rr, pv, field, n_full), n_full)
    if not len(null):
        raise TwistSearchError("constraint system has a trivial solution space")

    support = null.any(axis=0)
    forced = [int(i) for i in np.flatnonzero(~support)]
    kept = tuple(int(i) for i in np.flatnonzero(support))
    if not kept:
        raise TwistSearchError("every coordinate is forced to zero")
    if forced:
        null, _ = rref(from_symbols(field, null[:, kept]), field, len(kept))
        null = to_symbols(field, null, len(kept))

    basis = [tuple(r) for r in null.tolist()]
    w, attempts = _all_nonzero_combination(basis, field, TWIST_SEARCH_LIMIT)
    weights = WeightVector(field, tuple(w))

    # Defining property, checked rather than assumed.
    u = evaluation_code(curve, a, kept).scale(weights.sqrt())
    c = u.dual()
    if not c.contains(u):
        raise CertificationError("twist vector fails the self-orthogonality check")

    return TwistSolution(
        weights=weights,
        c=c,
        kept=kept,
        dropped=tuple(forced),
        regime="standard" if standard else "extended",
        attempts=attempts,
    )


@dataclass(frozen=True)
class DualChainTriple:
    """Certified chain C' > C >= C_perp over one field, with provenance."""

    c: LinearCode
    c_prime: LinearCode
    curve_kind: str
    q: int
    genus: int
    a: int
    a_prime: int
    twist: WeightVector
    scaling: WeightVector
    kept_points: tuple[int, ...]
    dropped_points: tuple[int, ...]
    regime: str
    designed_d: int
    designed_d_prime: int

    @property
    def n(self) -> int:
        return self.c.n

    @property
    def field(self) -> Field:
        return self.c.field


def build_dual_chain(
    curve: Curve,
    a: int,
    a_prime: int,
    allow_extended: bool = False,
) -> DualChainTriple:
    """Construct and certify the triple for divisor degrees a' < a.

    One twist vector serves both degrees (the smaller basis is a subset
    of the larger, so its constraints are a subset too).  C >= C_perp
    comes certified with the twist; C' = (v * ev_a')^perp, C' >= C and
    both dimensions are verified exactly here; failure raises.
    """
    g = curve.genus
    if a_prime >= a:
        raise ValueError(f"need a' < a for a strict enlargement, got a'={a_prime}, a={a}")
    if a_prime < 2 * g - 1:
        raise ValueError(f"need a' >= 2g-1 = {2 * g - 1}, got {a_prime}")

    tw = solve_twist_vector(curve, a, allow_extended=allow_extended)
    n = len(tw.kept)  # a < n: the twist's evaluation code checked it
    v = tw.weights.sqrt()
    c = tw.c
    c_prime = evaluation_code(curve, a_prime, tw.kept).scale(v).dual()

    if not c_prime.contains(c):
        raise CertificationError("C' does not contain C")
    if c.k_dim != n - a + g - 1:
        raise CertificationError(
            f"dim C = {c.k_dim} != n - a + g - 1 = {n - a + g - 1}"
        )
    if c_prime.k_dim != n - a_prime + g - 1:
        raise CertificationError(
            f"dim C' = {c_prime.k_dim} != n - a' + g - 1 = {n - a_prime + g - 1}"
        )

    return DualChainTriple(
        c=c,
        c_prime=c_prime,
        curve_kind=curve.kind,
        q=curve.q,
        genus=g,
        a=a,
        a_prime=a_prime,
        twist=tw.weights,
        scaling=v,
        kept_points=tw.kept,
        dropped_points=tw.dropped,
        regime=tw.regime,
        designed_d=max(1, a - 2 * g + 2),
        designed_d_prime=max(1, a_prime - 2 * g + 2),
    )
