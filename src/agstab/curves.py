"""One-point evaluation codes on the projective line and Hermitian curves.

The Hermitian curve x^(q+1) = y^q + y over GF(q^2) has q^3 affine
rational points and genus q(q-1)/2; the distinguished point sits at
infinity, where x has pole order q and y pole order q+1.  Monomials
x^i y^j with j < q therefore give an explicit basis of the one-point
Riemann-Roch space, and evaluation at the affine points yields the
codes.  The projective line (genus 0) is the same machinery with plain
polynomials.

Dual containment needs no twist.  The n points are all the affine
points, the zeros of t = x^q - x on the line (t = x^(q^2) - x on the
Hermitian curve), and the differential dt/t has residue 1 at each of
them, so ev_a^perp = ev_(n+2g-2-a) (Stichtenoth, "A note on Hermitian
codes over GF(q^2)", IEEE Trans. IT, 1988; *Algebraic Function Fields
and Codes*, ch. 2).  The twist vector is therefore w = 1, ev_a is
self-orthogonal whenever 2a <= n + 2g - 2, and the chain codes are the
plain duals C = ev_a^perp and C' = ev_a'^perp, so C_perp = ev_a is
known from the construction.  One containment, C >= ev_a, certifies
it at every degree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CertificationError, TwistSearchError
from .fields import Field, get_field, ordered_elements
from .linear import LinearCode, code_from_matrix, from_symbols

_HERMITIAN_Q = (2, 4, 8)

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


def curve_genus(kind: str, q: int) -> int:
    """q(q-1)/2 for the Hermitian curve over GF(q^2), 0 for the line."""
    if kind == LINE:
        return 0
    if kind == HERMITIAN:
        return q * (q - 1) // 2
    raise ValueError(f"unknown curve kind {kind!r}")


def designed_distance(a: int, genus: int) -> int:
    """max(1, a - 2g + 2): the designed distance of ev_a^perp."""
    return max(1, a - 2 * genus + 2)


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
        return Curve(kind=LINE, field=field, q=q, genus=curve_genus(LINE, q), points=tuple(pts))
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
            kind=HERMITIAN, field=field, q=q, genus=curve_genus(HERMITIAN, q), points=tuple(pts)
        )
    raise ValueError(f"unknown curve kind {kind!r}")


def pole_order(curve: Curve, monomial: tuple[int, int]) -> int:
    i, j = monomial
    if curve.kind == LINE:
        return i
    return curve.q * i + (curve.q + 1) * j


def rr_basis(curve: Curve, a: int) -> tuple[tuple[int, int], ...]:
    """Monomials x^i y^j with pole order <= a at infinity, sorted by pole order.

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
    return tuple(monos)


def _monomial_values(
    field: Field, monomials: Sequence[tuple[int, int]], points: Sequence[tuple[int, int]]
) -> np.ndarray:
    """uint8 matrix of x^i y^j, one row per monomial (i, j) and one column per point (x, y).

    Each coordinate's powers v^0 = 1, v^1, ... up to the largest
    exponent are tabled by repeated ``mul_table`` products (so 0^0 = 1),
    and a monomial's row is the product of its two gathered power rows.
    """
    exponents = np.array(monomials, dtype=np.intp).reshape(-1, 2)
    coords = np.array(points, dtype=np.uint8).reshape(-1, 2)
    rows = []
    for axis in range(2):
        e = exponents[:, axis]
        powers = np.ones((e.max(initial=0) + 1, len(coords)), dtype=np.uint8)
        for t in range(1, len(powers)):
            powers[t] = field.mul_table[powers[t - 1], coords[:, axis]]
        rows.append(powers[e])
    return field.mul_table[rows[0], rows[1]]


def evaluation_code(curve: Curve, a: int) -> LinearCode:
    """Image of evaluating the degree-a basis at every affine point."""
    n = curve.n_points
    if a >= n:
        raise ValueError(f"a={a} >= n={n}: evaluation is not injective")
    if a < 2 * curve.genus - 1:
        warnings.warn(
            f"a={a} below 2g-1={2 * curve.genus - 1}: dimension may differ from a-g+1",
            stacklevel=2,
        )
    basis = rr_basis(curve, a)
    field = curve.field
    values = _monomial_values(field, basis, curve.points)
    code = code_from_matrix(field, n, from_symbols(field, values))
    if a >= 2 * curve.genus - 1 and code.k_dim != len(basis):
        raise CertificationError(
            f"evaluation rank {code.k_dim} != basis size {len(basis)}"
        )
    return code


@dataclass(frozen=True)
class TwistSolution:
    """The code that certified the twist w = 1 over every point."""

    c: LinearCode  # ev_a^perp
    regime: str  # "standard" | "extended"
    attempts: int  # always 1: w = 1 is the only candidate


def solve_twist_vector(curve: Curve, a: int, allow_extended: bool = False) -> TwistSolution:
    """The twist of the degree-a code: w = 1 on every point, certified.

    The residue-1 differential dt/t gives ev_a^perp = ev_(n+2g-2-a), so
    w = 1 makes ev_a self-orthogonal whenever 2a <= n + 2g - 2.  One
    containment checks that rather than assuming it: C = ev_a^perp >= ev_a,
    and C is returned.  A failed containment raises
    TwistSearchError.  The divisor bound 2a <= n + g - 2 is enforced
    unless ``allow_extended`` is set, in which case the regime is
    recorded.

    A test checks this against the solution space of the bilinear system
    sum_i w_i f(P_i) g(P_i) = 0 over all basis pairs (f, g), with
    ``allow_extended``, at every a < n on the line for q = 4, 8, 16 and
    the Hermitian curve for q = 2, 4, and at a = 269, 270, 283, 284 for
    Hermitian q = 8.  There the space contains w = 1 exactly when the
    containment holds and is {0} otherwise, so no other twist exists.
    """
    n = curve.n_points
    standard = 2 * a <= n + curve.genus - 2
    if not standard and not allow_extended:
        raise ValueError(
            f"2a={2 * a} exceeds n'+g-2={n + curve.genus - 2}; "
            "pass allow_extended to try anyway"
        )

    # Defining property, checked rather than assumed.
    ev = evaluation_code(curve, a)
    c = ev.dual()
    if not c.contains(ev):
        raise TwistSearchError(
            f"ev_{a} is not self-orthogonal under w = 1 "
            f"(2a={2 * a}, n+2g-2={n + 2 * curve.genus - 2})"
        )

    return TwistSolution(c=c, regime="standard" if standard else "extended", attempts=1)


@dataclass(frozen=True)
class DualChainTriple:
    """Certified chain C' > C >= C_perp over one field, with provenance.

    The twist and scaling are w = v = 1 on all n points, none dropped,
    on every chain, so they are not stored.
    """

    c: LinearCode
    c_prime: LinearCode
    curve_kind: str
    q: int
    genus: int
    a: int
    a_prime: int
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

    The twist w = 1 serves both degrees.  C >= C_perp comes certified
    with the twist; C' = ev_a'^perp, C' >= C and both dimensions are
    verified exactly here; failure raises.
    """
    g = curve.genus
    if a_prime >= a:
        raise ValueError(f"need a' < a for a strict enlargement, got a'={a_prime}, a={a}")
    if a_prime < 2 * g - 1:
        raise ValueError(f"need a' >= 2g-1 = {2 * g - 1}, got {a_prime}")

    tw = solve_twist_vector(curve, a, allow_extended=allow_extended)
    n = curve.n_points  # a < n: the twist's evaluation code checked it
    c = tw.c
    c_prime = evaluation_code(curve, a_prime).dual()

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
        regime=tw.regime,
        designed_d=designed_distance(a, g),
        designed_d_prime=designed_distance(a_prime, g),
    )
