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
and Codes*, ch. 2 and 8).  The twist vector is therefore w = 1, ev_a is
self-orthogonal whenever 2a <= n + 2g - 2, and the chain codes are the
plain duals C = ev_a^perp and C' = ev_a'^perp, so C_perp = ev_a is
known from the construction.  Self-orthogonality is a Gram identity,
sum_P f(P) g(P) = 0 over every pair of basis monomials (the residue
theorem; Høholdt, van Lint and Pellikaan, "Algebraic geometry codes",
*Handbook of Coding Theory*, 1998), so the power sums sum_P x^u y^v of
the distinct monomial sums (u, v) certify it at every degree, with no
dual.  ev_a' is spanned by a prefix of ev_a's rows, so C' >= C holds by
construction.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CertificationError
from .fields import Field, get_field, ordered_elements
from .linear import LinearCode, code_from_matrix, dual_code, from_symbols

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
    """Image of evaluating the degree-a basis at every affine point.
    Kept for the perfbench hook `curves.evaluation_code`."""
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


# Values held at once by the power-sum certificate, per block of sums.
_SUM_CELLS = 1 << 20


def _monomial_sums(basis: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every distinct (i1 + i2, j1 + j2) over pairs of basis monomials, by j then i.

    ``rr_basis`` holds every lower power of x with each monomial (the
    pole order grows with i), so with t_j the largest i at y-degree j,
    the sums at y-degree v are exactly u = 0 .. max(t_j1 + t_j2 : j1 + j2 = v).
    """
    top: dict[int, int] = {}
    for i, j in basis:
        top[j] = max(top.get(j, 0), i)
    reach: dict[int, int] = {}
    for j1, t1 in top.items():
        for j2, t2 in top.items():
            reach[j1 + j2] = max(reach.get(j1 + j2, 0), t1 + t2)
    return [(u, v) for v, t in sorted(reach.items()) for u in range(t + 1)]


def _power_sums_vanish(curve: Curve, sums: Sequence[tuple[int, int]]) -> bool:
    """Whether sum_P x^u y^v = 0 over the affine points for every (u, v).

    The sums are evaluated ``_SUM_CELLS // n`` at a time (at least one),
    so the scratch is three such blocks of uint8 values, from
    ``_monomial_values``, plus its two power tables.
    """
    rows = max(1, _SUM_CELLS // curve.n_points)
    for lo in range(0, len(sums), rows):
        values = _monomial_values(curve.field, sums[lo : lo + rows], curve.points)
        if np.bitwise_xor.reduce(values, axis=1).any():
            return False
    return True


@dataclass(frozen=True)
class TwistSolution:
    """The code that certified the twist w = 1 over every point.
    ``attempts`` is kept for the perfbench hook `curves.solve_twist_vector`."""

    c: LinearCode  # ev_a^perp
    regime: str  # "standard" | "extended"
    attempts: int  # always 1: w = 1 is the only candidate
    # ev_a's kernel rows, one per monomial of rr_basis(curve, a), read-only
    values: np.ndarray = dataclasses.field(compare=False, repr=False)


def solve_twist_vector(curve: Curve, a: int, allow_extended: bool = False) -> TwistSolution:
    """The twist of the degree-a code: w = 1 on every point, certified.

    The residue-1 differential dt/t gives ev_a^perp = ev_(n+2g-2-a), so
    w = 1 makes ev_a self-orthogonal whenever 2a <= n + 2g - 2.  That is
    checked rather than assumed, as the Gram identity it is: f g runs
    over the monomials x^u y^v of the distinct sums (u, v) of basis
    pairs, and every power sum sum_P x^u y^v must vanish.  A nonzero sum
    raises CertificationError.  C = ev_a^perp is then one elimination of
    ev_a's value rows from the right (``linear.dual_code``, the route of
    ``LinearCode.dual`` below 2k = n, certified), and C >= ev_a = C_perp
    follows.  The divisor bound 2a <= n + g - 2 is enforced unless
    ``allow_extended`` is set, in which case the regime is recorded.

    A test checks this against the solution space of the bilinear system
    sum_i w_i f(P_i) g(P_i) = 0 over all basis pairs (f, g), with
    ``allow_extended``, at every a < n on the line for q = 4, 8, 16 and
    the Hermitian curve for q = 2, 4, and at a = 269, 270, 283, 284 for
    Hermitian q = 8.  There the space contains w = 1 exactly when the
    sums vanish and is {0} otherwise, so no other twist exists.
    """
    n = curve.n_points
    standard = 2 * a <= n + curve.genus - 2
    if not standard and not allow_extended:
        raise ValueError(
            f"2a={2 * a} exceeds n'+g-2={n + curve.genus - 2}; "
            "pass allow_extended to try anyway"
        )
    if a >= n:
        raise ValueError(f"a={a} >= n={n}: evaluation is not injective")

    basis = rr_basis(curve, a)
    if not _power_sums_vanish(curve, _monomial_sums(basis)):
        raise CertificationError(
            f"ev_{a} is not self-orthogonal under w = 1 "
            f"(2a={2 * a}, n+2g-2={n + 2 * curve.genus - 2})"
        )
    f = curve.field
    values = from_symbols(f, _monomial_values(f, basis, curve.points))
    values.flags.writeable = False
    c = dual_code(f, n, values)
    return TwistSolution(c=c, regime="standard" if standard else "extended", attempts=1, values=values)


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
    with the twist.  rr_basis(curve, a') must be a prefix of
    rr_basis(curve, a), so C' = ev_a'^perp is one elimination of the
    first rows of ev_a's values, as C is of all of them, and
    C' >= C holds by construction.  Both dimensions are checked exactly
    here, which certifies both evaluation ranks; failure raises.
    """
    g = curve.genus
    if a_prime >= a:
        raise ValueError(f"need a' < a for a strict enlargement, got a'={a_prime}, a={a}")
    if a_prime < 2 * g - 1:
        raise ValueError(f"need a' >= 2g-1 = {2 * g - 1}, got {a_prime}")

    tw = solve_twist_vector(curve, a, allow_extended=allow_extended)
    n, f = curve.n_points, curve.field  # a < n: the twist checked it
    basis_prime = rr_basis(curve, a_prime)
    if rr_basis(curve, a)[: len(basis_prime)] != basis_prime:
        raise CertificationError(f"the degree-{a_prime} basis is not a prefix of the degree-{a} basis")
    c = tw.c
    c_prime = dual_code(f, n, tw.values[: len(basis_prime)])

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
