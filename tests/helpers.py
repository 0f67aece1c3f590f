"""Test-only constructions and inverses that no code in agstab calls.

- ``random_dual_containing_code``: seeded random codes C >= C_perp;
- ``symplectic_form`` and ``symplectic_dual``: the form on packed (a|b)
  vectors and the form-dual of a ``SymplecticCode``;
- ``report_from_obj``: the inverse of ``artifacts.report_to_obj``.
"""

from __future__ import annotations

import random
from typing import Any

import numpy as np

from agstab.artifacts import _expect_kind
from agstab.fields import Field
from agstab.linear import LinearCode, code_from_matrix, from_symbols, nullspace, reduce, rref
from agstab.symplectic import QuantumCodeReport, SymplecticCode, _certified


def combine(coeffs, mat: np.ndarray, field: Field) -> np.ndarray:
    """The kernel rows sum_i c[i] * mat[i], one per vector c on the last axis of ``coeffs``."""
    c = np.asarray(coeffs, dtype=np.intp)[..., None]
    terms = np.where(c != 0, mat, 0) if field.k == 1 else field.mul_table[c, mat]
    return np.bitwise_xor.reduce(terms, axis=-2)


def random_dual_containing_code(field: Field, n: int, rng: random.Random) -> LinearCode:
    """Seeded random code C with C >= C_perp.

    Grows a self-orthogonal seed S one vector at a time (candidates are
    drawn from the solution space of "orthogonal to S and to itself",
    the latter being linear in characteristic 2), then returns dual(S).
    """
    target = rng.randint(0, n // 2)
    # sum of coordinates = 0 makes v.v = 0
    ones = from_symbols(field, np.ones((1, n), dtype=np.uint8))
    seed = ones[:0]
    while len(seed) < target:
        rr, pv = rref(np.concatenate([seed, ones]), field, n)
        null = nullspace(rr, pv, field, n)
        span_rr, span_pv = rref(seed.copy(), field, n)
        candidate = None
        for _ in range(32):
            v = combine([rng.randrange(field.order) for _ in null], null, field)
            if reduce(v[None], span_rr, span_pv, field).any():
                candidate = v
                break
        if candidate is None:
            break  # solution space exhausted below the target dimension
        seed = np.concatenate([seed, candidate[None]])
    return code_from_matrix(field, n, seed).dual()


def symplectic_form(x: int, y: int, n: int) -> int:
    """sum_j a_j b'_j + a'_j b_j over GF(2)."""
    mask = (1 << n) - 1
    ax, bx = x & mask, x >> n
    ay, by = y & mask, y >> n
    if bx >> n or by >> n:
        raise ValueError("vector longer than 2n bits")
    return ((ax & by).bit_count() + (ay & bx).bit_count()) & 1


def symplectic_dual(code: SymplecticCode) -> SymplecticCode:
    """The form-dual, with flags recomputed; dim F + dim F^dual = 2n."""
    return _certified(code.n, code.dual_space, code.space)


def report_from_obj(obj: dict[str, Any]) -> QuantumCodeReport:
    _expect_kind(obj, "quantum_code_report")
    wit = obj.get("d_witness")
    return QuantumCodeReport(
        n=obj["n"],
        k_q=obj["k_q"],
        d_q=obj["d_q"],
        d_exact=obj["d_exact"],
        d_witness=tuple(wit) if wit is not None else None,
        trace=tuple(obj["trace"]),
    )
