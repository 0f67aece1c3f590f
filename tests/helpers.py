"""Test-only constructions and inverses that no code in agstab calls.

- ``random_dual_containing_code``: seeded random codes C >= C_perp;
- ``generators``: a code's rows as symbol tuples;
- ``symplectic_form`` and ``symplectic_dual``: the form on packed (a|b)
  vectors and the form-dual of a ``SymplecticCode``;
- ``code_from_obj`` and ``report_from_obj``: the inverses of
  ``artifacts.code_to_obj`` and ``artifacts.report_to_obj``;
- ``parse_csv``: the inverse of ``bounds.emit_csv``;
- oracles, the routes that faster ones replaced: ``extend_basis_rowwise``
  (``extension_rows`` as every generator reduced on its bits, then one
  echelon step per row),
  ``second_or_weight_pairwise`` (one OR and popcount per word against
  every later word) and ``krawtchouk_sum`` (the binomial sum).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any

import numpy as np

from agstab.artifacts import _expect_kind
from agstab.bounds import BoundCurve, CurveSample
from agstab.fields import Field, get_field, hex_to_symbols
from agstab.errors import BudgetExceeded
from agstab.linear import (
    GF2,
    LinearCode,
    code_from_matrix,
    from_symbols,
    gray_span,
    nullspace,
    reduce,
    rref,
    to_rows,
    to_symbols,
)
from agstab.symplectic import QuantumCodeReport, SymplecticCode, make_symplectic


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


def generators(code: LinearCode) -> tuple[tuple[int, ...], ...]:
    """Rows as symbol tuples over any field."""
    symbols = to_symbols(code.field, code.matrix, code.n)
    return tuple(tuple(row.tolist()) for row in symbols)


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
    return make_symplectic(code.n, code.dual_space.bit_rows)


def code_from_obj(obj: dict[str, Any]) -> LinearCode:
    field = get_field(obj["field_k"])
    n = obj["n"]
    return code_from_matrix(field, n, from_symbols(field, hex_to_symbols(field, obj["generators"], n)))


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


def parse_csv(path: str | Path) -> list[BoundCurve]:
    """Inverse of emit_csv.

    Rows are grouped into one curve while the source root stays the
    same and delta keeps increasing; either break starts a new curve.
    """
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or text[0] != "delta,R,source":
        raise ValueError("not a bound-curve CSV")
    curves: list[BoundCurve] = []
    current: list[CurveSample] = []
    prev_source: str | None = None
    prev_delta: Fraction | None = None

    def flush() -> None:
        if current:
            curves.append(BoundCurve(tuple(current)))
            current.clear()

    for line in text[1:]:
        d_text, r_text, tag = line.split(",", 2)
        delta = Fraction(d_text)
        m = None
        source = tag
        if tag.endswith(")") and "(m=" in tag:
            source, m_text = tag[:-1].split("(m=")
            m = int(m_text)
        if source != prev_source or (prev_delta is not None and delta <= prev_delta):
            flush()
        current.append(CurveSample(delta=delta, r=float(r_text), source=source, m=m))
        prev_source = source
        prev_delta = delta
    flush()
    return curves


def extend_basis_rowwise(sub: LinearCode, sup: LinearCode) -> list[int]:
    """All dim(sub + sup) - dim sub rows extending ``sub``, as
    ``linear.extension_rows`` returns them, by the route it replaced:
    every generator of ``sup`` reduced modulo ``sub`` on its bits, then
    each nonzero remainder, in order, kept and cleared at its lowest set
    bit from the later ones."""
    rem = reduce(sup.matrix, sub.matrix, sub.pivots, GF2)
    kept = []
    for i, row in enumerate(rem):
        nonzero = np.flatnonzero(row)
        if not nonzero.size:
            continue
        w = int(nonzero[0])
        word = int(row[w])
        bit = np.uint64((word & -word).bit_length() - 1)
        later = i + 1 + np.flatnonzero((rem[i + 1 :, w] >> bit) & np.uint64(1))
        rem[later, w:] ^= row[w:]
        kept.append(i)
    return to_rows(rem[kept])


def second_or_weight_pairwise(code: LinearCode, budget: int) -> int:
    """The OR-weight over pairs of distinct nonzero words, each word ORed
    with every later one."""
    m = (1 << code.k_dim) - 1
    pairs = m * (m - 1) // 2
    if pairs > budget:
        raise BudgetExceeded(f"{pairs} codeword pairs exceed budget {budget}")
    words = np.concatenate(list(gray_span(code.matrix)))[1:]  # drop zero
    return min(int(np.bitwise_count(words[i] | words[i + 1 :]).sum(axis=1).min()) for i in range(m - 1))


def krawtchouk_sum(n: int, w: int) -> list[int]:
    """K_0(w)..K_n(w) = [y^j] (1 + 3y)^(n-w) (1 - y)^w, each as its binomial sum."""
    return [
        sum(
            (-1) ** s * comb(w, s) * comb(n - w, j - s) * 3 ** (j - s)
            for s in range(max(0, j - n + w), min(j, w) + 1)
        )
        for j in range(n + 1)
    ]
