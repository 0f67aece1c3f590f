"""Symbolwise binary expansion of GF(2^k) codes in a self-dual basis.

Expanding in a trace-orthonormal basis makes binary expansion commute
with duality, so dual-containing codes descend to dual-containing
binary codes.  Bit layout: symbol j occupies bit positions j*k ..
j*k + k - 1, basis-index-major, so per-symbol weight accounting stays
contiguous and artifacts are bit-exact.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .fields import Field, SelfDualBasis
from .linear import (
    GF2,
    LinearCode,
    code_from_rref,
    from_symbols,
    to_matrix,
    to_symbols,
)
from .curves import DualChainTriple

# Generator rows expanded per block; bounds the unpacked scratch of
# expand_code at 16 * k^2 * n bytes.
_EXPAND_BLOCK = 16


@dataclass(frozen=True)
class ExpansionMap:
    """A field together with the self-dual basis used for descent."""

    field: Field
    basis: SelfDualBasis

    def __post_init__(self) -> None:
        if self.basis.field != self.field:
            raise ValueError("basis belongs to a different field")
        # SelfDualBasis already validated its Gram matrix.


def expand_code(code: LinearCode, emap: ExpansionMap) -> LinearCode:
    """Binary [kn, k*dim] image of a GF(2^k) code under the expansion map.

    Rows of the image are alpha_a * g for each generator g and basis
    element alpha_a, in that order; bit j*k + i of such a row is
    Tr(alpha_a * g_j * alpha_i), read from a q x k x k table.  They are
    already in RREF: at the pivot symbol p of g, g_p = 1 and
    Tr(alpha_a alpha_i) = delta_ai, while every other generator is 0
    there.  So the pivots are p*k + a, which ``code_from_rref``
    certifies without an elimination.

    The image records (code, basis) as ``expanded_from``, so its
    ``dual`` and ``contains`` run over GF(2^k): in a self-dual basis,
    <expand x, expand y> = Tr <x, y>, so expand(C)^perp = expand(C^perp).
    """
    if code.field != emap.field:
        raise ValueError("code and expansion map use different fields")
    f = emap.field
    k = f.k
    alpha = np.array(emap.basis.elements)
    x = np.arange(f.order)
    product = f.mul_table[f.mul_table[x[:, None, None], alpha[None, :, None]], alpha]
    table = np.array(f.trace_table, dtype=np.uint8)[product]
    gens = to_symbols(f, code.matrix, code.n)
    blocks = [to_matrix(k * code.n, ())]  # the zero code's shape
    for lo in range(0, code.k_dim, _EXPAND_BLOCK):
        bits = table[gens[lo : lo + _EXPAND_BLOCK]]  # [g, j, a, i]
        bits = bits.transpose(0, 2, 1, 3).reshape(-1, k * code.n)
        blocks.append(from_symbols(GF2, bits))
    pivots = (np.array(code.pivots, dtype=np.int64)[:, None] * k + np.arange(k)).ravel()
    image = code_from_rref(GF2, k * code.n, np.concatenate(blocks), pivots)
    return dataclasses.replace(image, expanded_from=(code, emap.basis))


@dataclass(frozen=True)
class ExpandedPair:
    """Binary descent of a certified dual chain: D' > D >= D_perp."""

    d: LinearCode
    d_prime: LinearCode
    basis: SelfDualBasis
    source: DualChainTriple


def expand_chain(triple: DualChainTriple, emap: ExpansionMap) -> ExpandedPair:
    """D = expand(C) and D' = expand(C'), so D' >= D >= D_perp.

    The triple must come from ``build_dual_chain``, which certified
    C' >= C >= C_perp; nothing is rechecked here.  Expansion in a
    self-dual basis keeps both relations: it is injective and
    GF(2)-linear, so expand(C') >= expand(C) (see ``LinearCode.contains``),
    and D_perp = expand(C_perp) (see ``expand_code``).
    """
    d, d_prime = (expand_code(c, emap) for c in (triple.c, triple.c_prime))
    return ExpandedPair(d=d, d_prime=d_prime, basis=emap.basis, source=triple)
