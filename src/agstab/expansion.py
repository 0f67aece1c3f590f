"""Symbolwise binary expansion of GF(2^k) codes in a self-dual basis.

Expanding in a trace-orthonormal basis makes binary expansion commute
with duality, so dual-containing codes descend to dual-containing
binary codes.  Bit layout: symbol j occupies bit positions j*k ..
j*k + k - 1, basis-index-major, so per-symbol weight accounting stays
contiguous and artifacts are bit-exact.

``expand_rows`` writes the packed rows without unpacking a bit: in the
row of alpha_a * g, the k bits of symbol x = g_j form one *coordinate
field* sum_i Tr(alpha_a x alpha_i) 2^i, read from a q-entry table.  The
fields of s = lcm(k, 8)/k consecutive symbols fill lcm(k, 8)/8 whole
bytes, so they are OR-shifted into one integer and copied byte by byte
into the rows; for k = 8 that is one byte lookup per symbol.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import Field, SelfDualBasis
from .linear import GF2, LinearCode, code_from_rref, to_symbols
from .curves import DualChainTriple

# Generator rows expanded per block.  A block's scratch is its symbols
# and two arrays of k * n / s field integers of b <= 8 bytes per row:
# 16 n (1 + 2kb / s) bytes, 106 KB over GF(64) at n = 512, where the bit
# table of an unpacked expansion took 16 k^2 n bytes twice, 590 KB.
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


@lru_cache(maxsize=None)
def _field_tables(basis: SelfDualBasis) -> tuple[np.ndarray, ...]:
    """The s tables of expanding in ``basis``: entry [a, x] of table t is
    the field of alpha_a * x shifted to symbol t of the s-symbol integer."""
    f = basis.field
    k = f.k
    alpha = np.array(basis.elements)
    bits = np.array(f.trace_table, dtype=np.uint64)[f.mul_table[f.mul_table[alpha][:, :, None], alpha]]
    fields = (bits << np.arange(k, dtype=np.uint64)).sum(axis=2)  # [a, x]
    span = math.lcm(k, 8)
    dtype = np.dtype("<u1" if span == 8 else "<u4" if span <= 32 else "<u8")
    tables = tuple((fields << np.uint64(t)).astype(dtype) for t in range(0, span, k))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def expand_rows(mat: np.ndarray, basis: SelfDualBasis, n: int) -> np.ndarray:
    """Packed binary rows alpha_a * g of the GF(2^k) kernel rows g of
    ``mat`` (n symbols each), g-major, in basis order; bit j*k + i of
    such a row is Tr(alpha_a * g_j * alpha_i).

    The rows are written in blocks of ``_EXPAND_BLOCK`` generators, each
    by s table gathers (see the module docstring).
    """
    k = basis.field.k
    tables = _field_tables(basis)
    s, size = len(tables), tables[0].itemsize
    nbytes = s * k // 8
    groups = -(-n // s)
    width = 8 * -(-k * n // 64)  # bytes of a packed row
    used = min(groups * nbytes, width)  # bytes past ``width`` hold padding only
    symbols = to_symbols(basis.field, mat, n)
    out = np.zeros((len(mat), k, width), dtype=np.uint8)
    for lo in range(0, len(mat), _EXPAND_BLOCK):
        rows = symbols[lo : lo + _EXPAND_BLOCK]
        block = np.zeros((len(rows), groups * s), dtype=np.uint8)
        block[:, :n] = rows
        block = block.reshape(len(rows), groups, s)
        packed = np.take(tables[0], block[:, :, 0], axis=1)  # [a, g, group]
        for t in range(1, s):
            packed |= np.take(tables[t], block[:, :, t], axis=1)
        src = packed.view(np.uint8).reshape(k, len(rows), groups, size).transpose(1, 0, 2, 3)
        dst = out[lo : lo + _EXPAND_BLOCK]
        for b in range(nbytes):
            dst[:, :, b:used:nbytes] = src[:, :, : len(range(b, used, nbytes)), b]
    return out.reshape(-1, width).view(np.dtype("<u8"))


def expand_code(code: LinearCode, emap: ExpansionMap) -> LinearCode:
    """Binary [kn, k*dim] image of a GF(2^k) code under the expansion map.

    Rows of the image are alpha_a * g for each generator g and basis
    element alpha_a, in that order (``expand_rows``); bit j*k + i of
    such a row is Tr(alpha_a * g_j * alpha_i).  They are already in
    RREF: at the pivot symbol p of g, g_p = 1 and Tr(alpha_a alpha_i) =
    delta_ai, while every other generator is 0 there.  So the pivots are
    p*k + a, which ``code_from_rref`` certifies without an elimination.

    With the output, the peak is under 900 KB for herm-m3's [512, 289]
    code over GF(64), whose 1734 x 3072-bit output is 666 KB; the bit
    table took 1.52 MB.

    The image records (code, basis) as ``expanded_from``, so its
    ``dual`` and ``contains`` run over GF(2^k): in a self-dual basis,
    <expand x, expand y> = Tr <x, y>, so expand(C)^perp = expand(C^perp).
    """
    if code.field != emap.field:
        raise ValueError("code and expansion map use different fields")
    k = emap.field.k
    mat = expand_rows(code.matrix, emap.basis, code.n)
    pivots = (np.array(code.pivots, dtype=np.int64)[:, None] * k + np.arange(k)).ravel()
    image = code_from_rref(GF2, k * code.n, mat, pivots)
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
