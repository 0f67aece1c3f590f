"""GF(2^k) arithmetic for k <= 8.

Field elements are plain ints whose bits are the coordinates in the
polynomial basis; multiplication is table-driven.  One primitive
modulus is pinned per degree so that serialized artifacts are
bit-identical across runs and machines:

    k=2 : x^2 + x + 1
    k=3 : x^3 + x + 1
    k=4 : x^4 + x + 1
    k=5 : x^5 + x^2 + 1
    k=6 : x^6 + x + 1
    k=7 : x^7 + x + 1
    k=8 : x^8 + x^4 + x^3 + x^2 + 1

`trace` maps to GF(2), and `self_dual_basis` finds a trace-orthonormal
basis by deterministic backtracking; such a basis exists for every
GF(2^k) over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_MODULI = {
    1: 0b10,  # x: GF(2) needs no reduction, kept for loop uniformity
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
}


class Field:
    """Arithmetic context for GF(2^k), immutable after construction."""

    __slots__ = (
        "k", "modulus", "order", "generator", "exp", "log", "trace_table",
        "mul_table", "inv_table",
    )

    def __init__(self, k: int) -> None:
        if k not in _MODULI:
            raise ValueError(f"unsupported extension degree k={k}; must be in 1..8")
        self.k = k
        self.modulus = _MODULI[k]
        self.order = 1 << k
        self.generator = 2 if k > 1 else 1

        self.exp: list[int] = [0] * (self.order - 1)
        self.log: list[int] = [0] * self.order
        val = 1
        for i in range(self.order - 1):
            if i > 0 and val == 1:
                raise RuntimeError(f"internal: generator of GF(2^{k}) has order {i}")
            self.exp[i] = val
            self.log[val] = i
            val = self._mul_raw(val, self.generator)
        if val != 1:
            raise RuntimeError(f"internal: generator of GF(2^{k}) does not cycle")

        self.trace_table: list[int] = [0] * self.order
        for x in range(self.order):
            t = x
            cur = x
            for _ in range(k - 1):
                cur = self._mul_raw(cur, cur)
                t ^= cur
            if t not in (0, 1):
                raise RuntimeError(f"internal: trace of {x} not in GF(2)")
            self.trace_table[x] = t

        # uint8 tables for the numpy row-reduction kernels in ``linear``:
        # mul_table[a, b] = a*b and inv_table[a] = 1/a (inv_table[0] = 0).
        exp = np.array(self.exp * 2, dtype=np.uint8)
        log = np.array(self.log, dtype=np.intp)
        self.mul_table = exp[log[:, None] + log[None, :]]
        self.mul_table[0, :] = 0
        self.mul_table[:, 0] = 0
        self.inv_table = exp[-log % (self.order - 1)]
        self.inv_table[0] = 0

    def _mul_raw(self, a: int, b: int) -> int:
        """Carry-less multiply modulo the pinned polynomial (table-free)."""
        p = 0
        top = 1 << self.k
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a & top:
                a ^= self.modulus
            b >>= 1
        return p

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        s = self.log[a] + self.log[b]
        if s >= self.order - 1:
            s -= self.order - 1
        return self.exp[s]

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self.exp[(self.log[a] * e) % (self.order - 1)]

    def trace(self, x: int) -> int:
        """Tr(x) = x + x^2 + x^4 + ... + x^(2^(k-1)), landing in {0, 1}."""
        return self.trace_table[x]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.k == self.k

    def __hash__(self) -> int:
        return hash(("Field", self.k))

    def __repr__(self) -> str:
        return f"GF(2^{self.k})"


@lru_cache(maxsize=None)
def get_field(k: int) -> Field:
    """Shared, cached context per degree; safe to reuse everywhere."""
    return Field(k)


# GF(4) symbols.  The two order-3 elements are the generator and its
# square; conjugation (squaring) swaps them and fixes 0 and 1.
EPS = 2
EPS_BAR = 3


def ordered_elements(field: Field) -> list[int]:
    """Zero first, then ascending powers of the generator."""
    return [0] + list(field.exp)


@dataclass(frozen=True)
class SelfDualBasis:
    """Basis of GF(2^k) over GF(2) whose trace-Gram matrix is the identity."""

    field: Field
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        f = self.field
        if len(self.elements) != f.k:
            raise ValueError(f"need {f.k} basis elements, got {len(self.elements)}")
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                want = 1 if i == j else 0
                if f.trace(f.mul(a, b)) != want:
                    raise ValueError(
                        f"trace-Gram is not the identity at ({i},{j})"
                    )


def self_dual_basis(field: Field) -> SelfDualBasis:
    """Deterministic search for a trace-orthonormal basis.

    Candidates are the trace-one elements in generator-power order;
    backtracking only needs the pairwise conditions because a
    trace-orthonormal set is automatically independent.
    """
    f = field
    k = f.k
    cand = [e for e in ordered_elements(f)[1:] if f.trace(e) == 1]
    m = len(cand)
    # ok[i]: bitmask of j with Tr(cand_i * cand_j) = 0
    ok = []
    for i in range(m):
        mask = 0
        for j in range(m):
            if f.trace(f.mul(cand[i], cand[j])) == 0:
                mask |= 1 << j
        ok.append(mask)

    chosen: list[int] = []
    if not _extend_orthonormal(ok, k, (1 << m) - 1, 0, chosen):
        raise RuntimeError(f"internal: no self-dual basis found for GF(2^{k})")
    return SelfDualBasis(field=f, elements=tuple(cand[i] for i in chosen))


def _extend_orthonormal(ok: list[int], k: int, avail: int, start: int, chosen: list[int]) -> bool:
    """Extend ``chosen`` depth first to the lexicographically first k
    pairwise-orthogonal indices from ``start`` in ``avail``; module-level,
    unlike a closure, so a search leaves no reference cycle."""
    if len(chosen) == k:
        return True
    need = k - len(chosen)
    for i in range(start, len(ok)):
        if avail >> i & 1:
            if (avail >> i).bit_count() < need:
                return False
            chosen.append(i)
            if _extend_orthonormal(ok, k, avail & ok[i], i + 1, chosen):
                return True
            chosen.pop()
    return False


def element_hex_width(field: Field) -> int:
    return 1 if field.k <= 4 else 2


def element_to_hex(field: Field, x: int) -> str:
    """Lowercase hex mask of the polynomial-basis coordinates."""
    if not 0 <= x < field.order:
        raise ValueError(f"not a {field} element: {x}")
    return format(x, f"0{element_hex_width(field)}x")


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


# Value of each ASCII byte as a lowercase hex digit; 16 marks any other byte.
_HEX_VALUES = np.full(256, 16, dtype=np.uint8)
_HEX_VALUES[_HEX_DIGITS] = np.arange(16)


def symbols_to_hex(field: Field, symbols: np.ndarray) -> list[str]:
    """Hex rows of a uint8 matrix of field elements, ``element_to_hex`` per symbol."""
    m, n = symbols.shape
    width = element_hex_width(field)
    if width == 2:
        digits = np.stack((_HEX_DIGITS[symbols >> 4], _HEX_DIGITS[symbols & 15]), axis=-1)
    else:
        digits = _HEX_DIGITS[symbols]
    return [row.tobytes().decode("ascii") for row in digits.reshape(m, width * n)]


def hex_to_symbols(field: Field, texts: list[str], n: int) -> np.ndarray:
    """uint8 matrix of n field elements per lowercase hex row; inverse of ``symbols_to_hex``."""
    width = element_hex_width(field)
    for text in texts:
        if len(text) != width * n:
            raise ValueError(f"hex row of {len(text)} digits, not {width * n} for n = {n}")
    try:
        raw = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        raise ValueError("non-hex character in a hex row") from None
    if field.k == 1:  # digits 0 and 1 only; subtracting is 20 times faster than the gather
        bits = (raw - np.uint8(48)).reshape(len(texts), n)
        if bits.max(initial=0) <= 1:
            return bits
    digits = _HEX_VALUES[raw].reshape(len(texts), n, width)
    if (digits > 15).any():
        raise ValueError("non-hex character in a hex row; digits are 0-9 and a-f")
    symbols = digits[..., 0] if width == 1 else digits[..., 0] << 4 | digits[..., 1]
    if (symbols >= field.order).any():
        raise ValueError(f"hex symbol {int(symbols.max())} outside {field}")
    return symbols
