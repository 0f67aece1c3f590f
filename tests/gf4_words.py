"""GF(4) words packed as (a|b) binary vectors, the tests' inverse of ``unpack_gf4``."""

from agstab.symplectic import unpack_gf4

# The (a, b) bits of each GF(4) symbol, read off unpack_gf4 on one coordinate.
_BITS = {unpack_gf4(a | b << 1, 1)[0]: (a, b) for a in (0, 1) for b in (0, 1)}


def pack_gf4(symbols):
    """GF(4)^n symbol vector -> packed (a|b) binary vector of length 2n."""
    n = len(symbols)
    v = 0
    for j, s in enumerate(symbols):
        a, b = _BITS[s]
        v |= a << j | b << (n + j)
    return v
