"""JSON serialization for every artifact kind the CLI reads and writes.

Formats (all deterministic, lowercase hex symbol rows):

  code:   {"field_k": k, "n": n, "generators": [row, ...]}
          where each row is the concatenated per-symbol hex masks
          (one digit per symbol for k <= 4, two for k <= 8).
  triple: the chain C' > C >= C^perp with full construction provenance.
  pair:   the binary descent D' > D >= D^perp of a triple.
  fcode:  a symplectic code as a binary length-2n code plus flags.
  report: quantum code parameters with the construction trace.

Every artifact that is loaded is rebuilt and must serialize to exactly
the file, apart from the CLI's ``provenance.flags``, every value in the
writer's JSON type: a triple from its construction, a pair from its
source triple and basis, and an fcode by ``make_symplectic`` from its own
rows, with its recorded ``distance_bound`` and provenance carried over
as the file holds them.  Rebuilt codes are compared with the file's
decoded rows (``_Encoded``; the fcode's rows are decoded once, for the
rebuild), so only a refusal hex-encodes a code: the one that differs.
The parameters a rebuild starts from are read first, each by its key
path and JSON type (``_value``), so a file that lacks one or holds it as
another type is refused by that path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .curves import DualChainTriple, build_dual_chain, enumerate_curve
from .expansion import ExpandedPair, ExpansionMap, expand_chain
from .fields import SelfDualBasis, element_to_hex, hex_to_symbols, symbols_to_hex
from .linear import GF2, LinearCode, from_symbols, to_rows, to_symbols
from .symplectic import QuantumCodeReport, SymplecticCode, make_symplectic


# Kernel-matrix rows that code_to_obj unpacks at a time, so that its
# scratch is a few arrays of _HEX_BLOCK * n bytes beside the output.
_HEX_BLOCK = 256


def code_to_obj(code: LinearCode) -> dict[str, Any]:
    f = code.field
    return {
        "field_k": f.k,
        "n": code.n,
        "generators": [
            text
            for i in range(0, code.k_dim, _HEX_BLOCK)
            for text in symbols_to_hex(f, to_symbols(f, code.matrix[i : i + _HEX_BLOCK], code.n))
        ],
    }


def triple_to_obj(t: DualChainTriple, encode: Callable | None = None) -> dict[str, Any]:
    encode = encode or code_to_obj
    return {
        "kind": "dual_chain_triple",
        "field_k": t.field.k,
        "n": t.n,
        "c": encode(t.c),
        "c_prime": encode(t.c_prime),
        "provenance": {
            "curve": {"kind": t.curve_kind, "q": t.q, "genus": t.genus},
            "a": t.a,
            "a_prime": t.a_prime,
            # w = v = 1 with all n points kept, the same on every chain
            "twist_w": [element_to_hex(t.field, 1)] * t.n,
            "scaling_v": [element_to_hex(t.field, 1)] * t.n,
            "kept_points": list(range(t.n)),
            "dropped_points": [],
            "regime": t.regime,
            "designed_d": t.designed_d,
            "designed_d_prime": t.designed_d_prime,
        },
    }


def triple_from_obj(obj: dict[str, Any]) -> DualChainTriple:
    """The triple rebuilt, and so certified, by ``build_dual_chain`` from the file's parameters."""
    _expect_kind(obj, "dual_chain_triple")
    kind, q, a, a_prime, regime = (
        _value(obj, path, want)
        for path, want in (
            (("provenance", "curve", "kind"), str),
            (("provenance", "curve", "q"), int),
            (("provenance", "a"), int),
            (("provenance", "a_prime"), int),
            (("provenance", "regime"), str),
        )
    )
    triple = build_dual_chain(enumerate_curve(kind, q), a, a_prime, allow_extended=regime == "extended")
    _expect_rebuilt(obj, triple_to_obj(triple, _Encoded))
    return triple


def _value(obj: dict[str, Any], path: tuple[str, ...], want: type) -> Any:
    """``obj`` at the key path, refused by that path unless it is there
    and of JSON type ``want`` (a bool is no int, 8.0 is no int)."""
    value, at = obj, ""
    for key in path:
        at += f"[{key!r}]"
        if type(value) is not dict or key not in value:
            raise ValueError(f"{obj['kind']} has no {at}")
        value = value[key]
    if type(value) is not want:
        raise ValueError(f"{obj['kind']} holds {type(value).__name__} {value!r} at {at}, not {want.__name__}")
    return value


def pair_to_obj(p: ExpandedPair, encode: Callable | None = None) -> dict[str, Any]:
    encode = encode or code_to_obj
    basis_field = p.basis.field
    return {
        "kind": "binary_pair",
        "n": p.d.n,
        "d": encode(p.d),
        "d_prime": encode(p.d_prime),
        "provenance": {
            "basis_field_k": basis_field.k,
            "basis": [element_to_hex(basis_field, e) for e in p.basis.elements],
            "source": triple_to_obj(p.source, encode),
        },
    }


def pair_from_obj(obj: dict[str, Any]) -> ExpandedPair:
    """The pair rebuilt from the file's source triple and basis, and compared as a triple is.

    The basis is read in the rebuilt triple's field, so ``basis_field_k``
    is only compared with the rebuild, like any other recorded value.
    """
    _expect_kind(obj, "binary_pair")
    texts, source = (_value(obj, ("provenance", key), want) for key, want in (("basis", list), ("source", dict)))
    triple = triple_from_obj(source)
    field = triple.field
    try:
        basis = SelfDualBasis(field=field, elements=tuple(int(e, 16) for e in texts))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"binary_pair holds no self-dual basis of {field} at ['provenance']['basis']: {exc}") from None
    pair = expand_chain(triple, ExpansionMap(field=field, basis=basis))
    want = pair_to_obj(pair, _Encoded)
    # triple_from_obj compared the source but for its provenance.flags, which a pair may not hold
    want["provenance"]["source"] = _less_flags(source)
    _expect_rebuilt(obj, want)
    return pair


class _Encoded:
    """Stands in for ``code_to_obj(code)`` in a rebuilt object.  ``like(obj)``
    is that object, holding the file's own rows when they decode to the
    code's matrix, so that only a code that differs is hex-encoded."""

    def __init__(self, code: LinearCode) -> None:
        self.code = code

    def like(self, obj: Any) -> dict[str, Any]:
        f, n = self.code.field, self.code.n
        try:
            rows = obj["generators"]
            if type(rows) is list:
                return _rows_or_encoded(self.code, rows, from_symbols(f, hex_to_symbols(f, rows, n)))
        except (KeyError, TypeError, ValueError):
            pass
        return code_to_obj(self.code)


def _rows_or_encoded(code: LinearCode, rows: list, decoded: np.ndarray) -> dict[str, Any]:
    """``code_to_obj(code)``, holding the hex ``rows`` themselves when
    ``decoded``, their kernel matrix, is the code's."""
    if np.array_equal(decoded, code.matrix):
        return {"field_k": code.field.k, "n": code.n, "generators": rows}
    return code_to_obj(code)


def _less_flags(obj: dict[str, Any]) -> dict[str, Any]:
    """``obj`` without the CLI's ``provenance.flags`` echo."""
    return {**obj, "provenance": {k: v for k, v in obj["provenance"].items() if k != "flags"}}


def _expect_rebuilt(obj: dict[str, Any], want: dict[str, Any]) -> None:
    """Raise ValueError unless ``obj``, less the CLI's ``provenance.flags``, is ``want``."""
    path = _difference(_less_flags(obj), want)
    if path is not None:
        raise ValueError(f"{obj['kind']} differs from its rebuilt construction at {path}")


def _difference(got: Any, want: Any, path: str = "") -> str | None:
    """None when two JSON values are equal, JSON types included (8.0 is
    not 8 and true is not 1), else the key path, as [repr(key)]..., of the
    first dict entry, or missing key, where they differ."""
    if isinstance(want, _Encoded):
        want = want.like(got)
    if got is want:  # a code's own rows, or the source triple a pair's loader compared
        return None
    if type(got) is not type(want):
        return path
    if isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want:
                return f"{path}[{key!r}]"
            found = _difference(got[key], want[key], f"{path}[{key!r}]")
            if found is not None:
                return found
        return None
    if isinstance(want, list):
        same = len(got) == len(want) and all(_difference(g, w) is None for g, w in zip(got, want))
        return None if same else path
    return None if got == want else path


def fcode_to_obj(
    f: SymplecticCode, provenance: dict[str, Any] | None = None, encode: Callable | None = None
) -> dict[str, Any]:
    encode = encode or code_to_obj
    return {
        "kind": "symplectic_code",
        "n": f.n,
        "k_f": f.k_dim,
        "space": encode(f.space),
        "is_isotropic": f.is_isotropic,
        "is_large": f.is_large,
        "distance_bound": f.distance_bound,
        "provenance": provenance or {},
    }


def fcode_from_obj(obj: dict[str, Any]) -> SymplecticCode:
    """F rebuilt by ``make_symplectic`` from the file's rows, its flags
    recomputed, and compared as a triple is.

    The rebuild starts from ``n``, ``space.generators``, decoded once,
    and the recorded ``distance_bound``: null, or an int >= 1, which is
    carried as the file holds it.  So is the provenance.
    """
    _expect_kind(obj, "symplectic_code")
    n, rows = _value(obj, ("n",), int), _value(obj, ("space", "generators"), list)
    _value(obj, ("provenance",), dict)  # carried over, less the CLI's flags
    # null, or else an int: a missing key is refused by _value
    bound = None if obj.get("distance_bound", 0) is None else _value(obj, ("distance_bound",), int)
    if bound is not None and bound < 1:
        raise ValueError(f"symplectic_code holds {bound} at ['distance_bound'], not a bound >= 1")
    try:
        decoded = from_symbols(GF2, hex_to_symbols(GF2, rows, 2 * n))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"symplectic_code holds no rows of 2n = {2 * n} bits at ['space']['generators']: {exc}") from None
    rebuilt = make_symplectic(n, to_rows(decoded), distance_bound=bound)
    want = fcode_to_obj(rebuilt, _less_flags(obj)["provenance"], lambda code: _rows_or_encoded(code, rows, decoded))
    _expect_rebuilt(obj, want)
    return rebuilt


def report_to_obj(r: QuantumCodeReport, provenance: dict[str, Any] | None = None) -> dict[str, Any]:
    return {
        "kind": "quantum_code_report",
        "n": r.n,
        "k_q": r.k_q,
        "d_q": r.d_q,
        "d_exact": r.d_exact,
        "d_witness": list(r.d_witness) if r.d_witness is not None else None,
        "params": r.params(),
        "trace": list(r.trace),
        "provenance": provenance or {},
    }


def _expect_kind(obj: dict[str, Any], kind: str) -> None:
    got = obj.get("kind")
    if got != kind:
        raise ValueError(f"expected artifact kind {kind!r}, got {got!r}")


def save_json(obj: dict[str, Any], path: str | Path) -> Path:
    out = Path(path)
    out.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out


def load_json(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))
