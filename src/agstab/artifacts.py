"""JSON serialization for every artifact kind the CLI reads and writes.

Formats (all deterministic, lowercase hex symbol rows):

  code:   {"field_k": k, "n": n, "generators": [row, ...]}
          where each row is the concatenated per-symbol hex masks
          (one digit per symbol for k <= 4, two for k <= 8).
  triple: the chain C' > C >= C^perp with full construction provenance.
  pair:   the binary descent D' > D >= D^perp of a triple.
  fcode:  a symplectic code as a binary length-2n code plus flags.
  report: quantum code parameters with the construction trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .curves import DualChainTriple, curve_genus, designed_distance
from .expansion import ExpandedPair
from .fields import Field, SelfDualBasis, element_to_hex, get_field, hex_to_symbols, symbols_to_hex
from .linear import LinearCode, code_from_matrix, from_symbols, to_symbols
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


def code_from_obj(obj: dict[str, Any]) -> LinearCode:
    field = get_field(obj["field_k"])
    n = obj["n"]
    return code_from_matrix(field, n, from_symbols(field, hex_to_symbols(field, obj["generators"], n)))


def _fixed_provenance(field: Field, n: int) -> dict[str, Any]:
    """The twist, scaling and point lists of every chain: w = v = 1, all n points kept."""
    one = [element_to_hex(field, 1)] * n
    return {"twist_w": one, "scaling_v": list(one), "kept_points": list(range(n)), "dropped_points": []}


def triple_to_obj(t: DualChainTriple) -> dict[str, Any]:
    return {
        "kind": "dual_chain_triple",
        "field_k": t.field.k,
        "n": t.n,
        "c": code_to_obj(t.c),
        "c_prime": code_to_obj(t.c_prime),
        "provenance": {
            "curve": {"kind": t.curve_kind, "q": t.q, "genus": t.genus},
            "a": t.a,
            "a_prime": t.a_prime,
            **_fixed_provenance(t.field, t.n),
            "regime": t.regime,
            "designed_d": t.designed_d,
            "designed_d_prime": t.designed_d_prime,
        },
    }


def triple_from_obj(obj: dict[str, Any]) -> DualChainTriple:
    _expect_kind(obj, "dual_chain_triple")
    prov = obj["provenance"]
    c = code_from_obj(obj["c"])
    # The code checks no other twist, so a file may not claim one.
    for key, value in _fixed_provenance(c.field, c.n).items():
        if prov[key] != value:
            raise ValueError(f"provenance {key!r} differs from the fixed w = v = 1 on all {c.n} points")
    curve = prov["curve"]
    g = curve_genus(curve["kind"], curve["q"])
    # Checked, never trusted: the designed distances become the recorded bound.
    for key, got, want in (
        ("genus", curve["genus"], g),
        ("designed_d", prov["designed_d"], designed_distance(prov["a"], g)),
        ("designed_d_prime", prov["designed_d_prime"], designed_distance(prov["a_prime"], g)),
    ):
        if got != want:
            raise ValueError(f"provenance {key!r} = {got} differs from {want}, derived from the curve and degrees")
    return DualChainTriple(
        c=c,
        c_prime=code_from_obj(obj["c_prime"]),
        curve_kind=curve["kind"],
        q=curve["q"],
        genus=g,
        a=prov["a"],
        a_prime=prov["a_prime"],
        regime=prov["regime"],
        designed_d=prov["designed_d"],
        designed_d_prime=prov["designed_d_prime"],
    )


def pair_to_obj(p: ExpandedPair) -> dict[str, Any]:
    basis_field = p.basis.field
    return {
        "kind": "binary_pair",
        "n": p.d.n,
        "d": code_to_obj(p.d),
        "d_prime": code_to_obj(p.d_prime),
        "provenance": {
            "basis_field_k": basis_field.k,
            "basis": [element_to_hex(basis_field, e) for e in p.basis.elements],
            "source": triple_to_obj(p.source),
        },
    }


def pair_from_obj(obj: dict[str, Any]) -> ExpandedPair:
    _expect_kind(obj, "binary_pair")
    prov = obj["provenance"]
    field = get_field(prov["basis_field_k"])
    basis = SelfDualBasis(
        field=field, elements=tuple(int(e, 16) for e in prov["basis"])
    )
    return ExpandedPair(
        d=code_from_obj(obj["d"]),
        d_prime=code_from_obj(obj["d_prime"]),
        basis=basis,
        source=triple_from_obj(prov["source"]),
    )


def fcode_to_obj(f: SymplecticCode, provenance: dict[str, Any] | None = None) -> dict[str, Any]:
    return {
        "kind": "symplectic_code",
        "n": f.n,
        "k_f": f.k_dim,
        "space": code_to_obj(f.space),
        "is_isotropic": f.is_isotropic,
        "is_large": f.is_large,
        "distance_bound": f.distance_bound,
        "provenance": provenance or {},
    }


def fcode_from_obj(obj: dict[str, Any]) -> SymplecticCode:
    _expect_kind(obj, "symplectic_code")
    space = code_from_obj(obj["space"])
    n = obj["n"]
    if space.n != 2 * n:
        raise ValueError(f"space length {space.n} != 2n = {2 * n}")
    rebuilt = make_symplectic(n, space.bit_rows, distance_bound=obj.get("distance_bound"))
    # Flags are recomputed, never trusted from the file.
    if rebuilt.k_dim != obj["k_f"]:
        raise ValueError(f"stored k_f = {obj['k_f']} but rank is {rebuilt.k_dim}")
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
