"""End-to-end driver: curve -> dual chain -> binary descent -> enlargement -> quantum code.

Each fact is certified once, where the value carrying it is built or
loaded: C' > C >= C^perp by ``build_dual_chain``, which the descent
keeps (expansion in a self-dual basis preserves containment and
duality), and the enlargement's flags by ``compose_pair``, which takes
the descended pair as certified and rechecks neither relation.  The
driver aggregates a human-readable trace, carries the designed distance
bound alongside any enumerated exact value, and labels failures with
the stage that raised them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction

from .curves import DualChainTriple, build_dual_chain, enumerate_curve, HERMITIAN, LINE
from .errors import PipelineError
from .expansion import ExpandedPair, ExpansionMap, expand_chain
from .fields import self_dual_basis, element_to_hex
from .linear import DEFAULT_BUDGET
from .symplectic import (
    QuantumCodeReport,
    SymplecticCode,
    compose_pair,
    designed_quantum_bound,
    quantum_params,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of one full run; the symbol field is GF(2^(2m))."""

    m: int
    curve_kind: str
    q: int
    a: int
    a_prime: int
    distance_budget: int = DEFAULT_BUDGET
    allow_extended: bool = False

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("field half-degree m must be >= 1")
        if self.curve_kind == HERMITIAN:
            if self.q != 1 << self.m:
                raise ValueError(
                    f"hermitian base q={self.q} inconsistent with m={self.m} "
                    f"(need q = 2^m so the symbol field is GF(2^{2 * self.m}))"
                )
        elif self.curve_kind == LINE:
            if self.q != 1 << (2 * self.m):
                raise ValueError(
                    f"line field size q={self.q} inconsistent with m={self.m} "
                    f"(need q = 2^(2m))"
                )
        else:
            raise ValueError(f"unknown curve kind {self.curve_kind!r}")


@dataclass(frozen=True)
class PipelineRun:
    """All intermediate artifacts plus the final report."""

    config: PipelineConfig
    triple: DualChainTriple
    pair: ExpandedPair
    fcode: SymplecticCode
    report: QuantumCodeReport


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


def pipeline_build(cfg: PipelineConfig) -> PipelineRun:
    trace: list[str] = []

    with _stage("curve"):
        curve = enumerate_curve(cfg.curve_kind, cfg.q)
        trace.append(
            f"curve: {cfg.curve_kind} q={cfg.q} over {curve.field}, "
            f"genus {curve.genus}, {curve.n_points} points"
        )

    with _stage("chain"):
        triple = build_dual_chain(
            curve, cfg.a, cfg.a_prime, allow_extended=cfg.allow_extended
        )
        trace.append(
            f"chain: a={cfg.a}, a'={cfg.a_prime} ({triple.regime}): "
            f"C=[{triple.n},{triple.c.k_dim},>={triple.designed_d}], "
            f"C'=[{triple.n},{triple.c_prime.k_dim},>={triple.designed_d_prime}], "
            f"certified C' > C >= C^perp"
        )

    with _stage("descent"):
        field = triple.field
        basis = self_dual_basis(field)
        emap = ExpansionMap(field=field, basis=basis)
        pair = expand_chain(triple, emap)
        basis_hex = [element_to_hex(field, e) for e in basis.elements]
        trace.append(
            f"descent: self-dual basis {basis_hex} of {field}: "
            f"D=[{pair.d.n},{pair.d.k_dim}], D'=[{pair.d_prime.n},{pair.d_prime.k_dim}], "
            f"certified D' > D >= D^perp"
        )

    with _stage("compose"):
        fcode = compose_pair(pair, budget=cfg.distance_budget)
        trace.append(
            f"compose: k_F = {fcode.k_dim} = k_D + k_D', large certified; "
            f"recorded distance bound {fcode.distance_bound}"
        )

    with _stage("params"):
        report = quantum_params(fcode, budget=cfg.distance_budget)
        # Rate bookkeeping, exactly in rationals.
        n_sym = triple.n
        k = triple.c.k_dim
        k_prime = triple.c_prime.k_dim
        r_q = Fraction(report.k_q, report.n)
        r_sum = Fraction(k, n_sym) + Fraction(k_prime, n_sym) - 1
        if r_q != r_sum:
            raise PipelineError(
                "params",
                f"rate bookkeeping failed: k_Q/n = {r_q} but R + R' - 1 = {r_sum}",
            )
        designed = designed_quantum_bound(triple.designed_d, triple.designed_d_prime)
        extra = (
            f"rates: R_Q = {r_q} = R + R' - 1 exactly; designed bound "
            f"d_Q >= min({triple.designed_d}, ceil(3*{triple.designed_d_prime}/2)) = {designed}"
        )
        report = replace(report, trace=tuple(trace) + report.trace + (extra,))

    return PipelineRun(config=cfg, triple=triple, pair=pair, fcode=fcode, report=report)
