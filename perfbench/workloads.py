"""The benchmark's workloads: inputs made from a seed, and checked instances.

``WORKLOADS[name](seed)`` builds the inputs and returns the instances of
one pass as ``(label, run)`` pairs.  ``run()`` calls agstab, checks its
outputs and returns the serialized report (or ``b""``); a failed check
raises ``CheckFailed``.  Every seed yields the same instances with the
same expected outputs: the seed only varies inputs that cannot change
them (an instance order, a stabilizer sign pattern).

Functions are looked up on their modules at call time so that the
tracer's patched versions are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import random

from agstab import artifacts, curves, expansion, fields, linear, pauli, pipeline, symplectic


class CheckFailed(Exception):
    """An instance produced an output that contradicts its pinned result."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _warm(*ks: int) -> None:
    for k in ks:
        fields.self_dual_basis(fields.get_field(k))


def _serialize(report) -> bytes:
    return json.dumps(artifacts.report_to_obj(report), sort_keys=True).encode()


def _check_report(report, n: int, k_q: int, d_q: int, exact: bool) -> None:
    """n and k_Q are pinned; an exact d_Q stays exact, a bound may only rise."""
    _require((report.n, report.k_q) == (n, k_q), f"got {report.params()}, want n={n}, k_Q={k_q}")
    if exact:
        _require(report.d_exact and report.d_q == d_q, f"got {report.params()}, want exact d_Q={d_q}")
    else:
        _require(report.d_q is not None and report.d_q >= d_q, f"got {report.params()}, want d_Q >= {d_q}")


# --- herm-m3 --------------------------------------------------------------
# The q=8 Hermitian chain (a=269, a'=250) of the [[3072, 282, >=215]] run
# takes about 70 s end to end, longer than one benchmark run may last.
# A pass rebuilds the binary D' of that chain by a short route instead:
# its twist vector is all-ones, so C' is the plain dual of the degree-a'
# evaluation code E, and expansion in a self-dual basis commutes with
# duality, so D' = expand(E)^perp.  That is dense elimination on 512
# columns over GF(64), then on 3072-bit binary rows.  The seed is unused.

HERM_M3_A_PRIME = 250
HERM_M3_D_PRIME_SHA256 = "7834d84b2fd0749d9ce724704514daa42c1b8df70247ad9df8a4e307561830fa"


def _bit_rows_sha256(code) -> str:
    width = (code.n + 7) // 8
    return hashlib.sha256(b"".join(r.to_bytes(width, "little") for r in code.bit_rows)).hexdigest()


def herm_m3(seed: int):
    curve = curves.enumerate_curve("hermitian", 8)
    field = curve.field
    emap = expansion.ExpansionMap(field=field, basis=fields.self_dual_basis(field))

    def d_prime_by_duality() -> bytes:
        ev = curves.evaluation_code(curve, HERM_M3_A_PRIME)
        _require((ev.n, ev.k_dim) == (512, 223), f"E is {ev!r}, want [512,223]")
        d_ev = expansion.expand_code(ev, emap)
        d_prime = d_ev.dual()
        _require((d_prime.n, d_prime.k_dim) == (3072, 1734), f"D' is {d_prime!r}, want [3072,1734]")
        _require(d_prime.contains(d_ev), "expand(E) is not self-orthogonal")
        _require(_bit_rows_sha256(d_prime) == HERM_M3_D_PRIME_SHA256, "D' generators changed")
        return b""

    return [("herm-m3 D' = expand(E)^perp", d_prime_by_duality)]


# --- small-exact ----------------------------------------------------------

HERM_M1 = dict(m=1, curve_kind="hermitian", q=2, a=3, a_prime=1)
HERM_M2 = dict(m=2, curve_kind="hermitian", q=4, a=34, a_prime=30)
EXT_HAMMING_ROWS = (0b11111111, 0b01010101, 0b00110011, 0b00001111)
EVEN_8_7_ROWS = tuple((1 << i) | (1 << 7) for i in range(7))


def _pipeline_instance(params: dict, n: int, k_q: int, d_q: int, exact: bool):
    cfg = pipeline.PipelineConfig(**params)

    def run() -> bytes:
        result = pipeline.pipeline_build(cfg)
        _require(result.fcode.is_large, "F is not large")
        _check_report(result.report, n, k_q, d_q, exact)
        return _serialize(result.report)

    return run


def small_exact(seed: int):
    _warm(2, 4)
    d = linear.binary_code(8, EXT_HAMMING_ROWS)
    d_prime = linear.binary_code(8, EVEN_8_7_ROWS)

    def desk() -> bytes:
        fcode = symplectic.steane_compose(d, d_prime)
        _require(fcode.is_large, "F is not large")
        report = symplectic.quantum_params(fcode)
        _check_report(report, 8, 3, 3, exact=True)
        return _serialize(report)

    instances = [
        ("hermitian m=1 [[16,8,3]]", _pipeline_instance(HERM_M1, 16, 8, 3, exact=True)),
        ("hermitian m=2 [[256,40,>=24]]", _pipeline_instance(HERM_M2, 256, 40, 24, exact=False)),
        ("desk [[8,3,3]]", desk),
    ]
    random.Random(seed).shuffle(instances)
    return instances


# --- pauli-8 --------------------------------------------------------------
# Stabilizer generators of the desk [[8,3,3]] code (the form-dual of
# steane_compose([8,4,4], [8,7,2])) and a weight-3 logical operator.  Any
# sign pattern mu gives a rank-8 projector on which every single-qubit
# error is detectable and the logical operator is not.  The full d=3
# verdict (276 errors, 25-30 s) is too long to repeat within one run, so
# a pass checks the 24 weight-1 errors and the witness.

PAULI_8_BASIS = (
    (3, 2, 0, 1, 0, 1, 3, 2),
    (0, 3, 0, 3, 2, 1, 2, 1),
    (0, 2, 1, 3, 0, 2, 1, 3),
    (0, 0, 2, 2, 1, 1, 3, 3),
    (2, 2, 2, 2, 2, 2, 2, 2),
)
PAULI_8_WITNESS = (3, 0, 0, 0, 0, 0, 2, 1)


def pauli_8(seed: int):
    rng = random.Random(seed)
    spec = pauli.StabilizerSpec(PAULI_8_BASIS, tuple(rng.choice((1, -1)) for _ in PAULI_8_BASIS))
    _warm(2)

    def detectability() -> bytes:
        proj = pauli.stabilizer_projector(spec, max_n=8)
        _require(proj.trace() == (8, 0), f"projector trace {proj.trace()}, want 8")
        det = pauli.detectability_check(proj, 2)
        _require(det.passed and det.checked == 24, f"checked {det.checked}, passed {det.passed}")
        ok, _, _ = pauli.check_error(proj, PAULI_8_WITNESS)
        _require(not ok, "the weight-3 logical operator was reported detectable")
        return b""

    return [("pauli-8 detectability", detectability)]


WORKLOADS = {
    "herm-m3": herm_m3,
    "small-exact": small_exact,
    "pauli-8": pauli_8,
}
