"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runtime limits are asserted alongside the functional checks.  C7-slow,
the operator-level verification of the eight-qubit instance, keeps its
historical name and budget; it runs with the rest of the suite.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from agstab.bounds import (
    ag_line,
    breakpoint_diagnostic,
    delta_grid,
    emit_csv,
    envelope,
    gv_bound,
    gv_curve,
    line_crossover,
)
from agstab.curves import build_dual_chain, enumerate_curve
from agstab.expansion import ExpansionMap, expand_code
from agstab.fields import EPS, EPS_BAR, get_field, self_dual_basis
from agstab.linear import binary_code
from agstab.pauli import (
    StabilizerSpec,
    all_mu_traces,
    check_error,
    detectability_check,
    stabilizer_projector,
    weight_words,
)
from agstab.pipeline import PipelineConfig, pipeline_build
from agstab.symplectic import (
    make_symplectic,
    quantum_params,
    steane_compose,
    unpack_gf4,
)

from gf4_words import pack_gf4
from helpers import parse_csv, random_dual_containing_code, symplectic_dual
from test_pauli import dense_of, dense_projector

EXT_HAMMING = binary_code(8, [0b11111111, 0b01010101, 0b00110011, 0b00001111])
EVEN_8_7 = binary_code(8, [(1 << i) | (1 << 7) for i in range(7)])


@contextmanager
def criterion(cid: str, limit_s: float, description: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {cid}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {cid}: PASS ({elapsed:.2f}s < {limit_s:g}s) - {description}")
    assert elapsed < limit_s, f"{cid} overran its {limit_s}s budget ({elapsed:.2f}s)"


def test_c1_self_dual_bases():
    with criterion("C1", 1.0, "trace-orthonormal bases for k = 1..8"):
        for k in range(1, 9):
            f = get_field(k)
            basis = self_dual_basis(f)
            for i, a in enumerate(basis.elements):
                for j, b in enumerate(basis.elements):
                    assert f.trace(f.mul(a, b)) == (1 if i == j else 0)


def test_c2_descent_duality_on_200_random_codes():
    with criterion("C2", 10.0, "dual/expansion commute on 200 random chains"):
        for field_k, seed_base in ((2, 1000), (4, 2000)):
            field = get_field(field_k)
            emap = ExpansionMap(field=field, basis=self_dual_basis(field))
            for i in range(100):
                rng = random.Random(seed_base + i)
                n = rng.randint(2, 10)
                c = random_dual_containing_code(field, n, rng)
                assert expand_code(c, emap).dual() == expand_code(c.dual(), emap)


def test_c3_steane_desk_instance():
    with criterion("C3", 1.0, "[8,4,4] + [8,7,2] -> [[8,3,3]] exact"):
        f = steane_compose(EXT_HAMMING, EVEN_8_7)
        assert f.k_dim == 11
        assert f.is_large
        dual = symplectic_dual(f)
        assert f.space.contains(dual.space)  # isotropy certificate, exact
        assert dual.is_isotropic
        assert EVEN_8_7.second_or_weight() == 3
        assert f.distance_bound == 3  # min(d = 4, or-weight2 = 3)
        rep = quantum_params(f)
        assert (rep.n, rep.k_q, rep.d_q, rep.d_exact) == (8, 3, 3, True)


def test_c4_ag_end_to_end_m1():
    with criterion("C4", 60.0, "hermitian q=2 chain and [[16,8,d>=2]] enumerated"):
        curve = enumerate_curve("hermitian", 2)
        triple = build_dual_chain(curve, 3, 1)
        assert (triple.c.n, triple.c.k_dim) == (8, 5)
        assert triple.designed_d == 3
        assert triple.c.min_distance_exact() == 3
        assert triple.c_prime.contains(triple.c)
        assert triple.c.contains(triple.c.dual())

        run = pipeline_build(
            PipelineConfig(
                m=1, curve_kind="hermitian", q=2, a=3, a_prime=1,
                distance_budget=1 << 26,
            )
        )
        rep = run.report
        assert (rep.n, rep.k_q) == (16, 8)
        assert rep.d_exact
        assert rep.d_q >= 2
        assert run.fcode.is_large
        assert run.pair.d_prime.contains(run.pair.d)
        assert run.pair.d.contains(run.pair.d.dual())


def test_c5_ag_bound_level_m2():
    with criterion("C5", 10.0, "hermitian q=4 -> [[256,40,>=24]] bound-only"):
        run = pipeline_build(
            PipelineConfig(m=2, curve_kind="hermitian", q=4, a=34, a_prime=30)
        )
        rep = run.report
        assert (rep.n, rep.k_q, rep.d_q, rep.d_exact) == (256, 40, 24, False)
        assert run.triple.c_prime.contains(run.triple.c)
        assert run.triple.c.contains(run.triple.c.dual())
        assert run.pair.d_prime.contains(run.pair.d)
        assert run.pair.d.contains(run.pair.d.dual())
        assert run.fcode.is_large


def test_c6_or_weight_bound_on_100_random_codes():
    with criterion("C6", 30.0, "or-weight2 >= ceil(3d/2) on 100 random codes"):
        rng = random.Random(424242)
        done = 0
        while done < 100:
            n = rng.randint(4, 12)
            k = rng.randint(2, min(n - 1, 7))
            code = binary_code(n, [rng.randrange(1, 1 << n) for _ in range(k)])
            if code.k_dim < 2:
                continue
            d = code.min_distance_exact()
            assert code.second_or_weight() >= -(-3 * d // 2)
            done += 1


def test_c7_pauli_verification_four_qubits():
    with criterion("C7", 5.0, "four-qubit projector checks in exact arithmetic"):
        basis = [(EPS,) * 4, (EPS_BAR,) * 4]
        k = len(basis)
        for tr in all_mu_traces(basis).values():
            assert tr == (1 << (4 - k), 0)
        # sixteen sign patterns on the rank-4 isotropic extension
        extended = basis + [(EPS, EPS, 0, 0), (EPS_BAR, EPS_BAR, 0, 0)]
        traces = all_mu_traces(extended)
        assert len(traces) == 16
        for tr in traces.values():
            assert tr == (1, 0)

        spec = StabilizerSpec.plus(basis)
        proj = stabilizer_projector(spec)
        p = dense_of(proj)  # the dense reference, n = 4
        assert p == dense_projector(spec, 4)
        assert p @ p == p
        assert p.conj_transpose() == p
        rep = detectability_check(proj, 2)
        assert rep.passed and rep.checked == 12
        witness = next((w for w in weight_words(4, 2) if not check_error(proj, w)[0]), None)
        assert witness is not None
        ok, _, _ = check_error(proj, witness)
        assert not ok


def test_c7_pauli_verification_eight_qubits_slow():
    with criterion("C7-slow", 300.0, "[[8,3,3]] detectability at dmax = 3"):
        f = steane_compose(EXT_HAMMING, EVEN_8_7)
        rep = quantum_params(f)
        assert rep.d_q == 3
        stab = symplectic_dual(f)
        basis = [unpack_gf4(r, 8) for r in stab.space.bit_rows]
        proj = stabilizer_projector(StabilizerSpec.plus(basis), max_n=8)
        assert proj.trace() == (1 << (8 - 5), 0)
        det = detectability_check(proj, 3)
        assert det.passed
        ok, _, _ = check_error(proj, rep.d_witness)
        assert not ok  # weight-3 minimality witness


def test_c7_pauli_verification_m1_sixteen_qubits():
    with criterion("C7-m1", 10.0, "the m=1 [[16,8,3]] at operator level, dmax = 3"):
        run = pipeline_build(PipelineConfig(m=1, curve_kind="hermitian", q=2, a=3, a_prime=1))
        fcode, rep = run.fcode, run.report
        assert (rep.n, rep.k_q, rep.d_q, rep.d_exact) == (16, 8, 3, True)
        basis = [unpack_gf4(r, 16) for r in fcode.dual_space.bit_rows]
        proj = stabilizer_projector(StabilizerSpec.plus(basis), max_n=16)
        assert proj.trace() == (1 << (16 - 8), 0)
        det = detectability_check(proj, 3)
        assert det.passed and det.checked == 48 + 1080  # every word of weight 1-2
        ok, _, _ = check_error(proj, rep.d_witness)
        assert not ok  # weight-3 minimality witness


def test_c8_bound_curves():
    with criterion("C8", 5.0, "bound values, root, envelope, CSV dominance"):
        assert gv_bound(0.0) == 1.0
        lo, hi = 0.15, 0.25
        for _ in range(60):
            mid = (lo + hi) / 2
            if gv_bound(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert (lo + hi) / 2 == pytest.approx(0.1893, abs=1e-3)

        assert ag_line(3, 0) == Fraction(2, 3)
        assert ag_line(3, Fraction(1, 18)) == Fraction(1, 9)

        env_point = envelope([Fraction(1, 100)]).samples[0]
        assert env_point.r == pytest.approx(0.7677, abs=1e-3)
        assert env_point.m == 6

        import tempfile
        from pathlib import Path

        grid = delta_grid(Fraction(1, 1000), Fraction(1, 18))
        with tempfile.TemporaryDirectory() as tmp:
            path = emit_csv([gv_curve(grid), envelope(grid)], Path(tmp) / "fig.csv")
            gv, env = parse_csv(path)
        for a, b in zip(gv.samples, env.samples):
            assert a.delta == b.delta
            assert a.r > b.r


def test_c9_breakpoint_diagnostic():
    with criterion("C9", 1.0, "exact breakpoints and the m=3 inversion flag"):
        assert line_crossover(2) == Fraction(1, 18)
        assert line_crossover(3) == Fraction(2, 35)
        diag = breakpoint_diagnostic()
        assert 3 in diag.inversions
        assert any("inverted" in note for note in diag.notes)
