from fractions import Fraction

import pytest

from agstab import artifacts
from agstab.errors import PipelineError
from agstab.linear import GF2, code_from_rref
from agstab.pipeline import PipelineConfig, pipeline_build
from agstab.symplectic import designed_quantum_bound, steane_compose


class TestConfig:
    def test_hermitian_field_consistency(self):
        with pytest.raises(ValueError):
            PipelineConfig(m=1, curve_kind="hermitian", q=4, a=3, a_prime=1)
        with pytest.raises(ValueError):
            PipelineConfig(m=2, curve_kind="line", q=4, a=3, a_prime=1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PipelineConfig(m=1, curve_kind="cubic", q=2, a=3, a_prime=1)


@pytest.fixture(scope="module")
def run_m1():
    return pipeline_build(
        PipelineConfig(m=1, curve_kind="hermitian", q=2, a=3, a_prime=1)
    )


@pytest.fixture(scope="module")
def run_m2():
    return pipeline_build(
        PipelineConfig(m=2, curve_kind="hermitian", q=4, a=34, a_prime=30)
    )


class TestHermitianM1:
    @pytest.fixture
    def run(self, run_m1):
        return run_m1

    def test_parameters(self, run):
        rep = run.report
        assert (rep.n, rep.k_q) == (16, 8)
        assert rep.d_exact
        assert rep.d_q == 3  # enumerated; designed bound is 2
        assert rep.d_q >= 2

    def test_intermediates(self, run):
        assert (run.triple.c.n, run.triple.c.k_dim) == (8, 5)
        assert (run.pair.d.n, run.pair.d.k_dim) == (16, 10)
        assert (run.pair.d_prime.n, run.pair.d_prime.k_dim) == (16, 14)
        assert run.fcode.k_dim == 24
        assert run.fcode.is_large

    def test_rate_bookkeeping(self, run):
        n, k, k_prime = 8, 5, 7
        assert Fraction(run.report.k_q, run.report.n) == Fraction(k + k_prime - n, n)

    def test_binary_dimension_arithmetic(self, run):
        m = run.config.m
        n, k, k_prime = 8, 5, 7
        assert run.report.k_q == 2 * m * (k + k_prime - n)

    def test_trace_records_every_stage(self, run):
        text = "\n".join(run.report.trace)
        for token in ("curve:", "chain:", "descent:", "compose:", "rates:"):
            assert token in text

    def test_witness_weight_matches_distance(self, run):
        wit = run.report.d_witness
        assert wit is not None
        assert sum(1 for s in wit if s) == run.report.d_q


class TestHermitianM2:
    @pytest.fixture
    def run(self, run_m2):
        return run_m2

    def test_bound_level_parameters(self, run):
        rep = run.report
        assert (rep.n, rep.k_q) == (256, 40)
        assert not rep.d_exact
        assert rep.d_q == 24  # min(24, ceil(3*20/2)) = 24

    def test_chain_dimensions(self, run):
        assert (run.triple.c.k_dim, run.triple.c_prime.k_dim) == (35, 39)
        assert run.triple.designed_d == 24
        assert run.triple.designed_d_prime == 20

    def test_certificates(self, run):
        assert run.fcode.is_large
        assert run.triple.c_prime.contains(run.triple.c)
        assert run.triple.c.contains(run.triple.c.dual())
        assert run.pair.d_prime.contains(run.pair.d)
        assert run.pair.d.contains(run.pair.d.dual())


def test_line_pipeline_small():
    run = pipeline_build(PipelineConfig(m=1, curve_kind="line", q=4, a=1, a_prime=0))
    rep = run.report
    assert (rep.n, rep.k_q) == (8, 2)
    assert rep.d_exact


def test_m3_compose_of_the_reloaded_pair_matches_the_pipeline():
    # The loaded pair is rebuilt from its source, so, like the pipeline's, it
    # is compared over GF(64).  Its provenance-free twins make steane_compose
    # dualize and compare D and D' over 3072 bits instead.
    cfg = PipelineConfig(m=3, curve_kind="hermitian", q=8, a=269, a_prime=250)
    run = pipeline_build(cfg)
    pair = artifacts.pair_from_obj(artifacts.pair_to_obj(run.pair))
    assert pair.d.expanded_from is not None and pair.d_prime.expanded_from is not None
    d, d_prime = (code_from_rref(GF2, c.n, c.matrix.copy(), c.pivots) for c in (pair.d, pair.d_prime))
    assert d.expanded_from is None and d_prime.expanded_from is None
    fcode = steane_compose(d, d_prime, budget=cfg.distance_budget)
    assert fcode.space == run.fcode.space
    assert fcode.dual_space == run.fcode.dual_space
    assert (fcode.is_isotropic, fcode.is_large) == (run.fcode.is_isotropic, run.fcode.is_large)
    # out of budget: steane_compose records no bound, the pipeline's compose_pair the designed one
    designed = designed_quantum_bound(run.triple.designed_d, run.triple.designed_d_prime)
    assert (fcode.distance_bound, run.fcode.distance_bound) == (None, designed)
    assert (run.report.params(), run.fcode.k_dim, run.fcode.is_large) == ("[[3072, 282, >=215]]", 3354, True)


def test_binary_expansion_keeps_the_enlargement_wide_enough():
    # even the thinnest chain (a - a' = 1) expands to k' - k = 2m >= 2
    run = pipeline_build(PipelineConfig(m=1, curve_kind="hermitian", q=2, a=3, a_prime=2))
    assert run.pair.d_prime.k_dim - run.pair.d.k_dim == 2
    assert run.fcode.is_large


@pytest.mark.parametrize(
    "m, q, a, a_prime, params",
    [(1, 2, 4, 1, "[[16, 6, 4]]"), (2, 4, 37, 30, "[[256, 28, >=27]]")],
)
def test_extended_regime_end_to_end(m, q, a, a_prime, params):
    # the last degree of the window 2a <= n + 2g - 2, past n + g - 2
    run = pipeline_build(
        PipelineConfig(
            m=m, curve_kind="hermitian", q=q, a=a, a_prime=a_prime, allow_extended=True
        )
    )
    t = run.triple
    assert 2 * a == t.n + 2 * t.genus - 2
    assert t.regime == "extended"
    assert run.report.params() == params
    assert run.report.d_exact == (m == 1)
    assert "(extended)" in "\n".join(run.report.trace)


def test_stage_labels_on_failure():
    with pytest.raises(PipelineError) as err:
        pipeline_build(PipelineConfig(m=1, curve_kind="hermitian", q=2, a=4, a_prime=1))
    assert err.value.stage == "chain"
    with pytest.raises(PipelineError) as err:
        pipeline_build(PipelineConfig(m=1, curve_kind="hermitian", q=2, a=3, a_prime=0))
    assert err.value.stage == "chain"
