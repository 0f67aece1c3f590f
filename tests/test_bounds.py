from fractions import Fraction

import pytest

from agstab.bounds import (
    M_MIN,
    BoundCurve,
    CurveSample,
    ag_curve,
    ag_line,
    binary_entropy,
    breakpoint_diagnostic,
    delta_grid,
    emit_csv,
    envelope,
    gv_bound,
    gv_curve,
    gamma,
    line_crossover,
    restriction_limit,
)

from helpers import parse_csv


class TestEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        assert binary_entropy(1 / 18) == pytest.approx(0.3095434291503252, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestGVBound:
    def test_at_zero_exact(self):
        assert gv_bound(0.0) == 1.0

    def test_frozen_value(self):
        assert gv_bound(1 / 18) == pytest.approx(0.6024030985873884, abs=1e-12)

    def test_zero_crossing_by_bisection(self):
        lo, hi = 0.15, 0.25
        assert gv_bound(lo) > 0 > gv_bound(hi)
        for _ in range(60):
            mid = (lo + hi) / 2
            if gv_bound(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        assert root == pytest.approx(0.1893, abs=1e-3)

    def test_may_go_negative(self):
        assert gv_bound(0.25) < 0


class TestAGLine:
    def test_intercept(self):
        assert ag_line(3, 0) == Fraction(2, 3)

    def test_exact_rational_value(self):
        assert ag_line(3, Fraction(1, 18)) == Fraction(1, 9)

    def test_out_of_range(self):
        assert ag_line(3, Fraction(1, 10)) is None

    def test_restriction_limits(self):
        assert restriction_limit(3) == Fraction(1, 18)
        assert restriction_limit(4) == Fraction(3, 56)

    def test_value_at_restriction_matches_rate_floor(self):
        # R at the validity edge equals 1/6 - (1/3)/(2^m - 2), exactly
        for m in range(3, 12):
            r = ag_line(m, restriction_limit(m))
            assert r == Fraction(1, 6) - Fraction(1, 3) / ((1 << m) - 2)

    def test_m_guard(self):
        with pytest.raises(ValueError):
            ag_line(2, 0)


class TestCrossover:
    def test_domain_edge(self):
        assert line_crossover(2) == Fraction(1, 18)

    def test_m3(self):
        assert line_crossover(3) == Fraction(2, 35)

    def test_decreasing_for_m_at_least_4(self):
        vals = [line_crossover(m) for m in range(4, 21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < Fraction(1, 100000)

    def test_is_the_exact_intersection_of_consecutive_lines(self):
        for m in range(4, 10):
            d = line_crossover(m)
            lhs = 1 - Fraction(2, (1 << m) - 2) - Fraction(10, 3) * m * d
            rhs = 1 - Fraction(2, (1 << (m + 1)) - 2) - Fraction(10, 3) * (m + 1) * d
            assert lhs == rhs


class TestEnvelope:
    def test_frozen_instance(self):
        curve = envelope([Fraction(1, 100)])
        s = curve.samples[0]
        assert s.r == pytest.approx(0.7677, abs=1e-3)
        assert s.r == pytest.approx(float(Fraction(119, 155)), abs=1e-12)
        assert s.m == 6

    def test_oracle_direct_maximization(self):
        # independent recomputation with explicit per-m formulas
        d = Fraction(1, 100)
        best = None
        for m in range(3, 21):
            limit = Fraction(1, 2 * m) * (Fraction(1, 2) - Fraction(1, (1 << m) - 2))
            if d > limit:
                continue
            r = 1 - Fraction(2, (1 << m) - 2) - Fraction(10, 3) * m * d
            if best is None or r > best:
                best = r
        assert envelope([d]).samples[0].r == float(best)

    def test_non_increasing(self):
        grid = delta_grid(Fraction(1, 1000), Fraction(1, 18))
        curve = envelope(grid)
        rates = [s.r for s in curve.samples]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_limit_toward_zero(self):
        tiny = envelope([Fraction(1, 10**6)])
        assert tiny.samples[0].r > 0.99

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            envelope([Fraction(1, 10)])


def test_gv_dominates_envelope_on_shared_grid():
    grid = delta_grid(Fraction(1, 1000), Fraction(1, 18))
    env = envelope(grid)
    gv = gv_curve(grid)
    for a, b in zip(gv.samples, env.samples):
        assert a.delta == b.delta
        assert a.r > b.r


class TestBreakpointDiagnostic:
    def test_m3_interval_inverted(self):
        diag = breakpoint_diagnostic()
        assert 3 in diag.inversions
        entry = next(e for e in diag.entries if e.m == 3)
        assert entry.stated == Fraction(2, 35)
        assert entry.previous == Fraction(1, 18)
        assert entry.interval_inverted
        assert entry.beyond_restriction

    def test_higher_m_intervals_are_ordered(self):
        diag = breakpoint_diagnostic()
        for e in diag.entries:
            if e.m >= 4:
                assert not e.interval_inverted


def optimal_alpha_prime(alpha, m):
    """Companion divisor ratio (2/3)(alpha + gamma) minimizing the trade-off.

    Valid for 2*gamma <= alpha <= 1/2 + gamma; the left endpoint is a
    fixed point.
    """
    if m < M_MIN:
        raise ValueError(f"half-degree must be >= {M_MIN}")
    a = Fraction(alpha)
    g = gamma(m)
    if not 2 * g <= a <= Fraction(1, 2) + g:
        raise ValueError(f"alpha={a} outside [{2 * g}, {Fraction(1, 2) + g}]")
    return Fraction(2, 3) * (a + g)


class TestOptimalAlphaPrime:
    def test_exact_instance(self):
        assert optimal_alpha_prime(Fraction(2, 3), 3) == Fraction(5, 9)

    def test_left_endpoint_fixed(self):
        g = Fraction(1, 6)
        assert optimal_alpha_prime(2 * g, 3) == 2 * g

    def test_range_guard(self):
        with pytest.raises(ValueError):
            optimal_alpha_prime(Fraction(1, 100), 3)

    def test_substitution_reproduces_the_line(self):
        # R + R' - 1 with the optimal companion ratio collapses to the
        # ag_line formula, checked symbolically over samples.
        for m in (3, 4, 5):
            g = Fraction(1, (1 << m) - 2)
            alpha = 2 * g + (Fraction(1, 2) - g) / 3  # interior sample
            ap = optimal_alpha_prime(alpha, m)
            r = 1 - alpha + g
            r_prime = 1 - ap + g
            r_q = r + r_prime - 1
            assert r_q == 1 + Fraction(4, 3) * g - Fraction(5, 3) * alpha
            delta_q = (alpha - 2 * g) / (2 * m)
            assert r_q == 1 - 2 * g - Fraction(10, 3) * m * delta_q


class TestCSV:
    def test_round_trip(self, tmp_path):
        grid = delta_grid(Fraction(1, 2000), Fraction(1, 18))
        curves = [gv_curve(grid), envelope(grid)]
        path = emit_csv(curves, tmp_path / "curves.csv")
        assert parse_csv(path) == curves

    def test_header_and_shape(self, tmp_path):
        grid = delta_grid(Fraction(5, 10000), Fraction(19, 100))
        path = emit_csv([gv_curve(grid)], tmp_path / "gv.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "delta,R,source"
        assert lines[1].startswith("0.0005,")
        assert len(lines) == 1 + len(grid)

    def test_fraction_deltas_survive(self, tmp_path):
        curve = BoundCurve(
            (CurveSample(delta=Fraction(1, 18), r=0.5, source="gv4"),)
        )
        path = emit_csv([curve], tmp_path / "frac.csv")
        assert "1/18" in path.read_text()
        assert parse_csv(path) == [curve]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "empty.csv")
        with pytest.raises(ValueError):
            delta_grid(Fraction(1, 100), Fraction(1, 200))

    def test_ag_curve_sources_tagged(self, tmp_path):
        grid = delta_grid(Fraction(1, 100), Fraction(1, 18))
        path = emit_csv([ag_curve(3, grid)], tmp_path / "m3.csv")
        assert "agq-line(m=3)" in path.read_text()


def test_curve_validation():
    with pytest.raises(ValueError):
        BoundCurve(
            (
                CurveSample(delta=Fraction(2, 100), r=0.5, source="gv4"),
                CurveSample(delta=Fraction(1, 100), r=0.6, source="gv4"),
            )
        )
    with pytest.raises(ValueError):
        BoundCurve((CurveSample(delta=Fraction(1, 100), r=1.5, source="gv4"),))
