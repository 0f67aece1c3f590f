import warnings

import numpy as np
import pytest

from agstab import curves
from agstab.curves import (
    _all_nonzero_combination,
    _monomial_values,
    build_dual_chain,
    enumerate_curve,
    evaluation_code,
    rr_basis,
    solve_twist_vector,
)
from agstab.errors import CertificationError, TwistSearchError
from agstab.expansion import ExpansionMap, expand_chain
from agstab.fields import get_field, self_dual_basis
from agstab.linear import LinearCode, WeightVector

# (curve, q, a, a') of the m=1, m=2 and line q=16 pipelines
CHAINS = [("hermitian", 2, 3, 1), ("hermitian", 4, 34, 30), ("line", 16, 5, 3)]


def squared(v):
    """The entrywise square of a weight vector."""
    return WeightVector(v.field, tuple(v.field.mul(e, e) for e in v.entries))


def counting_duals(monkeypatch):
    """Wrap LinearCode.dual; the returned list gets the field of each call."""
    calls = []
    plain = LinearCode.dual

    def dual(self):
        calls.append(self.field)
        return plain(self)

    monkeypatch.setattr(LinearCode, "dual", dual)
    return calls


def eval_monomial(field, mono, point):
    """x^i y^j at one point in scalar field arithmetic; Field.pow has 0^0 = 1."""
    i, j = mono
    x, y = point
    return field.mul(field.pow(x, i), field.pow(y, j))


def semigroup_gaps(q: int, bound: int) -> list[int]:
    """Oracle: naturals below bound not of the form q*i + (q+1)*j."""
    reachable = {0}
    for _ in range(bound):
        reachable |= {r + q for r in reachable} | {r + q + 1 for r in reachable}
    return [t for t in range(1, bound) if t not in reachable]


class TestEnumerate:
    def test_hermitian_q2(self):
        cur = enumerate_curve("hermitian", 2)
        assert cur.n_points == 8
        assert cur.genus == 1
        f = cur.field
        # oracle: brute-force point check x^3 = y^2 + y over GF(4)^2
        pts = {
            (x, y)
            for x in range(f.order)
            for y in range(f.order)
            if f.pow(x, 3) == f.add(f.pow(y, 2), y)
        }
        assert set(cur.points) == pts

    def test_hermitian_q2_genus_from_gap_count(self):
        cur = enumerate_curve("hermitian", 2)
        assert cur.genus == len(semigroup_gaps(2, 2 * cur.genus + 2))

    def test_hermitian_q4(self):
        cur = enumerate_curve("hermitian", 4)
        assert cur.n_points == 64
        assert cur.genus == 6
        assert cur.genus == len(semigroup_gaps(4, 2 * cur.genus + 2))

    def test_line_gf16(self):
        cur = enumerate_curve("line", 16)
        assert cur.n_points == 16
        assert cur.genus == 0
        assert {p[0] for p in cur.points} == set(range(16))

    def test_hermitian_q8_construction_scale(self):
        cur = enumerate_curve("hermitian", 8)
        assert cur.n_points == 512
        assert cur.genus == 28
        assert len(rr_basis(cur, 55)) == 55 - 28 + 1

    def test_unsupported(self):
        with pytest.raises(ValueError):
            enumerate_curve("hermitian", 3)
        with pytest.raises(ValueError):
            enumerate_curve("line", 12)
        with pytest.raises(ValueError):
            enumerate_curve("conic", 4)

    def test_point_order_deterministic(self):
        assert enumerate_curve("hermitian", 2).points == enumerate_curve("hermitian", 2).points


class TestRRBasis:
    def test_constants_only(self):
        cur = enumerate_curve("hermitian", 2)
        assert rr_basis(cur, 0).monomials == ((0, 0),)

    def test_pole_orders_0_2_3(self):
        cur = enumerate_curve("hermitian", 2)
        assert rr_basis(cur, 3).monomials == ((0, 0), (1, 0), (0, 1))
        assert rr_basis(cur, 4).monomials == ((0, 0), (1, 0), (0, 1), (2, 0))

    @pytest.mark.parametrize("q", [2, 4])
    def test_size_matches_gap_counting_oracle(self, q):
        cur = enumerate_curve("hermitian", q)
        g = cur.genus
        gaps = set(semigroup_gaps(q, 4 * g + 4))
        for a in range(2 * g - 1, 3 * g + 3):
            expected = sum(1 for t in range(a + 1) if t not in gaps)
            assert len(rr_basis(cur, a)) == expected == a - g + 1

    def test_line_is_polynomials(self):
        cur = enumerate_curve("line", 4)
        assert rr_basis(cur, 2).monomials == ((0, 0), (1, 0), (2, 0))

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            rr_basis(enumerate_curve("line", 4), -1)


class TestEvaluationCode:
    def test_hermitian_a3(self):
        cur = enumerate_curve("hermitian", 2)
        code = evaluation_code(cur, 3)
        assert (code.n, code.k_dim) == (8, 3)

    def test_line_classic(self):
        cur = enumerate_curve("line", 8)
        code = evaluation_code(cur, 3)
        assert (code.n, code.k_dim) == (8, 4)

    def test_a_too_large(self):
        with pytest.raises(ValueError):
            evaluation_code(enumerate_curve("line", 4), 4)

    def test_warns_below_stable_range(self):
        cur = enumerate_curve("hermitian", 4)  # 2g - 1 = 11
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluation_code(cur, 5)
        assert any("2g-1" in str(w.message) for w in caught)

    @pytest.mark.parametrize("kind, q", [("line", 16), ("hermitian", 2), ("hermitian", 4), ("hermitian", 8)])
    def test_monomial_values_match_scalar_evaluation(self, kind, q):
        cur = enumerate_curve(kind, q)
        f = cur.field
        assert any(x == 0 for x, _ in cur.points) and any(y == 0 for _, y in cur.points)
        # exponents 0 (0^0 = 1), small, and around and past the order of GF(q)*
        exps = (0, 1, 2, f.order - 2, f.order - 1, f.order, 2 * f.order + 3)
        monos = [(i, j) for i in exps for j in exps]
        got = _monomial_values(f, monos, cur.points)
        want = [[eval_monomial(f, m, p) for p in cur.points] for m in monos]
        assert got.dtype == np.uint8
        assert got.tolist() == want


class TestTwist:
    def test_hermitian_q2_all_ones_is_valid(self):
        # oracle: all 9 basis-pair sums vanish with unit weights
        cur = enumerate_curve("hermitian", 2)
        f = cur.field
        monos = rr_basis(cur, 3).monomials
        for i1, j1 in monos:
            for i2, j2 in monos:
                total = 0
                for x, y in cur.points:
                    total ^= f.mul(
                        f.mul(f.pow(x, i1), f.pow(y, j1)),
                        f.mul(f.pow(x, i2), f.pow(y, j2)),
                    )
                assert total == 0

    def test_solver_result_certified(self):
        cur = enumerate_curve("hermitian", 2)
        tw = solve_twist_vector(cur, 3)
        assert all(tw.weights.entries)
        assert tw.kept == tuple(range(8))
        assert tw.dropped == ()
        assert tw.regime == "standard"
        ev = evaluation_code(cur, 3, tw.kept)
        assert ev.weighted_dual(tw.weights).contains(ev)

    def test_line_full_length_small_a(self):
        cur = enumerate_curve("line", 16)
        tw = solve_twist_vector(cur, 5)
        ev = evaluation_code(cur, 5, tw.kept)
        assert ev.weighted_dual(tw.weights).contains(ev)

    def test_bound_guard_and_extended_flag(self):
        cur = enumerate_curve("line", 16)
        solve_twist_vector(cur, 7)  # boundary: 2a = n' + g - 2
        with pytest.raises(ValueError):
            solve_twist_vector(cur, 8)
        # beyond the bound the product space fills everything here
        with pytest.raises(TwistSearchError):
            solve_twist_vector(cur, 8, allow_extended=True)

    def test_twist_outside_the_solution_space_is_refused(self, monkeypatch):
        cur = enumerate_curve("hermitian", 2)
        bad = [2] + [1] * 7  # all nonzero, but not a solution
        ev = evaluation_code(cur, 3)
        assert not ev.weighted_dual(WeightVector(cur.field, tuple(bad))).contains(ev)
        monkeypatch.setattr(curves, "_all_nonzero_combination", lambda *_: (bad, 1))
        with pytest.raises(CertificationError, match="fails the self-orthogonality check"):
            solve_twist_vector(cur, 3)

    def test_all_nonzero_search_odometer_and_greedy(self):
        f4 = get_field(2)
        basis = [(1, 0, 1), (0, 1, 1)]  # plain sum has a zero coordinate
        w, attempts = _all_nonzero_combination(basis, f4, limit=1 << 16)
        assert (w, attempts) == ([2, 1, 3], 2)
        w2, _ = _all_nonzero_combination(basis, f4, limit=1)  # force greedy
        assert all(w2)


class TestDualChain:
    def test_hermitian_q2_instance(self):
        cur = enumerate_curve("hermitian", 2)
        t = build_dual_chain(cur, 3, 1)
        assert (t.c.n, t.c.k_dim) == (8, 5)
        assert (t.c_prime.n, t.c_prime.k_dim) == (8, 7)
        assert t.c_prime.contains(t.c)
        assert t.c.contains(t.c.dual())
        assert (t.designed_d, t.designed_d_prime) == (3, 1)
        assert t.c.min_distance_exact() == 3
        assert t.c_prime.min_distance_exact() == 2
        assert t.c_prime.k_dim - t.c.k_dim == t.a - t.a_prime

    def test_one_twist_serves_both_degrees(self):
        t = build_dual_chain(enumerate_curve("hermitian", 2), 3, 1)
        assert t.twist is squared(t.scaling) or t.twist.entries == squared(t.scaling).entries

    def test_line_gf4_mds(self):
        t = build_dual_chain(enumerate_curve("line", 4), 1, 0)
        assert (t.c.n, t.c.k_dim) == (4, 2)
        assert t.c.min_distance_exact() == 3  # MDS: n - k + 1

    def test_line_gf16(self):
        t = build_dual_chain(enumerate_curve("line", 16), 5, 3)
        assert (t.c.k_dim, t.c_prime.k_dim) == (10, 12)
        assert t.c_prime.contains(t.c)
        assert t.c.contains(t.c.dual())

    def test_guards(self):
        cur = enumerate_curve("hermitian", 2)
        with pytest.raises(ValueError):
            build_dual_chain(cur, 3, 3)  # no enlargement
        with pytest.raises(ValueError):
            build_dual_chain(cur, 3, 0)  # a' below 2g - 1
        with pytest.raises(ValueError):
            build_dual_chain(cur, 4, 1)  # a beyond the divisor bound

    def test_exact_distance_meets_designed_bound(self):
        for q, a, a_prime in [(2, 3, 1)]:
            t = build_dual_chain(enumerate_curve("hermitian", q), a, a_prime)
            assert t.c.min_distance_exact() >= t.designed_d

    def test_hermitian_q8_chain_bound_only(self):
        # construction-scale run: certificates exact, distances designed-only
        t = build_dual_chain(enumerate_curve("hermitian", 8), 100, 60)
        assert (t.c.k_dim, t.c_prime.k_dim) == (439, 479)
        assert (t.designed_d, t.designed_d_prime) == (46, 6)
        assert t.c_prime.contains(t.c)
        assert t.c.contains(t.c.dual())


class TestChainFromConstruction:
    """C = (v * ev_a)^perp against the weighted-dual route it replaced."""

    @pytest.mark.parametrize("kind, q, a, a_prime", CHAINS)
    def test_matches_the_weighted_dual_route(self, kind, q, a, a_prime):
        cur = enumerate_curve(kind, q)
        t = build_dual_chain(cur, a, a_prime)
        w, v = t.twist, t.scaling
        ev_a = evaluation_code(cur, a, t.kept_points)
        ev_ap = evaluation_code(cur, a_prime, t.kept_points)
        assert t.c == ev_a.weighted_dual(w).scale(v)
        assert t.c_prime == ev_ap.weighted_dual(w).scale(v)
        assert t.c.dual() == ev_a.scale(v)

    def test_a_non_constant_twist_is_certified_on_v_times_ev_a(self, monkeypatch):
        # Every instance above solves with a constant w, for which v * ev_a
        # spans ev_a.  w(x) = x^2 + x + c has no root in GF(16) for some c,
        # and sum_x w(x) x^t = 0 for t <= 12, so it twists ev_5 and ev_3 too.
        cur = enumerate_curve("line", 16)
        f = cur.field
        for c in range(f.order):
            w = [f.add(f.mul(x, x), f.add(x, c)) for x, _ in cur.points]
            if all(w):
                break
        weights = WeightVector(f, tuple(w))
        ev_a, ev_ap = evaluation_code(cur, 5), evaluation_code(cur, 3)
        assert len(set(w)) > 1 and ev_a.weighted_dual(weights).contains(ev_a)
        monkeypatch.setattr(curves, "_all_nonzero_combination", lambda *_: (w, 1))
        t = build_dual_chain(cur, 5, 3)
        v = weights.sqrt()
        assert t.c == ev_a.weighted_dual(weights).scale(v)
        assert t.c_prime == ev_ap.weighted_dual(weights).scale(v)
        assert t.c.dual() == ev_a.scale(v) != ev_a

    @pytest.mark.parametrize("kind, q, a, a_prime", CHAINS)
    def test_one_dual_per_chain_code(self, kind, q, a, a_prime, monkeypatch):
        cur = enumerate_curve(kind, q)
        calls = counting_duals(monkeypatch)
        build_dual_chain(cur, a, a_prime)
        assert calls == [cur.field, cur.field]

    @pytest.mark.parametrize("kind, q, a, a_prime", CHAINS)
    def test_descent_makes_no_binary_dual(self, kind, q, a, a_prime, monkeypatch):
        t = build_dual_chain(enumerate_curve(kind, q), a, a_prime)
        emap = ExpansionMap(field=t.field, basis=self_dual_basis(t.field))
        calls = counting_duals(monkeypatch)
        expand_chain(t, emap)
        assert calls == [t.field]  # C.dual(), over the symbol field
