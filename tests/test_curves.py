import warnings

import numpy as np
import pytest

import agstab.curves as curves_module
import agstab.linear as linear_module
from agstab.curves import (
    curve_genus,
    designed_distance,
    _monomial_sums,
    _monomial_values,
    build_dual_chain,
    enumerate_curve,
    evaluation_code,
    rr_basis,
    solve_twist_vector,
)
from agstab.errors import CertificationError
from agstab.expansion import ExpansionMap, expand_chain
from agstab.fields import self_dual_basis
from agstab.linear import (
    LinearCode,
    WeightVector,
    code_from_matrix,
    from_symbols,
    make_code,
    nullspace,
    rref,
)

# (curve, q, a, a') of the m=1, m=2 and line q=16 pipelines
CHAINS = [("hermitian", 2, 3, 1), ("hermitian", 4, 34, 30), ("line", 16, 5, 3)]


def ones(field, n):
    """The twist and scaling of every chain: 1 on all n points."""
    return WeightVector(field, (1,) * n)


def counting_calls(monkeypatch, name="dual"):
    """Wrap the LinearCode method ``name``; the returned list gets the field of each call."""
    calls = []
    plain = getattr(LinearCode, name)

    def method(self, *args):
        calls.append(self.field)
        return plain(self, *args)

    monkeypatch.setattr(LinearCode, name, method)
    return calls


def eval_monomial(field, mono, point):
    """x^i y^j at one point in scalar field arithmetic; Field.pow has 0^0 = 1."""
    i, j = mono
    x, y = point
    return field.mul(field.pow(x, i), field.pow(y, j))


def log_exp_values(field, monomials, points):
    """Reference: x^i y^j through the exp/log tables, x^e = exp[log x * e mod (q - 1)], 0^0 = 1."""
    exp = np.array(field.exp, dtype=np.uint8)
    log = np.array(field.log, dtype=np.int64)
    exponents = np.array(monomials, dtype=np.int64).reshape(-1, 2)
    coords = np.array(points, dtype=np.int64).reshape(-1, 2)
    out = np.ones((len(exponents), len(coords)), dtype=np.uint8)
    for axis in range(2):
        e = exponents[:, axis, None]
        v = coords[None, :, axis]
        power = np.where(v == 0, e == 0, exp[log[v] * e % (field.order - 1)])
        out = field.mul_table[out, power]
    return out


def twist_space(cur, a):
    """Reference: the solutions w of sum_i w_i f(P_i) g(P_i) = 0 over all
    pairs (f, g) of the degree-a basis, as a code over the curve's field."""
    f, n = cur.field, cur.n_points
    monos = rr_basis(cur, a)
    prods = sorted({(i1 + i2, j1 + j2) for i1, j1 in monos for i2, j2 in monos})
    rr, pv = rref(from_symbols(f, _monomial_values(f, prods, cur.points)), f, n)
    return code_from_matrix(f, n, nullspace(rr, pv, f, n))


def dual_route_chain(cur, a, a_prime):
    """Reference: (C, C', regime) by evaluation codes, two duals and two
    containments, with ``allow_extended``; CertificationError where ev_a is
    not self-orthogonal."""
    ev = evaluation_code(cur, a)
    c = ev.dual()
    if not c.contains(ev):
        raise CertificationError(f"ev_{a} is not self-orthogonal")
    c_prime = evaluation_code(cur, a_prime).dual()
    if not c_prime.contains(c):
        raise CertificationError("C' does not contain C")
    standard = 2 * a <= cur.n_points + cur.genus - 2
    return c, c_prime, "standard" if standard else "extended"


# (curve, q) of the differential chain sweep
CHAIN_SWEEP = [("line", 4), ("line", 8), ("line", 16), ("line", 32), ("hermitian", 2), ("hermitian", 4)]


# (curve, q, degrees) of the twist oracle sweep
TWIST_SWEEP = [
    ("line", 4, range(4)),
    ("line", 8, range(8)),
    ("line", 16, range(16)),
    ("hermitian", 2, range(8)),
    ("hermitian", 4, range(64)),
    ("hermitian", 8, (269, 270, 283, 284)),
]


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

    def test_genus_formula(self):
        # the Hermitian genus also matches the gap counts above
        assert [curve_genus("hermitian", q) for q in (2, 4, 8)] == [1, 6, 28]
        assert curve_genus("line", 16) == 0
        with pytest.raises(ValueError, match="unknown curve kind"):
            curve_genus("elliptic", 4)

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
        assert rr_basis(cur, 0) == ((0, 0),)

    def test_pole_orders_0_2_3(self):
        cur = enumerate_curve("hermitian", 2)
        assert rr_basis(cur, 3) == ((0, 0), (1, 0), (0, 1))
        assert rr_basis(cur, 4) == ((0, 0), (1, 0), (0, 1), (2, 0))

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
        assert rr_basis(cur, 2) == ((0, 0), (1, 0), (2, 0))

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

    @pytest.mark.parametrize(
        "kind, q", [*(("line", 1 << k) for k in range(1, 9)), *(("hermitian", q) for q in (2, 4, 8))]
    )
    def test_power_tables_match_the_log_exp_formula_at_every_degree(self, kind, q):
        cur = enumerate_curve(kind, q)
        f, n = cur.field, cur.n_points
        assert any(x == 0 for x, _ in cur.points) and any(y == 0 for _, y in cur.points)
        # Pole orders are distinct, so every degree's basis is a prefix of
        # the largest one, and rows are computed independently.
        full = rr_basis(cur, n - 1)
        want = log_exp_values(f, full, cur.points)
        for a in range(n):
            monos = rr_basis(cur, a)
            assert monos == full[: len(monos)]
            got = _monomial_values(f, monos, cur.points)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want[: len(monos)])


class TestTwist:
    def test_hermitian_q2_all_ones_is_valid(self):
        # oracle: all 9 basis-pair sums vanish with unit weights
        cur = enumerate_curve("hermitian", 2)
        f = cur.field
        monos = rr_basis(cur, 3)
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
        assert (tw.regime, tw.attempts) == ("standard", 1)
        ev = evaluation_code(cur, 3)
        assert tw.c == ev.weighted_dual(ones(cur.field, 8))
        assert tw.c.contains(ev)

    def test_line_full_length_small_a(self):
        cur = enumerate_curve("line", 16)
        tw = solve_twist_vector(cur, 5)
        ev = evaluation_code(cur, 5)
        assert tw.c == ev.weighted_dual(ones(cur.field, 16))
        assert tw.c.contains(ev)

    def test_bound_guard_and_extended_flag(self):
        cur = enumerate_curve("line", 16)
        solve_twist_vector(cur, 7)  # boundary: 2a = n' + g - 2
        with pytest.raises(ValueError):
            solve_twist_vector(cur, 8)
        # beyond the bound the product space fills everything here
        with pytest.raises(CertificationError, match="not self-orthogonal"):
            solve_twist_vector(cur, 8, allow_extended=True)

    def test_twist_outside_the_solution_space_is_refused(self):
        # one degree past the window 2a <= n + 2g - 2: w = 1 no longer solves
        for q, a, a_prime in [(2, 5, 1), (4, 38, 30)]:
            cur = enumerate_curve("hermitian", q)
            window = cur.n_points + 2 * cur.genus - 2
            assert 2 * a == window + 2
            ev = evaluation_code(cur, a)
            assert not ev.dual().contains(ev)
            msg = rf"2a={2 * a}, n\+2g-2={window}"
            with pytest.raises(CertificationError, match=msg):
                solve_twist_vector(cur, a, allow_extended=True)
            with pytest.raises(CertificationError, match=msg):
                build_dual_chain(cur, a, a_prime, allow_extended=True)

    @pytest.mark.parametrize("kind, q, degrees", TWIST_SWEEP)
    def test_monomial_sums_are_the_distinct_pair_sums(self, kind, q, degrees):
        cur = enumerate_curve(kind, q)
        for a in degrees:
            monos = rr_basis(cur, a)
            pairs = {(i1 + i2, j1 + j2) for i1, j1 in monos for i2, j2 in monos}
            assert _monomial_sums(monos) == sorted(pairs, key=lambda s: (s[1], s[0])), a

    def test_power_sums_in_blocks_of_one(self, monkeypatch):
        # one sum per block: the same acceptance and refusal at the window's edge
        monkeypatch.setattr(curves_module, "_SUM_CELLS", 1)
        cur = enumerate_curve("hermitian", 4)
        assert solve_twist_vector(cur, 37, allow_extended=True).regime == "extended"
        with pytest.raises(CertificationError, match="not self-orthogonal"):
            solve_twist_vector(cur, 38, allow_extended=True)

    @pytest.mark.parametrize("kind, q, degrees", TWIST_SWEEP)
    def test_matches_the_solution_space_of_the_bilinear_system(self, kind, q, degrees):
        # w = 1 exactly when the reference space holds it, a refusal
        # exactly when that space is {0}, and never a third outcome
        cur = enumerate_curve(kind, q)
        n, window = cur.n_points, cur.n_points + 2 * cur.genus - 2
        ones = make_code(cur.field, n, [[1] * n])
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # degrees below 2g - 1
            for a in degrees:
                space = twist_space(cur, a)
                try:
                    tw = solve_twist_vector(cur, a, allow_extended=True)
                except CertificationError as exc:
                    assert "not self-orthogonal" in str(exc), a
                    assert space.k_dim == 0, a
                    solved = False
                else:
                    assert tw.attempts == 1, a
                    assert space.contains(ones), a
                    solved = True
                assert solved == (2 * a <= window), a
                outcomes.add(solved)
        assert outcomes == {True, False}


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
        with pytest.raises(ValueError, match="not injective"):
            build_dual_chain(cur, 8, 1, allow_extended=True)  # a >= n

    def test_a_basis_that_is_not_a_prefix_is_refused(self, monkeypatch):
        # C' >= C rests on ev_a' being spanned by ev_a's first rows
        plain = curves_module.rr_basis
        monkeypatch.setattr(
            curves_module, "rr_basis", lambda cur, a: plain(cur, a)[::-1] if a == 30 else plain(cur, a)
        )
        with pytest.raises(CertificationError, match="prefix"):
            build_dual_chain(enumerate_curve("hermitian", 4), 34, 30)

    def test_designed_distance_floors_at_one(self):
        # a - 2g + 2 for ev_a^perp, and 1 where that is not positive
        assert [designed_distance(a, 1) for a in (1, 3, 5)] == [1, 3, 5]
        assert designed_distance(30, 28) == 1

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
    """C = ev_a^perp against the weighted-dual route it replaced."""

    @pytest.mark.parametrize("kind, q, a, a_prime", CHAINS)
    def test_matches_the_weighted_dual_route(self, kind, q, a, a_prime):
        cur = enumerate_curve(kind, q)
        t = build_dual_chain(cur, a, a_prime)
        w = v = ones(cur.field, cur.n_points)
        ev_a = evaluation_code(cur, a)
        ev_ap = evaluation_code(cur, a_prime)
        assert t.c == ev_a.weighted_dual(w).scale(v)
        assert t.c_prime == ev_ap.weighted_dual(w).scale(v)
        assert t.c.dual() == ev_a.scale(v)

    @pytest.mark.parametrize("kind, q, a, a_prime", CHAINS)
    def test_one_elimination_per_chain_code(self, kind, q, a, a_prime, monkeypatch):
        # C and C' each from one elimination of ev_a's value rows; the
        # power sums certify C >= C_perp and the prefix gives C' >= C
        cur = enumerate_curve(kind, q)
        duals = counting_calls(monkeypatch, "dual")
        containments = counting_calls(monkeypatch, "contains")
        eliminations = []
        plain = linear_module.rref

        def rref(mat, field, n):
            eliminations.append(field)
            return plain(mat, field, n)

        monkeypatch.setattr(linear_module, "rref", rref)
        build_dual_chain(cur, a, a_prime)
        assert duals == containments == []
        assert eliminations == [cur.field, cur.field]

    @pytest.mark.parametrize("kind, q", CHAIN_SWEEP)
    def test_matches_the_dual_route_on_every_degree(self, kind, q):
        # every a < n with allow_extended, and a' at 2g - 1 and at a - 1:
        # the same C, C' and regime, and a refusal exactly where ev_a is
        # not self-orthogonal
        cur = enumerate_curve(kind, q)
        low = max(2 * cur.genus - 1, 0)
        outcomes = set()
        for a in range(low + 1, cur.n_points):
            for a_prime in sorted({low, a - 1}):
                try:
                    want = dual_route_chain(cur, a, a_prime)
                except CertificationError:
                    with pytest.raises(CertificationError, match="not self-orthogonal"):
                        build_dual_chain(cur, a, a_prime, allow_extended=True)
                    outcomes.add("refused")
                    continue
                t = build_dual_chain(cur, a, a_prime, allow_extended=True)
                assert (t.c, t.c_prime, t.regime) == want, (a, a_prime)
                outcomes.add(t.regime)
        # the extended regime, n + g - 2 < 2a <= n + 2g - 2, needs g > 0
        assert outcomes == {"standard", "refused"} | ({"extended"} if cur.genus else set())

    @pytest.mark.parametrize("kind, q, a, a_prime", CHAINS)
    def test_descent_makes_no_binary_dual(self, kind, q, a, a_prime, monkeypatch):
        t = build_dual_chain(enumerate_curve(kind, q), a, a_prime)
        emap = ExpansionMap(field=t.field, basis=self_dual_basis(t.field))
        duals = counting_calls(monkeypatch, "dual")
        containments = counting_calls(monkeypatch, "contains")
        expand_chain(t, emap)
        assert duals == containments == []  # build_dual_chain certified the chain
