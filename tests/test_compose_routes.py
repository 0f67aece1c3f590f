"""The routes that make compose cost its r extension rows, each against
the route it replaced (the oracles in ``helpers``).

- ``compose_pair``: the certified pair's chain, not rechecked, against
  ``steane_compose`` on the same codes, which checks it;
- ``extension_rows``: remainders from the GF(2^k) sources, stopped at
  the count the caller certifies;
- ``second_or_weight``: blocks of message-indexed weights in place of a
  loop per word;
- ``_krawtchouk``: the three-term recurrence in place of binomial sums.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

import pytest

import agstab.linear as linear_module
from agstab.artifacts import report_to_obj
from agstab.curves import build_dual_chain, enumerate_curve
from agstab.errors import BudgetExceeded
from agstab.expansion import ExpansionMap, expand_chain, expand_code
from agstab.fields import get_field, self_dual_basis
from agstab.linear import GF2, LinearCode, binary_code, code_from_rref, extension_rows, make_code
from agstab.symplectic import _krawtchouk, compose_pair, designed_quantum_bound, quantum_params, steane_compose

from helpers import (
    extend_basis_rowwise,
    generators,
    krawtchouk_sum,
    random_dual_containing_code,
    second_or_weight_pairwise,
)

CHAINS = {
    "hermitian-m1": ("hermitian", 2, 3, 1, 1),
    "hermitian-m2": ("hermitian", 4, 34, 30, 2),
    "line-q16": ("line", 16, 5, 3, 2),
}


def _emap(k):
    field = get_field(k)
    return ExpansionMap(field=field, basis=self_dual_basis(field))


def _pair(name):
    kind, q, a, a_prime, m = CHAINS[name]
    return expand_chain(build_dual_chain(enumerate_curve(kind, q), a, a_prime), _emap(2 * m))


def _plain(code):
    """The same binary code, without the GF(2^k) source it was expanded from."""
    return code_from_rref(GF2, code.n, code.matrix.copy(), code.pivots)


# -- compose_pair ----------------------------------------------------------

def _no_checks(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a containment or a dual was computed")

    for name in ("contains", "dual"):
        monkeypatch.setattr(LinearCode, name, refuse)


def _fields(f):
    return f.space, f.n, f.is_isotropic, f.is_large, f.distance_bound


def _designed(pair):
    """The bound ``compose_pair`` records when D's and D''s distances are out of budget."""
    return designed_quantum_bound(pair.source.designed_d, pair.source.designed_d_prime)


def _assert_same_but_the_fallback_bound(got, want, pair):
    """``compose_pair``'s code against ``steane_compose``'s: equal, but
    where the distances are out of budget, ``steane_compose`` records no
    bound and ``compose_pair`` the source's designed one."""
    assert _fields(got)[:-1] == _fields(want)[:-1]
    assert got.distance_bound == (_designed(pair) if want.distance_bound is None else want.distance_bound)


@pytest.mark.parametrize("budget", [1 << 26, 1 << 8])
@pytest.mark.parametrize("name", CHAINS)
def test_compose_pair_equals_steane_compose(name, budget):
    pair = _pair(name)
    want = steane_compose(pair.d, pair.d_prime, budget=budget)
    got = compose_pair(pair, budget=budget)
    _assert_same_but_the_fallback_bound(got, want, pair)
    assert got.is_large and not got.is_isotropic
    if budget == 1 << 8:  # D alone has more than 2^8 words on every chain
        assert want.distance_bound is None and got.distance_bound == _designed(pair)


@pytest.mark.parametrize("name", CHAINS)
def test_compose_pair_computes_no_containment_or_dual(monkeypatch, name):
    pair = _pair(name)
    want = steane_compose(pair.d, pair.d_prime)
    _no_checks(monkeypatch)
    _assert_same_but_the_fallback_bound(compose_pair(pair), want, pair)
    with pytest.raises(AssertionError, match="containment or a dual"):
        steane_compose(pair.d, pair.d_prime)  # the raw-code entry point keeps its checks


EXT_HAMMING = binary_code(8, [0b11111111, 0b01010101, 0b00110011, 0b00001111])
EVEN = binary_code(8, [(1 << i) | (1 << 7) for i in range(7)])
# sha256 of the desk report as perfbench serializes it (sorted keys)
DESK_REPORT_SHA256 = "b24683d31f584bed7a37aa919c86640ea4da7d787eb76fa4ba6e5d2c7e942755"


@pytest.mark.parametrize("case", ["desk", "hermitian-m1"])
def test_exact_params_compute_no_containment_or_dual(monkeypatch, case):
    fcode = steane_compose(EXT_HAMMING, EVEN) if case == "desk" else compose_pair(_pair(case))
    _no_checks(monkeypatch)
    report = quantum_params(fcode)
    assert report.d_exact
    assert report.params() == ("[[8, 3, 3]]" if case == "desk" else "[[16, 8, 3]]")


def test_the_desk_report_is_unchanged():
    report = quantum_params(steane_compose(EXT_HAMMING, EVEN))
    assert (report.params(), report.d_witness) == ("[[8, 3, 3]]", (3, 0, 0, 0, 0, 0, 2, 1))
    text = json.dumps(report_to_obj(report), sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == DESK_REPORT_SHA256


def test_compose_refuses_the_or_weight_before_it_enumerates_d(monkeypatch):
    # the m=1 D' has 2^14 - 1 words, over 2^26 pairs: D's 2^10 words go unused
    pair = _pair("hermitian-m1")
    assert steane_compose(EXT_HAMMING, EVEN).distance_bound == 3  # both within budget

    def refuse(self, budget):
        raise AssertionError("D's words were enumerated")

    monkeypatch.setattr(LinearCode, "min_distance_exact", refuse)
    assert compose_pair(pair).distance_bound == _designed(pair) == 2
    assert steane_compose(pair.d, pair.d_prime).distance_bound is None


# -- extension_rows --------------------------------------------------------

@pytest.mark.parametrize("name", CHAINS)
def test_extension_rows_match_the_rowwise_route_on_shipped_pairs(name):
    pair = _pair(name)
    d, d_prime = pair.d, pair.d_prime
    want = extend_basis_rowwise(d, d_prime)
    r = d_prime.k_dim - d.k_dim
    assert len(want) == r
    assert extension_rows(d, d_prime, r) == want  # from the GF(2^k) sources
    assert extension_rows(_plain(d), _plain(d_prime), r) == want  # on the bits


def _random_expanded_pair(k, n, nested, rng):
    field = get_field(k)
    c = random_dual_containing_code(field, n, rng)
    extra = [[rng.randrange(field.order) for _ in range(n)] for _ in range(rng.randint(1, 3))]
    rows = [*generators(c), *extra] if nested else extra + [list(g) for g in generators(c)[: c.k_dim // 2]]
    emap = _emap(k)
    return expand_code(c, emap), expand_code(make_code(field, n, rows), emap)


@pytest.mark.parametrize("k, n", [(2, 9), (2, 16), (4, 7), (4, 12), (6, 5), (6, 11)])
@pytest.mark.parametrize("nested", [True, False], ids=["nested", "not-nested"])
@pytest.mark.parametrize("seed", range(4))
def test_extension_rows_match_the_rowwise_route_on_random_expanded_chains(k, n, nested, seed):
    sub, sup = _random_expanded_pair(k, n, nested, random.Random(1000 * k + 10 * n + seed))
    want = extend_basis_rowwise(sub, sup)
    count = sup.k_dim - sub.k_dim if nested else sup.k_dim  # k(sup) bounds dim(sub + sup) - k(sub)
    assert extension_rows(sub, sup, count) == want
    assert extension_rows(_plain(sub), _plain(sup), count) == want
    if nested:
        assert len(want) == sup.k_dim - sub.k_dim


def test_m2_extension_reduces_only_the_source_rows_it_keeps(monkeypatch):
    pair = _pair("hermitian-m2")
    seen, real = [], linear_module.reduce

    def recording(vecs, basis, pivots, field):
        seen.append((field.k, vecs.shape[1], len(vecs)))
        return real(vecs, basis, pivots, field)

    monkeypatch.setattr(linear_module, "reduce", recording)
    ext = extension_rows(pair.d, pair.d_prime, pair.d_prime.k_dim - pair.d.k_dim)
    # the first 4 of C''s 39 GF(16) source rows, whose 16 expanded
    # remainders are the rows; no containment is reduced
    assert len(ext) == 16
    assert seen == [(4, 64, 4)]


# -- second_or_weight ------------------------------------------------------

@pytest.mark.parametrize("k, n", [(2, 5), (3, 8), (5, 12), (7, 20), (9, 40), (10, 70)])
@pytest.mark.parametrize("seed", range(3))
def test_the_blocked_or_weight_matches_the_pair_loop(k, n, seed):
    rng = random.Random(100 * k + n + seed)
    code = binary_code(n, [rng.getrandbits(n) for _ in range(k)])
    while code.k_dim < 2:
        code = binary_code(n, [rng.getrandbits(n) for _ in range(k)])
    assert code.second_or_weight() == second_or_weight_pairwise(code, 1 << 26)


def test_the_or_weight_refuses_its_budget_before_it_enumerates(monkeypatch):
    code = binary_code(8, [(1 << i) | (1 << 7) for i in range(7)])  # 127 words, 8001 pairs
    assert code.second_or_weight(budget=8001) == second_or_weight_pairwise(code, 8001) == 3

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(linear_module, "gray_span", no_enumeration)
    with pytest.raises(BudgetExceeded, match=re.escape("(2^7 - 1)(2^7 - 2)/2 codeword pairs exceed budget 8000")):
        code.second_or_weight(budget=8000)


def test_the_or_weight_refuses_a_dimension_whose_pair_count_has_too_many_digits_to_print():
    # (2^7200 - 1)(2^7200 - 2)/2 has more than 4300 decimal digits, which
    # Python refuses to print, so the message names it by k
    code = binary_code(7200, [1 << i for i in range(7200)])
    for or_weight in (code.second_or_weight, lambda budget: second_or_weight_pairwise(code, budget)):
        with pytest.raises(BudgetExceeded, match=re.escape("(2^7200 - 1)(2^7200 - 2)/2 codeword pairs exceed")):
            or_weight(1 << 26)


# -- Krawtchouk ------------------------------------------------------------

@pytest.mark.parametrize("n", range(25))
def test_the_krawtchouk_recurrence_matches_the_binomial_sum(n):
    for w in range(n + 1):
        assert _krawtchouk(n, w) == krawtchouk_sum(n, w)
