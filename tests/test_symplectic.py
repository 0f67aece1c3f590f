import random
from fractions import Fraction

import numpy as np
import pytest

import agstab.linear as linear_module
import agstab.symplectic as symplectic_module
from agstab import artifacts
from agstab.errors import BudgetExceeded, CertificationError
from agstab.fields import EPS, EPS_BAR, get_field
from agstab.linear import binary_code, extension_rows, gray_span, make_code
from agstab.pipeline import PipelineConfig, pipeline_build
from agstab.symplectic import (
    _block_weights,
    _distance_floor,
    _halves,
    _macwilliams,
    _min_weight_difference,
    _weight_distribution,
    _word_dtype,
    designed_quantum_bound,
    make_symplectic,
    quantum_bound,
    quantum_params,
    steane_compose,
    unpack_gf4,
)

from gf4_words import pack_gf4
from helpers import random_dual_containing_code, symplectic_dual, symplectic_form

GF2 = get_field(1)
GF4 = get_field(2)

EXT_HAMMING = binary_code(8, [0b11111111, 0b01010101, 0b00110011, 0b00001111])
EVEN = binary_code(8, [(1 << i) | (1 << 7) for i in range(7)])

F422_VECS = [pack_gf4((EPS,) * 4), pack_gf4((EPS_BAR,) * 4)]


def test_pack_unpack_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        word = tuple(rng.randrange(4) for _ in range(6))
        assert unpack_gf4(pack_gf4(word), 6) == word


def gf4_weight(v, n):
    """Number of coordinates with (a_j, b_j) != (0, 0)."""
    return ((v | (v >> n)) & ((1 << n) - 1)).bit_count()


def test_weight_counts_nonzero_symbols():
    word = (0, 1, EPS, EPS_BAR, 0)
    assert gf4_weight(pack_gf4(word), 5) == 3


class TestForm:
    def test_alternating(self):
        rng = random.Random(4)
        for _ in range(50):
            x = rng.randrange(1 << 12)
            assert symplectic_form(x, x, 6) == 0

    def test_symmetric(self):
        rng = random.Random(5)
        for _ in range(50):
            x, y = rng.randrange(1 << 12), rng.randrange(1 << 12)
            assert symplectic_form(x, y, 6) == symplectic_form(y, x, 6)

    def test_conjugate_quadruple_vanishes(self):
        x = pack_gf4((EPS,) * 4)
        y = pack_gf4((EPS_BAR,) * 4)
        assert symplectic_form(x, y, 4) == 0

    def test_single_position_pairs_to_one(self):
        x = pack_gf4((EPS, 0))
        y = pack_gf4((EPS_BAR, 0))
        assert symplectic_form(x, y, 2) == 1

    def test_matches_trace_of_conjugate_product(self):
        rng = random.Random(6)
        for _ in range(40):
            xw = tuple(rng.randrange(4) for _ in range(5))
            yw = tuple(rng.randrange(4) for _ in range(5))
            via_trace = 0
            for a, b in zip(xw, yw):
                via_trace ^= GF4.trace(GF4.mul(a, GF4.mul(b, b)))  # b^2 = conj(b)
            assert symplectic_form(pack_gf4(xw), pack_gf4(yw), 5) == via_trace


class TestDual:
    def test_zero_space(self):
        f = make_symplectic(3, [])
        dual = symplectic_dual(f)
        assert dual.k_dim == 6
        assert dual.is_large

    def test_four_qubit_instance(self):
        f = make_symplectic(4, F422_VECS)
        assert f.k_dim == 2 and f.is_isotropic and not f.is_large
        dual = symplectic_dual(f)
        assert dual.k_dim == 6
        assert dual.space.contains(f.space)

    def test_dimension_sum(self):
        rng = random.Random(8)
        for _ in range(15):
            vecs = [rng.randrange(1 << 10) for _ in range(rng.randint(0, 6))]
            f = make_symplectic(5, vecs)
            assert f.k_dim + symplectic_dual(f).k_dim == 10

    def test_isotropy_extends_to_random_span_elements(self):
        f = make_symplectic(4, F422_VECS)
        rng = random.Random(9)
        rows = f.space.bit_rows
        for _ in range(100):
            x = 0
            y = 0
            for r in rows:
                if rng.random() < 0.5:
                    x ^= r
                if rng.random() < 0.5:
                    y ^= r
            assert symplectic_form(x, y, 4) == 0


class TestSteaneCompose:
    def test_ext_hamming_even_instance(self):
        f = steane_compose(EXT_HAMMING, EVEN)
        assert f.k_dim == 11
        assert f.is_large
        assert f.distance_bound == 3  # min(d=4, or2=3)
        dual = symplectic_dual(f)
        assert f.space.contains(dual.space)
        assert dual.is_isotropic

    def test_enumerated_weight_meets_bound(self):
        f = steane_compose(EXT_HAMMING, EVEN)
        span = np.concatenate(list(gray_span(_halves(f.space.bit_rows, f.n))))[1:]
        weights = np.bitwise_count(span[:, 0] | span[:, 1])
        assert len(span) == (1 << f.k_dim) - 1
        assert weights.min() >= f.distance_bound

    def test_identical_codes_rejected(self):
        with pytest.raises(ValueError):
            steane_compose(EXT_HAMMING, EXT_HAMMING)

    def test_thin_enlargement_rejected(self):
        bigger = binary_code(8, list(EXT_HAMMING.bit_rows) + [0b00000011])
        with pytest.raises(ValueError, match=r"need k' >= k \+ 2"):
            steane_compose(EXT_HAMMING, bigger)

    def test_chain_violations_rejected(self):
        not_contained = binary_code(8, [1, 2, 4, 8, 16, 32])
        with pytest.raises(ValueError, match="D' does not contain D"):
            steane_compose(EXT_HAMMING, not_contained)
        no_dual = binary_code(8, [0b00000001, 0b00000010])
        sup = binary_code(8, [1, 2, 4, 8])
        with pytest.raises(ValueError, match="D does not contain its dual"):
            steane_compose(no_dual, sup)
        with pytest.raises(ValueError, match="codes have different lengths"):
            steane_compose(EXT_HAMMING, binary_code(9, [1 << i for i in range(9)]))

    def test_dimension_bookkeeping(self):
        f = steane_compose(EXT_HAMMING, EVEN)
        assert f.k_dim == EXT_HAMMING.k_dim + EVEN.k_dim


class TestQuantumParams:
    def test_steane_instance_is_8_3_3(self):
        f = steane_compose(EXT_HAMMING, EVEN)
        rep = quantum_params(f)
        assert (rep.n, rep.k_q) == (8, 3)
        assert rep.d_q == 3 and rep.d_exact
        assert rep.d_witness is not None
        assert sum(1 for s in rep.d_witness if s) == 3
        assert rep.k_q == f.k_dim - f.n

    def test_small_code_roles_swap(self):
        f = make_symplectic(4, F422_VECS)
        rep = quantum_params(f)
        assert (rep.n, rep.k_q) == (4, 2)
        assert rep.d_q == 2 and rep.d_exact

    def test_full_space(self):
        full = make_symplectic(3, [1 << i for i in range(6)])
        rep = quantum_params(full)
        assert rep.k_q == 3
        assert rep.d_q == 1

    def test_budget_fallback_reports_bound(self):
        f = steane_compose(EXT_HAMMING, EVEN)
        rep = quantum_params(f, budget=16)
        assert rep.d_q == 3 and not rep.d_exact

    def test_self_dual_tie_carries_both_flags(self):
        # k_F = n = 1 and F = F^omega = <(1|0)>: dimension settles neither flag
        f = make_symplectic(1, [0b01])
        assert f.k_dim == f.n == 1
        assert f.space == f.dual_space
        assert f.is_isotropic and f.is_large
        rep = quantum_params(f)
        assert (rep.k_q, rep.d_q, rep.d_exact) == (0, None, False)
        assert any("self-dual case" in line for line in rep.trace)

    def test_neither_flag_rejected(self):
        crooked = make_symplectic(2, [pack_gf4((EPS, 0)), pack_gf4((EPS_BAR, 0))])
        assert not crooked.is_isotropic and not crooked.is_large
        with pytest.raises(ValueError):
            quantum_params(crooked)


def test_quantum_bound():
    assert quantum_bound(4, 3) == 3
    assert quantum_bound(3, 5) == 3
    with pytest.raises(ValueError):
        quantum_bound(0, 3)


def test_bound_via_or_weight_never_below_three_halves_form():
    # min(d, or2) >= min(d, ceil(3 d'/2)) since or2 >= ceil(3 d'/2)
    rng = random.Random(31)
    done = 0
    while done < 20:
        n = rng.randint(4, 10)
        c = binary_code(n, [rng.randrange(1, 1 << n) for _ in range(3)])
        if c.k_dim < 2:
            continue
        d_prime = c.min_distance_exact()
        or2 = c.second_or_weight()
        for d in (1, 2, 3, 5):
            assert quantum_bound(d, or2) >= quantum_bound(d, -(-3 * d_prime // 2))
        done += 1


def test_witness_lies_outside_the_dual():
    f = steane_compose(EXT_HAMMING, EVEN)
    rep = quantum_params(f)
    packed = pack_gf4(rep.d_witness)
    dual = symplectic_dual(f)
    assert f.space.contains(binary_code(16, [packed]))
    assert not dual.space.contains(binary_code(16, [packed]))


def test_coset_enumeration_python_fallback_matches_numpy():
    # n=40 puts each 2n-bit vector across two packed words; the search
    # must agree with the n=4 instance of the same structure, witness too
    small_rows = [pack_gf4((EPS,) * 4)]
    big_rows = small_rows + [pack_gf4((EPS_BAR,) * 4), pack_gf4((1, 1, 0, 0))]
    small8 = binary_code(8, small_rows)
    big8 = binary_code(8, big_rows)
    w8, wit8 = _min_weight_difference(big8, small8, 4, 1)

    def widen(v):  # re-embed (a|b) at n=4 into n=40 with zero padding
        a, b = v & 0xF, v >> 4
        return a | (b << 40)

    small80 = binary_code(80, [widen(r) for r in small_rows])
    big80 = binary_code(80, [widen(r) for r in big_rows])
    w80, wit80 = _min_weight_difference(big80, small80, 40, 1)
    assert w8 == w80
    assert widen(wit8) == wit80


def _gray(rows):
    """The span of ``rows`` as Python ints, in the Gray order of ``gray_span``."""
    out = [0]
    for t in range(1, 1 << len(rows)):
        out.append(out[-1] ^ rows[(t & -t).bit_length() - 1])
    return out


def _reference_min_weight_difference(big, small, n):
    """(weight, witness) by the coset order of ``_min_weight_difference``, in ints.

    Transversal span in Gray order, each representative against the
    subgroup span in Gray order, the zero representative skipped; the
    first strict minimum wins.
    """
    mask = (1 << n) - 1
    sub = _gray(small.bit_rows)
    best, witness = n + 1, 0
    for rep in _gray(extension_rows(small, big, big.k_dim - small.k_dim))[1:]:
        for s in sub:
            v = rep ^ s
            w = ((v & mask) | (v >> n)).bit_count()
            if w < best:
                best, witness = w, v
    return best, witness


def _oracle_case(n, seed):
    """small < big of 2n-bit sparse rows, the top bit of each half in play.

    Rows of three random bits make weight ties common, so the witness
    pins the tie rule; one extension row sets bits n-1 and 2n-1.
    """
    rng = random.Random(1000 * n + seed)

    def sparse():
        v = 0
        for _ in range(3):
            v |= 1 << rng.randrange(2 * n)
        return v

    small_rows = [sparse() for _ in range(4 + seed)]
    extra = [(1 << (n - 1)) | (1 << (2 * n - 1)) | sparse()]
    extra += [sparse() for _ in range(5 - seed)]
    small = binary_code(2 * n, small_rows)
    big = binary_code(2 * n, small_rows + extra)
    assert big.k_dim > small.k_dim
    return big, small


ORACLE_NS = (4, 8, 9, 16, 17, 32, 33, 64, 65)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", ORACLE_NS)
def test_coset_enumeration_matches_int_reference(n, seed):
    # every word dtype (uint8/16/32/64) and the two-word halves past 64
    big, small = _oracle_case(n, seed)
    assert _halves(small.bit_rows, n).dtype == _word_dtype(n)
    assert _min_weight_difference(big, small, n, 1) == _reference_min_weight_difference(
        big, small, n
    )


def test_word_dtype_is_the_narrowest_holding_n_bits():
    widths = {n: np.dtype(_word_dtype(n)).itemsize for n in ORACLE_NS}
    assert widths == {4: 1, 8: 1, 9: 2, 16: 2, 17: 4, 32: 4, 33: 8, 64: 8, 65: 8}
    assert _halves([1 << 129], 65).shape == (1, 4)  # two uint64 words per half


def _streamed(monkeypatch, block, big, small, n):
    """The search with ``_SPAN_BLOCK = block``, and the largest block it built."""
    cells = []

    def recording(reps, sub):
        cells.append(reps.shape[1] * sub.size)  # the two XOR arrays
        return _block_weights(reps, sub)

    for mod in (linear_module, symplectic_module):
        monkeypatch.setattr(mod, "_SPAN_BLOCK", block)
    monkeypatch.setattr(symplectic_module, "_block_weights", recording)
    out = _min_weight_difference(big, small, n, 1)
    monkeypatch.undo()
    return out, max(cells)


@pytest.mark.parametrize(
    "case",
    [("desk", 8, 16)] + [("oracle", n, 8) for n in (9, 17, 33, 65)],
)
def test_streamed_subgroup_keeps_weight_witness_and_ceiling(monkeypatch, case):
    kind, n, block = case
    if kind == "desk":
        f = steane_compose(EXT_HAMMING, EVEN)
        big, small = f.space, f.dual_space
    else:
        big, small = _oracle_case(n, 0)
    whole_cells = _halves(small.bit_rows, n).shape[1] << small.k_dim
    assert whole_cells > block  # one representative exceeds the block: streamed
    unstreamed = _min_weight_difference(big, small, n, 1)
    streamed, largest = _streamed(monkeypatch, block, big, small, n)
    assert streamed == unstreamed
    assert largest <= block


def test_m1_witness_is_pinned():
    run = pipeline_build(PipelineConfig(m=1, curve_kind="hermitian", q=2, a=3, a_prime=1))
    f = run.fcode
    pinned = (0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1)
    assert run.report.params() == "[[16, 8, 3]]" and run.report.d_exact
    assert run.report.d_witness == pinned
    assert _min_weight_difference(f.space, f.dual_space, 16, 1) == (3, pack_gf4(pinned))


def test_make_symplectic_rejects_wide_vectors():
    with pytest.raises(ValueError):
        make_symplectic(2, [1 << 4])


# -- the weight-enumerator certificate of d_Q ---------------------------


def _distribution(code, n):
    """GF(4) weight counts over the span of ``code``, in Python ints."""
    counts = [0] * (n + 1)
    for v in _gray(list(code.bit_rows)):
        counts[gf4_weight(v, n)] += 1
    return counts


def _random_isotropic(n, r, rng):
    """r independent, pairwise form-orthogonal random 2n-bit rows."""
    rows = []
    while len(rows) < r:
        v = rng.randrange(1, 1 << (2 * n))
        if all(symplectic_form(v, u, n) == 0 for u in rows):
            if binary_code(2 * n, rows + [v]).k_dim > len(rows):
                rows.append(v)
    return rows


def _random_codes():
    """Seeded ``make_symplectic`` codes, n <= 9, isotropic and large alike."""
    rng = random.Random(7)
    codes = []
    for n in range(2, 10):
        for _ in range(3):
            r = rng.randrange(max(1, n - 5), n)  # k_Q = n - r >= 1, 2^(2n - r) <= 2^14
            iso = make_symplectic(n, _random_isotropic(n, r, rng))
            large = make_symplectic(n, iso.dual_space.bit_rows)
            assert iso.is_isotropic and large.is_large and not large.is_isotropic
            codes += [iso, large]
    return codes


def _sides(f):
    """(big, small): the code and its stabilizer side, as ``quantum_params`` takes them."""
    return (f.space, f.dual_space) if f.is_large else (f.dual_space, f.space)


def _m1():
    return pipeline_build(PipelineConfig(m=1, curve_kind="hermitian", q=2, a=3, a_prime=1)).fcode


def _extended():
    config = PipelineConfig(
        m=1, curve_kind="hermitian", q=2, a=4, a_prime=1, allow_extended=True
    )
    return pipeline_build(config).fcode


RANDOM_CODES = _random_codes()


@pytest.mark.parametrize("f", RANDOM_CODES, ids=repr)
def test_transform_of_the_small_side_is_the_big_sides_distribution(f):
    n = f.n
    big, small = _sides(f)
    b = _weight_distribution(small, n)
    assert b == _distribution(small, n)
    a = _distribution(big, n)
    assert _macwilliams(b, n, 1 << small.k_dim) == a
    assert _macwilliams(a, n, 1 << big.k_dim) == b  # the identity is an involution


@pytest.mark.parametrize("build", [_m1, lambda: steane_compose(EXT_HAMMING, EVEN)])
def test_transform_matches_enumeration_on_the_shipped_codes(build):
    # m=1's 2^24 words are counted by ``_weight_distribution``, which the
    # random cases check against Python ints
    f = build()
    big, small = f.space, f.dual_space
    b = _weight_distribution(small, f.n)
    assert _macwilliams(b, f.n, 1 << small.k_dim) == _weight_distribution(big, f.n)


def test_tampered_distributions_are_refused():
    f = steane_compose(EXT_HAMMING, EVEN)
    n, big, small = f.n, f.space, f.dual_space
    b = _weight_distribution(small, n)
    assert _distance_floor(b, n, big.k_dim) == 3
    extra = list(b)
    extra[4] += 1  # A_0 = 17/16
    with pytest.raises(CertificationError, match="integer"):
        _distance_floor(extra, n, big.k_dim)
    # the roles swapped: the transform of A is B, integral but below A
    with pytest.raises(CertificationError, match="below"):
        _distance_floor(_weight_distribution(big, n), n, small.k_dim)
    # B sums to 2^k_small, not to the form-dual size of a wrong k_big
    with pytest.raises(CertificationError, match="sum"):
        _distance_floor(b, n, big.k_dim + 2)


@pytest.mark.parametrize(
    "build", [_m1, lambda: steane_compose(EXT_HAMMING, EVEN), _extended] + [
        lambda f=f: f for f in RANDOM_CODES[::3]
    ],
)
def test_certified_distance_keeps_the_full_searchs_witness(build):
    f = build()
    big, small = _sides(f)
    weight, witness = _min_weight_difference(big, small, f.n, 1)
    rep = quantum_params(f)
    assert rep.d_exact
    assert (rep.d_q, rep.d_witness) == (weight, unpack_gf4(witness, f.n))


def test_m1_search_stops_in_its_first_block(monkeypatch):
    # the full search takes all 512 blocks; the witness is in block 0
    calls = []

    def counting(reps, sub):
        calls.append(reps.shape[1])
        return _block_weights(reps, sub)

    f = _m1()
    monkeypatch.setattr(symplectic_module, "_block_weights", counting)
    assert quantum_params(f).params() == "[[16, 8, 3]]"
    assert len(calls) == 1


def _moved(a, to):
    """The distribution ``a`` with A_3's words beyond B's moved to weight ``to``."""
    def transform(b, n, size):
        out = list(a)
        out[to] += out[3] - b[3]
        out[3] = Fraction(b[3])
        return out
    return transform


@pytest.mark.parametrize("to", [4, 2])
def test_a_wrong_floor_is_refused(monkeypatch, to):
    # A plausible transform (integral, >= B, right sum) with m=1's d_Q = 3
    # words moved up or down fails the identity at y = 0..n.
    f = _m1()
    a = _macwilliams(_weight_distribution(f.dual_space, 16), 16, 1 << f.dual_space.k_dim)
    monkeypatch.setattr(symplectic_module, "_macwilliams", _moved(a, to))
    with pytest.raises(CertificationError, match="MacWilliams identity"):
        quantum_params(f)


@pytest.mark.parametrize("floor", [2, 4])
def test_search_disagreeing_with_the_floor_is_refused(monkeypatch, floor):
    # above the true minimum the search stops on a lighter word in block
    # 0; below it, the full search finds none that light
    f = _m1()
    monkeypatch.setattr(symplectic_module, "_distance_floor", lambda b, n, k: floor)
    message = f"found weight 3, the weight distributions d_Q = {floor}"
    with pytest.raises(CertificationError, match=message):
        quantum_params(f)


# -- steane_compose's chain route against the 2n-bit route ----------------

def _two_n_bit_route(d, d_prime, budget):
    """The composition as ``make_symplectic`` on all (g|0), (0|g), (e|m) generators."""
    n = d.n
    ext = extension_rows(d, d_prime, d_prime.k_dim - d.k_dim)
    mixed = ext[1:] + [ext[0] ^ ext[1]]
    gens = [*d.bit_rows, *(g << n for g in d.bit_rows), *(e | m << n for e, m in zip(ext, mixed))]
    bound = None
    try:
        bound = quantum_bound(d.min_distance_exact(budget), d_prime.second_or_weight(budget))
    except BudgetExceeded:
        pass
    return make_symplectic(n, gens, distance_bound=bound)


def _assert_routes_agree(d, d_prime, budget=1 << 26):
    got = steane_compose(d, d_prime, budget=budget)
    want = _two_n_bit_route(d, d_prime, budget)
    assert (got.space, got.dual_space) == (want.space, want.dual_space)
    assert (got.is_isotropic, got.is_large, got.distance_bound) == (
        want.is_isotropic, want.is_large, want.distance_bound
    )
    assert want.is_large and not want.is_isotropic


SHIPPED_CHAINS = {
    "hermitian-m1": dict(m=1, curve_kind="hermitian", q=2, a=3, a_prime=1),
    "hermitian-m2": dict(m=2, curve_kind="hermitian", q=4, a=34, a_prime=30),
    "line-q16": dict(m=2, curve_kind="line", q=16, a=5, a_prime=3),
    "extended-16-6-4": dict(m=1, curve_kind="hermitian", q=2, a=4, a_prime=1, allow_extended=True),
}


@pytest.mark.parametrize("name", SHIPPED_CHAINS)
def test_compose_matches_the_2n_bit_route_on_shipped_chains(name):
    run = pipeline_build(PipelineConfig(**SHIPPED_CHAINS[name]))
    _assert_routes_agree(run.pair.d, run.pair.d_prime)
    raw = steane_compose(run.pair.d, run.pair.d_prime)
    assert run.fcode.space == raw.space
    # out of budget, the pipeline's compose_pair records the designed bound and steane_compose none
    designed = designed_quantum_bound(run.triple.designed_d, run.triple.designed_d_prime)
    assert run.fcode.distance_bound == (designed if raw.distance_bound is None else raw.distance_bound)


def test_compose_matches_the_2n_bit_route_on_the_desk_code():
    _assert_routes_agree(EXT_HAMMING, EVEN)


def _random_chain(n, seed):
    """D >= D_perp from ``random_dual_containing_code`` and D' = D plus random rows, k' >= k + 2."""
    rng = random.Random(seed)
    while True:
        d = random_dual_containing_code(GF2, n, rng)
        if d.k_dim > n - 2:
            continue
        d_prime = binary_code(n, [*d.bit_rows, *(rng.getrandbits(n) for _ in range(rng.randint(2, 6)))])
        if d_prime.k_dim >= d.k_dim + 2:
            return d, d_prime


# 18 lengths x 6 seeds; 64 and 65 put the b-half's start on and past a word boundary.
RANDOM_CHAINS = [
    (n, 1000 * n + s)
    for n in (6, 7, 8, 10, 13, 16, 21, 27, 31, 32, 33, 40, 47, 56, 63, 64, 65, 70)
    for s in range(6)
]


@pytest.mark.parametrize("n, seed", RANDOM_CHAINS)
def test_compose_matches_the_2n_bit_route_on_random_chains(n, seed):
    d, d_prime = _random_chain(n, seed)
    # budget 2^12: small codes record the enumerated bound, larger ones none
    _assert_routes_agree(d, d_prime, budget=1 << 12)


@pytest.mark.parametrize("chain", [(EXT_HAMMING, EVEN), _random_chain(65, 1)], ids=["desk", "n65"])
def test_an_extension_row_at_a_pivot_is_refused(monkeypatch, chain):
    # F's span is unchanged, but e_0 is no longer a remainder modulo D, so
    # the assembled rows are no RREF; the certificate must catch it.
    real = symplectic_module.extension_rows

    def crooked(sub, sup, count):
        rows = real(sub, sup, count)
        rows[0] ^= sub.bit_rows[0]  # a bit at D's first pivot
        return rows

    monkeypatch.setattr(symplectic_module, "extension_rows", crooked)
    with pytest.raises(CertificationError, match="reduced row echelon|pivots do not increase"):
        steane_compose(*chain)


@pytest.mark.parametrize("chain", [(EXT_HAMMING, EVEN), _random_chain(65, 1)], ids=["desk", "n65"])
def test_form_dual_rows_out_of_rref_give_the_same_form_dual(monkeypatch, chain):
    # the same span of nullspace rows, but row 1 has row 0's leading one:
    # F^omega is eliminated from them, so it is the same code
    want = steane_compose(*chain).dual_space
    real = linear_module.nullspace

    def crooked(basis, pivots, field, n):
        rows = real(basis, pivots, field, n)
        rows[1] ^= rows[0]
        return rows

    monkeypatch.setattr(linear_module, "nullspace", crooked)
    monkeypatch.setattr(symplectic_module, "nullspace", crooked)
    assert steane_compose(*chain).dual_space == want


def _doubled_code(code):
    """code + code in 2n bits: (g|0) and (0|g)."""
    return binary_code(2 * code.n, [*code.bit_rows, *(g << code.n for g in code.bit_rows)])


@pytest.mark.parametrize(
    "name",
    ["desk", "hermitian-m1", "hermitian-m2", *RANDOM_CHAINS[::5]],
    ids=lambda v: v if isinstance(v, str) else "n{}-{}".format(*v),
)
def test_compose_form_dual_is_the_orthogonal_complement_make_symplectic_finds(name):
    if name == "desk":
        d, d_prime = EXT_HAMMING, EVEN
    elif name in SHIPPED_CHAINS:
        pair = pipeline_build(PipelineConfig(**SHIPPED_CHAINS[name])).pair
        d, d_prime = pair.d, pair.d_prime
    else:
        d, d_prime = _random_chain(*name)
    f = steane_compose(d, d_prime)
    assert f.dual_space == make_symplectic(f.n, f.space.bit_rows).dual_space
    # by definition: dimension 2n - k_F, form-orthogonal to F, and
    # between D'^perp + D'^perp and D^perp + D^perp
    assert f.dual_space.k_dim == 2 * f.n - f.k_dim
    assert all(symplectic_form(x, y, f.n) == 0 for x in f.space.bit_rows for y in f.dual_space.bit_rows)
    assert _doubled_code(d.dual()).contains(f.dual_space)
    assert f.dual_space.contains(_doubled_code(d_prime.dual()))


def test_m2_compose_eliminates_no_more_than_r_rows_of_2n_bits(monkeypatch):
    made, eliminated = [], []
    real_make, real_rref = symplectic_module.make_symplectic, linear_module.rref

    def counting_make(*args, **kwargs):
        made.append(args[0])
        return real_make(*args, **kwargs)

    def counting_rref(mat, field, n):
        eliminated.append((field.k, n, len(mat)))
        return real_rref(mat, field, n)

    for module in (symplectic_module, artifacts):
        monkeypatch.setattr(module, "make_symplectic", counting_make)
    for module in (symplectic_module, linear_module):
        monkeypatch.setattr(module, "rref", counting_rref)
    run = pipeline_build(PipelineConfig(**SHIPPED_CHAINS["hermitian-m2"]))
    n, r = run.fcode.n, run.pair.d_prime.k_dim - run.pair.d.k_dim
    assert (n, r) == (256, 16)
    assert made == []
    wide = [rows for k, width, rows in eliminated if k == 1 and width == 2 * n]
    assert wide == [r]  # F's extension rows; F^omega is not built
    # verify's route still eliminates over 2n bits
    artifacts.fcode_from_obj(artifacts.fcode_to_obj(run.fcode))
    assert made == [n]


def test_m2_fcode_load_eliminates_f_once_and_its_form_dual_once(monkeypatch):
    run = pipeline_build(PipelineConfig(**SHIPPED_CHAINS["hermitian-m2"]))
    obj = artifacts.fcode_to_obj(run.fcode)
    eliminated, real_rref = [], linear_module.rref

    def counting_rref(mat, field, n):
        eliminated.append((field.k, n, len(mat)))
        return real_rref(mat, field, n)

    monkeypatch.setattr(linear_module, "rref", counting_rref)
    loaded = artifacts.fcode_from_obj(obj)
    n, k_f = run.fcode.n, run.fcode.k_dim
    # one elimination each: the file's 296 rows, then F^omega's 216
    assert [rows for k, width, rows in eliminated if k == 1 and width == 2 * n] == [k_f, 2 * n - k_f]
    assert (loaded.space, loaded.dual_space, loaded.is_large) == (run.fcode.space, run.fcode.dual_space, True)


def test_m2_form_dual_is_eliminated_on_first_read_only(monkeypatch):
    eliminated, real_rref = [], linear_module.rref

    def counting_rref(mat, field, n):
        eliminated.append((field.k, n, len(mat)))
        return real_rref(mat, field, n)

    for module in (symplectic_module, linear_module):
        monkeypatch.setattr(module, "rref", counting_rref)
    run = pipeline_build(PipelineConfig(**SHIPPED_CHAINS["hermitian-m2"]))
    assert run.report.params() == "[[256, 40, >=24]]" and not run.report.d_exact
    n, k_f, r = run.fcode.n, run.fcode.k_dim, 16

    def wide():
        return [rows for k, width, rows in eliminated if k == 1 and width == 2 * n]

    assert wide() == [r]  # F's extension rows: the bound-only run never eliminates F^omega
    dual = run.fcode.dual_space
    assert wide() == [r, 2 * n - k_f] == [16, 216]
    assert run.fcode.dual_space is dual
    assert wide() == [r, 2 * n - k_f]


@pytest.mark.parametrize("extra", [3, 5])
def test_a_d_prime_missing_d_is_refused_by_containment(extra):
    # D less its last row, plus `extra` random rows: k' = k - 1 + extra >= k + 2
    d, _ = _random_chain(65, 1)
    rng = random.Random(extra)
    d_bad = binary_code(65, [*d.bit_rows[:-1], *(rng.getrandbits(65) for _ in range(extra))])
    assert d_bad.k_dim == d.k_dim - 1 + extra and not d_bad.contains(d)
    assert len(extension_rows(d, d_bad, d_bad.k_dim)) == d_bad.k_dim - d.k_dim + 1
    with pytest.raises(ValueError, match="D' does not contain D"):
        steane_compose(d, d_bad)
