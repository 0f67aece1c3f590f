import collections
import dataclasses
import random
import re

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agstab.linear as linear_module
from agstab.artifacts import code_to_obj, load_json, save_json, triple_from_obj, triple_to_obj
from agstab.curves import build_dual_chain, enumerate_curve, evaluation_code
from agstab.expansion import (
    ExpansionMap,
    expand_chain,
    expand_code,
)
from agstab.errors import CertificationError
from agstab.fields import EPS, EPS_BAR, SelfDualBasis, get_field, self_dual_basis
from agstab.linear import (
    LinearCode,
    binary_code,
    code_from_matrix,
    code_from_rref,
    from_symbols,
    make_code,
    nullspace,
    reduce,
    to_matrix,
    to_symbols,
)
from agstab.pipeline import PipelineConfig, pipeline_build
from agstab.symplectic import make_symplectic

from helpers import code_from_obj, generators, random_dual_containing_code

GF2 = get_field(1)
GF4 = get_field(2)
GF16 = get_field(4)


def zero_code(field, n):
    return code_from_matrix(field, n, from_symbols(field, np.zeros((0, n), dtype=np.uint8)))


def emap(field):
    return ExpansionMap(field=field, basis=self_dual_basis(field))


def expand_word(m, symbols):
    """Bit-packed binary image of a symbol vector: bit j*k + i is Tr(x_j * alpha_i)."""
    f = m.field
    out = 0
    for j, x in enumerate(symbols):
        for i, alpha in enumerate(m.basis.elements):
            if x and f.trace(f.mul(x, alpha)):
                out |= 1 << (j * f.k + i)
    return out


def test_expansion_of_conjugate_pair_span_is_self_dual():
    c = make_code(GF4, 2, [[EPS, EPS]])
    d = expand_code(c, emap(GF4))
    # coordinates (Tr(x*w), Tr(x*w^2)) per symbol: (w,w) -> 1010, (w^2,w^2) -> 0101
    assert d == binary_code(4, [0b0101, 0b1010])
    assert d.dual() == d


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3, 4, 6]), data=st.data())
def test_expand_code_equals_the_elimination_of_its_rows(k, data):
    f = get_field(k)
    n = data.draw(st.integers(1, 6), label="n")
    symbol = st.integers(0, f.order - 1)
    rows = data.draw(st.lists(st.lists(symbol, min_size=n, max_size=n), max_size=n), label="rows")
    code = make_code(f, n, rows)
    m = emap(f)
    image = [
        expand_word(m, [f.mul(a, x) for x in g])
        for g in generators(code) for a in m.basis.elements
    ]
    assert expand_code(code, m) == binary_code(k * n, image)


class TestRREFCertificate:
    def test_rref_rows_accepted(self):
        mat = to_matrix(70, [0b101, 0b110, 1 << 69])
        assert code_from_rref(GF2, 70, mat.copy(), [0, 1, 69]) == code_from_matrix(GF2, 70, mat)

    def test_pivot_column_set_in_another_row_rejected(self):
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF2, 8, to_matrix(8, [0b011, 0b010]), [0, 1])

    def test_bit_below_the_pivot_rejected(self):
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF2, 8, to_matrix(8, [0b110]), [2])
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF2, 70, to_matrix(70, [1 | 1 << 68]), [68])

    def test_missing_pivot_bit_rejected(self):
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF2, 8, to_matrix(8, [0b100]), [1])

    def test_pivots_must_increase(self):
        with pytest.raises(CertificationError, match="pivots"):
            code_from_rref(GF2, 8, to_matrix(8, [0b10, 0b01]), [1, 0])

    def test_symbol_rows_accepted(self):
        mat = np.array([[0, 1, 0, EPS], [0, 0, 1, 3]], dtype=np.uint8)
        assert code_from_rref(GF4, 4, mat.copy(), [1, 2]) == code_from_matrix(GF4, 4, mat)

    @pytest.mark.parametrize(
        "rows, pivots",
        [
            ([[1, EPS, 0], [0, 1, 0]], [0, 1]),  # pivot column nonzero in another row
            ([[EPS, 1, 0]], [1]),  # nonzero left of the pivot
            ([[0, EPS, 1]], [1]),  # pivot entry not 1
        ],
    )
    def test_symbol_rows_not_in_rref_rejected(self, rows, pivots):
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(GF4, 3, np.array(rows, dtype=np.uint8), pivots)

    @pytest.mark.parametrize("field", [GF2, GF4])
    def test_rows_past_the_first_block_are_checked(self, field):
        rng = np.random.default_rng(7)
        symbols = rng.integers(0, field.order, (150, 300), dtype=np.uint8)
        code = code_from_matrix(field, 300, from_symbols(field, symbols))
        assert code.k_dim == 150
        assert code_from_rref(field, 300, code.matrix.copy(), code.pivots) == code
        symbols = to_symbols(field, code.matrix, 300).copy()
        symbols[140, code.pivots[10]] = 1  # another row's pivot column
        with pytest.raises(CertificationError, match="reduced row echelon"):
            code_from_rref(field, 300, from_symbols(field, symbols), code.pivots)


def test_zero_code_expands_to_zero():
    d = expand_code(zero_code(GF4, 3), emap(GF4))
    assert d == zero_code(get_field(1), 6)


def test_length_and_dimension_arithmetic():
    rng = random.Random(5)
    c = random_dual_containing_code(GF4, 8, rng)
    d = expand_code(c, emap(GF4))
    assert d.n == 2 * c.n
    assert d.k_dim == 2 * c.k_dim


def test_non_self_dual_basis_rejected():
    with pytest.raises(ValueError):
        SelfDualBasis(field=GF4, elements=(1, EPS))


def test_weight_never_shrinks():
    m = emap(GF16)
    rng = random.Random(9)
    for _ in range(50):
        word = tuple(rng.randrange(16) for _ in range(7))
        symbol_weight = sum(1 for s in word if s)
        bits = expand_word(m, word).bit_count()
        assert bits >= symbol_weight


@pytest.mark.parametrize("field", [GF4, GF16])
def test_dual_commutes_with_expansion(field):
    m = emap(field)
    rng = random.Random(field.k)
    for _ in range(40):
        n = rng.randint(2, 10)
        c = random_dual_containing_code(field, n, rng)
        # the binary route, since dual() of an expansion is expand(C^perp) itself
        assert binary_twin(expand_code(c, m)).dual() == expand_code(c.dual(), m)


def test_random_generator_produces_dual_containing_codes():
    rng = random.Random(77)
    for _ in range(25):
        c = random_dual_containing_code(GF4, rng.randint(2, 10), rng)
        assert c.contains(c.dual())


def test_expand_chain_hermitian_instance():
    triple = build_dual_chain(enumerate_curve("hermitian", 2), 3, 1)
    pair = expand_chain(triple, emap(GF4))
    assert (pair.d.n, pair.d.k_dim) == (16, 10)
    assert (pair.d_prime.n, pair.d_prime.k_dim) == (16, 14)
    assert pair.d_prime.contains(pair.d)
    assert pair.d.contains(pair.d.dual())
    # the containment chain descends with the same dual relation
    assert binary_twin(pair.d).dual() == expand_code(triple.c.dual(), emap(GF4))


def test_a_chain_whose_c_misses_its_dual_is_refused_on_load(tmp_path):
    # expand_chain trusts its triple, so the loader must not hand it this one
    triple = build_dual_chain(enumerate_curve("hermitian", 2), 3, 1)
    small = dataclasses.replace(triple, c=triple.c.dual())  # [8,3] < [8,5]
    assert small.c_prime.contains(small.c) and not small.c.contains(small.c.dual())
    path = save_json(triple_to_obj(small), tmp_path / "t.json")
    with pytest.raises(ValueError, match=re.escape("construction at ['c']")):
        triple_from_obj(load_json(path))


def test_field_mismatch_rejected():
    c = make_code(GF4, 2, [[1, 1]])
    with pytest.raises(ValueError):
        expand_code(c, emap(GF16))


# --- dual() and contains() of an expansion run over GF(2^k) ---------------

SYMBOL_FIELDS = [get_field(k) for k in (2, 3, 4, 6)]


def full_code(field, n):
    return code_from_matrix(field, n, from_symbols(field, np.eye(n, dtype=np.uint8)))


def binary_twin(code):
    """The same binary code with no provenance, so it takes the binary route."""
    twin = code_from_rref(GF2, code.n, code.matrix.copy(), code.pivots)
    assert twin.expanded_from is None and twin == code
    return twin


def binary_dual(code):
    """Oracle: the binary nullspace of the code, eliminated."""
    return code_from_matrix(GF2, code.n, nullspace(code.matrix, code.pivots, GF2, code.n))


def binary_contains(big, small):
    """Oracle: every row of ``small`` reduces to zero modulo ``big``, over GF(2)."""
    return not reduce(small.matrix, big.matrix, big.pivots, GF2).any()


def seeded_codes(field, n, rng):
    """The zero code, the full code, random codes of every dimension and
    the subcodes spanned by leading rows of a random code, all of length n."""
    codes = [zero_code(field, n), full_code(field, n)]
    for k in range(1, n + 1):
        symbols = rng.integers(0, field.order, (k, n), dtype=np.uint8)
        codes.append(code_from_matrix(field, n, from_symbols(field, symbols)))
    top = codes[-1]
    codes += [code_from_matrix(field, n, top.matrix[:j].copy()) for j in range(1, top.k_dim)]
    return codes


@pytest.mark.parametrize("field", SYMBOL_FIELDS, ids=repr)
@pytest.mark.parametrize("n", [1, 4, 9])
def test_dual_of_an_expansion_matches_the_binary_route(field, n):
    m = emap(field)
    for c in seeded_codes(field, n, np.random.default_rng(100 * field.k + n)):
        d = expand_code(c, m)
        assert d.expanded_from == (c, m.basis)
        dual = d.dual()
        assert dual.expanded_from == (c.dual(), m.basis)
        assert dual == binary_dual(d) == binary_twin(d).dual()
        assert dual.dual() == d


@pytest.mark.parametrize("field", SYMBOL_FIELDS, ids=repr)
@pytest.mark.parametrize("n", [1, 4, 9])
def test_contains_of_two_expansions_matches_the_binary_route(field, n):
    m = emap(field)
    images = [expand_code(c, m) for c in seeded_codes(field, n, np.random.default_rng(7 * field.k + n))]
    answers = []
    for big in images:
        for small in images:
            want = binary_contains(big, small)
            assert big.contains(small) == want
            assert binary_twin(big).contains(small) == want  # one side without provenance
            assert big.contains(binary_twin(small)) == want
            answers.append(want)
    assert True in answers and False in answers


@pytest.mark.parametrize("field", SYMBOL_FIELDS, ids=repr)
def test_expansions_in_different_bases_are_compared_bitwise(field):
    m = emap(field)
    flipped = ExpansionMap(field=field, basis=SelfDualBasis(field, m.basis.elements[::-1]))
    codes = seeded_codes(field, 5, np.random.default_rng(field.k))
    missed = 0
    for big in codes:
        for small in codes:
            a, b = expand_code(big, m), expand_code(small, flipped)
            want = binary_contains(a, b)
            assert a.contains(b) == want
            missed += big.contains(small) and not want
    assert missed  # comparing the sources would have answered wrongly


def test_expansions_over_different_fields_are_compared_bitwise():
    # 12 bits: 6 symbols of GF(4), 4 of GF(8), 3 of GF(16), 2 of GF(64)
    rng = np.random.default_rng(12)
    images = [
        expand_code(c, emap(f))
        for f in SYMBOL_FIELDS
        for c in seeded_codes(f, 12 // f.k, rng)
    ]
    answers = set()
    for big in images:
        for small in images:
            if big.expanded_from[1].field != small.expanded_from[1].field:
                want = binary_contains(big, small)
                assert big.contains(small) == want
                answers.add(want)
    assert answers == {True, False}


def test_only_expand_code_records_provenance():
    c = random_dual_containing_code(GF4, 8, random.Random(3))
    d = expand_code(c, emap(GF4))
    assert d.expanded_from == (c, emap(GF4).basis)
    assert binary_code(d.n, d.bit_rows).expanded_from is None
    assert code_from_obj(code_to_obj(d)).expanded_from is None
    assert code_from_matrix(GF2, d.n, d.matrix.copy()).expanded_from is None
    assert code_from_rref(GF2, d.n, d.matrix.copy(), d.pivots).expanded_from is None
    rows = d.bit_rows
    sym = make_symplectic(d.n, [g for g in rows] + [g << d.n for g in rows])
    assert sym.space.expanded_from is None and sym.dual_space.expanded_from is None


def recording_kernels(monkeypatch):
    """Wrap rref and reduce wherever a module binds them, and LinearCode.dual
    and contains.  The returned list gets (field degree, row width in
    bits or symbols, whether inside dual() or contains()) per kernel call."""
    calls, depth = [], [0]

    def recorded(kernel, shape):
        def run(*args):
            calls.append((*shape(*args), depth[0] > 0))
            return kernel(*args)

        return run

    def inside(method):
        def run(*args):
            depth[0] += 1
            try:
                return method(*args)
            finally:
                depth[0] -= 1

        return run

    shapes = {
        "rref": lambda mat, field, n: (field.k, n),
        "reduce": lambda vecs, basis, pivots, field: (
            field.k, vecs.shape[1] * (64 if field.k == 1 else 1)
        ),
    }
    for name, shape in shapes.items():
        kernel = getattr(linear_module, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("agstab")]:
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, recorded(kernel, shape))
    for name in ("dual", "contains"):
        monkeypatch.setattr(LinearCode, name, inside(getattr(LinearCode, name)))
    return calls


def test_herm_m3_duality_runs_no_3072_bit_elimination(monkeypatch):
    cur = enumerate_curve("hermitian", 8)
    d_ev = expand_code(evaluation_code(cur, 250), emap(cur.field))
    calls = recording_kernels(monkeypatch)
    d_prime = d_ev.dual()
    assert d_prime.contains(d_ev)
    assert (d_prime.n, d_prime.k_dim) == (3072, 1734)
    assert [call for call in calls if call[0] == 1] == []
    assert calls == [(6, 512, True), (6, 512, True)]  # E's dual, then E^perp >= E


def test_m2_pipeline_runs_no_binary_elimination_in_dual_or_contains(monkeypatch):
    calls = recording_kernels(monkeypatch)
    run = pipeline_build(PipelineConfig(m=2, curve_kind="hermitian", q=4, a=34, a_prime=30))
    assert run.pair.d.n == 256
    # compose's extension rows come from D''s GF(16) source: nothing runs
    # on 256 bits, and the bound-only run never builds F^omega
    assert {width for k, width, _ in calls if k == 1} == {512}


def test_m2_pipeline_certifies_each_chain_fact_once(monkeypatch):
    calls = collections.Counter()
    for name in ("dual", "contains"):

        def counted(self, *args, name=name, plain=getattr(LinearCode, name)):
            calls[self.field.k, name] += 1
            return plain(self, *args)

        monkeypatch.setattr(LinearCode, name, counted)
    pipeline_build(PipelineConfig(m=2, curve_kind="hermitian", q=4, a=34, a_prime=30))
    # None at all: the chain's power sums and prefix certify it, expansion
    # keeps it, and compose takes the pair as certified, so D' >= D fixes
    # the extension's row count and D^perp is never built.
    assert calls == {}
