import random
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest

from agstab import pauli
from agstab.fields import EPS, EPS_BAR
from agstab.linear import binary_code
from agstab.pauli import (
    ExactMatrix,
    MAX_VIOLATIONS,
    StabilizerSpec,
    all_mu_traces,
    check_error,
    detectability_check,
    range_basis,
    stabilizer_projector,
    weight_words,
)
from agstab.symplectic import (
    make_symplectic,
    pack_gf4,
    quantum_params,
    steane_compose,
    symplectic_dual,
    symplectic_form,
    unpack_gf4,
)

B422 = [(EPS,) * 4, (EPS_BAR,) * 4]
# two extra isotropic vectors extending the four-qubit stabilizer to rank 4
B422_EXTENDED = B422 + [(EPS, EPS, 0, 0), (EPS_BAR, EPS_BAR, 0, 0)]

# Stabilizer generators of the desk [[8,3,3]] code, as in perfbench/workloads.py
STAB_8 = (
    (3, 2, 0, 1, 0, 1, 3, 2),
    (0, 3, 0, 3, 2, 1, 2, 1),
    (0, 2, 1, 3, 0, 2, 1, 3),
    (0, 0, 2, 2, 1, 1, 3, 3),
    (2, 2, 2, 2, 2, 2, 2, 2),
)
SIGNS_8 = [(1, 1, 1, 1, 1), (1, -1, 1, -1, -1)]
# The [[5,1,3]] code, cyclic shifts of X Z Z X I.  Unlike B422 and STAB_8,
# some generator pairs overlap an X part with a Z part in an odd number of
# places (X Z Z X I and I X Z Z X in one), which a monomial product that
# read sigma(f)'s phase at the wrong row would get wrong by a sign.
FIVE_QUBIT = tuple(tuple((EPS, EPS_BAR, EPS_BAR, EPS, 0)[(q - t) % 5] for q in range(5)) for t in range(4))
WORDS_8 = [w for weight in range(4) for w in weight_words(8, weight)]


def gf4_add(a, b):
    return a ^ b  # polynomial-basis representation: addition is xor


def identity(dim):
    return ExactMatrix(np.eye(dim, dtype=np.int64), np.zeros((dim, dim), dtype=np.int64))


def aligned(a, b):
    d = max(a.den, b.den)
    return a.re << (d - a.den), a.im << (d - a.den), b.re << (d - b.den), b.im << (d - b.den), d


def add(a, b):
    ar, ai, br, bi, d = aligned(a, b)
    return ExactMatrix(ar + br, ai + bi, d)


def sub(a, b):
    ar, ai, br, bi, d = aligned(a, b)
    return ExactMatrix(ar - br, ai - bi, d)


def neg(a):
    return ExactMatrix(-a.re, -a.im, a.den)


def half(a):
    return ExactMatrix(a.re, a.im, a.den + 1)


def proportionality(m, p):
    """Decide m == lambda * p exactly (p must have nonzero trace).

    Cross-multiplication keeps everything in integers: m and lambda*p
    agree iff m * tr(p) == p * tr(m) entrywise over the common
    denominator.
    """
    pr = int(np.trace(p.re))
    pi = int(np.trace(p.im))
    if pr == 0 and pi == 0:
        raise ValueError("reference matrix has zero trace")
    mr = int(np.trace(m.re))
    mi = int(np.trace(m.im))
    lhs_re = m.re * pr - m.im * pi
    lhs_im = m.re * pi + m.im * pr
    rhs_re = p.re * mr - p.im * mi
    rhs_im = p.re * mi + p.im * mr
    ok = bool(np.array_equal(lhs_re, rhs_re) and np.array_equal(lhs_im, rhs_im))
    norm = pr * pr + pi * pi
    scale = Fraction(1 << p.den, 1 << m.den)
    lam_re = Fraction(mr * pr + mi * pi, norm) * scale
    lam_im = Fraction(mi * pr - mr * pi, norm) * scale
    return ok, lam_re, lam_im


def kron(a, b):
    re = np.kron(a.re, b.re) - np.kron(a.im, b.im)
    im = np.kron(a.re, b.im) + np.kron(a.im, b.re)
    return ExactMatrix(re, im, a.den + b.den)


ZERO_2 = np.zeros((2, 2), dtype=np.int64)
# the 2 x 2 Pauli matrices as (re, im) numerators, by GF(4) symbol
PAULI_MATRICES = {
    0: (np.array([[1, 0], [0, 1]]), ZERO_2),
    EPS: (np.array([[0, 1], [1, 0]]), ZERO_2),
    EPS_BAR: (np.array([[1, 0], [0, -1]]), ZERO_2),
    1: (ZERO_2, np.array([[0, -1], [1, 0]])),
}


def sigma(word, max_n=6):
    """Tensor product of per-coordinate Pauli matrices for a GF(4)^n word:
    the dense reference for the monomial products of ``agstab.pauli``."""
    pauli._check_n(len(word), max_n)
    out = ExactMatrix(np.array([[1]]), np.array([[0]]))
    for s in word:
        out = kron(out, ExactMatrix(*PAULI_MATRICES[s]))
    return out


class TestSigma:
    def test_identity(self):
        s = sigma((0, 0, 0))
        assert s == identity(8)

    def test_squares_to_identity(self):
        for sym in range(4):
            s = sigma((sym,))
            assert s @ s == identity(2)

    def test_x_z_anticommute(self):
        x, z = sigma((EPS,)), sigma((EPS_BAR,))
        assert x @ z == neg(z @ x)

    def test_third_pauli_matrix_entries(self):
        s = sigma((1,))
        assert s.re.tolist() == [[0, 0], [0, 0]]
        assert s.im.tolist() == [[0, -1], [1, 0]]

    def test_projective_homomorphism_on_isotropic_pair(self):
        f1, f2 = B422
        fsum = tuple(gf4_add(a, b) for a, b in zip(f1, f2))
        prod = sigma(f1) @ sigma(f2)
        assert prod == sigma(fsum) or prod == neg(sigma(fsum))
        assert prod == sigma(f2) @ sigma(f1)  # commuting
        assert prod == sigma(fsum)  # sign instance for this pair

    def test_cap(self):
        with pytest.raises(ValueError):
            sigma((0,) * 7)
        sigma((0,) * 7, max_n=8)
        with pytest.raises(ValueError):
            sigma((0,) * 9, max_n=12)


class TestProjector:
    def test_bell_state(self):
        spec = StabilizerSpec.plus([(EPS, EPS), (EPS_BAR, EPS_BAR)])
        p = stabilizer_projector(spec)
        assert p.trace() == (Fraction(1), Fraction(0))
        assert p @ p == p
        assert p.conj_transpose() == p

    def test_explicit_n_must_match_the_basis(self):
        with pytest.raises(ValueError, match="length"):
            stabilizer_projector(StabilizerSpec.plus(B422), n=5)

    def test_empty_spec_is_identity(self):
        spec = StabilizerSpec((), ())
        p = stabilizer_projector(spec, n=3)
        assert p == identity(8)

    def test_all_sign_patterns_have_the_same_trace(self):
        for mus, tr in all_mu_traces(B422).items():
            assert tr == (Fraction(4), Fraction(0)), mus

    def test_extended_rank4_spec_all_16_patterns(self):
        traces = all_mu_traces(B422_EXTENDED)
        assert len(traces) == 16
        for tr in traces.values():
            assert tr == (Fraction(1), Fraction(0))

    def test_non_isotropic_rejected(self):
        with pytest.raises(ValueError):
            StabilizerSpec.plus([(EPS, 0), (EPS_BAR, 0)])

    def test_dependent_generators_rejected(self):
        f1, f2 = B422
        fsum = tuple(gf4_add(a, b) for a, b in zip(f1, f2))
        with pytest.raises(ValueError):
            StabilizerSpec.plus([f1, f2, fsum])

    def test_dependent_non_commuting_reports_isotropy_first(self):
        # X, Z and Y = X Z on one qubit: Y is the sum of the other two
        with pytest.raises(ValueError, match="not isotropic"):
            StabilizerSpec.plus([(EPS, 0), (EPS_BAR, 0), (1, 0)])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="unequal lengths"):
            StabilizerSpec(((2, 0, 0), (2, 0)), (1, 1))

    def test_symbol_outside_gf4_rejected(self):
        with pytest.raises(ValueError, match="GF\\(4\\)"):
            StabilizerSpec(((7, 0),), (1,))


class TestDetectability:
    def setup_method(self):
        self.proj = stabilizer_projector(StabilizerSpec.plus(B422))

    def test_identity_error_scales_by_one(self):
        ok, lr, li = check_error(self.proj, (0, 0, 0, 0))
        assert ok and (lr, li) == (Fraction(1), Fraction(0))

    def test_stabilizer_elements_scale_by_plus_minus_one(self):
        for f in B422:
            ok, lr, li = check_error(self.proj, f)
            assert ok and li == 0 and lr in (Fraction(1), Fraction(-1))

    def test_all_weight_one_paulis_detectable(self):
        rep = detectability_check(self.proj, 2)
        assert rep.passed
        assert rep.checked == 12  # 4 positions x 3 symbols

    def test_weight_two_violation_exists(self):
        witness = next((w for w in weight_words(4, 2) if not check_error(self.proj, w)[0]), None)
        assert witness is not None
        ok, _, _ = check_error(self.proj, witness)
        assert not ok

    def test_cross_check_with_enumerated_distance(self):
        f = make_symplectic(4, [pack_gf4(b) for b in B422])
        rep = quantum_params(f)
        assert rep.d_q == 2
        assert detectability_check(self.proj, rep.d_q).passed
        ok, _, _ = check_error(self.proj, rep.d_witness)
        assert not ok


def test_weight_words_count():
    assert sum(1 for _ in weight_words(4, 1)) == 12
    assert sum(1 for _ in weight_words(4, 2)) == 54


def test_exact_matrix_normalization_and_equality():
    a = ExactMatrix(np.array([[2, 0], [0, 2]]), np.zeros((2, 2), dtype=np.int64), den=1)
    assert a == identity(2)
    b = ExactMatrix(np.array([[1, 0], [0, 1]]), np.array([[1, 0], [0, 1]]), den=0)
    assert a != b
    zero = sub(b, b)
    assert not (zero.re.any() or zero.im.any())


def test_steane_8_3_3_detectability_dmax_3():
    ext_hamming = binary_code(8, [0b11111111, 0b01010101, 0b00110011, 0b00001111])
    even = binary_code(8, [(1 << i) | (1 << 7) for i in range(7)])
    f = steane_compose(ext_hamming, even)
    rep = quantum_params(f)
    assert rep.d_q == 3 and rep.d_exact
    stab = symplectic_dual(f)
    basis = [unpack_gf4(r, 8) for r in stab.space.bit_rows]
    proj = stabilizer_projector(StabilizerSpec.plus(basis), max_n=8)
    assert proj.trace() == (Fraction(8), Fraction(0))
    assert proj @ proj == proj
    det = detectability_check(proj, 3)
    assert det.passed and det.checked == 276
    # minimality: the enumerated weight-3 witness is an operator-level violation
    ok, _, _ = check_error(proj, rep.d_witness)
    assert not ok


def exact_matmul(a, b):
    """a @ b through one complex128 product, exact because every partial
    sum is an integer below 2^53."""
    big = max(np.abs(a.re).max(), np.abs(a.im).max()) * max(np.abs(b.re).max(), np.abs(b.im).max())
    assert 2 * a.dim * int(big) < 2**53
    c = (a.re + 1j * a.im) @ (b.re + 1j * b.im)
    return ExactMatrix(c.real.astype(np.int64), c.imag.astype(np.int64), a.den + b.den)


def dense_projector(spec, n):
    """prod (I + mu sigma(f)) / 2 as dense products."""
    p = identity(1 << n)
    for f, mu in zip(spec.basis, spec.mu):
        s = sigma(f, max_n=n)
        p = exact_matmul(p, half(add(identity(1 << n), s if mu == 1 else neg(s))))
    return p


def complex_numerators(m):
    return (m.re + 1j * m.im).astype(np.complex64)


PAULI_1 = {s: complex_numerators(sigma((s,))) for s in range(4)}


def dense_sigma(word):
    """sigma(word) as a complex matrix: a Kronecker product of 2 x 2 matrices."""
    return reduce(np.kron, (PAULI_1[s] for s in word), np.ones((1, 1), dtype=np.complex64))


def dense_check(p, pc, e):
    """The definition: proportionality(P @ (E P), P) for a dense complex E,
    with pc the complex numerators of P.

    E P is read off E's one nonzero entry per row; P @ (E P) is a dense
    product.  The numerators of P and E have modulus at most 2^den and 1,
    so every partial sum is an integer below 2 * dim * 4^den < 2^24 and
    complex64 computes it exactly.
    """
    assert 2 * p.dim * 4**p.den < 2**24
    rows, cols = np.nonzero(e)
    assert np.array_equal(rows, np.arange(p.dim))
    pep = pc @ (e[rows, cols][:, None] * pc[cols])
    return proportionality(
        ExactMatrix(pep.real.astype(np.int64), pep.imag.astype(np.int64), 2 * p.den), p
    )


def symplectic_detectable(word, stab):
    """Detectable iff the word anticommutes with a stabilizer or lies in their span."""
    x = pack_gf4(word)
    n = len(word)
    if any(symplectic_form(x, pack_gf4(f), n) for f in STAB_8):
        return True
    return stab.contains(binary_code(2 * n, [x]))


@pytest.fixture(scope="module")
def projs_8():
    return [stabilizer_projector(StabilizerSpec(STAB_8, mu), max_n=8) for mu in SIGNS_8]


class TestRangeBasisOracle:
    def test_verdicts_match_the_symplectic_criterion(self, projs_8):
        stab = binary_code(16, [pack_gf4(f) for f in STAB_8])
        assert len(WORDS_8) == 1789
        for p in projs_8:
            undetectable = 0
            for w in WORDS_8:
                ok, _, _ = check_error(p, w)
                assert ok == symplectic_detectable(w, stab), w
                undetectable += not ok
            assert undetectable > 0  # the weight-3 logical operators

    def test_values_match_the_dense_product(self, projs_8):
        low = [w for w in WORDS_8 if sum(1 for s in w if s) <= 2]
        high = [w for w in WORDS_8 if sum(1 for s in w if s) == 3]
        dense = [(p, complex_numerators(p)) for p in projs_8]
        for w in low + random.Random(8).sample(high, 24):
            e = dense_sigma(w)
            for p, pc in dense:
                assert check_error(p, w) == dense_check(p, pc, e), w

    def test_dense_sigma_is_sigma(self):
        for w in WORDS_8[::97]:
            assert np.array_equal(dense_sigma(w), complex_numerators(sigma(w, max_n=8)))

    def test_projector_matches_the_dense_product(self):
        for mu in product((1, -1), repeat=len(STAB_8)):
            spec = StabilizerSpec(STAB_8, mu)
            assert stabilizer_projector(spec, max_n=8) == dense_projector(spec, 8), mu

    def test_every_sign_pattern_of_the_five_qubit_code(self):
        for mu in product((1, -1), repeat=len(FIVE_QUBIT)):
            spec = StabilizerSpec(FIVE_QUBIT, mu)
            p = stabilizer_projector(spec)
            assert p == dense_projector(spec, 5), mu
            rep = detectability_check(p, 3)
            assert rep.passed and rep.checked == 15 + 90

    def test_every_sign_pattern_of_the_rank4_spec(self):
        for mu in product((1, -1), repeat=len(B422_EXTENDED)):
            spec = StabilizerSpec(tuple(B422_EXTENDED), mu)
            assert stabilizer_projector(spec) == dense_projector(spec, 4)


def sigma_monomial(word):
    """(perm, phase_re, phase_im) of sigma(word): row r has its only entry at column perm[r]."""
    perm, power = pauli._monomials(np.array([word]))
    return perm[0], pauli._I_POWER_RE[power[0]], pauli._I_POWER_IM[power[0]]


def apply_monomial_left(mono, m):
    """sigma @ m without a dense product: row r is phase[r] * row perm[r] of m."""
    perm, ph_re, ph_im = mono
    re = ph_re[:, None] * m.re[perm] - ph_im[:, None] * m.im[perm]
    im = ph_re[:, None] * m.im[perm] + ph_im[:, None] * m.re[perm]
    return ExactMatrix(re, im, m.den)


def apply_monomial_right(m, mono):
    """m @ sigma without a dense product: column perm[r] is phase[r] * column r of m."""
    perm, ph_re, ph_im = mono
    re = np.empty_like(m.re)
    im = np.empty_like(m.im)
    re[:, perm] = m.re * ph_re - m.im * ph_im
    im[:, perm] = m.re * ph_im + m.im * ph_re
    return ExactMatrix(re, im, m.den)


def test_monomial_products_match_dense_products():
    rng = np.random.default_rng(4)
    m = ExactMatrix(rng.integers(-9, 10, (8, 8)), rng.integers(-9, 10, (8, 8)), 1)
    for w in product(range(4), repeat=3):
        mono = sigma_monomial(w)
        assert apply_monomial_left(mono, m) == sigma(w) @ m
        assert apply_monomial_right(m, mono) == m @ sigma(w)


def diagonal(nums, den):
    return ExactMatrix(np.diag(nums), np.zeros((len(nums), len(nums)), dtype=np.int64), den)


class TestProjectorCertificate:
    def test_non_hermitian_rejected(self):
        m = ExactMatrix(np.array([[1, 1], [0, 0]]), np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="Hermitian"):
            check_error(m, (EPS,))

    def test_doubled_projector_rejected(self):
        p = stabilizer_projector(StabilizerSpec.plus(B422))
        with pytest.raises(ValueError, match="sum"):
            check_error(add(p, p), (0, 0, 0, 0))

    def test_hermitian_non_projector_with_integer_trace_rejected(self):
        # eigenvalues 1/2, 1/2, 1/2, -1/2: tr = sum |P_ij|^2 = 1, yet P B != B
        with pytest.raises(ValueError, match="P B != B"):
            check_error(diagonal([1, 1, 1, -1], 1), (0, 0))

    def test_trace_identity_is_required(self):
        # P e_0 = e_0 and tr = 1, but sum |P_ij|^2 = 3/2
        with pytest.raises(ValueError, match="sum"):
            check_error(diagonal([2, 1, -1, 0], 1), (0, 0))

    def test_non_integer_trace_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            check_error(diagonal([1, 0], 1), (0,))
        with pytest.raises(ValueError, match="positive integer"):
            check_error(diagonal([0, 0], 0), (0,))

    def test_entries_outside_int64_reach_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            check_error(diagonal([4, 0], 1), (0,))
        with pytest.raises(ValueError, match="too fine"):
            check_error(diagonal([(1 << 20) - 1, 0], 20), (0,))

    def test_projector_outside_the_stabilizer_scope_rejected(self):
        # I - |v><v| with v = (1, 1, 1, 1) / 2 is an orthogonal projector of
        # rank 3, but only column 0 has its first nonzero entry on the
        # diagonal, so |J| = 1 < tr(P)
        p = ExactMatrix(4 * np.eye(4, dtype=np.int64) - 1, np.zeros((4, 4), dtype=np.int64), 2)
        assert p @ p == p and p.conj_transpose() == p
        with pytest.raises(ValueError, match="not tr\\(P\\) = 3"):
            check_error(p, (0, 0))

    def test_overlapping_columns_rejected(self):
        # the orthogonal projector onto span(a, b), a = (1, 0, 1+i, 1) / 4 and
        # b = (0, 1, 1, -1+i) / 4: J = {0, 1} and |J| = tr(P) = 2, but both
        # columns are nonzero in row 2
        a, b = np.array([1, 0, 1 + 1j, 1]), np.array([0, 1, 1, -1 + 1j])
        m = np.outer(a, a.conj()) + np.outer(b, b.conj())
        p = ExactMatrix(m.real.astype(np.int64), m.imag.astype(np.int64), 2)
        assert p @ p == p and p.conj_transpose() == p and p.trace() == (2, 0)
        with pytest.raises(ValueError, match="row 2 of B .* has 2 nonzero entries"):
            check_error(p, (0, 0))

    def test_no_column_fits_the_rule_rejected(self):
        # Hermitian with tr = sum |P_ij|^2 = 1, yet every nonzero column has
        # a nonzero entry above its diagonal: J is empty
        a = 1 + 1j
        m = np.array([[0, a, a, 0], [a.conjugate(), 2, 0, 0], [a.conjugate(), 0, 2, 0], [0, 0, 0, 0]])
        p = ExactMatrix(m.real.astype(np.int64), m.imag.astype(np.int64), 2)
        with pytest.raises(ValueError, match="0 columns .* not tr\\(P\\) = 1"):
            check_error(p, (0, 0))

    def test_certificate_cached_on_the_matrix(self):
        p = stabilizer_projector(StabilizerSpec.plus(B422))
        assert p._range is None
        check_error(p, (0, 0, 0, 0))
        cert = p._range
        assert cert is not None and cert.rank == 4
        check_error(p, (EPS, 0, 0, 0))
        assert p._range is cert

    def test_word_must_fit_the_projector(self):
        p = stabilizer_projector(StabilizerSpec.plus(B422))
        with pytest.raises(ValueError, match="length"):
            check_error(p, (0, 0, 0))
        with pytest.raises(ValueError, match="GF\\(4\\)"):
            check_error(p, (7, 0, 0, 0))


def rule_columns(p):
    """J by its definition, one column at a time: P[j, j] != 0 and no
    nonzero entry above it in column j."""
    nz = (p.re != 0) | (p.im != 0)
    return [j for j in range(p.dim) if nz[j, j] and not nz[:j, j].any()]


def sign_pattern_projectors():
    for basis, n in ((STAB_8, 8), (tuple(B422_EXTENDED), 4)):
        for mu in product((1, -1), repeat=len(basis)):
            yield stabilizer_projector(StabilizerSpec(tuple(basis), mu), max_n=n)


def stored_columns(basis, den):
    """B rebuilt from its stored rows over P's denominator 2^den: row x
    holds its value at column owner[x], or nothing when owner[x] = -1."""
    re = np.zeros((1 << basis.n, basis.rank), dtype=np.int64)
    im = np.zeros_like(re)
    x = np.flatnonzero(basis.owner >= 0)
    re[x, basis.owner[x]] = basis.value_re[x]
    im[x, basis.owner[x]] = basis.value_im[x]
    assert not basis.value_re[basis.owner < 0].any() and not basis.value_im[basis.owner < 0].any()
    return ExactMatrix(re, im, den)


class TestRangeColumns:
    def test_every_sign_pattern_gives_orthogonal_columns(self):
        count = 0
        for p in sign_pattern_projectors():
            cols = rule_columns(p)
            basis = range_basis(p)
            assert len(cols) == basis.rank == int(p.trace()[0])
            assert stored_columns(basis, p.den) == ExactMatrix(p.re[:, cols], p.im[:, cols], p.den)
            gram_re, gram_im = p.re[np.ix_(cols, cols)], p.im[np.ix_(cols, cols)]
            assert not gram_im.any()
            assert np.array_equal(gram_re, np.diag(gram_re.diagonal()))
            assert (gram_re.diagonal() > 0).all()
            assert np.array_equal(basis.gram, gram_re.diagonal())
            count += 1
        assert count == 32 + 16

    def test_identity_on_eight_qubits(self):
        p = identity(256)
        assert range_basis(p).rank == 256
        assert check_error(p, (0,) * 8) == (True, Fraction(1), Fraction(0))
        for w in weight_words(8, 1):
            ok, _, _ = check_error(p, w)
            assert not ok, w


def sequential_check(p, dmax):
    """(checked, passed, violations) of a word-by-word loop over
    ``check_error``: the reference for the batched ``detectability_check``."""
    n = p.dim.bit_length() - 1
    checked, violations = 0, []
    for w in range(1, dmax):
        for word in weight_words(n, w):
            ok, _, _ = check_error(p, word)
            checked += 1
            if not ok:
                violations.append(word)
                if len(violations) >= MAX_VIOLATIONS:
                    return checked, False, tuple(violations)
    return checked, not violations, tuple(violations)


BATCH_CASES = [
    (StabilizerSpec.plus(B422), 4, 3),
    (StabilizerSpec(STAB_8, SIGNS_8[1]), 8, 3),
    (StabilizerSpec(STAB_8, SIGNS_8[0]), 8, 4),
]


class TestBatchedDetectability:
    @pytest.mark.parametrize("per_block", [None, 1, 3, 5])
    @pytest.mark.parametrize("spec, n, dmax", BATCH_CASES)
    def test_matches_the_word_by_word_loop(self, spec, n, dmax, per_block, monkeypatch):
        # with 3 and 5 words per block, the MAX_VIOLATIONS-th violation
        # (weight-2 word 10 of B422, weight-3 word 97 of STAB_8) is the
        # first, the last or the second word of its block
        p = stabilizer_projector(spec, max_n=n)
        expected = sequential_check(p, dmax)
        if per_block is not None:
            monkeypatch.setattr(pauli, "_SPAN_BLOCK", per_block << n)
        rep = detectability_check(p, dmax)
        assert (rep.checked, rep.passed, rep.violations) == expected
        if dmax == 3 and n == 8:
            assert rep.passed and rep.checked == 276
        else:
            assert len(rep.violations) == MAX_VIOLATIONS

    def test_block_values_match_check_error(self, projs_8):
        words = [w for w in WORDS_8 if sum(1 for s in w if s) <= 2]
        for p in projs_8:
            ok, tr_re, tr_im = pauli._decide(p, range_basis(p), np.array(words))
            tr_p = int(p.trace()[0]) << p.den
            for k, w in enumerate(words):
                assert check_error(p, w) == (ok[k], Fraction(int(tr_re[k]), tr_p), Fraction(int(tr_im[k]), tr_p))
