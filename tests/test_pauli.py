import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product

import numpy as np
import pytest

from agstab import pauli
from agstab.errors import CertificationError
from agstab.fields import EPS, EPS_BAR
from agstab.linear import binary_code
from agstab.pauli import (
    HARD_MAX_N,
    MAX_VIOLATIONS,
    StabilizerSpec,
    all_mu_traces,
    check_error,
    detectability_check,
    stabilizer_projector,
    weight_words,
)
from agstab.symplectic import (
    make_symplectic,
    quantum_params,
    steane_compose,
    unpack_gf4,
)

from gf4_words import pack_gf4
from helpers import symplectic_dual, symplectic_form

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


DENSE_MAX_N = 8  # 2^8 = 256 keeps every dense product below inside int64


class ExactMatrix:
    """(re + i*im) / 2^den with int64 numerators; normalized on creation.

    The dense reference for the stored range bases of ``agstab.pauli``,
    for n <= DENSE_MAX_N.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im, den=0):
        re = np.asarray(re, dtype=np.int64)
        im = np.asarray(im, dtype=np.int64)
        # cancel the largest power of two that divides every numerator
        bits = int(np.bitwise_or.reduce(re, axis=None) | np.bitwise_or.reduce(im, axis=None))
        shift = min(den, (bits & -bits).bit_length() - 1) if bits else den
        if shift > 0:
            re = re >> shift
            im = im >> shift
            den -= shift
        re.setflags(write=False)  # dense_projector's cache shares its results
        im.setflags(write=False)
        self.re = re
        self.im = im
        self.den = den

    @property
    def dim(self):
        return self.re.shape[0]

    def __matmul__(self, other):
        re = self.re @ other.re - self.im @ other.im
        im = self.re @ other.im + self.im @ other.re
        return ExactMatrix(re, im, self.den + other.den)

    def conj_transpose(self):
        return ExactMatrix(self.re.T.copy(), -self.im.T.copy(), self.den)

    def trace(self):
        den = 1 << self.den
        return Fraction(int(np.trace(self.re)), den), Fraction(int(np.trace(self.im)), den)

    def __eq__(self, other):
        return (
            self.den == other.den
            and np.array_equal(self.re, other.re)
            and np.array_equal(self.im, other.im)
        )


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
    if len(word) > min(max_n, DENSE_MAX_N):
        raise ValueError(f"n={len(word)} exceeds the dense cap {min(max_n, DENSE_MAX_N)}")
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


def stored_columns(basis):
    """B rebuilt from its stored rows, in units of its common scale: row
    y holds i^power[y] at column owner[y], or nothing when owner[y] = -1."""
    re = np.zeros((1 << basis.n, basis.rank), dtype=np.int64)
    im = np.zeros_like(re)
    y = np.flatnonzero(basis.owner >= 0)
    re[y, basis.owner[y]] = pauli._I_POWER_RE[basis.power[y]]
    im[y, basis.owner[y]] = pauli._I_POWER_IM[basis.power[y]]
    assert not basis.power[basis.owner < 0].any()
    return ExactMatrix(re, im)


def dense_of(basis):
    """P = B (B^dagger B)^-1 B^dagger for the stored B, with B^dagger B = 2^x_rank I."""
    b = stored_columns(basis)
    gram = b.conj_transpose() @ b
    assert gram == ExactMatrix(np.eye(basis.rank, dtype=np.int64) << basis.x_rank, np.zeros((basis.rank,) * 2))
    p = b @ b.conj_transpose()
    return ExactMatrix(p.re, p.im, p.den + basis.x_rank)


class TestProjector:
    def test_bell_state(self):
        spec = StabilizerSpec.plus([(EPS, EPS), (EPS_BAR, EPS_BAR)])
        basis = stabilizer_projector(spec)
        assert basis.trace() == (Fraction(1), Fraction(0))
        p = dense_of(basis)
        assert p == dense_projector(spec, 2)
        assert p @ p == p
        assert p.conj_transpose() == p

    def test_explicit_n_must_match_the_basis(self):
        with pytest.raises(ValueError, match="length"):
            stabilizer_projector(StabilizerSpec.plus(B422), n=5)

    def test_empty_spec_is_identity(self):
        spec = StabilizerSpec((), ())
        p = stabilizer_projector(spec, n=3)
        assert dense_of(p) == identity(8)

    def test_all_sign_patterns_have_the_same_trace(self):
        for mus, tr in all_mu_traces(B422).items():
            assert tr == (Fraction(4), Fraction(0)), mus

    def test_extended_rank4_spec_all_16_patterns(self):
        traces = all_mu_traces(B422_EXTENDED)
        assert len(traces) == 16
        for tr in traces.values():
            assert tr == (Fraction(1), Fraction(0))

    def test_all_mu_traces_validates_the_basis_once(self, monkeypatch):
        calls = []
        validate = StabilizerSpec.__post_init__
        monkeypatch.setattr(StabilizerSpec, "__post_init__", lambda spec: calls.append(validate(spec)))
        assert len(all_mu_traces(STAB_8, max_n=8)) == 32
        assert len(calls) == 1

    def test_non_isotropic_rejected(self):
        with pytest.raises(ValueError):
            StabilizerSpec.plus([(EPS, 0), (EPS_BAR, 0)])

    def test_dependent_generators_rejected(self):
        f1, f2 = B422
        fsum = tuple(gf4_add(a, b) for a, b in zip(f1, f2))
        with pytest.raises(ValueError):
            StabilizerSpec.plus([f1, f2, fsum])

    def test_dependent_z_parts_rejected(self):
        # Z Z I, I Z Z and Z I Z have no X part, and the third is the product of the others
        z = EPS_BAR
        with pytest.raises(ValueError, match="not independent"):
            StabilizerSpec.plus([(z, z, 0), (0, z, z), (z, 0, z)])

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

    def test_stored_rows_ceiling(self):
        spec = StabilizerSpec((), ())
        assert HARD_MAX_N == 16
        assert stabilizer_projector(spec, n=16, max_n=16).rank == 1 << 16
        with pytest.raises(ValueError, match="cap 16"):
            stabilizer_projector(spec, n=17, max_n=20)


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
    p = dense_of(proj)
    assert p @ p == p
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


@lru_cache(maxsize=None)
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


def rule_columns(p):
    """J by its definition, one column at a time: P[j, j] != 0 and no
    nonzero entry above it in column j."""
    nz = (p.re != 0) | (p.im != 0)
    return [j for j in range(p.dim) if nz[j, j] and not nz[:j, j].any()]


def assert_matches_the_dense_product(specs, n, words=()):
    """Each spec's stored basis against its dense product P: P is the
    projector the basis defines, its columns are P[:, J] up to the common
    scale 2^x_rank, and every word's verdict and lambda are those of
    P E P = lambda P."""
    cases = []
    for spec in specs:
        basis = stabilizer_projector(spec, max_n=n)
        p = dense_projector(spec, n)
        assert dense_of(basis) == p, spec.mu
        cols = rule_columns(p)
        assert basis.cols[:, 0].tolist() == cols
        b = stored_columns(basis)
        assert ExactMatrix(b.re, b.im, basis.x_rank) == ExactMatrix(p.re[:, cols], p.im[:, cols], p.den)
        cases.append((basis, p, complex_numerators(p)))
    for w in words:
        e = dense_sigma(w)
        for basis, p, pc in cases:
            assert check_error(basis, w) == dense_check(p, pc, e), w
    return [basis for basis, _, _ in cases]


def sign_patterns(basis):
    return [StabilizerSpec(tuple(basis), mu) for mu in product((1, -1), repeat=len(basis))]


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

    def test_values_match_the_dense_product(self):
        # every word of weight <= 2 and 24 of weight 3: a dense P E P at
        # n = 8 costs a few ms, too much for all 1789 words here
        low = [w for w in WORDS_8 if sum(1 for s in w if s) <= 2]
        high = [w for w in WORDS_8 if sum(1 for s in w if s) == 3]
        specs = [StabilizerSpec(STAB_8, mu) for mu in SIGNS_8]
        assert_matches_the_dense_product(specs, 8, low + random.Random(8).sample(high, 24))

    def test_dense_sigma_is_sigma(self):
        for w in WORDS_8[::97]:
            assert np.array_equal(dense_sigma(w), complex_numerators(sigma(w, max_n=8)))

    def test_projector_matches_the_dense_product(self):
        assert_matches_the_dense_product(sign_patterns(STAB_8), 8)

    def test_every_sign_pattern_of_the_five_qubit_code(self):
        words = [w for weight in range(4) for w in weight_words(5, weight)]
        for basis in assert_matches_the_dense_product(sign_patterns(FIVE_QUBIT), 5, words):
            rep = detectability_check(basis, 3)
            assert rep.passed and rep.checked == 15 + 90

    def test_every_sign_pattern_of_the_rank4_spec(self):
        words = [w for weight in range(4) for w in weight_words(4, weight)]
        assert_matches_the_dense_product(sign_patterns(B422_EXTENDED), 4, words)


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


def corrupt_build(monkeypatch, change):
    """Make ``stabilizer_projector`` certify the builder's rows after
    ``change(owner, power, x_rank)`` has edited copies of them in place;
    a value it returns replaces x_rank."""
    build = pauli._build

    def corrupted(gens, n):
        owner, power, x_rank = build(gens, n)
        owner, power = owner.copy(), power.copy()
        new = change(owner, power, x_rank)
        return owner, power, x_rank if new is None else new

    monkeypatch.setattr(pauli, "_build", corrupted)


class TestProjectorCertificate:
    def test_projector_outside_the_stabilizer_scope_rejected(self, monkeypatch):
        # one row's phase flipped: the stored columns still define an
        # orthogonal projector of rank tr(P), but one column is not a +1
        # eigenvector of X X X X, so its range is not range(P)
        def flip(owner, power, x_rank):
            assert owner[0] == 0
            power[0] ^= 2

        corrupt_build(monkeypatch, flip)
        with pytest.raises(CertificationError, match="sigma\\(f_0\\) b != mu_0 b"):
            stabilizer_projector(StabilizerSpec.plus(B422))

    def test_wrong_owner_rejected(self, monkeypatch):
        # row 0 moved from column 0 into column 1: X X X X maps it onto
        # row 15, which column 0 still owns
        def move(owner, power, x_rank):
            assert owner[0] == 0 and owner[15] == 0
            owner[0] = 1

        corrupt_build(monkeypatch, move)
        with pytest.raises(CertificationError, match="moves row 0 out of its column"):
            stabilizer_projector(StabilizerSpec.plus(B422))

    def test_trace_identity_is_required(self, monkeypatch):
        # a dropped column: the certificate's trace identity is that the
        # number of columns is tr(P) = 2^(n-s)
        def drop(owner, power, x_rank):
            owner[owner == owner.max()] = -1
            power[owner < 0] = 0

        corrupt_build(monkeypatch, drop)
        with pytest.raises(CertificationError, match="3 columns, not tr\\(P\\) = 2\\^\\(n-s\\) = 4"):
            stabilizer_projector(StabilizerSpec.plus(B422))

    def test_doubled_projector_rejected(self, monkeypatch):
        # every column owns 2 rows, so B^dagger B = 2 I; claiming 2^0 I
        # instead would make B (B^dagger B)^-1 B^dagger the doubled 2P
        def halve_the_scale(owner, power, x_rank):
            return x_rank - 1

        corrupt_build(monkeypatch, halve_the_scale)
        with pytest.raises(CertificationError, match="owns 2 rows, not 2\\^r = 1"):
            stabilizer_projector(StabilizerSpec.plus(B422))

    def test_every_sign_pattern_is_certified(self, monkeypatch):
        # all_mu_traces certifies each sign pattern's basis
        def flip(owner, power, x_rank):
            power[0] ^= 2

        corrupt_build(monkeypatch, flip)
        with pytest.raises(CertificationError):
            all_mu_traces(B422)

    def test_word_must_fit_the_projector(self):
        p = stabilizer_projector(StabilizerSpec.plus(B422))
        with pytest.raises(ValueError, match="length"):
            check_error(p, (0, 0, 0))
        with pytest.raises(ValueError, match="GF\\(4\\)"):
            check_error(p, (7, 0, 0, 0))


def sign_pattern_projectors():
    for basis, n in ((STAB_8, 8), (tuple(B422_EXTENDED), 4)):
        for mu in product((1, -1), repeat=len(basis)):
            spec = StabilizerSpec(tuple(basis), mu)
            yield stabilizer_projector(spec, max_n=n), dense_projector(spec, n)


class TestRangeColumns:
    def test_every_sign_pattern_gives_orthogonal_columns(self):
        count = 0
        for basis, p in sign_pattern_projectors():
            cols = rule_columns(p)
            assert len(cols) == basis.rank == int(p.trace()[0])
            b = stored_columns(basis)
            assert ExactMatrix(b.re, b.im, basis.x_rank) == ExactMatrix(p.re[:, cols], p.im[:, cols], p.den)
            gram = b.conj_transpose() @ b
            assert not gram.im.any()
            assert np.array_equal(gram.re, np.eye(basis.rank, dtype=np.int64) << basis.x_rank)
            # each column's rows are one coset of the same subspace
            (span,) = {frozenset((row ^ row[0]).tolist()) for row in basis.cols}
            assert all(u ^ v in span for u in span for v in span)
            count += 1
        assert count == 32 + 16

    def test_identity_on_eight_qubits(self):
        p = stabilizer_projector(StabilizerSpec((), ()), n=8, max_n=8)
        assert p.rank == 256
        assert check_error(p, (0,) * 8) == (True, Fraction(1), Fraction(0))
        for w in weight_words(8, 1):
            ok, _, _ = check_error(p, w)
            assert not ok, w


def sequential_check(p, dmax):
    """(checked, passed, violations) of a word-by-word loop over
    ``check_error``: the reference for the batched ``detectability_check``."""
    checked, violations = 0, []
    for w in range(1, dmax):
        for word in weight_words(p.n, w):
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
            monkeypatch.setattr(pauli, "_SPAN_BLOCK", per_block * p.cols.size)
        rep = detectability_check(p, dmax)
        assert (rep.checked, rep.passed, rep.violations) == expected
        if dmax == 3 and n == 8:
            assert rep.passed and rep.checked == 276
        else:
            assert len(rep.violations) == MAX_VIOLATIONS

    def test_block_values_match_check_error(self, projs_8):
        words = [w for w in WORDS_8 if sum(1 for s in w if s) <= 2]
        for p in projs_8:
            ok, tr_re, tr_im = pauli._decide(p, np.array(words))
            scale = p.rank << p.x_rank
            for k, w in enumerate(words):
                assert check_error(p, w) == (ok[k], Fraction(int(tr_re[k]), scale), Fraction(int(tr_im[k]), scale))
