from fractions import Fraction

import numpy as np
import pytest

from agstab.fields import EPS, EPS_BAR
from agstab.linear import binary_code
from agstab.pauli import (
    ExactMatrix,
    StabilizerSpec,
    all_mu_traces,
    check_error,
    detectability_check,
    find_violation,
    sigma,
    stabilizer_projector,
    weight_words,
)
from agstab.symplectic import (
    make_symplectic,
    pack_gf4,
    quantum_params,
    steane_compose,
    symplectic_dual,
    unpack_gf4,
)

B422 = [(EPS,) * 4, (EPS_BAR,) * 4]
# two extra isotropic vectors extending the four-qubit stabilizer to rank 4
B422_EXTENDED = B422 + [(EPS, EPS, 0, 0), (EPS_BAR, EPS_BAR, 0, 0)]


def gf4_add(a, b):
    return a ^ b  # polynomial-basis representation: addition is xor


class TestSigma:
    def test_identity(self):
        s = sigma((0, 0, 0))
        assert s == ExactMatrix.identity(8)

    def test_squares_to_identity(self):
        for sym in range(4):
            s = sigma((sym,))
            assert s @ s == ExactMatrix.identity(2)

    def test_x_z_anticommute(self):
        x, z = sigma((EPS,)), sigma((EPS_BAR,))
        assert x @ z == -(z @ x)

    def test_third_pauli_matrix_entries(self):
        s = sigma((1,))
        assert s.re.tolist() == [[0, 0], [0, 0]]
        assert s.im.tolist() == [[0, -1], [1, 0]]

    def test_projective_homomorphism_on_isotropic_pair(self):
        f1, f2 = B422
        fsum = tuple(gf4_add(a, b) for a, b in zip(f1, f2))
        prod = sigma(f1) @ sigma(f2)
        assert prod == sigma(fsum) or prod == -sigma(fsum)
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

    def test_empty_spec_is_identity(self):
        spec = StabilizerSpec((), ())
        p = stabilizer_projector(spec, n=3)
        assert p == ExactMatrix.identity(8)

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
        witness = find_violation(self.proj, 2)
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
    assert a == ExactMatrix.identity(2)
    b = ExactMatrix(np.array([[1, 0], [0, 1]]), np.array([[1, 0], [0, 1]]), den=0)
    assert a != b
    assert (b - b).is_zero()


@pytest.mark.slow
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
