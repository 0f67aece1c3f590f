import itertools
import random

import numpy as np
import pytest

from agstab.errors import BudgetExceeded
from agstab.fields import get_field
from agstab.linear import (
    LinearCode,
    WeightVector,
    binary_code,
    code_from_matrix,
    from_symbols,
    make_code,
)

from helpers import generators

GF2 = get_field(1)
GF4 = get_field(2)
GF8 = get_field(3)
GF16 = get_field(4)


def ones(field, n):
    """The all-ones weight vector."""
    return WeightVector(field, (1,) * n)


def inverse(v):
    """The entrywise inverse of a weight vector."""
    return WeightVector(v.field, tuple(v.field.pow(e, v.field.order - 2) for e in v.entries))


def zero_code(field, n):
    return code_from_matrix(field, n, from_symbols(field, np.zeros((0, n), dtype=np.uint8)))


def full_code(field, n):
    return code_from_matrix(field, n, from_symbols(field, np.eye(n, dtype=np.uint8)))

HAMMING_7_4 = [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 1],
    [0, 0, 0, 1, 1, 0, 1],
]
EXT_HAMMING_8_4 = [0b11111111, 0b01010101, 0b00110011, 0b00001111]
EVEN_8_7 = [(1 << i) | (1 << 7) for i in range(7)]


def squared(v):
    """The entrywise square of a weight vector."""
    return WeightVector(v.field, tuple(v.field.mul(e, e) for e in v.entries))


def brute_force_dual(code: LinearCode) -> set[int]:
    """Oracle: all vectors orthogonal to every generator, by enumeration."""
    gens = code.bit_rows
    return {
        v
        for v in range(1 << code.n)
        if all((v & g).bit_count() % 2 == 0 for g in gens)
    }


def brute_force_words(code: LinearCode) -> list[tuple[int, ...]]:
    """Oracle: all q^k codewords as symbol tuples, one message at a time in
    scalar field arithmetic, with no kernel matrix or enumeration primitive."""
    f = code.field
    words = []
    for msg in itertools.product(range(f.order), repeat=code.k_dim):
        word = [0] * code.n
        for c, row in zip(msg, generators(code)):
            for j, x in enumerate(row):
                word[j] ^= f.mul(c, x)
        words.append(tuple(word))
    return words


def brute_force_distance(code: LinearCode) -> int:
    return min(sum(x != 0 for x in w) for w in brute_force_words(code) if any(w))


def codeword_set(code: LinearCode) -> set[tuple[int, ...]]:
    return set(brute_force_words(code))


def random_code(field, n, k, rng) -> LinearCode:
    while True:
        rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(k)]
        code = make_code(field, n, rows)
        if code.k_dim == k:
            return code


class TestDual:
    def test_hamming_dual_is_contained_simplex(self):
        ham = make_code(GF2, 7, HAMMING_7_4)
        dual = ham.dual()
        assert (dual.n, dual.k_dim) == (7, 3)
        assert dual.min_distance_exact() == 4  # simplex: constant weight
        assert ham.contains(dual)

    def test_dual_matches_brute_force(self):
        ham = make_code(GF2, 7, HAMMING_7_4)
        dual = ham.dual()
        words = {sum(b << j for j, b in enumerate(w)) for w in codeword_set(dual)}
        assert words == brute_force_dual(ham)

    def test_quaternary_dual_matches_brute_force(self):
        c = make_code(GF4, 4, [[1, 2, 0, 3], [0, 1, 1, 1]])

        def dot(u, v):
            acc = 0
            for a, b in zip(u, v):
                acc ^= GF4.mul(a, b)
            return acc

        orthogonal = {
            v
            for v in itertools.product(range(4), repeat=4)
            if all(dot(v, g) == 0 for g in generators(c))
        }
        assert codeword_set(c.dual()) == orthogonal

    def test_full_and_zero(self):
        assert full_code(GF2, 5).dual() == zero_code(GF2, 5)
        assert zero_code(GF4, 6).dual() == full_code(GF4, 6)

    def test_involution_and_dimension(self):
        rng = random.Random(7)
        for _ in range(15):
            c = random_code(GF4, 6, rng.randint(0, 6), rng)
            d = c.dual()
            assert d.k_dim == 6 - c.k_dim
            assert d.dual() == c


class TestWeightedDual:
    def test_all_ones_is_plain_dual(self):
        rng = random.Random(11)
        for _ in range(10):
            c = random_code(GF4, 6, 3, rng)
            assert c.weighted_dual(ones(GF4, 6)) == c.dual()

    def test_dimension_is_complementary(self):
        rng = random.Random(13)
        for _ in range(10):
            w = WeightVector(GF4, tuple(rng.randrange(1, 4) for _ in range(6)))
            c = random_code(GF4, 6, rng.randint(1, 5), rng)
            assert c.weighted_dual(w).k_dim == 6 - c.k_dim

    def test_double_weighted_dual_is_identity(self):
        rng = random.Random(17)
        for _ in range(20):
            w = WeightVector(GF4, tuple(rng.randrange(1, 4) for _ in range(6)))
            c = random_code(GF4, 6, 3, rng)
            assert c.weighted_dual(w).weighted_dual(w) == c

    def test_length_mismatch(self):
        c = random_code(GF4, 6, 3, random.Random(1))
        with pytest.raises(ValueError):
            c.weighted_dual(ones(GF4, 5))


class TestScale:
    def test_all_ones_is_identity(self):
        c = random_code(GF4, 6, 3, random.Random(2))
        assert c.scale(ones(GF4, 6)) == c

    def test_invertible(self):
        rng = random.Random(3)
        for _ in range(10):
            v = WeightVector(GF4, tuple(rng.randrange(1, 4) for _ in range(6)))
            c = random_code(GF4, 6, 3, rng)
            assert c.scale(v).scale(inverse(v)) == c

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(GF4, (1, 0, 1))

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_matches_the_elimination_of_the_scaled_rows(self, k):
        # scale certifies its rows with code_from_rref; eliminating them
        # afresh must give the same matrix and pivots, zero code included
        field, rng = get_field(k), random.Random(k)
        for _ in range(40):
            n = rng.randrange(1, 12)
            c = random_code(field, n, rng.randrange(0, n + 1), rng)
            v = WeightVector(field, tuple(rng.randrange(1, field.order) for _ in range(n)))
            scaled = field.mul_table[np.array(v.entries), c.matrix]
            ref = code_from_matrix(field, n, scaled)
            out = c.scale(v)
            assert out.pivots == ref.pivots == c.pivots
            assert np.array_equal(out.matrix, ref.matrix) and out.matrix.dtype == ref.matrix.dtype

    def test_weighted_self_orthogonality_scales_to_dual_containment(self):
        # If C contains its v^2-weighted dual, the v-scaled code contains
        # its plain dual (the scaling is an isometry between the forms).
        rng = random.Random(5)
        checked = 0
        for _ in range(20):
            v = WeightVector(GF4, tuple(rng.randrange(1, 4) for _ in range(6)))
            w = squared(v)
            # seed rows made w-self-orthogonal by construction:
            # (a, b, 0, ...) with w1 a^2 + w2 b^2 = 0
            a = rng.randrange(1, 4)
            # b = sqrt(w1 a^2 / w2), the square root being x^(2^(k-1))
            b2 = GF4.mul(GF4.mul(w.entries[0], GF4.mul(a, a)), GF4.pow(w.entries[1], 2))
            b = GF4.pow(b2, 1 << (GF4.k - 1))
            seed = make_code(GF4, 6, [[a, b, 0, 0, 0, 0]])
            c = seed.weighted_dual(w)
            assert c.contains(c.weighted_dual(w))  # c is w-dual-containing
            scaled = c.scale(v)
            assert scaled.contains(scaled.dual())
            checked += 1
        assert checked == 20


class TestContains:
    def test_reflexive(self):
        c = random_code(GF4, 6, 3, random.Random(4))
        assert c.contains(c)

    def test_zero_does_not_contain_nonzero(self):
        assert not zero_code(GF2, 5).contains(full_code(GF2, 5))
        assert full_code(GF2, 5).contains(zero_code(GF2, 5))

    def test_mutual_containment_is_equality(self):
        a = make_code(GF2, 7, HAMMING_7_4)
        # same row space, different presentation
        rows = [HAMMING_7_4[0], [x ^ y for x, y in zip(HAMMING_7_4[0], HAMMING_7_4[1])],
                HAMMING_7_4[2], [x ^ y for x, y in zip(HAMMING_7_4[2], HAMMING_7_4[3])]]
        b = make_code(GF2, 7, rows)
        assert a.contains(b) and b.contains(a)
        assert a == b

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            full_code(GF2, 4).contains(full_code(GF4, 4))


class TestMinDistance:
    def test_repetition(self):
        for n in (3, 5, 9):
            rep = binary_code(n, [(1 << n) - 1])
            assert rep.min_distance_exact() == n

    def test_hamming_and_extension(self):
        assert make_code(GF2, 7, HAMMING_7_4).min_distance_exact() == 3
        assert binary_code(8, EXT_HAMMING_8_4).min_distance_exact() == 4

    def test_oracle_direct_message_enumeration(self):
        # independent route: explicit message * matrix products
        code = binary_code(8, EXT_HAMMING_8_4)
        best = 9
        for msg in range(1, 16):
            w = 0
            for i in range(4):
                if msg >> i & 1:
                    w ^= EXT_HAMMING_8_4[i]
            best = min(best, w.bit_count())
        assert code.min_distance_exact() == best == 4

    def test_quaternary(self):
        c = make_code(GF4, 4, [[1, 1, 1, 1]])
        assert c.min_distance_exact() == 4

    def test_budget(self):
        c = binary_code(8, EXT_HAMMING_8_4)
        with pytest.raises(BudgetExceeded):
            c.min_distance_exact(budget=8)

    def test_zero_code(self):
        with pytest.raises(ValueError):
            zero_code(GF2, 4).min_distance_exact()

    @pytest.mark.parametrize("field", [GF4, GF8, GF16], ids=str)
    def test_matches_brute_force_over_extension_fields(self, field):
        rng = random.Random(field.k)
        done = 0
        while done < 30:
            n = rng.randint(1, 9)
            c = random_code(field, n, rng.randint(1, n), rng)
            if field.order**c.k_dim > 1 << 12:
                continue
            assert c.min_distance_exact() == brute_force_distance(c), generators(c)
            done += 1

    @pytest.mark.parametrize("field", [GF2, GF4, GF8, GF16], ids=str)
    def test_budget_is_refused_exactly_past_q_to_the_k(self, field):
        c = random_code(field, 6, 3, random.Random(field.k))
        words = field.order**3
        assert c.min_distance_exact(budget=words) == brute_force_distance(c)
        with pytest.raises(BudgetExceeded, match=f"{field.order}\\^3 codewords exceed budget {words - 1}"):
            c.min_distance_exact(budget=words - 1)

    @pytest.mark.parametrize("field", [GF4, GF8, GF16], ids=str)
    def test_zero_code_over_extension_fields(self, field):
        with pytest.raises(ValueError, match="zero code"):
            zero_code(field, 5).min_distance_exact()

    def test_invariant_under_scaling(self):
        rng = random.Random(6)
        for _ in range(10):
            v = WeightVector(GF4, tuple(rng.randrange(1, 4) for _ in range(5)))
            c = random_code(GF4, 5, 2, rng)
            assert c.min_distance_exact() == c.scale(v).min_distance_exact()


class TestSecondOrWeight:
    def test_even_weight_code(self):
        assert binary_code(8, EVEN_8_7).second_or_weight() == 3

    def test_repetition_degenerate(self):
        with pytest.raises(ValueError):
            binary_code(5, [0b11111]).second_or_weight()

    def test_nonbinary_rejected(self):
        with pytest.raises(TypeError):
            make_code(GF4, 4, [[1, 1, 1, 1], [0, 1, 2, 3]]).second_or_weight()

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            binary_code(8, EVEN_8_7).second_or_weight(budget=10)

    def test_three_halves_bound_on_random_codes(self):
        rng = random.Random(123)
        done = 0
        while done < 30:
            n = rng.randint(4, 11)
            k = rng.randint(2, min(n, 6))
            c = binary_code(n, [rng.randrange(1, 1 << n) for _ in range(k)])
            if c.k_dim < 2:
                continue
            d = c.min_distance_exact()
            assert c.second_or_weight() >= -(-3 * d // 2)
            done += 1


def test_generators_are_canonical_and_binary_packed():
    c = binary_code(8, EVEN_8_7)
    assert all(isinstance(r, int) for r in c.bit_rows)
    assert generators(c)[0][0] == 1  # first pivot at the leftmost column
    c4 = make_code(GF4, 3, [[2, 1, 0], [0, 2, 1]])
    assert all(row[p] == 1 for row, p in zip(generators(c4), c4.pivots))  # normalized pivots
