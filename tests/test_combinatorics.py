import math

import pytest

from _oracles import (
    block_swap_images_closed_form,
    candidate_count_by_faces,
    chi,
    enumerate_permutations,
    fixed_points,
    is_derangement,
    is_identity,
    subfactorial_alternating_sum,
    subfactorial_pair_recursion,
)
from twoaction.combinatorics import (
    Permutation,
    block_swap_permutation,
    candidate_count,
    candidates_on_face_class,
    enumerate_derangements,
    maximal_equilibrium_count,
    subfactorial,
)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])

    def test_identity_and_fixed_points(self):
        p = Permutation.identity(4)
        assert fixed_points(p) == (1, 2, 3, 4)
        assert is_identity(p)

    def test_call_is_one_based(self):
        p = Permutation([3, 2, 1])
        assert p(1) == 3 and p(3) == 1
        with pytest.raises(IndexError):
            p(0)

    def test_restriction_outside_fixed_points_is_deranged(self):
        for p in enumerate_permutations(5):
            fixed = set(fixed_points(p))
            assert all(p(i) != i for i in range(1, 6) if i not in fixed)


class TestSubfactorial:
    def test_small_table(self):
        assert [subfactorial(n) for n in range(7)] == [1, 0, 1, 2, 9, 44, 265]

    @pytest.mark.parametrize("n", range(16))
    def test_three_formulas_agree(self, n):
        assert (
            subfactorial(n)
            == subfactorial_pair_recursion(n)
            == subfactorial_alternating_sum(n)
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            subfactorial(-1)

    def test_large_values_exact(self):
        # arbitrary precision: !25 has 26 digits and must round-trip the recursions
        assert subfactorial(25) == subfactorial_pair_recursion(25)
        assert subfactorial(25) > 2**64


class TestCandidateCounts:
    def test_table(self):
        assert [candidate_count(m) for m in range(1, 6)] == [2, 5, 16, 65, 326]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_two_closed_forms_agree(self, m):
        assert candidate_count(m) == candidate_count_by_faces(m)

    def test_m8_cross_check(self):
        fact = math.factorial(8)
        direct = sum(fact // math.factorial(l) for l in range(9))
        by_faces = sum(
            math.comb(8, l) * 2**l * subfactorial(8 - l) for l in range(9)
        )
        assert candidate_count(8) == direct == by_faces

    def test_maximal_counts(self):
        assert maximal_equilibrium_count(1) == 1
        assert [maximal_equilibrium_count(m) for m in range(2, 5)] == [3, 9, 37]
        # (candidate_count(6) + !6) / 2, via the independent summations
        assert maximal_equilibrium_count(6) == (1957 + 265) // 2

    def test_face_class_counts_sum(self):
        for m in range(1, 8):
            per_class = [candidates_on_face_class(m, l) for l in range(m + 1)]
            assert sum(per_class) == candidate_count(m)
            assert per_class[m] == 2**m  # vertices
            assert per_class[m - 1] == 0  # no derangement of one element

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            candidate_count(0)
        with pytest.raises(ValueError):
            candidates_on_face_class(3, 4)


class TestEnumeration:
    @pytest.mark.parametrize("m", range(0, 8))
    def test_counts(self, m):
        assert sum(1 for _ in enumerate_permutations(m)) == math.factorial(m)
        assert sum(1 for _ in enumerate_derangements(m)) == subfactorial(m)

    def test_m3_derangements(self):
        assert [d.images for d in enumerate_derangements(3)] == [(2, 3, 1), (3, 1, 2)]

    def test_m1_derangements_empty(self):
        assert list(enumerate_derangements(1)) == []

    def test_lexicographic_order(self):
        perms = [p.images for p in enumerate_permutations(4)]
        assert perms == sorted(perms)

    def test_derangements_have_no_fixed_points(self):
        for d in enumerate_derangements(6):
            assert is_derangement(d)


class TestChi:
    def test_values(self):
        assert chi(2, 2) == 1
        assert chi(1, 3) == 0
        assert chi(3, 1) == 1


class TestBlockSwap:
    def test_m3_values(self):
        assert block_swap_permutation(3, 1) == Permutation.identity(3)
        assert block_swap_permutation(3, 2) == Permutation([3, 2, 1])
        assert block_swap_permutation(3, 3) == Permutation.identity(3)

    def test_m1(self):
        assert block_swap_permutation(1, 1) == Permutation.identity(1)

    def test_m5_pivot3(self):
        # players 4, 5 take the two lowest values other than 3, players 1, 2 the rest
        assert block_swap_permutation(5, 3).images == (4, 5, 3, 1, 2)
        assert block_swap_images_closed_form(5, 3).images == (4, 5, 3, 1, 2)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_composition_equals_closed_form(self, m):
        for i in range(1, m + 1):
            assert block_swap_permutation(m, i) == block_swap_images_closed_form(m, i)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_characterizing_inversions(self, m):
        for i in range(1, m + 1):
            d = block_swap_permutation(m, i)
            assert d(i) == i
            others = [j for j in range(1, m + 1) if j != i]
            for a in range(len(others)):
                for b in range(a + 1, len(others)):
                    j1, j2 = others[a], others[b]
                    inverted = d(j1) > d(j2)
                    assert inverted == (j1 < i < j2)

    def test_rejects_bad_pivot(self):
        with pytest.raises(ValueError):
            block_swap_permutation(4, 0)
        with pytest.raises(ValueError):
            block_swap_permutation(4, 5)
