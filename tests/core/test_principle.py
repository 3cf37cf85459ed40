"""Tests of the pigeonhole and pigeonring principles (Theorems 1-3, Corollaries 1-2)."""

import pytest
from hypothesis import example, given, strategies as st

from repro.core.geometry import verify_geometric_witness
from repro.core.principle import (
    candidate_subset_holds,
    complete_chain_sum,
    passes_pigeonhole,
    passes_pigeonring,
    passes_pigeonring_basic,
    passes_pigeonring_strong,
    pigeonhole_bound,
    pigeonhole_witnesses,
    pigeonring_basic_witnesses,
    pigeonring_strong_witnesses,
    prefix_nonviable_witnesses,
    suffix_nonviable_witnesses,
    suffix_viable_witnesses,
)

FIG1A = (2, 1, 2, 2, 1)
FIG1B = (2, 0, 3, 1, 2)


class TestPigeonhole:
    def test_bound(self):
        assert pigeonhole_bound(5, 5) == 1.0
        assert pigeonhole_bound(7, 2) == 3.5

    def test_bound_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            pigeonhole_bound(5, 0)

    def test_example_1_both_layouts_pass(self):
        assert passes_pigeonhole(FIG1A, 5)
        assert passes_pigeonhole(FIG1B, 5)

    def test_witnesses_of_figure_1a(self):
        assert pigeonhole_witnesses(FIG1A, 5) == [1, 4]

    def test_theorem_1_guarantee(self):
        # Any layout with ||B||_1 <= n must pass.
        assert passes_pigeonhole([1, 1, 1, 1, 1], 5)
        assert passes_pigeonhole([0, 0, 5, 0, 0], 5)

    def test_all_boxes_above_quota_fails(self):
        assert not passes_pigeonhole([2, 2, 2, 2, 2], 5)


class TestPigeonringBasic:
    def test_example_3_layout_a_filtered_at_length_two(self):
        assert not passes_pigeonring_basic(FIG1A, 5, 2)

    def test_example_6_layout_b_passes_basic_at_length_two(self):
        assert passes_pigeonring_basic(FIG1B, 5, 2)
        assert pigeonring_basic_witnesses(FIG1B, 5, 2) == [0]

    def test_length_one_equals_pigeonhole(self):
        for layout in (FIG1A, FIG1B, (0, 1, 2, 3, 4), (3, 3, 3, 3, 3)):
            assert passes_pigeonring_basic(layout, 5, 1) == passes_pigeonhole(layout, 5)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            pigeonring_basic_witnesses(FIG1A, 5, 0)
        with pytest.raises(ValueError):
            pigeonring_basic_witnesses(FIG1A, 5, 6)


class TestPigeonringStrong:
    def test_example_6_layout_b_filtered_by_strong_form(self):
        assert not passes_pigeonring_strong(FIG1B, 5, 2)

    def test_both_example_layouts_filtered_at_length_two(self):
        assert not passes_pigeonring_strong(FIG1A, 5, 2)
        assert not passes_pigeonring_strong(FIG1B, 5, 2)

    def test_within_budget_layout_passes_all_lengths(self):
        layout = (1, 1, 1, 1, 1)
        for length in range(1, 6):
            assert passes_pigeonring_strong(layout, 5, length)

    def test_default_form_is_strong(self):
        assert passes_pigeonring(FIG1B, 5, 2, strong=False)
        assert not passes_pigeonring(FIG1B, 5, 2, strong=True)
        assert not passes_pigeonring(FIG1B, 5, 2)

    def test_strong_witnesses_are_subset_of_basic(self):
        for layout in (FIG1A, FIG1B, (1, 0, 2, 1, 1)):
            for length in range(1, 6):
                strong = set(pigeonring_strong_witnesses(layout, 5, length))
                basic = set(pigeonring_basic_witnesses(layout, 5, length))
                assert strong <= basic

    def test_complete_chain_candidates_are_results(self):
        # With l = m the strong filter passes exactly when ||B||_1 <= n.
        for layout in (FIG1A, FIG1B, (1, 1, 1, 1, 1), (0, 0, 5, 0, 0)):
            expected = sum(layout) <= 5
            assert passes_pigeonring_strong(layout, 5, 5) == expected


class TestCorollaries:
    def test_corollary_1_viable_case(self):
        layout = (1, 1, 1, 1, 1)
        for length in range(1, 6):
            assert pigeonring_strong_witnesses(layout, 5, length)
            assert suffix_viable_witnesses(layout, 5, length)

    def test_corollary_1_nonviable_case(self):
        # ||B||_1 = 8 > 5: prefix- and suffix-non-viable chains must exist.
        for length in range(1, 6):
            assert prefix_nonviable_witnesses(FIG1A, 5, length)
            assert suffix_nonviable_witnesses(FIG1A, 5, length)

    def test_nonviable_witness_values(self):
        # Box 0 of (2,1,2,2,1) has value 2 > 1, so it is prefix-non-viable at length 1.
        assert 0 in prefix_nonviable_witnesses(FIG1A, 5, 1)
        assert 1 not in prefix_nonviable_witnesses(FIG1A, 5, 1)


class TestHelperFunctions:
    def test_complete_chain_sum(self):
        assert complete_chain_sum(FIG1A) == 8

    def test_candidate_subset_holds_on_examples(self):
        assert candidate_subset_holds(FIG1A, 5)
        assert candidate_subset_holds(FIG1B, 5)


@st.composite
def layouts(draw, max_m=8, max_value=12):
    m = draw(st.integers(min_value=1, max_value=max_m))
    boxes = draw(
        st.lists(st.integers(min_value=0, max_value=max_value), min_size=m, max_size=m)
    )
    n = draw(st.integers(min_value=0, max_value=max_m * max_value))
    return boxes, n


class TestPrincipleProperties:
    @given(layouts())
    @example(([0, 1, 12, 12, 12, 12, 12], 61))  # 7 * (61 / 7) < 61 in floats
    def test_theorem_2_and_3_guarantee(self, layout):
        """If ||B||_1 <= n both forms must pass for every chain length."""
        boxes, n = layout
        if sum(boxes) > n:
            return
        for length in range(1, len(boxes) + 1):
            assert passes_pigeonring_basic(boxes, n, length)
            assert passes_pigeonring_strong(boxes, n, length)

    def test_a_total_of_exactly_n_passes_at_every_length(self):
        """Theorems 2/3 at the boundary ``||B||_1 == n``, where a float quota
        ``l * (n / m)`` can round below ``n``: every m <= 8, n <= 96, a layout
        summing to exactly n (uneven, so prefixes differ), every l."""
        for m in range(1, 9):
            for n in range(97):
                boxes = [n] if m == 1 else [n // 3] + [0] * (m - 2) + [n - n // 3]
                assert verify_geometric_witness(boxes, n)
                # The complete chain is viable, so no chain has every prefix
                # (or suffix) over its quota.
                assert not prefix_nonviable_witnesses(boxes, n, m)
                assert not suffix_nonviable_witnesses(boxes, n, m)
                for length in range(1, m + 1):
                    assert passes_pigeonring_basic(boxes, n, length), (boxes, n, length)
                    assert passes_pigeonring_strong(boxes, n, length), (boxes, n, length)
                    assert suffix_viable_witnesses(boxes, n, length), (boxes, n, length)

    @given(layouts())
    def test_lemma_1_and_4_monotonicity(self, layout):
        """Candidates shrink as the chain length grows (Lemmas 1 and 4)."""
        boxes, n = layout
        assert candidate_subset_holds(boxes, n)

    @given(layouts())
    def test_strong_form_subset_of_basic_form(self, layout):
        boxes, n = layout
        for length in range(1, len(boxes) + 1):
            if passes_pigeonring_strong(boxes, n, length):
                assert passes_pigeonring_basic(boxes, n, length)

    @given(layouts())
    def test_length_m_filter_equals_exact_test(self, layout):
        boxes, n = layout
        assert passes_pigeonring_strong(boxes, n, len(boxes)) == (sum(boxes) <= n)

    @given(layouts())
    def test_real_valued_thresholds(self, layout):
        """The principle holds when n is real-valued (not only integers)."""
        boxes, n = layout
        real_n = n + 0.5
        if sum(boxes) <= real_n:
            for length in range(1, len(boxes) + 1):
                assert passes_pigeonring_strong(boxes, real_n, length)
