"""Tests for set similarity measures, token ordering and prefix computations."""

import pytest
from hypothesis import given, strategies as st

from repro.sets.prefix import class_counts, pkwise_prefix_length, standard_prefix_length
from repro.sets.similarity import JaccardPredicate, OverlapPredicate, jaccard, overlap
from repro.sets.tokens import TokenOrder
from repro.sets.verify import merge_overlap, overlap_at_least


class TestSimilarityFunctions:
    def test_overlap(self):
        assert overlap([1, 2, 3], [2, 3, 4]) == 2

    def test_jaccard(self):
        assert jaccard([1, 2, 3], [2, 3, 4]) == pytest.approx(2 / 4)

    def test_jaccard_of_empty_sets(self):
        assert jaccard([], []) == 1.0

    def test_overlap_ignores_duplicates(self):
        assert overlap([1, 1, 2], [1, 2, 2]) == 2


class TestOverlapPredicate:
    def test_is_result(self):
        predicate = OverlapPredicate(2)
        assert predicate.is_result([1, 2, 3], [2, 3])
        assert not predicate.is_result([1, 2, 3], [3])

    def test_thresholds_are_constant(self):
        predicate = OverlapPredicate(5)
        assert predicate.pair_required_overlap(10, 20) == 5
        assert predicate.index_required_overlap(10) == 5
        assert predicate.query_required_overlap(20) == 5

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            OverlapPredicate(0)


class TestJaccardPredicate:
    def test_equivalence_with_overlap(self):
        # J(x, q) >= tau <=> |x & q| >= tau/(1+tau) (|x|+|q|)
        predicate = JaccardPredicate(0.8)
        x = list(range(10))
        q = list(range(2, 12))
        required = predicate.pair_required_overlap(len(x), len(q))
        assert (overlap(x, q) >= required) == (jaccard(x, q) >= 0.8)

    def test_pair_required_overlap_value(self):
        predicate = JaccardPredicate(0.5)
        assert predicate.pair_required_overlap(9, 9) == 6

    def test_index_and_query_bounds_are_loosest(self):
        predicate = JaccardPredicate(0.7)
        for len_x in range(5, 40):
            loosest = predicate.index_required_overlap(len_x)
            low, high = predicate.length_bounds(len_x)
            for len_q in range(low, min(high, 60) + 1):
                assert predicate.pair_required_overlap(len_x, len_q) >= loosest

    def test_length_bounds(self):
        predicate = JaccardPredicate(0.8)
        low, high = predicate.length_bounds(20)
        assert low == 16
        assert high == 25

    def test_is_result_boundary(self):
        predicate = JaccardPredicate(0.5)
        assert predicate.is_result([1, 2], [1, 2, 3, 4])  # J = 0.5 exactly

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            JaccardPredicate(0.0)
        with pytest.raises(ValueError):
            JaccardPredicate(1.5)


class TestTokenOrder:
    RECORDS = [[1, 2, 3], [2, 3], [3], [3, 4]]

    def test_rarest_tokens_rank_first(self):
        order = TokenOrder(self.RECORDS)
        # Frequencies: 3 -> 4, 2 -> 2, 1 -> 1, 4 -> 1.
        assert order.rank(3) == order.universe_size - 1
        assert order.rank(1) < order.rank(2) < order.rank(3)

    def test_encode_sorts_by_rank(self):
        order = TokenOrder(self.RECORDS)
        encoded = order.encode([3, 1, 2])
        assert encoded == sorted(encoded)
        assert len(encoded) == 3

    def test_unseen_tokens_rank_after_universe(self):
        order = TokenOrder(self.RECORDS)
        assert order.rank(999) >= order.universe_size

    def test_distinct_unseen_tokens_get_distinct_ranks(self):
        order = TokenOrder(self.RECORDS)
        # Same hash rank: 999 and 999 + 2**30 collide modulo 2**30.
        assert order.rank(999) == order.rank(999 + 2**30)
        encoded = order.encode([1, 999, 999 + 2**30, 5])
        assert len(encoded) == 4 and encoded == sorted(set(encoded))
        assert encoded[:2] == [order.rank(1), order.rank(5)]
        assert encoded[2] == order.rank(999) and encoded[3] > encoded[2]
        # Without a collision the ranks are the plain per-token ranks.
        assert order.encode([1, 999]) == [order.rank(1), order.rank(999)]

    def test_classes_round_robin(self):
        order = TokenOrder(self.RECORDS, num_classes=2)
        assert order.token_class(0) == 1
        assert order.token_class(1) == 2
        assert order.token_class(2) == 1

    def test_classes_require_configuration(self):
        order = TokenOrder(self.RECORDS)
        with pytest.raises(ValueError):
            order.token_class(0)

    def test_negative_classes_rejected(self):
        with pytest.raises(ValueError):
            TokenOrder(self.RECORDS, num_classes=-1)


class TestStandardPrefix:
    def test_basic_value(self):
        assert standard_prefix_length(10, 7) == 4

    def test_unreachable_overlap_gives_zero(self):
        assert standard_prefix_length(5, 7) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            standard_prefix_length(-1, 2)
        with pytest.raises(ValueError):
            standard_prefix_length(5, 0)

    def test_prefix_filter_guarantee(self):
        # If two records overlap in >= t tokens, their standard prefixes share
        # at least one token.
        x = list(range(10))
        q = list(range(3, 13))
        t = 7
        px = standard_prefix_length(len(x), t)
        pq = standard_prefix_length(len(q), t)
        assert overlap(x, q) >= t
        assert set(x[:px]) & set(q[:pq])


class TestPkwisePrefix:
    def test_matches_standard_prefix_for_one_class(self):
        # With a single class (k = 1) the pkwise prefix is the standard prefix.
        classes = [1] * 12
        assert pkwise_prefix_length(classes, 1, 9) == standard_prefix_length(12, 9)

    def test_longer_than_standard_prefix(self):
        classes = [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]
        assert pkwise_prefix_length(classes, 2, 8) >= standard_prefix_length(10, 8)

    def test_budget_counts_classes_correctly(self):
        # Classes 1,2: the first class-2 token contributes nothing; the second
        # one starts contributing.
        classes = [2, 2, 2, 1]
        # target = 4 - 2 + 1 = 3: contributions are 0,1,1,1 -> prefix 4.
        assert pkwise_prefix_length(classes, 2, 2) == 4

    def test_stalled_budget_returns_full_length(self):
        # Every class has fewer tokens than its index: budget can never cover.
        classes = [2, 3, 4]
        assert pkwise_prefix_length(classes, 4, 1) == 3

    def test_unreachable_overlap_gives_zero(self):
        assert pkwise_prefix_length([1, 2, 1], 2, 5) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pkwise_prefix_length([1], 0, 1)
        with pytest.raises(ValueError):
            pkwise_prefix_length([1], 1, 0)
        with pytest.raises(ValueError):
            pkwise_prefix_length([3], 2, 1)

    def test_class_counts(self):
        assert class_counts([1, 2, 2, 1], 3, 2) == [0, 1, 2]

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=30),
    )
    def test_prefix_is_at_least_standard(self, classes, required):
        if required > len(classes):
            return
        pk = pkwise_prefix_length(classes, 4, required)
        std = standard_prefix_length(len(classes), required)
        assert pk >= std


class TestVerification:
    def test_merge_overlap(self):
        assert merge_overlap([1, 3, 5, 7], [3, 4, 5, 6, 7]) == 3

    def test_overlap_at_least_true(self):
        assert overlap_at_least([1, 3, 5, 7], [3, 4, 5], 2)

    def test_overlap_at_least_early_stop(self):
        assert not overlap_at_least([1, 2, 3], [4, 5, 6], 1)
        assert not overlap_at_least([1, 2, 3], [3, 4, 5], 2)

    def test_zero_requirement_is_trivially_true(self):
        assert overlap_at_least([], [], 0)

    @given(
        st.lists(st.integers(0, 50), max_size=30),
        st.lists(st.integers(0, 50), max_size=30),
        st.integers(0, 10),
    )
    def test_overlap_at_least_matches_merge(self, x, q, required):
        x = sorted(set(x))
        q = sorted(set(q))
        assert overlap_at_least(x, q, required) == (merge_overlap(x, q) >= required)
