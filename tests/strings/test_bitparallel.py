"""Tests for the bit-parallel (Myers) query matcher, its batch verifier and
the trimmed DPs."""

import random
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.strings.edit_distance import QueryMatcher, edit_distance, edit_distance_within

#: Two letters (near-matches are common), an astral character and both
#: ends of the lone-surrogate range.
ALPHABET = ["a", "b", "\U0001d538", "\ud800", "\udfff"]


def reference_edit_distance(x: str, y: str) -> int:
    previous = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        current = [i] + [0] * len(y)
        for j, cy in enumerate(y, start=1):
            current[j] = min(
                previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (cx != cy)
            )
        previous = current
    return previous[-1]


def test_edit_distance_matches_reference_dp():
    rng = random.Random(3)
    alphabet = "abcd"
    for _ in range(500):
        x = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        y = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        expected = reference_edit_distance(x, y)
        assert edit_distance(x, y) == expected
        for tau in range(0, 6):
            assert edit_distance_within(x, y, tau) == (expected <= tau)


def test_query_matcher_matches_reference_dp():
    rng = random.Random(4)
    alphabet = "abcde"
    for _ in range(400):
        query = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        expected = reference_edit_distance(query, text)
        matcher = QueryMatcher(query)
        assert matcher.distance(text) == expected
        for tau in range(0, 6):
            assert matcher.within(text, tau) == (expected <= tau)


def test_query_matcher_long_query_fallback():
    matcher = QueryMatcher("x" * 80)
    assert matcher.distance("x" * 70) == 10
    assert matcher.within("x" * 70, 10)
    assert not matcher.within("x" * 70, 9)


def test_query_matcher_edge_cases():
    assert QueryMatcher("").distance("abc") == 3
    assert QueryMatcher("abc").distance("") == 3
    assert QueryMatcher("").within("", 0)
    assert not QueryMatcher("abc").within("x", -1)


# ---------------------------------------------------------------------------
# The batch verifier: length + q-gram count filter in front of Myers
# ---------------------------------------------------------------------------


def _grams(text: str, kappa: int) -> Counter:
    return Counter(text[i : i + kappa] for i in range(len(text) - kappa + 1))


@st.composite
def _near(draw, query: str) -> str:
    """The query after up to five random edits, or an unrelated text."""
    if draw(st.booleans()):
        return draw(st.text(st.sampled_from(ALPHABET), max_size=12))
    text = list(query)
    for _ in range(draw(st.integers(0, 5))):
        position = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(ALPHABET))
        kind = draw(st.sampled_from("isd"))
        if kind == "i":
            text.insert(position, char)
        elif position < len(text):
            if kind == "s":
                text[position] = char
            else:
                del text[position]
    return "".join(text)


@st.composite
def _batches(draw):
    letters = st.sampled_from(ALPHABET)
    query = draw(st.text(letters, max_size=12) | st.text(letters, min_size=60, max_size=80))
    texts = draw(st.lists(_near(query), max_size=10))
    return query, texts


@settings(max_examples=200, deadline=None)
@given(batch=_batches(), tau=st.integers(0, 6), kappa=st.integers(1, 5))
@example(batch=("", ["", "a", "ab", "abcdefgh"]), tau=1, kappa=3)
@example(batch=("ab", ["a", "b", "ab", "ba", "abab"]), tau=0, kappa=5)
@example(batch=("a" * 70, ["a" * 69 + "b", "a" * 66]), tau=3, kappa=4)
def test_batch_verifier_equals_the_banded_dp_and_never_drops_a_match(batch, tau, kappa):
    query, texts = batch
    matcher = QueryMatcher(query)
    truth = [index for index, text in enumerate(texts) if edit_distance_within(text, query, tau)]
    assert matcher.indexes_within(texts, tau, kappa) == truth
    if not texts:
        return
    # The filter alone: every true match keeps its count at or above the
    # bound, and the count never falls below the multiset intersection.
    lengths = np.asarray([len(text) for text in texts], dtype=np.int64)
    shared = matcher._shared_grams(texts, lengths, kappa)
    query_grams = _grams(query, kappa)
    for index, text in enumerate(texts):
        assert shared[index] >= sum((_grams(text, kappa) & query_grams).values())
        if index in truth:
            assert shared[index] >= max(len(text), len(query)) - kappa + 1 - kappa * tau


def test_batch_verifier_edge_cases():
    matcher = QueryMatcher("abc")
    assert matcher.indexes_within([], 2, 2) == []
    assert matcher.indexes_within(["abc"], -1, 2) == []
    # tau at or above both lengths: everything matches, the filter cannot prune.
    assert matcher.indexes_within(["", "x", "xyz"], 3, 2) == [0, 1, 2]
