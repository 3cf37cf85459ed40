"""Tests for bit-vector packing and Hamming distance helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.hamming.bitvec import (
    as_bit_matrix,
    code_hamming_distances,
    codes_from_bits,
    hamming_distance,
    pack_words,
    packed_hamming_distances,
    popcount,
)


class TestValidation:
    def test_as_bit_matrix_accepts_zero_one(self):
        matrix = as_bit_matrix(np.array([[0, 1], [1, 0]]))
        assert matrix.dtype == np.uint8

    def test_as_bit_matrix_rejects_other_values(self):
        with pytest.raises(ValueError):
            as_bit_matrix(np.array([[0, 2]]))

    def test_as_bit_matrix_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            as_bit_matrix(np.array([0, 1, 1]))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, float])
    def test_as_bit_matrix_normalises_every_dtype(self, dtype):
        bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=dtype)
        matrix = as_bit_matrix(bits)
        assert matrix.dtype == np.uint8
        assert matrix.tolist() == [[0, 1, 1], [1, 0, 0]]
        # Already-normalised input is passed through, not copied.
        assert (matrix is bits) == (dtype is np.uint8)
        assert as_bit_matrix(np.zeros((0, 3), dtype=dtype)).shape == (0, 3)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0, 2]], dtype=np.uint8),
            np.array([[0, 255]], dtype=np.uint8),
            np.array([[0, -1]]),
            np.array([[1, 0.5]]),
            np.array([[0, np.nan]]),
            np.array([[1, np.inf]]),
            np.array([[[0, 1]]]),
            np.array(1),
        ],
        ids=["two", "255", "minus-one", "half", "nan", "inf", "3-d", "0-d"],
    )
    def test_as_bit_matrix_rejects(self, bad):
        with pytest.raises(ValueError):
            as_bit_matrix(bad)

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        with pytest.raises(ValueError):
            popcount(-1)


class TestPacking:
    def test_pack_words_shape(self):
        vectors = np.zeros((3, 130), dtype=np.uint8)
        assert pack_words(vectors).shape == (3, 3)

    def test_pack_words_roundtrip_distance(self):
        rng = np.random.default_rng(0)
        vectors = rng.integers(0, 2, size=(20, 100), dtype=np.uint8)
        query = rng.integers(0, 2, size=100, dtype=np.uint8)
        packed = pack_words(vectors)
        query_words = pack_words(query.reshape(1, -1))[0]
        fast = packed_hamming_distances(query_words, packed)
        slow = np.array([hamming_distance(v, query) for v in vectors])
        assert np.array_equal(fast, slow)

    def test_codes_from_bits(self):
        codes = codes_from_bits(np.array([[1, 0, 1], [0, 1, 1]]))
        assert codes.tolist() == [0b101, 0b110]

    def test_codes_width_limit(self):
        with pytest.raises(ValueError):
            codes_from_bits(np.zeros((1, 64), dtype=np.uint8))

    def test_code_hamming_distances(self):
        codes = np.array([0b000, 0b111, 0b101], dtype=np.int64)
        assert code_hamming_distances(0b001, codes).tolist() == [1, 2, 1]

    def test_hamming_distance_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(np.array([0, 1]), np.array([0, 1, 1]))


class TestPackingProperties:
    @given(
        hnp.arrays(np.uint8, shape=st.tuples(st.integers(1, 8), st.integers(1, 90)),
                   elements=st.integers(0, 1))
    )
    @settings(max_examples=30, deadline=None)
    def test_packed_distance_matches_unpacked(self, vectors):
        query = vectors[0]
        packed = pack_words(vectors)
        query_words = pack_words(query.reshape(1, -1))[0]
        fast = packed_hamming_distances(query_words, packed)
        slow = np.array([hamming_distance(v, query) for v in vectors])
        assert np.array_equal(fast, slow)

    @given(
        hnp.arrays(np.uint8, shape=st.tuples(st.integers(1, 6), st.integers(1, 40)),
                   elements=st.integers(0, 1))
    )
    @settings(max_examples=30, deadline=None)
    def test_code_distance_matches_bit_distance(self, bits):
        codes = codes_from_bits(bits)
        query = bits[0]
        query_code = int(codes_from_bits(query.reshape(1, -1))[0])
        fast = code_hamming_distances(query_code, codes)
        slow = np.array([hamming_distance(row, query) for row in bits])
        assert np.array_equal(fast, slow)
