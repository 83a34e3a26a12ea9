"""VectorArena: growth and pickling."""

import pickle

import numpy as np
import pytest

from repro.vectorstore import VectorArena


class TestArenaBasics:
    def test_append_and_view(self):
        arena = VectorArena(3)
        assert list(arena.extend([1.0, 2.0, 3.0])) == [0]
        assert list(arena.extend([4.0, 5.0, 6.0])) == [1]
        np.testing.assert_array_equal(arena.view(), [[1, 2, 3], [4, 5, 6]])
        assert arena.view().dtype == np.float64
        assert len(arena) == 2

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            VectorArena(0)
        arena = VectorArena(3)
        with pytest.raises(ValueError, match="dim"):
            arena.extend([1.0, 2.0])
        with pytest.raises(ValueError, match="dim"):
            arena.extend(np.ones((2, 4)))
        assert len(arena) == 0

    def test_extend_is_block_copy(self):
        arena = VectorArena(4)
        positions = arena.extend(np.arange(20.0).reshape(5, 4))
        assert list(positions) == [0, 1, 2, 3, 4]
        assert arena.rebuilds == 1  # a single growth for the whole block
        np.testing.assert_array_equal(arena.view()[2], [8, 9, 10, 11])

    def test_growth_is_logarithmic(self):
        arena = VectorArena(2)
        for i in range(200):
            arena.extend([float(i), 0.0])
        assert arena.rebuilds <= int(np.ceil(np.log2(200))) + 1
        assert len(arena) == 200


class TestArenaPickle:
    def test_round_trip(self):
        arena = VectorArena(3)
        arena.extend(np.arange(6.0).reshape(2, 3))
        clone = pickle.loads(pickle.dumps(arena, protocol=5))
        np.testing.assert_array_equal(clone.view(), arena.view())
        clone.extend([9.0, 9.0, 9.0])  # clone stays independently growable
        assert len(clone) == 3 and len(arena) == 2
