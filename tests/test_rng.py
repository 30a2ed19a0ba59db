import numpy as np
import pytest

from spinmix.rng import Cursor, philox_key, philox_keys


def _fresh(key: np.ndarray, i: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key, counter=i << 128))


def _draws(rng: np.random.Generator) -> list:
    # 64-bit, 32-bit (buffered half-words) and Gaussian draws
    return [rng.standard_normal(5), rng.integers(0, 2**31, size=3, dtype=np.uint32),
            rng.random(4), rng.standard_normal()]


def _same(a: list, b: list) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_seek_reproduces_a_fresh_philox_at_each_block():
    key = philox_key(2024, 2)
    cursor = Cursor()
    for i in (0, 1, 12345, 2**64 + 3, 1):  # back to 1, with the buffer part-used
        assert _same(_draws(cursor.seek(key, i)), _draws(_fresh(key, i)))


def test_seek_to_a_new_key_reproduces_its_fresh_stream():
    # the per-seed disorder streams: one cursor, a new key at counter 0 each
    # time, interleaved with a counter block of another key
    cursor = Cursor()
    keys = [philox_key(s, 1, 0) for s in (3, 4, 3)]
    for key in keys:
        assert _same(_draws(cursor.seek(key)), _draws(_fresh(key, 0)))
        assert _same(_draws(cursor.seek(keys[1], 2**64 + 3)), _draws(_fresh(keys[1], 2**64 + 3)))
    out = np.empty((2, 3))
    cursor.seek(keys[0]).standard_normal(out=out)
    assert np.array_equal(out, _fresh(keys[0], 0).standard_normal((2, 3)))


def _seed_sequence_key(*entropy: int) -> np.ndarray:
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def test_keys_are_seed_sequence_keys_bit_for_bit():
    # seeds of one, two and three 32-bit words in one batch, the verify
    # draws' (seed << 20) + i across the 2^32 boundary, and wide tags
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**90 + 7]
    seeds += [(4095 << 20) + i for i in range(1048570, 1048582)]
    for tags in [(), (1,), (1, 0), (2, 2**32), (3, 2**40 + 1, 5)]:
        keys = philox_keys(seeds, *tags)
        assert keys.dtype == np.uint64 and keys.shape == (len(seeds), 2)
        for seed, key in zip(seeds, keys):
            assert np.array_equal(key, _seed_sequence_key(seed, *tags))
    assert np.array_equal(philox_key(0), _seed_sequence_key(0))
    assert np.array_equal(philox_key(7, 2**32), _seed_sequence_key(7, 2**32))
    assert philox_keys([], 1).shape == (0, 2)


def test_a_negative_seed_or_tag_is_refused():
    for args in [(-1,), (3, -2)]:
        with pytest.raises(ValueError, match="non-negative"):
            philox_key(*args)
    with pytest.raises(ValueError, match="non-negative"):
        philox_keys([5, -1], 1)
