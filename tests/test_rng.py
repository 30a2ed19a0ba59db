import numpy as np
import pytest

from spinmix.rng import philox_key, stream


def _seed_sequence_key(*entropy: int) -> np.ndarray:
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def test_keys_are_seed_sequence_keys_bit_for_bit():
    # seeds of one, two and three 32-bit words, seeds across the 2^32
    # boundary, and wide tags
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**90 + 7]
    seeds += [(4095 << 20) + i for i in range(1048570, 1048582)]
    for tags in [(), (1,), (1, 0), (2, 2**32), (3, 2**40 + 1, 5)]:
        for seed in seeds:
            key = philox_key(seed, *tags)
            assert key.dtype == np.uint64 and key.shape == (2,)
            assert np.array_equal(key, _seed_sequence_key(seed, *tags))
    # pinned, so a change of the hash itself shows
    assert philox_key(5, 102).tolist() == [7536906245288545568, 6020471558748741311]


def test_a_negative_seed_or_tag_is_refused():
    for args in [(-1,), (3, -2)]:
        with pytest.raises(ValueError, match="non-negative"):
            philox_key(*args)


def test_stream_refuses_an_entry_of_2_to_the_32_or_more():
    # SeedSequence splits such an entry into 32-bit words, so its key would
    # be that of a different (seed, *tags)
    assert np.array_equal(philox_key(2 + 2**32, 2), philox_key(2, 1, 2))
    with pytest.raises(ValueError, match="seed 4294967296 is outside"):
        stream(2**32)
    with pytest.raises(ValueError, match="tag 2 4294967298 is outside"):
        stream(7, 1, 2 + 2**32)
    # and so is a negative one, which SeedSequence would refuse without naming it
    with pytest.raises(ValueError, match="seed -1 is outside"):
        stream(-1)
    with pytest.raises(ValueError, match="tag 1 -2 is outside"):
        stream(0, -2)
    top = stream(2**32 - 1, 2).standard_normal(3)
    assert np.array_equal(top, stream(2**32 - 1, 2).standard_normal(3))
