import numpy as np

from spinmix.rng import philox_key, seek


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
    bitgen = np.random.Philox(key=key)
    moved = np.random.Generator(bitgen)
    for i in (0, 1, 12345, 2**64 + 3, 1):  # back to 1, with the buffer part-used
        seek(bitgen, key, i)
        assert _same(_draws(moved), _draws(_fresh(key, i)))
