import numpy as np

from spinmix.rng import Cursor, philox_key


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
