"""Counter-based random streams for reproducible, order-independent draws.

All randomness flows through Philox keyed by (seed, role, index...) so the
draw for a given object never depends on evaluation order or parallel
schedule.  A key is what numpy's ``SeedSequence((seed, *tags))`` generates;
``philox_keys`` computes that hash for a whole batch of seeds at once, in
uint32 column operations over the keys whose entropy has the same number of
32-bit words, and ``philox_key`` is a batch of one.  Per-sample streams use
disjoint counter blocks of 2^128 under a single key.  A ``Cursor`` is one
Philox with one state dict of Python lists, built once: ``seek(key,
index)`` writes the key and the counter words into the dict in place and
sets it, so a loop of per-sample or per-seed draws constructs no generator
per item and still draws exactly what a fresh
``Philox(key=key, counter=index << 128)`` would.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "philox_key", "philox_keys", "stream", "Cursor", "DISORDER", "UNIFORM", "LEVELSET", "BAND",
    "SPOT_CHECKS", "EMPIRICAL_COVARIANCE", "VERIFY_CENTER", "PROBE_CENTER",
]

# role tags keep streams for different purposes disjoint
DISORDER = 1
UNIFORM = 2
LEVELSET = 3
BAND = 4
SPOT_CHECKS = 101           # verify: random instances of the two-route covariance check
EMPIRICAL_COVARIANCE = 102  # verify: the configuration pair of the disorder average
VERIFY_CENTER = 103         # verify: the center of the band check
PROBE_CENTER = 104          # band-probe: the center of the band


# numpy's SeedSequence: pool size, hash constants and multipliers, mixing
# multipliers (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first and at
    least one, as SeedSequence splits its entropy."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _steps(const: int, mult: int):
    """The (xor, multiply) constants of successive hash steps; the constant
    is stepped in masked Python ints, so no step overflows."""
    while True:
        stepped = const * mult & _MASK32
        yield const, stepped
        const = stepped


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    """SeedSequence's ``hashmix`` of a column of words, at the next step."""
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two columns of words."""
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _hash(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(2, np.uint64)`` for every row of
    a (keys, words) uint32 array, in wrapping uint32 column operations."""
    steps = _steps(_INIT_A, _MULT_A)
    width = entropy.shape[1]
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [_hashmix(entropy[:, i] if i < width else zero, steps) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
    for src in range(_POOL, width):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(entropy[:, src], steps))
    steps = _steps(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(word, steps) for word in pool], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def philox_keys(seeds, *tags: int) -> np.ndarray:
    """The 128-bit Philox key of (seed, *tags) for every seed: (len(seeds), 2)
    uint64, each row what ``SeedSequence((seed, *tags))`` generates.  Keys
    whose entropy has the same number of 32-bit words are hashed at once."""
    tail = [w for t in tags for w in _words(t)]
    rows = [_words(seed) + tail for seed in seeds]
    by_width: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_width.setdefault(len(row), []).append(i)
    keys = np.empty((len(rows), 2), dtype=np.uint64)
    for idx in by_width.values():
        keys[idx] = _hash(np.array([rows[i] for i in idx], dtype=np.uint32))
    return keys


def philox_key(seed: int, *tags: int) -> np.ndarray:
    """Derive a 128-bit Philox key from a seed and integer tags: a batch of one."""
    return philox_keys([seed], *tags)[0]


def stream(seed: int, *tags: int) -> np.random.Generator:
    """Generator for the stream keyed by (seed, *tags)."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *tags)))


_WORD = (1 << 64) - 1
_ZERO_KEY = np.zeros(2, dtype=np.uint64)


class Cursor:
    """One Philox, and a Generator over it, moved between streams and
    counter blocks.  The state dict holds Python lists, which Philox's
    state setter reads word by word faster than uint64 arrays."""

    def __init__(self):
        self._bitgen = np.random.Philox(key=_ZERO_KEY)
        self._rng = np.random.Generator(self._bitgen)
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def seek(self, key, index: int = 0) -> np.random.Generator:
        """The generator at the start of counter block ``index`` under ``key``
        (its two 64-bit words, as a uint64 array or, read faster, a list).

        The 256-bit counter is ``index << 128`` (little-endian 64-bit words)
        and the output buffer is empty, as in a freshly constructed Philox.
        """
        self._state["state"]["key"] = key
        index = int(index)
        self._counter[2] = index & _WORD
        self._counter[3] = index >> 64
        self._bitgen.state = self._state
        return self._rng
