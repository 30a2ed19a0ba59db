"""Counter-based random streams for reproducible, order-independent draws.

All randomness flows through Philox keyed by (seed, role, index...) so the
draw for a given object never depends on evaluation order or parallel
schedule.  Per-sample streams use disjoint counter blocks of 2^128 under a
single key.  A ``Cursor`` is one Philox with one state dict, built once:
``seek(key, index)`` writes the key and the counter words into the dict in
place and sets it, so a loop of per-sample or per-seed draws constructs no
generator per item and still draws exactly what a fresh
``Philox(key=key, counter=index << 128)`` would.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "philox_key", "stream", "Cursor", "DISORDER", "UNIFORM", "LEVELSET", "BAND",
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


def philox_key(seed: int, *tags: int) -> np.ndarray:
    """Derive a 128-bit Philox key from a seed and integer tags."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(t) for t in tags))
    return ss.generate_state(2, np.uint64)


def stream(seed: int, *tags: int) -> np.random.Generator:
    """Generator for the stream keyed by (seed, *tags)."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *tags)))


_WORD = (1 << 64) - 1
_ZERO_KEY = np.zeros(2, dtype=np.uint64)


class Cursor:
    """One Philox, and a Generator over it, moved between streams and
    counter blocks."""

    def __init__(self):
        self._bitgen = np.random.Philox(key=_ZERO_KEY)
        self._rng = np.random.Generator(self._bitgen)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": _ZERO_KEY},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def seek(self, key: np.ndarray, index: int = 0) -> np.random.Generator:
        """The generator at the start of counter block ``index`` under ``key``.

        The 256-bit counter is ``index << 128`` (little-endian 64-bit words)
        and the output buffer is empty, as in a freshly constructed Philox.
        """
        self._state["state"]["key"] = key
        index = int(index)
        self._counter[2] = index & _WORD
        self._counter[3] = index >> 64
        self._bitgen.state = self._state
        return self._rng
