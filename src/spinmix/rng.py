"""Counter-based random streams for reproducible, order-independent draws.

All randomness flows through Philox keyed by (seed, role, index...) so the
draw for a given object never depends on evaluation order or parallel
schedule.  Per-sample streams use disjoint counter blocks of 2^128 under a
single key.  ``seek`` moves one Philox between blocks by setting its state,
so a batch of per-sample draws reuses one generator and still draws
exactly what a fresh ``Philox(key=key, counter=index << 128)`` would.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "philox_key", "stream", "seek", "DISORDER", "UNIFORM", "LEVELSET", "BAND",
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


def seek(bitgen: np.random.Philox, key: np.ndarray, index: int) -> None:
    """Put ``bitgen`` at the start of counter block ``index`` under ``key``.

    The 256-bit counter is ``index << 128`` (little-endian 64-bit words) and
    the output buffer is empty, as in a freshly constructed Philox.
    """
    index = int(index)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([0, 0, index & _WORD, index >> 64], dtype=np.uint64),
            "key": key,
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

