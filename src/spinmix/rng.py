"""Counter-based random streams for reproducible, order-independent draws.

All randomness flows through Philox streams, one per (seed, role, tags...),
each keyed by what numpy's ``SeedSequence((seed, *tags))`` generates and
read in order from counter 0.  A consumer takes a stream's draws one after
another, so draw i of (seed, role) depends only on (seed, role, i): not on
how many draws follow, how they are batched, or what any other stream
draws.  Configuration i of a Monte Carlo estimator, or of the empirical
covariance, is normals [i N, (i + 1) N) of its stream, and disorder draw i
of the empirical covariance is the i-th tensor of each term's stream.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "philox_key", "stream", "DISORDER", "UNIFORM", "LEVELSET", "BAND", "SPOT_CHECKS",
    "EMPIRICAL_COVARIANCE", "VERIFY_CENTER", "PROBE_CENTER", "COVARIANCE_DISORDER",
]

# role tags keep streams for different purposes disjoint
DISORDER = 1
UNIFORM = 2   # estimate_free_energy, and verify's free-energy and level-set checks
LEVELSET = 3  # estimate_level_set (verify's level-set check reads UNIFORM's sample)
BAND = 4
SPOT_CHECKS = 101           # verify: random instances of the two-route covariance check
EMPIRICAL_COVARIANCE = 102  # verify: the configurations of the empirical covariance
VERIFY_CENTER = 103         # verify: the center of the band check
PROBE_CENTER = 104          # band-probe: the center of the band
# verify: the disorder draws the empirical covariance contracts every
# configuration under, one stream per term (not EMPIRICAL_COVARIANCE's:
# SeedSequence pads its entropy with zero words, so (seed,
# EMPIRICAL_COVARIANCE, 0) has the key of (seed, EMPIRICAL_COVARIANCE))
COVARIANCE_DISORDER = 105


def philox_key(seed: int, *tags: int) -> np.ndarray:
    """The 128-bit Philox key of (seed, *tags): the two uint64 words
    ``SeedSequence((seed, *tags))`` generates."""
    return np.random.SeedSequence((seed, *tags)).generate_state(2, np.uint64)


def stream(seed: int, *tags: int) -> np.random.Generator:
    """Generator for the stream keyed by (seed, *tags), at counter 0.

    An entry outside [0, 2**32) is refused, naming it: SeedSequence refuses
    a negative one with a message that does not, and splits one of 2**32 or
    more into 32-bit words, so (2 + 2**32, 2) would have the key of
    (2, 1, 2) and one stream would repeat another.
    """
    for i, v in enumerate((seed, *tags)):
        if not 0 <= v < 2**32:
            name = f"tag {i}" if i else "seed"
            raise ValueError(f"{name} {v} is outside [0, 2**32), where stream keys are distinct")
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *tags)))
