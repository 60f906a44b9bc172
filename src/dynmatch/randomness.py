"""Counter-indexed randomness and Poisson event streams.

Every draw in this package comes from a SplitMix64 stream addressed by
(seed, counter): output_i = mix64(seed + (i + 1) * GOLDEN) mod 2**64.
Because the stream is a pure function of the counter, block generation with
numpy produces bit-for-bit the same values as repeated scalar calls, which is
what makes traces reproducible draw-for-draw regardless of how an operation
chooses to batch internally.

Frozen draw conventions (changing any of these invalidates recorded traces):
  - uniform in (0, 1]:   ((raw >> 11) + 1) * 2**-53
  - bounded integer:     raw % n
  - shuffle:             Fisher-Yates, i = n-1 .. 1, j = raw % (i + 1)
  - exponential:         -log(u) / rate; scalar path uses math.log, stream
                         sampling uses numpy's log on blocks (both are fixed
                         per path and never cross-compared)
  - lane splitting:      derive_seed mixes each lane token into the running
                         state; string tokens hash through blake2b-64

Rng draws only raw integers and uniforms. The bounded-integer and shuffle
rules are applied where they are used: simulate._decision_blocks runs the
shuffle on blocks of raw draws, one chunk of arrivals at a time, and the
scalar next_below and shuffle in tests/oracles.py pin it one draw at a
time.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    """mix64 on each element of a uint64 array, in place; returns z."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def derive_seed(master: int, *lane: int | str) -> int:
    """Derive a child seed from a master seed and a lane path.

    Tokens are folded in order, so derive_seed(s, 3, "arrivals") and
    derive_seed(s, "arrivals", 3) are unrelated streams. Integer tokens are
    used mod 2**64; string tokens hash through blake2b with an 8-byte digest
    (stable across platforms and interpreter restarts, unlike hash()).
    """
    state = mix64(master)
    for token in lane:
        if isinstance(token, str):
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            t = int.from_bytes(digest, "little")
        elif isinstance(token, (int, np.integer)):
            t = int(token) & MASK64
        else:
            raise TypeError(f"lane tokens must be int or str, got {type(token)!r}")
        state = mix64(state ^ ((t + GOLDEN) & MASK64))
    return state


class Rng:
    """SplitMix64 stream with an explicit counter.

    Scalar and block methods read consecutive counter positions; a block of n
    draws advances the counter by exactly n, the same as n scalar calls.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        self.seed = int(seed) & MASK64
        self.counter = 0

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed:#x}, counter={self.counter})"

    def _raw_block(self, start: int, count: int) -> np.ndarray:
        z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        z *= np.uint64(GOLDEN)
        z += np.uint64(self.seed)
        return _mix64_block(z)

    def next_uint64(self) -> int:
        out = mix64((self.seed + (self.counter + 1) * GOLDEN) & MASK64)
        self.counter += 1
        return out

    def uniform(self) -> float:
        """Uniform draw in (0, 1]."""
        return ((self.next_uint64() >> 11) + 1) * _INV53

    def uint64_block(self, count: int) -> np.ndarray:
        out = self._raw_block(self.counter, count)
        self.counter += count
        return out

    def uniform_block(self, count: int) -> np.ndarray:
        """Block of uniforms in (0, 1], identical to repeated uniform()."""
        raw = self.uint64_block(count)
        return ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV53

    def peek_uniform_block(self, count: int) -> np.ndarray:
        """Read ahead without consuming; pair with advance()."""
        raw = self._raw_block(self.counter, count)
        return ((raw >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV53

    def advance(self, count: int) -> None:
        self.counter += count


def sample_exponential(rate: float, rng: Rng) -> float:
    """One inverse-CDF exponential draw, -log(u)/rate with u in (0, 1]."""
    if not (rate > 0.0) or math.isinf(rate):
        raise ValueError("rate must be positive and finite")
    return -math.log(rng.uniform()) / rate


def sample_homogeneous_stream(rate: float, horizon: float, rng: Rng) -> np.ndarray:
    """Poisson process of the given rate on (0, horizon], as a float64
    array of nondecreasing event times (equal consecutive times can only
    come from the measure-zero u == 1.0 draw and are tolerated).

    Consumes exactly (number of events + 1) draws: one per inter-event gap
    plus the gap that overshoots the horizon, independent of internal block
    sizes (the counter is rewound to the last draw actually used). A zero
    rate is a valid degenerate process and consumes no draws.
    """
    if rate < 0.0 or math.isinf(rate) or math.isnan(rate):
        raise ValueError("rate must be nonnegative and finite")
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    if rate == 0.0:
        return np.empty(0)
    parts: list[np.ndarray] = []
    t = 0.0
    expected = rate * horizon
    chunk = max(16, int(expected + 4.0 * math.sqrt(expected + 1.0)) + 16)
    while True:
        u = rng.peek_uniform_block(chunk)
        cum = t + np.cumsum(-np.log(u) / rate)
        keep = int(np.searchsorted(cum, horizon, side="right"))
        if keep < chunk:
            rng.advance(keep + 1)  # kept gaps plus the overshoot draw
            parts.append(cum[:keep])
            return np.concatenate(parts)
        rng.advance(chunk)
        parts.append(cum)
        t = float(cum[-1])
        chunk = max(16, chunk // 2)


def thin_stream(
    times: np.ndarray,
    keep_probability: float | Callable[[float], float],
    rng: Rng,
) -> np.ndarray:
    """The times kept when each event is kept independently with
    probability p(t); one draw per event.

    An event at time t survives iff uniform() <= p(t), so p == 0 removes
    everything and p == 1 keeps everything, exactly.
    """
    if callable(keep_probability):
        probs = np.array([float(keep_probability(t)) for t in times.tolist()])
    else:
        probs = np.full(len(times), float(keep_probability))
    bad = ~((probs >= 0.0) & (probs <= 1.0))
    if bad.any():
        raise ValueError(f"keep probability {probs[bad][0].item()} outside [0, 1]")
    return times[rng.uniform_block(len(times)) <= probs]
