"""Policy configuration and the random-order policy's attempt probabilities.

The main policy draws a fresh uniformly random type order at every arrival
and walks it with pre-evaluated Bernoulli checks, attempting type x with
probability gamma * alpha_xy * max(1, mu_x/lambda_x); greedy is the
immediate baseline; periodic clearing batches the available pool at clear
times. The engine in simulate.py runs all three: the random-order walk in
_Walker over decision blocks from _decision_blocks, one chunk of arrivals
at a time; greedy in _run_greedy; clearing in _run_clearing with
hindsight.max_weight_pool. The scalar step functions and the walk loop its
tests compare it against live in tests/oracles.py.

Draw discipline for the random-order policy (frozen): each arrival consumes
exactly 2n-1 values from its rng, n being the number of types; first n-1
shuffle integers, then n uniforms in permutation-position order. All n
uniforms are consumed even when the walk stops early, so the pre-evaluated
check outcome is defined for every type at every arrival.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .lp import LpSolution
from .market import INFINITE, MarketInstance

_CLAMP_SLACK = 1e-12


class PolicyKind(str, enum.Enum):
    ONLINE_MATCH = "online_match"
    GREEDY = "greedy"
    PERIODIC_CLEAR = "periodic_clear"
    NO_OP = "no_op"


@dataclass(frozen=True)
class PolicyConfig:
    """Which policy to run and its parameters.

    gamma scales the attempt probabilities of the random-order policy and
    must lie in (0, 1]; the analysis default is 1/2. clear_period is the
    spacing of clearing times and is required (positive) for the periodic
    policy, meaningless otherwise.
    """

    kind: PolicyKind
    gamma: float = 0.5
    clear_period: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PolicyKind):
            object.__setattr__(self, "kind", PolicyKind(self.kind))
        if self.kind is PolicyKind.ONLINE_MATCH:
            if not (0.0 < self.gamma <= 1.0):
                raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.kind is PolicyKind.PERIODIC_CLEAR:
            if self.clear_period is None or not (self.clear_period > 0.0):
                raise ValueError("periodic clearing needs a positive clear_period")

    def lane_token(self) -> str:
        """Stable string identifying this policy's decision rng lane."""
        if self.kind is PolicyKind.ONLINE_MATCH:
            return f"online_match:{self.gamma!r}"
        if self.kind is PolicyKind.PERIODIC_CLEAR:
            return f"periodic_clear:{self.clear_period!r}"
        return self.kind.value

    def file_token(self) -> str:
        return self.lane_token().replace(":", "-")

    def describe(self) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.kind is PolicyKind.ONLINE_MATCH:
            out["gamma"] = self.gamma
        if self.kind is PolicyKind.PERIODIC_CLEAR:
            out["clear_period"] = self.clear_period
        return out


def match_probability(
    alpha_xy: float,
    lambda_x: float,
    mu_x: float | object,
    gamma: float,
) -> float:
    """Attempt probability gamma * alpha_xy * max(1, mu_x/lambda_x).

    For feasible alpha the product is at most 1 analytically (the cap
    constraint bounds alpha_xy by lambda_x/mu_x), so any excursion past the
    unit interval is rounding noise; the clamp tolerates 1e-12 of it and
    anything larger is an input error. An impatient partner type forces
    alpha_xy = 0 and the probability is defined as 0.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if mu_x is INFINITE:
        if abs(alpha_xy) > _CLAMP_SLACK:
            raise ValueError(
                f"alpha must be 0 for an impatient partner type, got {alpha_xy}"
            )
        return 0.0
    if alpha_xy < -_CLAMP_SLACK or alpha_xy > 1.0 + _CLAMP_SLACK:
        raise ValueError(f"alpha_xy outside [0, 1]: {alpha_xy}")
    p = gamma * alpha_xy * max(1.0, mu_x / lambda_x)
    if p < 0.0:
        if p < -_CLAMP_SLACK:
            raise ValueError(f"attempt probability {p} below 0 beyond tolerance")
        return 0.0
    if p > 1.0:
        if p > 1.0 + _CLAMP_SLACK:
            raise ValueError(f"attempt probability {p} above 1 beyond tolerance")
        return 1.0
    return p


def attempt_probabilities(
    instance: MarketInstance, solution: LpSolution, gamma: float
) -> list[list[float]]:
    """Matrix p[x][y]: probability that a type-y arrival attempts type x."""
    n = instance.n_types
    if solution.alpha.shape != (n, n):
        raise ValueError(
            f"solution is for {solution.alpha.shape[0]} types, instance has {n}"
        )
    probs = [[0.0] * n for _ in range(n)]
    for x, tx in enumerate(instance.types):
        for y in range(n):
            probs[x][y] = match_probability(
                float(solution.alpha[x, y]), tx.arrival_rate, tx.departure_rate, gamma
            )
    return probs
