"""Matching policies as pure decision procedures over live market state.

The main policy draws a fresh uniformly random type order at every arrival
and walks it with pre-evaluated Bernoulli checks; greedy is the immediate
baseline. The step functions decide one arrival at a time through a small
state protocol (has_available / pop_oldest_available / instance). The
engine in simulate.py runs the same rules over all arrivals at once; these
scalar steps are the reference its tests compare it against. The delayed
baseline, periodic clearing, has no per-arrival step: the engine runs it
over clear times (simulate._run_clearing) with hindsight.max_weight_pool.

Draw discipline for the random-order policy (frozen): each arrival consumes
exactly 2n-1 values from its rng, n being the number of types; first n-1
shuffle integers, then n uniforms in permutation-position order. All n
uniforms are consumed even when the walk stops early, so the pre-evaluated
check outcome is defined for every type at every arrival.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Protocol, Sequence

from .lp import LpSolution
from .market import INFINITE, AgentId, MarketInstance, MatchValueMatrix
from .randomness import Rng

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


class MarketStateView(Protocol):
    """What a decision procedure may ask of the live state."""

    instance: MarketInstance

    def has_available(self, type_id: int) -> bool: ...

    def pop_oldest_available(self, type_id: int) -> AgentId | None: ...


@dataclass(frozen=True)
class Consideration:
    """One iteration of the random-order walk: which type and whether the
    pre-evaluated check passed."""

    type_id: int
    attempted: bool


@dataclass(frozen=True)
class MatchDecision:
    partner: AgentId | None
    attempts: tuple[Consideration, ...]  # types iterated, in order, up to the stop
    order: tuple[int, ...]  # full permutation drawn for this arrival
    pre_evaluated: tuple[bool, ...]  # check outcome per type id, all types

    @property
    def matched(self) -> bool:
        return self.partner is not None


NO_DECISION = MatchDecision(partner=None, attempts=(), order=(), pre_evaluated=())


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


def online_match_step(
    state: MarketStateView,
    arriving: AgentId,
    solution: LpSolution,
    gamma: float,
    rng: Rng,
    probs: Sequence[Sequence[float]] | None = None,
) -> MatchDecision:
    """Run the random-order walk for one arrival and apply any match.

    Types are visited in a fresh uniform permutation. Each visited type's
    Bernoulli check is pre-evaluated (all n uniforms are drawn up front, in
    permutation-position order, so later positions have defined outcomes
    even after an early stop). A passing check with an available partner
    matches the FIFO-oldest such partner and stops the walk; a passing
    check with nobody available records an attempt and moves on.

    The arriving agent must not be in the state yet.
    """
    instance = state.instance
    n = instance.n_types
    y = arriving.type_id
    if probs is None:
        probs = attempt_probabilities(instance, solution, gamma)

    order = list(range(n))
    rng.shuffle(order)
    uniforms = [rng.uniform() for _ in range(n)]

    pre = [False] * n
    for k, x in enumerate(order):
        pre[x] = uniforms[k] <= probs[x][y]

    considered: list[Consideration] = []
    partner: AgentId | None = None
    for x in order:
        attempted = pre[x]
        considered.append(Consideration(x, attempted))
        if attempted:
            candidate = state.pop_oldest_available(x)
            if candidate is not None:
                partner = candidate
                break
    return MatchDecision(
        partner=partner,
        attempts=tuple(considered),
        order=tuple(order),
        pre_evaluated=tuple(pre),
    )


def greedy_step(
    state: MarketStateView,
    arriving: AgentId,
    values: MatchValueMatrix,
) -> MatchDecision:
    """Match the arrival to the best available positive-value partner.

    Highest v_xy wins; ties go to the lowest type id; within a type the
    FIFO-oldest agent is taken. No positive-value partner means no match.
    """
    y = arriving.type_id
    best_x = -1
    best_v = 0.0
    for x in range(state.instance.n_types):
        v = values.get(x, y)
        if v > best_v and state.has_available(x):
            best_x, best_v = x, v
    if best_x < 0:
        return NO_DECISION
    return MatchDecision(
        partner=state.pop_oldest_available(best_x),
        attempts=(),
        order=(),
        pre_evaluated=(),
    )
