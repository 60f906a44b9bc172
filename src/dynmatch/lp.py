"""Match-rate upper-bound LP: construction, bounded-variable simplex, feasibility checks.

One decision variable alpha[x][y] per ordered type pair: the long-run
fraction of type-y arrivals matched to an already-present type-x agent.
The optimum value is an upper bound on the long-run average matched value
per unit time achievable by any policy, and the optimizer alpha feeds the
online matching policy's attempt probabilities.

Constraints, for each ordered pair (x, y) and each type x:
  cap:   alpha[x][y] <= lambda_x / mu_x      (x must be present to be matched)
  flow:  sum_y alpha[x][y] lambda_y + sum_y alpha[y][x] lambda_x <= lambda_x
  box:   0 <= alpha[x][y] <= 1

Only the n flow rows couple variables. Cap and box each bound a single
variable, so the program keeps them as one upper bound per variable,
u_xy = min(1, lambda_x / mu_x), which the simplex enforces in its ratio
test. The box bound is implied anyway: the arriving type y's flow row
gives sum_x alpha[x][y] <= 1. Variables with impatient x (infinite
departure rate) are fixed to zero at build time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .market import MarketInstance, validate_instance

_PIVOT_TOL = 1e-10
_OBJ_TOL = 1e-10


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class SimplexError(RuntimeError):
    """Numerical failure inside the solver (never silently swallowed)."""


@dataclass(frozen=True)
class LinearProgram:
    """`maximize c.z s.t. A z <= b, 0 <= z <= u` over the free alpha
    variables; A holds one flow row per type."""

    objective: np.ndarray  # (nv,)
    rows: np.ndarray  # (n, nv)
    bounds: np.ndarray  # (n,) flow budgets lambda_x
    upper: np.ndarray  # (nv,) min(1, lambda_x / mu_x)
    var_pairs: tuple[tuple[int, int], ...]  # ordered (x, y) per column
    n_types: int

    @property
    def n_vars(self) -> int:
        return len(self.var_pairs)

    @property
    def n_rows(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class LpSolution:
    status: SolveStatus
    value: float
    alpha: np.ndarray  # (n, n), includes the fixed zero rows for impatient types
    var_pairs: tuple[tuple[int, int], ...]

    @property
    def n_types(self) -> int:
        return self.alpha.shape[0]


def _variables(instance: MarketInstance) -> tuple[np.ndarray, ...]:
    """Arrival rates, then x, y and the cap lambda_x / mu_x of every free
    variable alpha[x][y] (x patient), in row-major order."""
    violations = validate_instance(instance)
    if violations:
        raise ValueError(
            "invalid instance: " + "; ".join(v.code for v in violations)
        )
    n = instance.n_types
    lam = np.array([t.arrival_rate for t in instance.types], dtype=float)
    patient = [t for t in instance.types if not t.impatient]
    xs = np.repeat(np.array([t.id for t in patient], dtype=np.int64), n)
    ys = np.tile(np.arange(n), len(patient))
    cap = np.repeat([t.arrival_rate / t.departure_rate for t in patient], n)
    return lam, xs, ys, cap


def build_lp(instance: MarketInstance) -> LinearProgram:
    lam, xs, ys, cap = _variables(instance)
    n = instance.n_types
    cols = np.arange(len(xs))
    rows = np.zeros((n, len(xs)))
    # a[x][y] lam[y] spends type-x stock and type-y arrivals alike; the self
    # pair enters its one row twice
    np.add.at(rows, (xs, cols), lam[ys])
    np.add.at(rows, (ys, cols), lam[ys])
    values = np.array(instance.values.dense(), dtype=float).reshape(n, n)
    return LinearProgram(
        objective=values[xs, ys] * lam[ys],
        rows=rows,
        bounds=lam,
        upper=np.minimum(1.0, cap),
        var_pairs=tuple(zip(xs.tolist(), ys.tolist())),
        n_types=n,
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Bounded-variable primal tableau simplex from the slack basis.

    Every flow row is <= with a nonnegative budget, so the slack basis at
    z = 0 is feasible and no artificial variables are needed. A variable
    at its upper bound u is complemented (its column then holds u - z), so
    every nonbasic column sits at zero. The entering column rises until a
    basic variable reaches 0 (pivot), a basic variable reaches its bound
    (pivot, then complement the leaving column) or the entering variable
    reaches its own bound (complement it, no pivot); ties go to the bound
    flip, then to the lowest row. Dantzig pricing, switching to Bland's
    rule after 2 * (rows + cols) steps without objective improvement; a
    hard iteration cap raises SimplexError rather than looping silently.
    """
    m, nv = lp.n_rows, lp.n_vars
    zero = np.zeros((lp.n_types, lp.n_types))
    if nv == 0:
        return LpSolution(SolveStatus.OPTIMAL, 0.0, zero, lp.var_pairs)
    if np.any(lp.bounds < 0):
        raise SimplexError("builder emitted a negative bound; slack basis invalid")

    # tableau columns: [structural vars | slacks | rhs]; last row: objective
    tab = np.zeros((m + 1, nv + m + 1))
    tab[:m, :nv] = lp.rows
    tab[:m, nv : nv + m] = np.eye(m)
    tab[:m, -1] = lp.bounds
    tab[m, :nv] = -lp.objective
    upper = np.concatenate([lp.upper, np.full(m, np.inf)])
    flipped = np.zeros(nv + m, dtype=bool)
    basis = np.arange(nv, nv + m)

    def complement(col: int) -> None:
        tab[:, -1] -= tab[:, col] * upper[col]
        tab[:, col] = -tab[:, col]
        flipped[col] = not flipped[col]

    max_iterations = 1000 + 200 * (m + nv)
    stall_limit = 2 * (m + nv)
    stalled = 0
    bland = False
    last_obj = -np.inf

    for _ in range(max_iterations):
        obj_row = tab[m, :-1]
        if bland:
            negatives = np.nonzero(obj_row < -_OBJ_TOL)[0]
            if negatives.size == 0:
                break
            col = int(negatives[0])
        else:
            col = int(np.argmin(obj_row))
            if obj_row[col] >= -_OBJ_TOL:
                break
        a, rhs = tab[:m, col], tab[:m, -1]
        ratios = np.full(m, np.inf)
        down = a > _PIVOT_TOL
        ratios[down] = rhs[down] / a[down]
        up = a < -_PIVOT_TOL
        ratios[up] = (upper[basis[up]] - rhs[up]) / -a[up]
        best = np.min(ratios)
        if not np.isfinite(min(best, upper[col])):
            return LpSolution(SolveStatus.UNBOUNDED, float("inf"), zero, lp.var_pairs)
        if upper[col] <= best + 1e-15:
            complement(col)
        else:
            candidates = np.nonzero(ratios <= best + 1e-15)[0]
            # true Bland: leave the lowest-index basic variable
            row = int(candidates[np.argmin(basis[candidates])] if bland else candidates[0])
            leaving, at_bound = int(basis[row]), bool(up[row])
            tab[row, :] /= tab[row, col]
            factor = tab[:, col].copy()
            factor[row] = 0.0
            tab -= np.outer(factor, tab[row])
            basis[row] = col
            if at_bound:
                complement(leaving)

        obj = tab[m, -1]
        if obj > last_obj + 1e-12:
            stalled = 0
            last_obj = obj
        else:
            stalled += 1
            if stalled >= stall_limit:
                bland = True
    else:
        raise SimplexError(f"no optimum after {max_iterations} pivots")

    z = np.where(flipped, upper, 0.0)
    z[basis] = np.where(flipped[basis], upper[basis] - tab[:m, -1], tab[:m, -1])
    xs, ys = np.array(lp.var_pairs).T
    alpha = np.zeros((lp.n_types, lp.n_types))
    alpha[xs, ys] = z[:nv]
    value = float(lp.objective @ z[:nv])

    col_sums = alpha.sum(axis=0)
    if np.any(col_sums > 1.0 + 1e-8):
        raise SimplexError(
            f"solution violates the per-arrival matching budget: max column sum {col_sums.max()}"
        )
    return LpSolution(
        status=SolveStatus.OPTIMAL, value=value, alpha=alpha, var_pairs=lp.var_pairs
    )


def solve_upper_bound(instance: MarketInstance) -> LpSolution:
    """Build and solve in one step."""
    return solve_lp(build_lp(instance))


@dataclass(frozen=True)
class ConstraintSlack:
    label: str
    slack: float  # bound minus left-hand side; negative means violated


@dataclass(frozen=True)
class FeasibilityReport:
    slacks: tuple[ConstraintSlack, ...]
    worst_violation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.worst_violation <= self.tolerance


def check_feasibility(
    instance: MarketInstance,
    solution: LpSolution | np.ndarray,
    tolerance: float = 1e-8,
) -> FeasibilityReport:
    """Per-constraint slack report for a candidate alpha matrix.

    Covers every cap, flow and box constraint, then the nonnegativity
    bounds and the fixed-to-zero pairs of impatient types, in that order.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    lam, xs, ys, cap = _variables(instance)
    n = instance.n_types
    alpha = solution.alpha if isinstance(solution, LpSolution) else solution
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (n, n):
        raise ValueError(f"alpha must be shaped ({n}, {n}), got {alpha.shape}")
    free = np.zeros((n, n), dtype=bool)
    free[xs, ys] = True
    used = np.where(free, alpha, 0.0)
    z = alpha[xs, ys]
    labels = instance.labels()
    pairs = [f"{labels[x]}->{labels[y]}" for x, y in zip(xs.tolist(), ys.tolist())]
    fixed = np.nonzero(~free)
    groups = [
        ("cap", pairs, cap - z),
        ("flow", labels, lam - (used @ lam + lam * used.sum(axis=0))),
        ("box", pairs, 1.0 - z),
        ("nonneg", pairs, z),
        ("fixed", [f"{labels[x]}->{labels[y]}" for x, y in zip(*fixed)],
         -np.abs(alpha[fixed])),
    ]
    slacks = tuple(
        ConstraintSlack(f"{kind}:{name}", s)
        for kind, names, values in groups
        for name, s in zip(names, values.tolist())
    )
    worst = max((-s.slack for s in slacks), default=0.0)
    return FeasibilityReport(
        slacks=slacks, worst_violation=max(0.0, worst), tolerance=tolerance
    )
