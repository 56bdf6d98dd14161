"""Dense bounded-variable two-phase primal simplex.

Small, deterministic LP solver used for welfare maximization and price
extraction. Bland's rule (smallest eligible index enters; smallest index
among minimum-ratio candidates leaves) guarantees termination and makes
results reproducible bit for bit. Row duals are reported in the user's
optimization sense, i.e. as the derivative of the optimal objective with
respect to the row right-hand side.

Phase 1 starts from one artificial per row. Artificials still basic after it
are driven out: one transposed basis solve gives that basis row of B^-1 A,
and its first non-basic structural or slack column with an entry above 1e-7
takes the artificial's place (the row's own slack always qualifies in exact
arithmetic, so a redundant equality row ends with its fixed slack basic).

Each phase keeps an explicit basis inverse. It is inverted afresh at the
phase start and after every REFACTOR_EVERY basis changes; in between, each
basis change applies one rank-one (eta) update, and a bound flip applies
none. An "optimal" or "unbounded" verdict reached on an updated inverse is
checked again on a fresh one, and only a verdict on a fresh inverse is
returned, so rounding drift cannot end a phase early. The reported values,
duals and reduced costs come from one fresh solve on the final basis.
Designed for desk-scale instances (tens of rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailure

BASIC, AT_LOWER, AT_UPPER, FREE = 0, 1, 2, 3

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
REFACTOR_EVERY = 50  # basis changes between fresh inversions


@dataclass(frozen=True)
class LPRow:
    """One row's nonzeros, as ``LinearProgram.rows`` lists them."""

    indices: tuple[int, ...]
    coeffs: tuple[float, ...]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class LinearProgram:
    """Dense LP: optimize c'x subject to ``matrix @ x (senses) rhs``, senses
    being "<=", ">=" or "=", and ``lower <= x <= upper``. Nothing writes to
    the arrays, which may be read-only views into a welfare program's."""

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    matrix: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    sense: str = "max"

    def __post_init__(self) -> None:
        for name in ("objective", "lower", "upper", "matrix", "rhs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "senses", np.asarray(self.senses, dtype=str))
        c, lo, hi, a, senses, b = (self.objective, self.lower, self.upper, self.matrix,
                                   self.senses, self.rhs)
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown objective sense {self.sense!r}")
        if not (c.ndim == 1 and c.shape == lo.shape == hi.shape):
            raise ValueError("objective and bounds must have matching shapes")
        if not (b.ndim == 1 and senses.shape == b.shape and a.shape == (b.size, c.size)):
            raise ValueError("matrix, senses and rhs must have shapes (m, n), (m,) and (m,)")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective coefficients must be finite")
        if not np.all(lo <= hi):  # also false for a NaN bound
            raise ValueError("some lower bound exceeds its upper bound")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("row coefficients must be finite")
        unknown = senses[(senses != "<=") & (senses != ">=") & (senses != "=")]
        if unknown.size:
            raise ValueError(f"unknown row sense {str(unknown[0])!r}")

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def rows(self) -> tuple[LPRow, ...]:
        """Each row's nonzeros; kept for the benchmark harness."""
        return tuple(
            LPRow(tuple(np.flatnonzero(a).tolist()), tuple(a[a != 0].tolist()), str(s), float(b))
            for a, s, b in zip(self.matrix, self.senses, self.rhs)
        )


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None
    reduced_costs: np.ndarray | None
    iterations: int


class _Simplex:
    """Computational form: minimize c'v, A v = b, lo <= v <= hi.

    Columns are ordered structural, slack, artificial. Artificials carry the
    initial basis; after phase 1 they are pinned to [0, 0].
    """

    def __init__(self, lp: LinearProgram):
        struct = np.ascontiguousarray(lp.matrix)
        self.b = b = lp.rhs
        m, n = struct.shape
        self.m, self.n_struct = m, n
        self.total = n + 2 * m

        senses = lp.senses
        slack_lo = np.where(senses == ">=", -np.inf, 0.0)
        slack_hi = np.where(senses == "<=", np.inf, 0.0)
        self.lower = np.concatenate([lp.lower, slack_lo, np.zeros(m)])
        self.upper = np.concatenate([lp.upper, slack_hi, np.full(m, np.inf)])

        self.status = np.where(
            np.isfinite(self.lower),
            AT_LOWER,
            np.where(np.isfinite(self.upper), AT_UPPER, FREE),
        )
        self.status[n + m :] = BASIC
        self.basis = list(range(n + m, self.total))
        start = self._nonbasic_values()
        residual = b - struct @ start[:n] - start[n : n + m]
        sign = np.where(residual >= 0, 1.0, -1.0)
        self.A = np.hstack([struct, np.eye(m), np.diag(sign)])
        self.iterations = 0
        self.scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)

    def _nonbasic_values(self) -> np.ndarray:
        values = np.zeros(self.total)
        at_lower = self.status == AT_LOWER
        at_upper = self.status == AT_UPPER
        values[at_lower] = self.lower[at_lower]
        values[at_upper] = self.upper[at_upper]
        return values

    def _solve_basis(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        matrix = self.A[:, self.basis]
        try:
            return np.linalg.solve(matrix.T if transpose else matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"singular basis: {exc}") from exc

    def values(self) -> np.ndarray:
        v = self._nonbasic_values()
        x_basic = self._solve_basis(self.b - self.A @ v)
        v[self.basis] = x_basic
        return v

    def _refactor(self) -> None:
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"singular basis: {exc}") from exc
        self.updates = 0  # basis changes applied to Binv since this inversion

    def run(self, cost: np.ndarray) -> str:
        """Minimize cost over the current basis; returns 'optimal' or 'unbounded'.

        Fixed variables (pinned artificials included) never enter.
        """
        tol = PIVOT_TOL * self.scale
        movable = ~(self.upper - self.lower <= 0.0)
        limit = 200 * (self.total + 1)
        self._refactor()
        for _ in range(limit):
            self.iterations += 1
            verdict = self._pivot(cost, tol, movable)
            if verdict is not None and self.updates:
                self._refactor()
                verdict = self._pivot(cost, tol, movable)
            if verdict is not None:
                return verdict
        raise NumericalFailure(f"simplex exceeded {limit} iterations")

    def _pivot(self, cost: np.ndarray, tol: float, movable: np.ndarray) -> str | None:
        """One Bland pivot or bound flip; returns a verdict instead when no pivot exists."""
        y = cost[self.basis] @ self.Binv
        reduced = cost - self.A.T @ y
        eligible = movable & (
            ((self.status == AT_LOWER) & (reduced < -tol))
            | ((self.status == AT_UPPER) & (reduced > tol))
            | ((self.status == FREE) & (np.abs(reduced) > tol))
        )
        if not eligible.any():
            return "optimal"
        entering = int(np.argmax(eligible))
        direction = 1.0 if reduced[entering] < 0 else -1.0

        v = self._nonbasic_values()
        v[self.basis] = self.Binv @ (self.b - self.A @ v)
        w = self.Binv @ self.A[:, entering]
        span = self.upper[entering] - self.lower[entering]
        best_delta = span if np.isfinite(span) else np.inf
        leaving_pos = -1
        leaving_col = self.total  # sentinel larger than any real index
        hit_upper = False
        for pos, col in enumerate(self.basis):
            rate = -direction * w[pos]
            if rate > PIVOT_TOL:
                if not np.isfinite(self.upper[col]):
                    continue
                ratio = (self.upper[col] - v[col]) / rate
                hits_upper = True
            elif rate < -PIVOT_TOL:
                if not np.isfinite(self.lower[col]):
                    continue
                ratio = (self.lower[col] - v[col]) / rate
                hits_upper = False
            else:
                continue
            ratio = max(ratio, 0.0)
            if ratio < best_delta - PIVOT_TOL or (
                ratio < best_delta + PIVOT_TOL and col < leaving_col
            ):
                best_delta = min(best_delta, ratio)
                leaving_pos, leaving_col, hit_upper = pos, col, hits_upper

        if not np.isfinite(best_delta):
            return "unbounded"

        if leaving_pos < 0:
            # entering runs bound to bound without blocking any basic var
            self.status[entering] = AT_UPPER if direction > 0 else AT_LOWER
            return None
        self.basis[leaving_pos] = entering
        self.status[entering] = BASIC
        self.status[leaving_col] = AT_UPPER if hit_upper else AT_LOWER
        # eta update: B_new^-1 = E B^-1, pivoting w onto unit vector leaving_pos
        row = self.Binv[leaving_pos] / w[leaving_pos]
        self.Binv -= np.outer(w, row)
        self.Binv[leaving_pos] = row
        self.updates += 1
        if self.updates == REFACTOR_EVERY:
            self._refactor()
        return None


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve to optimality and report primal values, row duals, reduced costs.

    Two phases: phase 1 minimizes the sum of the artificials, which are then
    pinned at zero and driven out of the basis (one transposed basis solve
    each); phase 2 optimizes the user's objective. Each phase may take
    ``200 * (columns + 1)`` pivots. Duals follow the user's sense (derivative
    of the optimum w.r.t. the row rhs); complementary slackness is verified
    to FEAS_TOL before returning. Raises NumericalFailure instead of
    returning silently wrong answers.
    """
    state = _Simplex(lp)
    n, m = state.n_struct, state.m

    phase1_cost = np.zeros(state.total)
    phase1_cost[n + m :] = 1.0
    if state.run(phase1_cost) != "optimal":
        raise NumericalFailure("phase 1 cannot be unbounded; numerical trouble")
    values = state.values()
    if float(np.abs(values[n + m :]).sum()) > FEAS_TOL * state.scale:
        return LPResult("infeasible", None, None, None, None, state.iterations)

    state.lower[n + m :] = 0.0
    state.upper[n + m :] = 0.0
    for pos in range(m):
        col = state.basis[pos]
        if col < n + m:
            continue
        row = state._solve_basis(np.eye(1, m, pos)[0], transpose=True) @ state.A[:, : n + m]
        candidates = np.flatnonzero((state.status[: n + m] != BASIC) & (np.abs(row) > 1e-7))
        if candidates.size:  # empty only if rounding hides the row's own slack
            state.basis[pos] = int(candidates[0])
            state.status[candidates[0]] = BASIC
            state.status[col] = AT_LOWER

    sign = -1.0 if lp.sense == "max" else 1.0
    cost = np.zeros(state.total)
    cost[:n] = sign * lp.objective
    status = state.run(cost)
    if status == "unbounded":
        return LPResult("unbounded", None, None, None, None, state.iterations)

    values = state.values()
    x = values[:n]
    y = state._solve_basis(cost[state.basis], transpose=True)
    reduced = cost - state.A.T @ y
    duals = sign * y
    reduced_user = sign * reduced[:n]
    objective = float(lp.objective @ x)

    _validate_solution(lp, state, x, reduced_user)
    return LPResult("optimal", x, objective, duals, reduced_user, state.iterations)


def _validate_solution(lp, state, x, reduced_user) -> None:
    """Primal feasibility, reduced-cost signs, complementary slackness; the
    first row or variable at fault is named."""
    tol = FEAS_TOL * state.scale
    if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
        raise NumericalFailure("primal bounds violated at claimed optimum")
    residuals = state.A[:, : state.n_struct] @ x - state.b
    excess = np.where(lp.senses == "<=", residuals, -residuals)  # > 0 where violated
    excess = np.where(lp.senses == "=", np.abs(residuals), excess)
    violated = np.flatnonzero(excess > tol)
    if violated.size:
        i = violated[0]
        kind = "equality row" if lp.senses[i] == "=" else "row"
        raise NumericalFailure(f"{kind} {i} violated by {residuals[i]:.3e}")
    # sign convention in the user's sense: improving directions must be blocked
    r = (1.0 if lp.sense == "max" else -1.0) * reduced_user
    slack_lo = x - lp.lower
    slack_hi = lp.upper - x
    interior = (slack_lo > tol) & (slack_hi > tol) & (np.abs(r) > tol * 10)
    at_lower = (slack_lo <= tol) & (tol < slack_hi) & (r > tol * 10)
    at_upper = (slack_hi <= tol) & (tol < slack_lo) & (r < -tol * 10)
    faulty = np.flatnonzero(interior | at_lower | at_upper)
    if faulty.size:
        j = faulty[0]
        if interior[j]:
            raise NumericalFailure(f"interior variable {j} has nonzero reduced cost")
        if at_lower[j]:
            raise NumericalFailure(f"variable {j} at lower bound wants to increase")
        raise NumericalFailure(f"variable {j} at upper bound wants to decrease")
