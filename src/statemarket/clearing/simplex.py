"""Dense bounded-variable simplex: a bounded dual simplex reaches a feasible
basis, and the primal simplex then optimizes from it.

Small, deterministic LP solver for welfare maximization and price
extraction. Row duals are reported in the user's optimization sense, as the
derivative of the optimal objective with respect to the row's rhs.

The computational form minimizes c'v subject to A v = b, lo <= v <= hi, with
the structural columns first and then one slack per row: in [0, inf) for a
"<=" row, in (-inf, 0] for a ">=" row and fixed at 0 for an "=" row. Every
solve starts from a basis and the side each nonbasic column sits on, a
``ColumnState``: the one ``solve_lp`` is given, or else the slack basis,
whose inverse is the identity, with each structural column at the bound its
cost prefers (its upper bound if its cost is negative). A column whose
preferred bound is infinite sits at its other bound, or at 0 if it is free,
and starts with a reduced cost of the wrong sign (dual infeasible); a
worst-case agent's free epigraph column is one. Where every preferred bound
is finite the slack start is dual feasible (Fourer 1994; Koberstein 2005).

The dual simplex pivots until every basic value is within FEAS_TOL * scale
of its bounds. The basic column with the largest violation leaves for the
bound it violates; violations within the tolerance of the largest tie, and
the smallest position among them leaves, so the last bits of a basic value
do not choose the pivot. The candidates to enter are the columns that can
move the leaving value toward its bound, with |alpha| above PIVOT_TOL in
its row ``alpha`` of ``Binv @ A``. Each has a breakpoint, its ratio reduced
cost / alpha clipped at 0, where its reduced cost reaches zero as the
leaving column's moves off its bound; a dual infeasible column's ratio is
below 0 and clipped to 0, the least there is. The ratio test takes the
long step (Fourer 1994; Kostina 2002). It walks the breakpoints in (ratio,
index) order, in groups within PIVOT_TOL of each group's first ratio.
Flipping a column to its other bound moves the leaving value toward its
bound by the column's width, |alpha| * (upper - lower), so the violation
left falls by each group's widths; it is the slope of the dual objective.
While more than FEAS_TOL * scale of it is left after a group and another
group follows, the group's columns flip, which edits ``nonbasic`` and
``improving`` in place and no ``Binv``, like the primal simplex's bound
flip. A free or one-sided column's width is infinite, so its group stops
the walk. In the group that stops the walk, the largest |alpha| enters,
then the smallest index; every flip before it left the leaving row
violated, so the pivot is still one basis change. Where the first group
stops the walk, the pivot is the short step, the column whose reduced cost
reaches zero first, and nothing is sorted; a pivot that passes a
breakpoint sorts its candidates once. Welfare LP columns are almost all
boxed segment widths, so one pivot often passes many of them. A row that
no column can move proves the LP infeasible: each nonbasic column sits at
a bound and can move only away from it, so the row's value cannot reach
its bound; the proof needs no dual feasibility. The dual simplex has no
anti-cycling rule: a run past its pivot limit raises NumericalFailure
naming "the dual simplex".

The primal simplex then runs from the feasible basis. A nonbasic column
scores sign * reduced cost (see ``improving`` below), or |reduced cost| if
it is free, and is eligible when its score exceeds the tolerance, PIVOT_TOL
times ``cost_scale``, the largest |cost| (at least 1): a reduced cost is in
the objective's units, so the rhs, which scales the dual simplex's
tolerances, does not widen it. The column with the largest score enters
(Dantzig 1963). Scores within the tolerance of the largest tie (within one
unit in the last place of the largest, where that is wider), and the
smallest index among them enters, so the last bits
of a reduced cost do not choose the pivot. After DEGENERATE_LIMIT basis
changes in a row with a zero step (at most PIVOT_TOL) the smallest eligible
index enters instead (Bland 1977), until a pivot or a bound flip moves by a
positive step; each run starts on the largest score. The smallest index
among the minimum-ratio candidates always leaves. No pivot makes the
objective worse and a positive step makes it better, so a basis can recur
only within a run of zero steps, and such a run is under Bland's rule after
its first DEGENERATE_LIMIT pivots, which cannot cycle: the primal simplex
ends. The largest score alone does cycle on Chvatal's example (Linear
Programming, 1983), which the tests keep. An eligible column that no basic
column blocks and whose bound in its direction is infinite proves the LP
unbounded; a column that meets no row and whose cost prefers an infinite
side is one.

``Binv`` is the basis inverse from start to end. Every basis change is one
rank-one (eta) update in ``_replace`` (Dantzig & Orchard-Hays 1954); a bound
flip applies none. It is inverted afresh after every REFACTOR_EVERY basis
changes, and only a start from a given state inverts at the start. A
verdict ("feasible" or "infeasible" of the dual simplex, "optimal" or
"unbounded" of the primal) reached on an updated inverse is checked again
on a fresh one, and only a verdict on a fresh inverse is returned, so
rounding drift cannot end a loop early and the primal simplex starts on the
inverse that the dual simplex's verdict was confirmed on. The reported
values, duals and reduced costs come from one fresh solve on the final
basis. Designed for desk-scale instances (tens of rows).

Each column's state is held once: set from the bounds and the starting
basis and sides (``_read``), then updated in place by every basis change
and bound flip. A basic column has a position in ``basis``, an index array,
and holds 0 in ``nonbasic``. A nonbasic column holds there the finite bound
it sits at, or 0 if it is free, which ``free`` then marks. ``improving``
holds its sign: -1 at its lower bound, +1 at its upper, 0 if basic or
fixed. A primal and a dual pivot both end in one ``_replace``, which makes
the entering column basic, puts the leaving one at the bound it reached
with that side's sign (none if it is fixed), updates ``Binv`` and inverts
afresh on the REFACTOR_EVERY cadence. Each loop copies the bounds into
Python float lists for ``_replace`` and the ratio test, a sequential scan in
Python that at tens of rows is faster than a vectorised one. Signs and
values are exact, negation is exact, and Python floats round as numpy's do,
so the pivots and every bit of the result are those of recomputing the
state from the bounds and the basis at each pivot.

A given start (``solve_lp(lp, start)``) is the final ``ColumnState`` of an
optimal solve of an LP with the same matrix, senses, rhs and objective,
whose structural bounds may differ. Its basis is inverted once and each
nonbasic column is put at the bound on the side it sat on (the other if
that one is now infinite). If the bounds were only tightened, every reduced
cost keeps its sign, so the basis is dual feasible and only basic values
may be out of bounds, and the primal simplex normally prices once. Branch
and bound (``clearing.core``) solves every relaxation as its root's LP with
the set binaries fixed by bounds, from the nearest optimal relaxation
above, else from the slack basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailure, check_lp

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7  # a basic value this close to its bounds, times scale, is feasible
REFACTOR_EVERY = 50  # basis changes between fresh inversions
DEGENERATE_LIMIT = 3  # zero-step basis changes in a row before Bland's rule


@dataclass(frozen=True)
class LPRow:
    """One row's nonzeros, as ``LinearProgram.rows`` lists them."""

    indices: tuple[int, ...]
    coeffs: tuple[float, ...]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass(frozen=True)
class LinearProgram:
    """Dense LP: optimize c'x + constant subject to ``matrix @ x (senses)
    rhs``, senses being "<=", ">=" or "=", and ``lower <= x <= upper``.
    Nothing writes to the arrays, which may be read-only views into a welfare
    program's.

    An LP's data is checked once, where it enters: a hand-made LP by
    ``__post_init__`` (``check_lp``), an assembled welfare program by its
    own. An LP cut from a checked program (``clearing.core.build_lp`` and
    the branch-and-bound relaxations) is made by ``_unchecked``, which skips
    ``__post_init__``; the cutter checks only the values it computes from
    data outside the program."""

    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    matrix: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    sense: str = "max"
    constant: float = 0.0

    def __post_init__(self) -> None:
        for name in ("objective", "lower", "upper", "matrix", "rhs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "senses", np.asarray(self.senses, dtype=str))
        if self.sense not in ("max", "min"):
            raise ValueError(f"unknown objective sense {self.sense!r}")
        check_lp(self.objective, self.lower, self.upper, self.matrix, self.senses,
                 self.rhs, self.constant)

    @classmethod
    def _unchecked(cls, *values, **fields) -> LinearProgram:
        """The LP ``LinearProgram(*values, **fields)`` without ``__post_init__``:
        every field is given, the arrays as float arrays and the senses as a
        str array, and the caller vouches that ``check_lp`` would pass."""
        lp = object.__new__(cls)
        lp.__dict__.update(zip(cls.__dataclass_fields__, values), **fields)
        return lp

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
class ColumnState:
    """A basis and the side each nonbasic column sits on, over the n
    structural columns and then the m slacks (``improving``, length n + m:
    -1 at its lower bound, +1 at its upper, 0 if basic or fixed); the values
    and the free mask follow from these and the bounds."""

    basis: np.ndarray
    improving: np.ndarray


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None
    reduced_costs: np.ndarray | None
    iterations: int
    state: ColumnState | None = None  # an optimum's, to start ``solve_lp`` on a tighter LP


class _Simplex:
    """Computational form: minimize ``cost @ v``, A v = b, lo <= v <= hi,
    with the columns ordered structural, slack; see the module docstring."""

    def __init__(self, lp: LinearProgram, start: ColumnState | None = None):
        struct = np.ascontiguousarray(lp.matrix)
        self.b = lp.rhs
        m, n = struct.shape
        self.m, self.n_struct = m, n
        self.total = n + m

        senses = lp.senses
        self.lower = np.concatenate([lp.lower, np.where(senses == ">=", -np.inf, 0.0)])
        self.upper = np.concatenate([lp.upper, np.where(senses == "<=", np.inf, 0.0)])
        self.cost = np.zeros(self.total)
        self.cost[:n] = (-1.0 if lp.sense == "max" else 1.0) * lp.objective
        self.A = np.hstack([struct, np.eye(m)])
        self.span = self.upper - self.lower  # inf for a free or one-sided column
        self.updates = 0  # basis changes applied to Binv since it was inverted
        if start is None:  # the slack basis is its own inverse
            self._read(np.arange(n, self.total, dtype=np.intp), self.cost < 0)
            self.Binv = np.eye(m)
        else:
            self._read(start.basis.copy(), start.improving > 0)
            self.Binv = self._solve_basis(np.eye(m))
        self.iterations = 0
        self.scale = max(1.0, float(np.max(np.abs(self.b), initial=0.0)))
        self.tol = PIVOT_TOL * self.scale  # basic values this close tie to leave
        # a reduced cost is in the objective's units, not the rhs's
        self.cost_scale = max(1.0, float(np.max(np.abs(self.cost), initial=0.0)))
        self.cost_tol = PIVOT_TOL * self.cost_scale  # a score above it is eligible

    def _read(self, basis: np.ndarray, at_upper_side: np.ndarray) -> None:
        """Set the column state from ``basis`` and the bounds: a nonbasic
        column sits at its upper bound where ``at_upper_side`` holds or its
        lower bound is infinite, else at its lower bound, and is free if both
        are infinite."""
        self.basis = basis
        basic = np.zeros(self.total, dtype=bool)
        basic[basis] = True
        finite_lower, finite_upper = np.isfinite(self.lower), np.isfinite(self.upper)
        at_upper = finite_upper & (at_upper_side | ~finite_lower)
        at_lower = finite_lower & ~at_upper
        self.nonbasic = np.where(at_lower, self.lower, np.where(at_upper, self.upper, 0.0))
        self.nonbasic[basic] = 0.0
        self.improving = np.where(at_lower, -1.0, np.where(at_upper, 1.0, 0.0))
        self.improving[basic | (self.lower == self.upper)] = 0.0
        free = ~(basic | finite_lower | finite_upper)
        self.free = free if free.any() else None

    def _solve_basis(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        matrix = self.A[:, self.basis]
        try:
            return np.linalg.solve(matrix.T if transpose else matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"singular basis: {exc}") from exc

    def values(self) -> np.ndarray:
        v = self.nonbasic.copy()
        v[self.basis] = self._solve_basis(self.b - self.A @ v)
        return v

    def _refactor(self) -> None:
        self.Binv = self._solve_basis(np.eye(self.m))
        self.updates = 0

    def _replace(self, pos: int, col: int, w: np.ndarray, to_upper: bool) -> None:
        """Make ``col`` basic at position ``pos`` and the column leaving it
        nonbasic at the bound it reached, its upper if ``to_upper``; ``w`` is
        ``Binv @ A[:, col]``. Refactors every REFACTOR_EVERY basis changes."""
        leaving = self.basis.item(pos)
        self.basis[pos] = col
        self.nonbasic[col] = 0.0
        self.improving[col] = 0.0
        if self.free is not None:
            self.free[col] = False
        lower, upper = self.lower_list[leaving], self.upper_list[leaving]
        self.nonbasic[leaving] = upper if to_upper else lower
        if lower < upper:
            self.improving[leaving] = 1.0 if to_upper else -1.0
        # eta update: B_new^-1 = E B^-1, pivoting w onto unit vector pos
        row = self.Binv[pos] / w[pos]
        self.Binv -= w[:, None] * row
        self.Binv[pos] = row
        self.updates += 1
        if self.updates == REFACTOR_EVERY:
            self._refactor()

    def run(self) -> str:
        """The primal simplex from a feasible basis; returns 'optimal' or
        'unbounded'. Fixed columns never enter."""
        self.degenerate = 0  # zero-step basis changes since the last positive step
        return self._loop(self._pivot, "the primal simplex")

    def run_dual(self) -> str:
        """The bounded dual simplex until every basic value is within
        FEAS_TOL * scale of its bounds; returns 'feasible' or 'infeasible'.
        See ``_dual_pivot``."""
        return self._loop(self._dual_pivot, "the dual simplex")

    def _loop(self, step, where: str) -> str:
        """Repeat ``step`` until it returns a verdict on a fresh inverse."""
        self.lower_list, self.upper_list = self.lower.tolist(), self.upper.tolist()
        limit = 200 * (self.total + 1)
        for _ in range(limit):
            self.iterations += 1
            verdict = step()
            if verdict is not None and self.updates:
                self._refactor()
                verdict = step()
            if verdict is not None:
                return verdict
        raise NumericalFailure(f"simplex exceeded {limit} iterations in {where}")

    def _dual_pivot(self) -> str | None:
        """One dual pivot by the module docstring's rules; returns a verdict
        instead when every basic value is within bounds or the leaving row
        has no entering column."""
        basis = self.basis
        if not basis.size:
            return "feasible"
        x_basic = self.Binv @ (self.b - self.A @ self.nonbasic)
        below = self.lower[basis] - x_basic
        above = x_basic - self.upper[basis]
        violation = np.maximum(below, above)
        largest, feasible = violation.max(), FEAS_TOL * self.scale
        if largest <= feasible:
            return "feasible"
        pos = int((violation >= largest - self.tol).argmax())  # the first of the near-largest
        to_upper = bool(above[pos] > below[pos])
        # s * alpha: the rate at which a column's increase moves the leaving
        # value toward its bound
        toward = (1.0 if to_upper else -1.0) * (self.Binv[pos] @ self.A)
        # improving is -1, 0 or +1, so its product with toward is exact: below
        # -PIVOT_TOL, the column moves the leaving value toward its bound
        eligible = self.improving * toward < -PIVOT_TOL
        if self.free is not None:
            eligible |= self.free & (np.abs(toward) > PIVOT_TOL)
        candidates = np.flatnonzero(eligible)
        if not candidates.size:
            return "infeasible"
        y = self.cost[basis] @ self.Binv
        rates = toward[candidates]
        reduced = self.cost[candidates] - self.A[:, candidates].T @ y
        ratios = np.maximum(reduced / rates, 0.0)
        size, span = np.abs(rates), self.span[candidates]
        near = ratios <= ratios.min() + PIVOT_TOL
        # the violation left once the first group's columns flip; -inf if
        # one of them is free or one-sided
        slope = float(violation[pos] - size @ np.where(near, span, 0.0))
        if slope <= feasible:
            entering = int(candidates[np.where(near, size, -1.0).argmax()])
        else:
            entering = self._long_step(candidates, ratios, size, size * span, slope)
        self._replace(pos, entering, self.Binv @ self.A[:, entering], to_upper)
        return None

    def _long_step(self, candidates, ratios, size, widths, slope: float) -> int:
        """Walk the breakpoints past the first group, which leaves ``slope``
        of the violation: in (ratio, index) order, each group within
        PIVOT_TOL of its first ratio takes its widths |alpha| * span off the
        slope, and the walk stops at the group that leaves at most
        FEAS_TOL * scale, or at the last. Every column before that group
        flips to its other bound; returns the entering column, the group's
        largest |alpha|, then smallest index."""
        order = np.argsort(ratios, kind="stable").tolist()  # candidates ascend
        ratios, size, widths = ratios.tolist(), size.tolist(), widths.tolist()
        start = 0
        while True:
            end = start + 1
            while end < len(order) and ratios[order[end]] <= ratios[order[start]] + PIVOT_TOL:
                end += 1
            if start:  # the first group's widths are off the slope already
                slope -= sum(widths[i] for i in order[start:end])
            if end == len(order) or slope <= FEAS_TOL * self.scale:
                break
            start = end
        columns = candidates[order[:start]]
        self.improving[columns] = -self.improving[columns]
        self.nonbasic[columns] = np.where(self.improving[columns] > 0, self.upper[columns],
                                          self.lower[columns])
        return int(candidates[max(order[start:end], key=lambda i: (size[i], -i))])

    def _pivot(self) -> str | None:
        """One pivot or bound flip; returns a verdict instead when no pivot exists."""
        cost, tol = self.cost, self.cost_tol
        y = cost[self.basis] @ self.Binv
        reduced = cost - self.A.T @ y  # a transposed copy may change BLAS's summation order
        score = self.improving * reduced  # each column's gain per unit step
        if self.free is not None:
            score[self.free] = np.abs(reduced[self.free])
        best = float(score.max(initial=0.0))  # a Python float (cheaper below); 0 if no columns
        if best <= tol:
            return "optimal"
        # below best even where best - tol rounds to best, so best clears it
        window = max(tol, math.ulp(best))
        floor = tol if self.degenerate >= DEGENERATE_LIMIT else max(best - window, tol)
        entering = int((score > floor).argmax())  # the smallest index above the floor
        direction = 1.0 if reduced[entering] < 0 else -1.0

        x_basic = (self.Binv @ (self.b - self.A @ self.nonbasic)).tolist()
        w = self.Binv @ self.A[:, entering]
        lower, upper = self.lower_list, self.upper_list
        isfinite = math.isfinite
        span = upper[entering] - lower[entering]
        best_delta = span if isfinite(span) else math.inf
        leaving_pos = -1
        leaving_col = self.total  # sentinel larger than any real index
        hit_upper = False
        for pos, (col, w_pos, value) in enumerate(zip(self.basis.tolist(), w.tolist(), x_basic)):
            rate = -direction * w_pos
            if not abs(rate) > PIVOT_TOL:
                continue
            hits_upper = rate > 0
            bound = upper[col] if hits_upper else lower[col]
            if not isfinite(bound):
                continue
            ratio = max((bound - value) / rate, 0.0)
            if ratio < best_delta - PIVOT_TOL or (
                ratio < best_delta + PIVOT_TOL and col < leaving_col
            ):
                best_delta = min(best_delta, ratio)
                leaving_pos, leaving_col, hit_upper = pos, col, hits_upper

        if not isfinite(best_delta):
            return "unbounded"

        if leaving_pos < 0:
            # entering runs bound to bound without blocking any basic var
            self.degenerate = 0
            to_upper = direction > 0
            self.improving[entering] = 1.0 if to_upper else -1.0
            self.nonbasic[entering] = upper[entering] if to_upper else lower[entering]
            return None
        self.degenerate = 0 if best_delta > PIVOT_TOL else self.degenerate + 1
        self._replace(leaving_pos, entering, w, hit_upper)
        return None


def solve_lp(lp: LinearProgram, start: ColumnState | None = None) -> LPResult:
    """Solve to optimality and report primal values, row duals, reduced costs.

    The solve starts from ``start``, or else from the slack basis with each
    column at the bound its cost prefers; the dual simplex reaches a
    feasible basis and the primal simplex optimizes from it, as the module
    docstring sets out. Each may take ``200 * (columns + rows + 1)`` pivots;
    exceeding that raises NumericalFailure naming "the dual simplex" or "the
    primal simplex". ``iterations`` counts the steps of both loops: each
    dual pivot, one basis change together with its long step's flips; each
    primal pivot or bound flip; and each loop's final pricing, whose
    confirmation on a fresh inverse is not counted again. "infeasible" is a
    row that no column can bring within its bounds, checked on a fresh
    inverse. The reported objective is c'x + constant. Duals follow the
    user's sense (derivative of the optimum w.r.t. the row rhs).

    Before an optimum is returned, ``_validate_solution`` checks it in the
    computational form, over every column and every row's slack: each value
    within its bounds and each reduced cost of the sign its bounds allow.
    A fault raises NumericalFailure naming the variable or row (the CLI
    exits 2), never a silently wrong price.

    ``start`` is the ``state`` of an optimal result of an LP with the same
    matrix, senses, rhs and objective; only the structural bounds may
    differ. Every optimal result carries its own.
    """
    state = _Simplex(lp, start)
    if state.run_dual() == "infeasible":
        return LPResult("infeasible", None, None, None, None, state.iterations)
    if state.run() == "unbounded":
        return LPResult("unbounded", None, None, None, None, state.iterations)
    sign = -1.0 if lp.sense == "max" else 1.0
    x = state.values()[: state.n_struct]
    y = state._solve_basis(state.cost[state.basis], transpose=True)
    reduced = state.cost - state.A.T @ y
    _validate_solution(state, x, reduced)
    return LPResult("optimal", x, float(lp.objective @ x) + lp.constant, sign * y,
                    sign * reduced[: state.n_struct], state.iterations,
                    ColumnState(state.basis, state.improving))


def _validate_solution(state: _Simplex, x: np.ndarray, reduced: np.ndarray) -> None:
    """Check an optimum in the computational form before ``solve_lp``
    returns it. Values: v = (x, b - A x), the slacks recomputed from x, lies
    within ``state.lower`` and ``state.upper`` to FEAS_TOL * scale, one check
    over every structural bound and every row. Reduced costs: each of the
    n + m entries of ``cost - A'y`` is zero, to 10 * FEAS_TOL * cost_scale
    (the units of the primal simplex's pricing), where its value is
    strictly inside its bounds, and at a bound has the sign under
    which no move off it improves the objective; over the slacks that is
    each row's dual sign and complementary slackness. The first column at
    fault raises NumericalFailure (the CLI exits 2) naming ``variable j`` or
    ``row i``'s slack and the size of the fault."""
    n, tol = state.n_struct, FEAS_TOL * state.scale
    v = np.concatenate([x, state.b - state.A[:, :n] @ x])

    def name(k):
        return f"variable {k}" if k < n else f"row {k - n}'s slack"

    outside = np.maximum(state.lower - v, v - state.upper)
    beyond = outside > tol
    if beyond.any():
        k = int(beyond.argmax())
        raise NumericalFailure(f"{name(k)} is {outside[k]:.3e} outside its bounds")
    at_lower, at_upper = v - state.lower <= tol, state.upper - v <= tol
    reduced_tol = 10 * FEAS_TOL * state.cost_scale
    wrong = ((reduced < -reduced_tol) & ~at_upper) | ((reduced > reduced_tol) & ~at_lower)
    if wrong.any():
        k = int(wrong.argmax())
        where = ("at its lower bound" if at_lower[k] else "at its upper bound" if at_upper[k]
                 else "inside its bounds")
        raise NumericalFailure(f"{name(k)} {where} has reduced cost {reduced[k]:.3e}, "
                               "so the objective can still improve")
