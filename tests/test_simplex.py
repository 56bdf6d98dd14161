"""LP solver: golden duals, oracle cross-checks (vertex enumeration, the
refactor-every-pivot loops, HiGHS), degeneracy, status detection."""

import dataclasses
import importlib.util
import math
import re

import numpy as np
import pytest

from statemarket.clearing import LinearProgram, solve_lp
from statemarket.clearing import simplex
from statemarket.clearing.simplex import DEGENERATE_LIMIT, PIVOT_TOL, REFACTOR_EVERY
from statemarket.errors import NumericalFailure
from statemarket.market import assemble_welfare
from statemarket.clearing.core import build_lp, clear

from instances import (
    LONG_SEEDS,
    commitment_bids,
    ladder_lp,
    long_lp,
    near_tie_worst_case_bids,
    price_formation_bids,
    random_commitment_market,
    random_convex_market,
    random_lp,
)
from oracles import highs_optimum, highs_verdict, lp_vertex_oracle


def test_single_bound_dual():
    lp = LinearProgram(
        objective=np.array([1.0]),
        lower=np.array([-np.inf]),
        upper=np.array([np.inf]),
        matrix=np.array([[1.0]]),
        senses=np.array(["<="]),
        rhs=np.array([1.0]),
        sense="max",
    )
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.x[0] == pytest.approx(1.0)
    assert result.duals[0] == pytest.approx(1.0)


def test_price_formation_lp_duals():
    # welfare LP at beliefs (0.3, 0.7); balance duals are the prices (0, 70)
    bids, dims = price_formation_bids(0.3)
    program = assemble_welfare(bids, dims)
    lp = build_lp(program, ())
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(780.0)
    balance = [result.duals[program.balance_rows[(0, 0, s)]] for s in (0, 1)]
    assert balance[0] == pytest.approx(0.0, abs=1e-9)
    assert balance[1] == pytest.approx(70.0, abs=1e-9)


def test_matches_vertex_enumeration_oracle_on_random_lps():
    rng = np.random.default_rng(80)
    solved = 0
    while solved < 30:
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        lower = rng.uniform(-5, 0, n)
        upper = lower + rng.uniform(0.5, 6, n)
        matrix = np.zeros((m, n))
        senses, rhs = [], []
        for i in range(m):
            matrix[i] += rng.uniform(-2, 2, n)
            senses.append(("<=", ">=", "=")[int(rng.integers(0, 3))])
            midpoint = sum(
                c * (lo + hi) / 2 for c, lo, hi in zip(matrix[i].tolist(), lower, upper)
            )
            rhs.append(midpoint + float(rng.uniform(-1, 1)))
        lp = LinearProgram(
            objective=rng.uniform(-3, 3, n),
            lower=lower,
            upper=upper,
            matrix=matrix,
            senses=np.array(senses),
            rhs=np.array(rhs),
            sense="max" if rng.random() < 0.5 else "min",
        )
        result = solve_lp(lp)
        if result.status != "optimal":
            continue  # random rows sometimes conflict; oracle needs feasible LPs
        assert result.objective == pytest.approx(lp_vertex_oracle(lp), abs=1e-7)
        solved += 1


def test_infeasible_detected():
    lp = LinearProgram(
        objective=np.array([1.0]),
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        matrix=np.array([[1.0]]),
        senses=np.array([">="]),
        rhs=np.array([2.0]),
        sense="max",
    )
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        lower=np.array([0.0, 0.0]),
        upper=np.array([np.inf, 5.0]),
        matrix=np.array([[-1.0, 1.0]]),
        senses=np.array(["<="]),
        rhs=np.array([3.0]),
        sense="max",
    )
    assert solve_lp(lp).status == "unbounded"


def test_degenerate_lp_terminates():
    # many redundant rows through the optimum exercise Bland's rule
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        lower=np.zeros(2),
        upper=np.full(2, np.inf),
        matrix=np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 2.0], [2.0, 1.0]]),
        senses=np.array(["<="] * 4),
        rhs=np.array([2.0, 4.0, 3.0, 3.0]),
        sense="max",
    )
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(2.0)


def test_equality_rows_and_free_variables():
    # max x0 with x0 = x1, x1 <= 4, x0 free
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        lower=np.array([-np.inf, -np.inf]),
        upper=np.array([np.inf, 4.0]),
        matrix=np.array([[1.0, -1.0]]),
        senses=np.array(["="]),
        rhs=np.array([0.0]),
        sense="max",
    )
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.x[0] == pytest.approx(4.0)


def empty_lp(senses):
    """LP without variables, one row ``0 (sense) 1`` per listed sense."""
    m = len(senses)
    return LinearProgram(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros((m, 0)),
                         np.array(senses, dtype="U2"), np.ones(m), sense="max")


@pytest.mark.parametrize(
    "rows, status",
    [([], "optimal"), (["<="], "optimal"), ([">="], "infeasible")],
)
def test_lp_without_variables(rows, status):
    # an agent whose only contract is pinned contributes such an LP
    lp = empty_lp(rows)
    result = solve_lp(lp)
    assert result.status == status
    if status == "optimal":
        assert result.objective == 0.0 and result.x.shape == (0,)


def test_duplicated_equality_row_keeps_its_artificial_at_zero():
    # an equality row's slack is an artificial, fixed at zero; the repeated
    # row keeps one basic at zero, and it must not move the optimum
    lp = LinearProgram(
        objective=np.array([1.0, 2.0]),
        lower=np.zeros(2),
        upper=np.full(2, np.inf),
        matrix=np.ones((2, 2)),
        senses=np.array(["=", "="]),
        rhs=np.ones(2),
        sense="max",
    )
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.x == pytest.approx([0.0, 1.0])
    assert result.objective == pytest.approx(2.0)


def test_a_reduced_cost_is_priced_in_the_objectives_units():
    """Every |cost| of this welfare LP is 1 and its rhs reaches 220, so
    PIVOT_TOL times the rhs would let the primal simplex stop with a
    reduced cost of -2.2e-7 on a segment at its upper bound. Priced against
    PIVOT_TOL in the objective's units, no reduced cost has the wrong sign
    by more than that."""
    lp = build_lp(assemble_welfare(*near_tie_worst_case_bids()), ())
    assert np.abs(lp.objective).max() == 1.0 and PIVOT_TOL * np.abs(lp.rhs).max() > 2e-7
    result = solve_lp(lp)
    assert result.status == "optimal"
    at_lower, at_upper = result.x <= lp.lower, result.x >= lp.upper
    rc = result.reduced_costs
    assert np.all(np.where(at_lower, rc, np.where(at_upper, -rc, np.abs(rc))) <= PIVOT_TOL)


def test_costs_far_above_the_rhs_are_priced_and_checked_in_the_same_units():
    """max 1e4 x0 + (1e4 + 5e-6) x1 with x0 + x1 <= 1: the scores tie within
    PIVOT_TOL times the largest |cost|, so x0 enters and pricing stops with
    x1's reduced cost at -5e-6. The check of the optimum reads reduced costs
    in the same units, so this is an optimum, not a NumericalFailure."""
    lp = LinearProgram(np.array([1e4, 1e4 + 5e-6]), np.zeros(2), np.full(2, np.inf),
                       np.array([[1.0, 1.0]]), np.array(["<="]), np.ones(1), sense="max")
    result = solve_lp(lp)
    assert result.status == "optimal" and result.x.tolist() == [1.0, 0.0]
    assert result.objective == pytest.approx(1e4 + 5e-6, abs=PIVOT_TOL * 1e4)
    assert result.reduced_costs[1] == pytest.approx(5e-6)


def test_reduced_cost_signs_at_optimum():
    rng = np.random.default_rng(81)
    for _ in range(10):
        n = 4
        lower = np.zeros(n)
        upper = rng.uniform(1, 5, n)
        matrix = rng.uniform(0.1, 1, (1, n))
        lp = LinearProgram(rng.uniform(-2, 3, n), lower, upper, matrix,
                           np.array(["<="]), np.array([4.0]), sense="max")
        result = solve_lp(lp)
        assert result.status == "optimal"
        for j in range(n):
            if result.x[j] < upper[j] - 1e-7 and result.x[j] > lower[j] + 1e-7:
                assert abs(result.reduced_costs[j]) <= 1e-7
            elif result.x[j] <= lower[j] + 1e-7:
                assert result.reduced_costs[j] <= 1e-7
            else:
                assert result.reduced_costs[j] >= -1e-7


def test_bound_flip_path():
    # x1's own span is the binding ratio, so it flips bound to bound
    lp = LinearProgram(
        objective=np.array([1.0, 0.1]),
        lower=np.zeros(2),
        upper=np.array([2.0, 20.0]),
        matrix=np.array([[1.0, 1.0]]),
        senses=np.array(["<="]),
        rhs=np.array([10.0]),
        sense="max",
    )
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.x == pytest.approx([2.0, 8.0])
    assert result.objective == pytest.approx(2.8)


def test_deterministic_solutions():
    rng = np.random.default_rng(82)
    n = 5
    lp = LinearProgram(
        objective=rng.uniform(-2, 2, n),
        lower=np.zeros(n),
        upper=rng.uniform(1, 4, n),
        matrix=rng.uniform(-1, 1, (2, n)),
        senses=np.array(["=", "<="]),
        rhs=np.array([1.0, 2.0]),
        sense="max",
    )
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.duals, b.duals)
    assert a.iterations == b.iterations


# --- updated inverse against the refactor-every-pivot loops ------------------

def refactoring_run(self):
    """The primal simplex before the updated inverse: three fresh basis
    solves per pivot. Kept as the reference the updated-inverse loop must
    match bit for bit whenever both take the same pivots. It reads a
    column's bound status from its value against its bounds and from basis
    membership, and keeps only ``basis`` and ``nonbasic`` current, never
    ``improving``, ``free`` or ``Binv``. It enters by the same rule: the
    smallest index whose score is within tol (or one ulp of the largest, if
    wider) of the largest, or the smallest eligible index once
    DEGENERATE_LIMIT basis changes in a row have had a zero step. tol is in
    the objective's units: PIVOT_TOL times the largest |cost|, at least 1."""
    cost = self.cost
    tol = PIVOT_TOL * max(1.0, float(np.abs(cost).max(initial=0.0)))
    movable = ~(self.upper - self.lower <= 0.0)
    limit = 200 * (self.total + 1)
    degenerate = 0
    for _ in range(limit):
        self.iterations += 1
        y = self._solve_basis(cost[self.basis], transpose=True)
        reduced = cost - self.A.T @ y
        nonbasic = np.ones(self.total, dtype=bool)
        nonbasic[self.basis] = False
        at_lower = nonbasic & (self.nonbasic == self.lower)
        at_upper = nonbasic & (self.nonbasic == self.upper)
        free = nonbasic & np.isinf(self.lower) & np.isinf(self.upper)
        score = np.where(at_lower, -reduced, np.where(at_upper, reduced, 0.0))
        score = np.where(movable, np.where(free, np.abs(reduced), score), 0.0)
        if not np.any(score > tol):
            return "optimal"
        best = score.max()
        window = max(tol, math.ulp(best))
        floor = tol if degenerate >= DEGENERATE_LIMIT else max(best - window, tol)
        entering = int(np.argmax(score > floor))
        direction = 1.0 if reduced[entering] < 0 else -1.0

        v = self.values()
        w = self._solve_basis(self.A[:, entering])
        span = self.upper[entering] - self.lower[entering]
        best_delta = span if np.isfinite(span) else np.inf
        leaving_pos = -1
        leaving_col = self.total
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
            self.nonbasic[entering] = (self.upper if direction > 0 else self.lower)[entering]
            degenerate = 0
            continue
        degenerate = 0 if best_delta > PIVOT_TOL else degenerate + 1
        self.basis[leaving_pos] = entering
        self.nonbasic[entering] = 0.0
        self.nonbasic[leaving_col] = (self.upper if hit_upper else self.lower)[leaving_col]
    raise NumericalFailure(f"simplex exceeded {limit} iterations")


def refactoring_run_dual(self):
    """The dual simplex with a fresh inverse and fresh values at every
    pivot, the reference for ``_dual_pivot``'s eta updates. Like
    ``refactoring_run`` it reads a column's bound status from its value and
    basis membership and keeps only ``basis`` and ``nonbasic`` current: the
    first position whose violation is within tol of the largest leaves for
    the bound it violates. The columns that can move it toward that bound
    have breakpoints, their ratios reduced cost / alpha clipped at 0; a
    plain walk over them in (ratio, index) order takes the long step, and in
    the group where it stops the largest |alpha| enters, then the smallest
    index."""
    movable = ~(self.upper - self.lower <= 0.0)
    limit = 200 * (self.total + 1)
    for _ in range(limit):
        self.iterations += 1
        if not self.m:
            return "feasible"
        x_basic = self.values()[self.basis]
        below = self.lower[self.basis] - x_basic
        above = x_basic - self.upper[self.basis]
        violation = np.maximum(below, above)
        if violation.max() <= simplex.FEAS_TOL * self.scale:
            return "feasible"
        pos = int(np.argmax(violation >= violation.max() - PIVOT_TOL * self.scale))
        to_upper = bool(above[pos] > below[pos])
        alpha = self._solve_basis(np.eye(self.m)[pos], transpose=True) @ self.A
        toward = (1.0 if to_upper else -1.0) * alpha
        nonbasic = np.ones(self.total, dtype=bool)
        nonbasic[self.basis] = False
        at_lower = nonbasic & movable & (self.nonbasic == self.lower)
        at_upper = nonbasic & movable & (self.nonbasic == self.upper)
        free = nonbasic & np.isinf(self.lower) & np.isinf(self.upper)
        can_move = (at_lower & (toward > 0)) | (at_upper & (toward < 0)) | free
        candidates = np.flatnonzero(can_move & (np.abs(toward) > PIVOT_TOL))
        if not candidates.size:
            return "infeasible"
        y = self._solve_basis(self.cost[self.basis], transpose=True)
        reduced = self.cost[candidates] - self.A[:, candidates].T @ y
        ratios = np.maximum(reduced / toward[candidates], 0.0)
        # the long step: walk the breakpoints in (ratio, index) order, in
        # groups within PIVOT_TOL of each group's first ratio; flip a group
        # while more than FEAS_TOL * scale of the violation is left after
        # it and another group follows
        groups = []
        for ratio, col in sorted(zip(ratios.tolist(), candidates.tolist())):
            if groups and ratio <= groups[-1][0][0] + PIVOT_TOL:
                groups[-1].append((ratio, col))
            else:
                groups.append([(ratio, col)])
        slope = violation[pos]
        for k, group in enumerate(groups):
            slope -= sum(abs(toward[col]) * (self.upper[col] - self.lower[col])
                         for _, col in group)
            if slope <= simplex.FEAS_TOL * self.scale or k == len(groups) - 1:
                break
            for _, col in group:
                other = self.upper if self.nonbasic[col] == self.lower[col] else self.lower
                self.nonbasic[col] = other[col]
        entering = min(col for _, col in group
                       if abs(toward[col]) == max(abs(toward[c]) for _, c in group))
        leaving = int(self.basis[pos])
        self.basis[pos] = entering
        self.nonbasic[entering] = 0.0
        self.nonbasic[leaving] = (self.upper if to_upper else self.lower)[leaving]
    raise NumericalFailure(f"simplex exceeded {limit} iterations")


def solve_lp_refactoring(lp, start=None):
    """``solve_lp`` with a fresh inverse at every pivot of both loops."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._Simplex, "run", refactoring_run)
        patch.setattr(simplex._Simplex, "run_dual", refactoring_run_dual)
        return solve_lp(lp, start)


def same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_refactoring_loop(lp, start=None):
    fast, reference = solve_lp(lp, start), solve_lp_refactoring(lp, start)
    assert fast.status == reference.status
    assert fast.iterations == reference.iterations
    for field in ("x", "duals", "reduced_costs"):
        assert same_bits(getattr(fast, field), getattr(reference, field)), field
    return fast


def test_updated_inverse_matches_refactoring_loop_on_random_lps():
    rng = np.random.default_rng(83)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        statuses[assert_matches_refactoring_loop(random_lp(rng)).status] += 1
    assert min(statuses.values()) >= 30, statuses


@pytest.mark.parametrize("rows", [[], ["<="], [">="]])
def test_updated_inverse_matches_refactoring_loop_without_variables(rows):
    assert_matches_refactoring_loop(empty_lp(rows))


def test_updated_inverse_matches_refactoring_loop_without_rows():
    rng = np.random.default_rng(84)
    for _ in range(20):
        lp = random_lp(rng, max_rows=0)
        assert lp.matrix.shape == (0, lp.num_vars)
        assert_matches_refactoring_loop(lp)


def test_updated_inverse_matches_refactoring_loop_on_duplicated_rows():
    lp = LinearProgram(np.array([1.0, 2.0]), np.zeros(2), np.full(2, np.inf),
                       np.ones((3, 2)), np.array(["="] * 3), np.ones(3), sense="max")
    assert assert_matches_refactoring_loop(lp).status == "optimal"


def test_updated_inverse_matches_refactoring_loop_on_bound_flips(monkeypatch):
    flips = []
    pivot = simplex._Simplex._pivot

    def spy(self):
        basis = self.basis.copy()
        verdict = pivot(self)
        flips.append(verdict is None and np.array_equal(basis, self.basis))
        return verdict

    monkeypatch.setattr(simplex._Simplex, "_pivot", spy)
    lp = LinearProgram(
        objective=np.array([1.0, 0.1]),
        lower=np.zeros(2),
        upper=np.array([2.0, 20.0]),
        matrix=np.array([[1.0, 1.0]]),
        senses=np.array(["<="]),
        rhs=np.array([10.0]),
        sense="max",
    )
    # from both columns at their lower bounds, x0 runs its span to 2 unblocked
    at_lower = simplex.ColumnState(np.array([2]), np.array([-1.0, -1.0, 0.0]))
    assert assert_matches_refactoring_loop(lp, at_lower).status == "optimal"
    assert any(flips)


def market_lps():
    lps = [build_lp(assemble_welfare(*random_convex_market(seed)), ()) for seed in range(8)]
    for risk in ("expectation", "worst_case"):  # commitment cells, some infeasible
        program = assemble_welfare(*commitment_bids(risk))
        lps += [build_lp(program, cell) for cell in ((0,), (1,))]
    return lps


def test_updated_inverse_matches_refactoring_loop_on_markets():
    for lp in market_lps():
        assert_matches_refactoring_loop(lp)


def test_updated_inverse_matches_refactoring_loop_on_long_lps():
    for seed in LONG_SEEDS:
        result = assert_matches_refactoring_loop(long_lp(seed))
        assert result.iterations > 2 * REFACTOR_EVERY


def test_updated_inverse_matches_refactoring_loop_at_desk_scale():
    program = assemble_welfare(*random_commitment_market(0))
    count = len(program.binaries)
    lps = [
        ladder_lp(8, 6, 2, 0),  # the shape of the benchmark's convex market
        ladder_lp(8, 8, 4, 0),
        build_lp(program, [0] * count, free=range(count)),  # branch-and-bound root
    ]
    assert [lp.matrix.shape for lp in lps] == [(24, 194), (32, 512), (46, 45)]
    iterations = [assert_matches_refactoring_loop(lp).iterations for lp in lps]
    assert iterations[1] == 34


def test_the_reference_dual_loop_matches_on_warm_starts():
    iterations = 0
    for start, lp in warm_cases():
        iterations += assert_matches_refactoring_loop(lp, start).iterations
    assert iterations > 1000


# --- entry rule: largest score, Bland after a degenerate run -----------------

def chvatal_lp(row_scale=(1.0, 1.0)):
    """Chvatal's cycling example (Linear Programming, 1983, ch. 3): max
    10x1 - 57x2 - 9x3 - 24x4 over two rows through the origin, x1 <= 1 as a
    bound, optimum 1 at x = (1, 0, 1, 0). From the slack basis it does not
    cycle; from CHVATAL_START the largest-score rule alone runs round
    Chvatal's cycle of six degenerate bases for good."""
    matrix = np.array([[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0]])
    return LinearProgram(np.array([10.0, -57.0, -9.0, -24.0]), np.zeros(4),
                         np.array([1.0, np.inf, np.inf, np.inf]),
                         matrix * np.array(row_scale)[:, None], np.array(["<=", "<="]),
                         np.zeros(2))


# x4 and the second slack basic, every other column at its lower bound 0
CHVATAL_START = simplex.ColumnState(np.array([3, 5]), np.array([-1.0, -1.0, -1.0, 0.0, -1.0, 0.0]))


def test_the_fallback_ends_the_cycles_of_chvatals_example(monkeypatch):
    result = solve_lp(chvatal_lp(), CHVATAL_START)
    assert result.status == "optimal"
    assert result.x.tolist() == [1.0, 0.0, 1.0, 0.0] and result.objective == 1.0
    # the rows scaled by powers of two: the same polytope, other pivots
    family = [chvatal_lp((2.0 ** i, 2.0 ** j)) for i in range(-3, 4) for j in range(-3, 4)]
    for lp in family:
        for start in (None, CHVATAL_START):
            result = solve_lp(lp, start)
            assert result.status == "optimal"
            assert result.objective == pytest.approx(lp_vertex_oracle(lp), abs=1e-9)
    monkeypatch.setattr(simplex, "DEGENERATE_LIMIT", 10**9)
    assert solve_lp(chvatal_lp()).status == "optimal"
    with pytest.raises(NumericalFailure, match="exceeded .* in the primal simplex"):
        solve_lp(chvatal_lp(), CHVATAL_START)
    cycled = 0
    for lp in family:
        try:
            solve_lp(lp, CHVATAL_START)
        except NumericalFailure:
            cycled += 1
    assert cycled >= 10


@pytest.mark.parametrize("cost", [0.0, -1.0], ids=["basic", "not_eligible"])
@pytest.mark.parametrize("gain", [2e7, 1e300])
def test_a_score_too_large_for_the_tie_window_still_enters(cost, gain):
    """gain - tol rounds to gain, yet x2 must enter, not column 0. Every
    |cost| is at most 1, so tol is PIVOT_TOL; x2's score, gain, comes from
    the row, once its carrier is basic at 0 after a zero step. Column 0 is
    that carrier (cost 0: x0 - gain x2 <= 0) or, with the carrier second, a
    column in no row whose score is below tol (cost -1); entering it would
    report an LP with optimum gain unbounded."""
    carrier = 0 if cost == 0.0 else 1
    objective, row = np.zeros(3), np.zeros(3)
    objective[carrier], row[carrier], row[2] = 1.0, 1.0, -gain
    objective[0] += cost
    lp = LinearProgram(objective, np.zeros(3), np.array([np.inf, np.inf, 1.0]),
                       np.array([row]), np.array(["<="]), np.zeros(1))
    result = assert_matches_refactoring_loop(lp)
    assert result.status == "optimal"
    expected = [0.0, 0.0, 1.0]
    expected[carrier] = gain
    assert result.x.tolist() == expected and result.objective == gain


def test_bland_enters_after_three_zero_steps_and_yields_after_a_positive_one(monkeypatch):
    """Counts each solve's run of zero-step basis changes from the values
    before and after each pivot, and checks the entering column against it:
    the smallest eligible index after DEGENERATE_LIMIT of them, otherwise
    the smallest index within tol of the largest score. The seed-83 corpus
    rarely runs that long; the scaled copies of Chvatal's example started
    from CHVATAL_START always do, and the market LPs sometimes."""
    picks = []  # (rule that must pick, the picks differ, rule followed)
    run = {"solve": None, "zero_steps": 0}  # holds the solve, so no id is reused
    pivot = simplex._Simplex._pivot

    def spy(self):
        tol = self.cost_tol
        y = self.cost[self.basis] @ self.Binv
        reduced = self.cost - self.A.T @ y
        score = self.improving * reduced
        if self.free is not None:
            score[self.free] = np.abs(reduced[self.free])
        eligible = np.flatnonzero(score > tol)
        before, basis, nonbasic = self.values(), self.basis.copy(), self.nonbasic.copy()
        verdict = pivot(self)
        if verdict is not None:
            return verdict
        changed = np.flatnonzero(basis != self.basis)
        if changed.size:
            entering = int(self.basis[changed[0]])
            step = abs(self.values()[entering] - before[entering])
        else:  # a bound flip runs the column's whole span
            (entering,) = np.flatnonzero(nonbasic != self.nonbasic)
            step = math.inf
        if run["solve"] is not self:
            run.update(solve=self, zero_steps=0)
        zero_steps = run["zero_steps"]
        best = score.max()
        largest = int(eligible[score[eligible] > max(best - max(tol, math.ulp(best)), tol)][0])
        bland = zero_steps >= DEGENERATE_LIMIT
        picks.append((bland, largest != eligible[0],
                      entering == (eligible[0] if bland else largest)))
        run["zero_steps"] = zero_steps + 1 if changed.size and step <= PIVOT_TOL else 0
        return None

    monkeypatch.setattr(simplex._Simplex, "_pivot", spy)
    rng = np.random.default_rng(83)
    cases = [(random_lp(rng), None) for _ in range(300)]
    cases.append((LinearProgram(  # the LP of test_degenerate_lp_terminates
        np.ones(2), np.zeros(2), np.full(2, np.inf),
        np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 2.0], [2.0, 1.0]]),
        np.array(["<="] * 4), np.array([2.0, 4.0, 3.0, 3.0])), None))
    cases += [(chvatal_lp((2.0 ** i, 2.0 ** j)), CHVATAL_START)
              for i in range(-3, 4) for j in range(-3, 4)]
    # market LPs, and long ones with every row "<=", feasible at the slack start
    cases += [(lp, None) for lp in market_lps()]
    cases += [(dataclasses.replace(long_lp(seed), senses=np.full(50, "<=")), None)
              for seed in range(3)]
    for lp, start in cases:
        solve_lp(lp, start)
    assert all(followed for _, _, followed in picks)
    # each rule is seen where it picks another column than the other would
    assert sum(bland and differ for bland, differ, _ in picks) >= 20
    assert sum(not bland and differ for bland, differ, _ in picks) >= 100
    # and the largest-score rule comes back after a run ends
    returned = [b0 and not b1 for (b0, _, _), (b1, _, _) in zip(picks, picks[1:])]
    assert sum(returned) >= 20


# --- columns whose preferred bound is infinite, and LPs without rows ----------

def test_a_rowless_column_toward_infinity_is_unbounded_only_if_feasible():
    # x0 meets no row and its cost improves toward +inf; x1 >= 2 beyond its bound
    columns = dict(objective=np.array([1.0, 0.0]), lower=np.zeros(2),
                   upper=np.array([np.inf, 1.0]), sense="max")
    infeasible = LinearProgram(matrix=np.array([[0.0, 1.0]]), senses=np.array([">="]),
                               rhs=np.array([2.0]), **columns)
    assert solve_lp(infeasible).status == "infeasible"
    without_the_row = LinearProgram(matrix=np.zeros((0, 2)), senses=np.zeros(0, dtype="U2"),
                                    rhs=np.zeros(0), **columns)
    assert solve_lp(without_the_row).status == "unbounded"


def test_an_expectation_agents_best_response_takes_one_pricing_in_each_loop(monkeypatch):
    """Such an LP has no rows, so the slack start is its optimum: the dual
    simplex finds the empty basis feasible and the primal simplex prices
    once, two iterations, with the bits of the refactoring loops."""
    loops = []
    dual_pivot, pivot = simplex._Simplex._dual_pivot, simplex._Simplex._pivot

    def spy_dual(self):
        loops.append("dual")
        return dual_pivot(self)

    def spy(self):
        loops.append("primal")
        return pivot(self)

    program = assemble_welfare(*random_convex_market(1))
    prices = clear(program).prices
    monkeypatch.setattr(simplex._Simplex, "_dual_pivot", spy_dual)
    monkeypatch.setattr(simplex._Simplex, "_pivot", spy)
    checked = 0
    for agent, bid in enumerate(program.bids):
        lp = build_lp(program, [], agent, prices)
        if bid.risk != "expectation" or lp.matrix.shape[0]:
            continue
        loops.clear()
        result = assert_matches_refactoring_loop(lp)
        assert loops == ["dual", "primal"]
        assert result.status == "optimal" and result.iterations == 2
        assert result.duals.shape == (0,) and result.state.basis.shape == (0,)
        checked += 1
    assert checked == 4


def vertex_verdict(lp):
    """(status, objective) by vertex enumeration. An LP is unbounded if its
    optimum grows as a box on its infinite bounds widens from 1e3 to 1e4."""
    def boxed(width):
        return dataclasses.replace(lp, lower=np.maximum(lp.lower, -width),
                                   upper=np.minimum(lp.upper, width))
    try:
        narrow = lp_vertex_oracle(boxed(1e3))
    except ValueError:  # no feasible vertex
        return "infeasible", None
    if lp_vertex_oracle(boxed(1e4)) != pytest.approx(narrow, abs=1e-6):
        return "unbounded", None
    return "optimal", narrow + lp.constant


def assert_matches_oracles(lp):
    """Status, and an optimum's objective, equal to vertex enumeration's and,
    where scipy is installed, to HiGHS's; returns the status."""
    result = solve_lp(lp)
    verdicts = [vertex_verdict(lp)]
    if importlib.util.find_spec("scipy") is not None:
        verdicts.append(highs_verdict(lp))
    for status, objective in verdicts:
        assert result.status == status
        if status == "optimal":
            assert result.objective == pytest.approx(objective, abs=1e-9)
    return result.status


def test_a_cold_start_where_a_preferred_bound_is_infinite():
    """From the slack basis a column whose cost prefers an infinite bound
    sits at its other bound, or at 0 if free, with a reduced cost of the
    wrong sign, so the dual simplex starts from a basis that is not dual
    feasible."""
    # max t with t <= 5 - a and t <= 1 + 2a: t is free, optimum 11/3 at a = 4/3
    free = LinearProgram(np.array([1.0, 0.0]), np.array([-np.inf, 0.0]), np.array([np.inf, 4.0]),
                         np.array([[1.0, 1.0], [1.0, -2.0]]), np.array(["<=", "<="]),
                         np.array([5.0, 1.0]))
    # x0 >= 0 prefers +inf; a row caps it, or leaves it a ray
    columns = dict(objective=np.array([1.0, -1.0]), lower=np.zeros(2),
                   upper=np.array([np.inf, 3.0]), sense="max")
    capped = LinearProgram(matrix=np.array([[1.0, 1.0]]), senses=np.array(["<="]),
                           rhs=np.array([5.0]), **columns)
    uncapped = LinearProgram(matrix=np.array([[-1.0, 1.0]]), senses=np.array(["<="]),
                             rhs=np.array([5.0]), **columns)
    assert [assert_matches_oracles(lp) for lp in (free, capped, uncapped)] == [
        "optimal", "optimal", "unbounded"]
    assert solve_lp(capped).x.tolist() == [5.0, 0.0]
    # without rows: a column toward +inf, one toward its finite bound, a free one
    rowless = [LinearProgram(np.array([2.0, -1.0]), np.array([0.0, -np.inf]),
                             np.array([np.inf, 1.0]), np.zeros((0, 2)), np.zeros(0, dtype="U2"),
                             np.zeros(0), sense=sense) for sense in ("max", "min")]
    rowless.append(LinearProgram(np.zeros(1), np.array([-np.inf]), np.array([np.inf]),
                                 np.zeros((0, 1)), np.zeros(0, dtype="U2"), np.zeros(0)))
    assert [assert_matches_oracles(lp) for lp in rowless] == ["unbounded", "optimal", "optimal"]
    for seed in range(20):
        assert_matches_oracles(random_lp(np.random.default_rng([86, seed]), max_rows=0))
    # neither rows nor columns: the constant alone
    nothing = dataclasses.replace(empty_lp([]), constant=2.5)
    result = solve_lp(nothing)
    assert (result.status, result.objective, result.iterations) == ("optimal", 2.5, 2)


def test_a_worst_case_markets_epigraph_column_starts_dual_infeasible(monkeypatch):
    """The worst-case agent's epigraph column is free with a nonzero cost,
    so the slack start holds it at 0 with a reduced cost of the wrong sign;
    each cell's LP still matches the refactoring loops and the oracles."""
    starts = []
    init = simplex._Simplex.__init__

    def spy(self, lp, start=None):
        init(self, lp, start)
        if start is None and self.free is not None:
            starts.append(bool(np.any(self.cost[self.free] != 0.0)))

    monkeypatch.setattr(simplex._Simplex, "__init__", spy)
    program = assemble_welfare(*commitment_bids("worst_case"))
    for cell in ((0,), (1,)):
        lp = build_lp(program, cell)
        assert assert_matches_refactoring_loop(lp).status == "optimal"
        assert assert_matches_oracles(lp) == "optimal"
    assert starts and all(starts)


def assert_column_state(state):
    """Basic columns hold 0 in ``nonbasic``, nonbasic ones a finite bound, or 0
    if free; ``improving`` and ``free`` follow from these and the bounds."""
    basic = np.zeros(state.total, dtype=bool)
    basic[state.basis] = True
    assert state.basis.dtype == np.intp and basic.sum() == state.m
    value, lower, upper = state.nonbasic, state.lower, state.upper
    free = ~basic & np.isinf(lower) & np.isinf(upper)
    at_bound = np.isfinite(value) & ((value == lower) | (value == upper))
    assert np.all(np.where(basic | free, value == 0.0, at_bound))
    movable = ~basic & (lower < upper)
    improving = np.where(movable & (value == lower), -1.0,
                         np.where(movable & (value == upper), 1.0, 0.0))
    assert same_bits(state.improving, improving)
    assert (state.free is None and not free.any()) or np.array_equal(state.free, free)


def test_column_state_holds_after_every_pivot(monkeypatch):
    """Over both loops of cold solves: the state as read from the slack
    start, after every pivot, and the bound lists of each loop."""
    pivots, freed = [], []
    pivot, dual_pivot = simplex._Simplex._pivot, simplex._Simplex._dual_pivot

    def checked(step):
        def spy(self):
            had_free = self.free is not None
            assert_column_state(self)
            verdict = step(self)
            assert_column_state(self)
            assert self.lower_list == self.lower.tolist()
            assert self.upper_list == self.upper.tolist()
            pivots.append(verdict is None)
            freed.append(had_free and self.free is not None and not self.free.any())
            return verdict
        return spy

    monkeypatch.setattr(simplex._Simplex, "_pivot", checked(pivot))
    monkeypatch.setattr(simplex._Simplex, "_dual_pivot", checked(dual_pivot))
    # the fixed slack of the degenerate row x0 - x1 = 0 starts basic and
    # leaves when a column enters; fixed x0 cannot move it
    fixed_leaves = LinearProgram(np.array([0.0, 1.0]), np.zeros(2), np.array([0.0, 5.0]),
                                 np.array([[1.0, -1.0]]), np.array(["="]), np.zeros(1))
    # free x0 enters, which leaves the free mask empty
    free_enters = LinearProgram(np.ones(2), np.array([-np.inf, 0.0]), np.array([np.inf, 5.0]),
                                np.array([[1.0, -1.0]]), np.array(["="]), np.zeros(1))
    rng = np.random.default_rng(83)
    lps = [random_lp(rng) for _ in range(300)] + [long_lp(seed) for seed in LONG_SEEDS]
    for lp in lps + [fixed_leaves, free_enters]:
        solve_lp(lp)
    assert sum(pivots) > 1000
    assert any(freed)


def test_each_basis_change_keeps_binv_the_inverse(monkeypatch):
    """After every basis change Binv @ B is the identity within 1e-10. These
    corpora stay within 8e-11 on long_lp seed 0, whose bases reach a
    condition number of 8e4, within 7e-12 on seeds 1 and 2, and within
    6e-14 on the rest."""
    changes = []
    replace = simplex._Simplex._replace

    def spy_replace(self, pos, col, w, to_upper):
        replace(self, pos, col, w, to_upper)
        identity = self.Binv @ self.A[:, self.basis]
        assert np.abs(identity - np.eye(self.m)).max() <= 1e-10
        changes.append(pos)

    monkeypatch.setattr(simplex._Simplex, "_replace", spy_replace)
    rng = np.random.default_rng(83)
    lps = [random_lp(rng) for _ in range(300)] + [long_lp(seed) for seed in range(3)]
    lps += [ladder_lp(8, 6, 2, 0), ladder_lp(8, 8, 4, 0)]
    for lp in lps + market_lps():
        solve_lp(lp)
    for start, lp in warm_cases():
        solve_lp(lp, start)
    assert len(changes) > 1000


@pytest.mark.parametrize(
    "lower, upper, matrix, x",
    [
        # x0 starts at its upper bound 3, and the fixed slack of the row at 2
        ([-np.inf, 3.0], [3.0, 5.0], [[1.0, -1.0]], [3.0, 3.0]),
        # free x0 starts at 0, and both copies of the row are redundant
        ([-np.inf, 0.0], [np.inf, 5.0], [[1.0, -1.0], [-1.0, 1.0]], [5.0, 5.0]),
    ],
    ids=["from_its_upper_bound", "free"],
)
def test_phase_2_solves_the_row_x0_minus_x1(lower, upper, matrix, x):
    # each row's slack is fixed at zero and starts basic; the dual simplex
    # moves it back to zero, in a redundant row one stays basic at zero, and
    # the primal simplex, the solve's second phase, ends at x
    rows = len(matrix)
    lp = LinearProgram(np.ones(2), np.array(lower), np.array(upper), np.array(matrix),
                       np.array(["="] * rows), np.zeros(rows))
    result = solve_lp(lp)
    assert result.status == "optimal" and result.x.tolist() == x


@pytest.mark.parametrize("loop", ["dual", "primal"])
def test_pivot_limit_names_the_loop_and_the_cell(monkeypatch, loop):
    name = "_dual_pivot" if loop == "dual" else "_pivot"
    monkeypatch.setattr(simplex._Simplex, name, lambda self: None)
    program = assemble_welfare(*commitment_bids("expectation"))
    with pytest.raises(NumericalFailure) as failure:
        clear(program)
    m, n = build_lp(program, (0,)).matrix.shape
    assert re.fullmatch(rf"cell \(0,\), welfare LP {m}x{n}: simplex exceeded {200 * (m + n + 1)} "
                        rf"iterations in the {loop} simplex", str(failure.value))


def test_inverse_is_rebuilt_on_cadence_and_before_each_verdict(monkeypatch):
    """No loop starts by inverting, since Binv is the identity at the slack
    start and an inverse from then on, and nothing inverts between the dual
    simplex's last pricing and the primal's first: the primal simplex starts
    on the inverse that the dual simplex's verdict was confirmed on."""
    inverted_at, fresh_verdicts, log = [], [], []
    refactor, loop = simplex._Simplex._refactor, simplex._Simplex._loop
    pivot, dual_pivot = simplex._Simplex._pivot, simplex._Simplex._dual_pivot

    def spy_refactor(self):
        inverted_at.append(self.iterations)
        log.append("invert")
        refactor(self)

    def spy_pivot(self):
        log.append("pivot")
        return pivot(self)

    def spy_dual_pivot(self):
        log.append("pivot")
        return dual_pivot(self)

    def spy_loop(self, step, where):
        log.append("run")
        verdict = loop(self, step, where)
        fresh = np.linalg.inv(self.A[:, self.basis])
        fresh_verdicts.append(np.array_equal(self.Binv, fresh))
        return verdict

    monkeypatch.setattr(simplex._Simplex, "_refactor", spy_refactor)
    monkeypatch.setattr(simplex._Simplex, "_pivot", spy_pivot)
    monkeypatch.setattr(simplex._Simplex, "_dual_pivot", spy_dual_pivot)
    monkeypatch.setattr(simplex._Simplex, "_loop", spy_loop)
    cases = [(long_lp(seed), True) for seed in LONG_SEEDS] + [(lp, False) for lp in market_lps()]
    for lp, long in cases:
        inverted_at.clear()
        fresh_verdicts.clear()
        log.clear()
        result = solve_lp(lp)
        if long:
            assert result.iterations > 2 * REFACTOR_EVERY
            # no bound flips here, so each iteration between inversions is one
            # basis change applied as an eta update
            assert max(np.diff(inverted_at)) <= REFACTOR_EVERY, inverted_at
        assert fresh_verdicts and all(fresh_verdicts)
        starts = [i for i, event in enumerate(log) if event == "run"]
        assert len(starts) == (1 if result.status == "infeasible" else 2), log
        assert all(log[i + 1] == "pivot" for i in starts), log
        assert all(log[i - 1] == "pivot" for i in starts[1:]), log


def test_status_and_objective_match_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(85)
    lps = [ladder_lp(*rung, seed) for seed, rung in enumerate(
        [(4, 4, 1), (8, 4, 2), (8, 8, 4)]
    )]
    for _ in range(60):
        lp = random_lp(rng, max_vars=30, max_rows=20)
        # boxed columns, so each LP is optimal or infeasible for both solvers
        lower = np.where(np.isfinite(lp.lower), lp.lower, -10.0)
        upper = np.where(np.isfinite(lp.upper), lp.upper, 10.0)
        lps.append(LinearProgram(lp.objective, lower, upper, lp.matrix, lp.senses, lp.rhs,
                                 lp.sense))
    for lp in lps:
        result = solve_lp(lp)
        reference = highs_optimum(lp)
        assert (result.status == "infeasible") == (reference is None)
        if reference is not None:
            optimum = reference[0] + lp.constant
            scale = max(1.0, abs(optimum))
            assert result.objective == pytest.approx(optimum, abs=1e-7 * scale)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"lower": np.array([np.nan, 0.0])}, "lower bound exceeds"),
        ({"upper": np.array([1.0, np.nan])}, "lower bound exceeds"),
        ({"upper": np.array([-1.0, 1.0])}, "lower bound exceeds"),
        ({"objective": np.array([np.inf, 0.0])}, "objective coefficients"),
        ({"matrix": np.array([[np.nan, 1.0]])}, "row coefficients"),
        ({"rhs": np.array([np.inf])}, "row coefficients"),
        ({"senses": np.array(["<"])}, "unknown row sense '<'"),
        ({"matrix": np.ones((1, 3))}, "shapes"),
        ({"senses": np.array(["<=", "<="])}, "shapes"),
        ({"lower": np.zeros(3)}, "matching shapes"),
        ({"sense": "maximize"}, "objective sense"),
        ({"lower": np.array([0.0, np.nan])}, "^column 1: lower bound exceeds its upper bound$"),
        ({"lower": np.array([0.0, 2.0])}, "^column 1: lower bound exceeds its upper bound$"),
        ({"lower": np.array([0.0, np.inf]), "upper": np.array([1.0, np.inf])},
         "^column 1: both bounds are inf$"),
        ({"lower": np.array([-np.inf, 0.0]), "upper": np.array([-np.inf, 1.0])},
         "^column 0: both bounds are -inf$"),
        ({"constant": np.nan}, "objective coefficients"),
        ({"constant": -np.inf}, "objective coefficients"),
    ],
)
def test_lp_rejects_malformed_input(change, message):
    fields = dict(objective=np.ones(2), lower=np.zeros(2), upper=np.ones(2),
                  matrix=np.ones((1, 2)), senses=np.array(["<="]), rhs=np.ones(1))
    fields.update(change)
    with pytest.raises(ValueError, match=message):
        LinearProgram(**fields)


# --- warm starts --------------------------------------------------------------

def tightened(rng, lp, x):
    """``lp`` with random columns tightened to a point or a sub-box of their
    bounds, drawn within 3 of ``x`` where a bound is infinite."""
    lower, upper = lp.lower.copy(), lp.upper.copy()
    for j in rng.choice(lp.num_vars, size=int(rng.integers(1, lp.num_vars + 1)), replace=False):
        low = lower[j] if np.isfinite(lower[j]) else x[j] - 3.0
        high = upper[j] if np.isfinite(upper[j]) else x[j] + 3.0
        a, b = sorted(rng.uniform(low, high, 2).round(1))
        lower[j], upper[j] = (a, a) if rng.random() < 0.5 else (a, b)
    return dataclasses.replace(lp, lower=lower, upper=upper)


def warm_cases():
    """(start, child LP) pairs: children of the optimal seed-83 ``random_lp``
    draws with rows, and a grandchild of each optimal child, started from
    its parent's final state."""
    rng, draw = np.random.default_rng(83), np.random.default_rng(84)
    for lp in (random_lp(rng) for _ in range(300)):
        parent = solve_lp(lp)
        if parent.status != "optimal" or not lp.rhs.size:
            continue
        for _ in range(10):
            child = tightened(draw, lp, parent.x)
            yield parent.state, child
            outcome = solve_lp(child, start=parent.state)
            if outcome.status == "optimal":
                yield outcome.state, tightened(draw, child, outcome.x)


def test_a_warm_start_agrees_with_a_cold_solve_on_tightened_lps():
    statuses = {}
    for start, lp in warm_cases():
        cold, warm = solve_lp(lp), solve_lp(lp, start=start)
        assert warm.status == cold.status
        statuses[warm.status] = statuses.get(warm.status, 0) + 1
        if warm.status == "optimal":
            scale = max(1.0, float(np.max(np.abs(lp.rhs))))
            assert abs(warm.objective - cold.objective) <= simplex.FEAS_TOL * scale
    assert statuses.keys() == {"optimal", "infeasible"}
    assert min(statuses.values()) >= 100, statuses


def test_column_state_holds_after_every_dual_pivot(monkeypatch):
    """The state also holds as read from the start, and the dual simplex's
    last verdict is reached on a fresh inverse."""
    calls = []  # (verdict, basis changes since the last inversion)
    dual_pivot = simplex._Simplex._dual_pivot

    def spy(self):
        assert_column_state(self)
        verdict = dual_pivot(self)
        assert_column_state(self)
        calls.append((verdict, self.updates))
        return verdict

    monkeypatch.setattr(simplex._Simplex, "_dual_pivot", spy)
    pivots = 0
    for start, lp in warm_cases():
        calls.clear()
        solve_lp(lp, start=start)
        verdict, updates = calls[-1]
        assert verdict in ("feasible", "infeasible") and updates == 0
        pivots += sum(verdict is None for verdict, _ in calls)
    assert pivots > 100


def claimed_optimum(monkeypatch, objective, row_1, start, sense="max", bounds=(0.0, 5.0)):
    """solve_lp with both loops stopped at once, so the start's basis is
    the claimed optimum that ``_validate_solution`` checks. Columns 0 and 1
    are x0 in [0, 5] and x1 in ``bounds``, columns 2 and 3 the slacks of
    row 0, x0 <= 5, and row 1, x1 ``row_1`` (a sense and an rhs); ``start``
    is (basis, improving), or None for the slack basis."""
    monkeypatch.setattr(simplex._Simplex, "run_dual", lambda self: "feasible")
    monkeypatch.setattr(simplex._Simplex, "run", lambda self: "optimal")
    lp = LinearProgram(np.array(objective, dtype=float), np.array([0.0, bounds[0]]),
                       np.array([5.0, bounds[1]]), np.eye(2), np.array(["<=", row_1[0]]),
                       np.array([5.0, row_1[1]]), sense=sense)
    if start is not None:
        start = simplex.ColumnState(np.array(start[0]), np.array(start[1], dtype=float))
    return solve_lp(lp, start=start)


@pytest.mark.parametrize("row_1, start, message", [
    # x1 basic at 7 above its bound 5
    (("=", 7.0), ([2, 1], [-1, 0, 0, 0]), "variable 1 is 2.000e+00 outside its bounds"),
    # x1 at its upper bound 5 violates row 1
    (("<=", 1.0), ([2, 3], [-1, 1, 0, 0]), "row 1's slack is 4.000e+00 outside its bounds"),
    ((">=", 6.0), ([2, 3], [-1, 1, 0, 0]), "row 1's slack is 1.000e+00 outside its bounds"),
    (("=", 6.0), ([2, 3], [-1, 1, 0, 0]), "row 1's slack is 1.000e+00 outside its bounds"),
], ids=["variable", "le_row", "ge_row", "eq_row"])
def test_a_claimed_optimum_outside_its_bounds_names_the_column(
        monkeypatch, row_1, start, message):
    with pytest.raises(NumericalFailure) as failure:
        claimed_optimum(monkeypatch, [1.0, 1.0], row_1, start)
    assert str(failure.value) == message


@pytest.mark.parametrize("sense, row_1, start, bounds, message", [
    # x1 free, nonbasic at 0, with the max's cost -1
    ("max", ("<=", 1.0), None, (-np.inf, np.inf),
     "variable 1 inside its bounds has reduced cost -1.000e+00"),
    ("max", ("<=", 1.0), ([2, 3], [-1, -1, 0, 0]), (0.0, 5.0),
     "variable 1 at its lower bound has reduced cost -1.000e+00"),
    ("min", ("<=", 10.0), ([2, 3], [-1, 1, 0, 0]), (0.0, 5.0),
     "variable 1 at its upper bound has reduced cost 1.000e+00"),
    # x1 basic at 1, row 1 tight, but the optimum is x1 = 5 (max) or 0 (min):
    # the row's dual has the wrong sign, and x and every structural reduced
    # cost look optimal
    ("max", (">=", 1.0), ([2, 1], [-1, 0, 0, 1]), (0.0, 5.0),
     "row 1's slack at its upper bound has reduced cost 1.000e+00"),
    ("min", ("<=", 1.0), ([2, 1], [-1, 0, 0, -1]), (0.0, 5.0),
     "row 1's slack at its lower bound has reduced cost -1.000e+00"),
], ids=["interior", "at_lower", "at_upper", "ge_row_dual", "le_row_dual"])
def test_a_claimed_optimum_that_can_improve_names_the_column(
        monkeypatch, sense, row_1, start, bounds, message):
    with pytest.raises(NumericalFailure) as failure:
        claimed_optimum(monkeypatch, [0.0, 1.0], row_1, start, sense, bounds)
    assert str(failure.value) == f"{message}, so the objective can still improve"


def test_a_start_with_a_singular_basis_raises():
    lp = LinearProgram(np.ones(2), np.zeros(2), np.full(2, 5.0), np.eye(2),
                       np.array(["<=", "<="]), np.full(2, 5.0))
    start = simplex.ColumnState(np.array([0, 0]), np.zeros(4))
    with pytest.raises(NumericalFailure, match="^singular basis: "):
        solve_lp(lp, start=start)


# --- the long step: a dual pivot passes the breakpoints boxed columns flip past

def short_step(state):
    """(position, entering column) of the dual pivot before the long step,
    on the state's own ``Binv``: the first near-largest violation leaves,
    and of the columns whose ratio is within PIVOT_TOL of the least, the
    largest |alpha| enters, then the smallest index; None for a verdict."""
    basis = state.basis
    if not basis.size:
        return None
    x_basic = state.Binv @ (state.b - state.A @ state.nonbasic)
    below, above = state.lower[basis] - x_basic, x_basic - state.upper[basis]
    violation = np.maximum(below, above)
    if violation.max() <= simplex.FEAS_TOL * state.scale:
        return None
    pos = int((violation >= violation.max() - state.tol).argmax())
    toward = (1.0 if above[pos] > below[pos] else -1.0) * (state.Binv[pos] @ state.A)
    eligible = (state.improving * toward < 0) & (np.abs(toward) > PIVOT_TOL)
    if state.free is not None:
        eligible |= state.free & (np.abs(toward) > PIVOT_TOL)
    candidates = np.flatnonzero(eligible)
    if not candidates.size:
        return None
    y = state.cost[basis] @ state.Binv
    reduced = state.cost[candidates] - state.A[:, candidates].T @ y
    ratios = np.maximum(reduced / toward[candidates], 0.0)
    size = np.where(ratios <= ratios.min() + PIVOT_TOL, np.abs(toward[candidates]), -1.0)
    return pos, int(candidates[size.argmax()])


def solve_long_step_corpus():
    """The seed-83 ``random_lp`` draws, and ``clear`` on
    ``random_convex_market`` and ``random_commitment_market`` seeds 0-19."""
    rng = np.random.default_rng(83)
    for _ in range(300):
        solve_lp(random_lp(rng))
    for seed in range(20):
        clear(assemble_welfare(*random_convex_market(seed)))
        clear(assemble_welfare(*random_commitment_market(seed)))


def test_a_dual_pivot_that_passes_no_breakpoint_is_the_short_step(monkeypatch):
    pivots = {"short": 0, "long": 0}
    dual_pivot = simplex._Simplex._dual_pivot

    def spy(self):
        expected = short_step(self)
        basis, improving = self.basis.copy(), self.improving.copy()
        verdict = dual_pivot(self)
        if verdict is None and (improving * self.improving < 0).any():
            pivots["long"] += 1
        elif verdict is None:
            (pos,) = np.flatnonzero(basis != self.basis)
            assert (int(pos), int(self.basis[pos])) == expected
            pivots["short"] += 1
        return verdict

    monkeypatch.setattr(simplex._Simplex, "_dual_pivot", spy)
    solve_long_step_corpus()
    assert min(pivots.values()) >= 100, pivots


def test_a_long_step_flips_only_while_the_leaving_row_stays_violated(monkeypatch):
    """After a dual pivot's flips and before its basis change, the leaving
    value is still beyond the bound it leaves for by more than FEAS_TOL *
    scale, and each flipped column sits at its other finite bound."""
    flips, before = [], {}
    dual_pivot, replace = simplex._Simplex._dual_pivot, simplex._Simplex._replace

    def spy_dual_pivot(self):
        before.update(improving=self.improving.copy(), nonbasic=self.nonbasic.copy())
        verdict = dual_pivot(self)
        before.clear()
        return verdict

    def spy_replace(self, pos, col, w, to_upper):
        if before:  # a dual pivot's basis change
            flipped = np.flatnonzero(before["improving"] * self.improving < 0)
            if flipped.size:
                leaving = self.basis[pos]
                value = (self.Binv @ (self.b - self.A @ self.nonbasic))[pos]
                beyond = value - self.upper[leaving] if to_upper else self.lower[leaving] - value
                assert beyond > simplex.FEAS_TOL * self.scale
                assert col not in flipped
                lower, upper = self.lower[flipped], self.upper[flipped]
                assert np.isfinite(lower).all() and np.isfinite(upper).all()
                was_lower = before["improving"][flipped] < 0
                assert np.array_equal(before["nonbasic"][flipped], np.where(was_lower, lower, upper))
                assert np.array_equal(self.nonbasic[flipped], np.where(was_lower, upper, lower))
                flips.append(flipped.size)
        replace(self, pos, col, w, to_upper)

    monkeypatch.setattr(simplex._Simplex, "_dual_pivot", spy_dual_pivot)
    monkeypatch.setattr(simplex._Simplex, "_replace", spy_replace)
    solve_long_step_corpus()
    assert len(flips) >= 100 and max(flips) >= 4


def boxed_lps(seed, count):
    """``random_lp`` draws with every infinite bound replaced by -10 or 10,
    each once from the slack start and once from the slack basis with every
    structural column at the bound its cost does not prefer, a dual
    infeasible start wherever a cost is nonzero."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lp = random_lp(rng, max_vars=5, max_rows=3)
        lp = dataclasses.replace(lp, lower=np.where(np.isfinite(lp.lower), lp.lower, -10.0),
                                 upper=np.where(np.isfinite(lp.upper), lp.upper, 10.0))
        m, n = lp.matrix.shape
        prefers_upper = (lp.objective > 0) == (lp.sense == "max")
        improving = np.concatenate([np.where(prefers_upper, -1.0, 1.0), np.zeros(m)])
        yield lp, None
        yield lp, simplex.ColumnState(np.arange(n, n + m), improving)


def test_boxed_lps_match_the_oracles_from_dual_infeasible_starts_too(monkeypatch):
    long_steps = []
    long_step = simplex._Simplex._long_step

    def spy(self, *args):
        long_steps.append(args)
        return long_step(self, *args)

    monkeypatch.setattr(simplex._Simplex, "_long_step", spy)
    statuses = {"optimal": 0, "infeasible": 0}
    highs = importlib.util.find_spec("scipy") is not None
    for lp, start in boxed_lps(87, 100):
        result = solve_lp(lp, start)
        verdicts = [vertex_verdict(lp)]
        for status, objective in verdicts + ([highs_verdict(lp)] if highs else []):
            assert result.status == status
            if status == "optimal":
                assert result.objective == pytest.approx(objective, abs=1e-9)
        statuses[result.status] += 1
    assert min(statuses.values()) >= 20, statuses
    assert len(long_steps) >= 20


@pytest.mark.parametrize("matrix, rhs", [
    # x0 + x1 + x2 reaches 6 at most
    ([[1.0, 1.0, 1.0]], [10.0]),
    # either row alone holds at a corner, but together they need x0 >= 2.25
    ([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]], [3.0, 1.5]),
], ids=["one_row", "two_rows"])
def test_a_boxed_lp_that_no_flips_make_feasible_is_infeasible_on_a_fresh_inverse(
        monkeypatch, matrix, rhs):
    """min x0 + 2 x1 + 3 x2 over [0, 2]^3 with ``matrix @ x >= rhs``: the
    slack start is dual feasible, a long step flips columns to their upper
    bounds, and the infeasible verdict comes on a fresh inverse."""
    calls, long_steps = [], []
    dual_pivot, long_step = simplex._Simplex._dual_pivot, simplex._Simplex._long_step

    def spy(self):
        verdict = dual_pivot(self)
        calls.append((verdict, self.updates))
        return verdict

    def spy_long_step(self, *args):
        long_steps.append(args)
        return long_step(self, *args)

    monkeypatch.setattr(simplex._Simplex, "_dual_pivot", spy)
    monkeypatch.setattr(simplex._Simplex, "_long_step", spy_long_step)
    rows = len(rhs)
    lp = LinearProgram(np.array([1.0, 2.0, 3.0]), np.zeros(3), np.full(3, 2.0),
                       np.array(matrix), np.array([">="] * rows), np.array(rhs), sense="min")
    assert solve_lp(lp).status == "infeasible"
    assert calls[-1] == ("infeasible", 0) and long_steps
    if importlib.util.find_spec("scipy") is not None:
        assert highs_verdict(lp) == ("infeasible", None)


def test_a_long_step_enters_the_largest_alpha_of_the_group_it_stops_at(monkeypatch):
    """min x0 + 2 x1 + 4 x2 over [0, 2]^3 with x0 + x1 + 2 x2 >= 5: from the
    slack start the breakpoints are x0's at 1 and x1's and x2's at 2. x0's
    flip leaves 3 of the violation, and the next group stops the walk, so x2,
    of the larger |alpha|, enters at 1.5 and the dual simplex ends."""
    entered = []
    replace = simplex._Simplex._replace

    def spy(self, pos, col, w, to_upper):
        entered.append((col, self.nonbasic[:3].tolist()))
        replace(self, pos, col, w, to_upper)

    monkeypatch.setattr(simplex._Simplex, "_replace", spy)
    lp = LinearProgram(np.array([1.0, 2.0, 4.0]), np.zeros(3), np.full(3, 2.0),
                       np.array([[1.0, 1.0, 2.0]]), np.array([">="]), np.array([5.0]),
                       sense="min")
    result = solve_lp(lp)
    assert entered == [(2, [2.0, 0.0, 0.0])]
    assert result.status == "optimal" and result.x.tolist() == [2.0, 0.0, 1.5]
