"""LP solver: golden duals, oracle cross-checks (vertex enumeration, the
refactor-every-pivot loop, HiGHS), degeneracy, status detection."""

import numpy as np
import pytest

from statemarket.clearing import LinearProgram, solve_lp
from statemarket.clearing import simplex
from statemarket.clearing.simplex import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FREE,
    PIVOT_TOL,
    REFACTOR_EVERY,
)
from statemarket.errors import NumericalFailure
from statemarket.market import MarketDimensions, assemble_welfare
from statemarket.clearing.core import build_lp

from instances import (
    _consumer,
    _producer,
    commitment_bids,
    price_formation_bids,
    random_convex_market,
)
from oracles import highs_optimum, lp_vertex_oracle


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
    assert result.objective + program.objective_constant == pytest.approx(780.0)
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


def test_duplicated_equality_row_drives_out_its_artificial():
    # the repeated row leaves one artificial basic at zero after phase 1; it
    # must leave the basis before phase 2 without moving the optimum
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


# --- updated inverse against the refactor-every-pivot loop --------------------

def refactoring_run(self, cost):
    """The simplex loop before the updated inverse: three fresh basis solves
    per pivot. Kept as the reference the updated-inverse loop must match bit
    for bit whenever both take the same pivots."""
    tol = PIVOT_TOL * self.scale
    movable = ~(self.upper - self.lower <= 0.0)
    limit = 200 * (self.total + 1)
    for _ in range(limit):
        self.iterations += 1
        y = self._solve_basis(cost[self.basis], transpose=True)
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
            self.status[entering] = AT_UPPER if direction > 0 else AT_LOWER
            continue
        self.basis[leaving_pos] = entering
        self.status[entering] = BASIC
        self.status[leaving_col] = AT_UPPER if hit_upper else AT_LOWER
    raise NumericalFailure(f"simplex exceeded {limit} iterations")


def solve_lp_refactoring(lp):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._Simplex, "run", refactoring_run)
        return solve_lp(lp)


def same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_refactoring_loop(lp):
    fast, reference = solve_lp(lp), solve_lp_refactoring(lp)
    assert fast.status == reference.status
    assert fast.iterations == reference.iterations
    for field in ("x", "duals", "reduced_costs"):
        assert same_bits(getattr(fast, field), getattr(reference, field)), field
    return fast


def random_lp(rng, max_vars=8, max_rows=6):
    """Boxed, one-sided, free and fixed columns; some rows repeated exactly.

    Coefficients on a 0.1 grid make degenerate vertices and ratio ties common.
    """
    n = int(rng.integers(1, max_vars + 1))
    kind = rng.integers(0, 5, n)  # boxed, lower only, upper only, free, fixed
    lower = rng.uniform(-5, 0, n).round(1)
    upper = lower + rng.uniform(0.5, 6, n).round(1)
    lower = np.where((kind == 2) | (kind == 3), -np.inf, lower)
    upper = np.where((kind == 1) | (kind == 3), np.inf, np.where(kind == 4, lower, upper))
    rows, senses, rhs = [], [], []
    for _ in range(int(rng.integers(0, max_rows + 1))):
        idx = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        row = np.zeros(n)
        row[idx] += rng.uniform(-2, 2, idx.size).round(1)
        rows.append(row)
        senses.append(("<=", ">=", "=")[int(rng.integers(0, 3))])
        rhs.append(round(float(rng.uniform(-4, 4)), 1))
        if rng.random() < 0.2:
            rows.append(row)
            senses.append(senses[-1])
            rhs.append(rhs[-1])
    sense = "max" if rng.random() < 0.5 else "min"
    return LinearProgram(rng.uniform(-3, 3, n).round(1), lower, upper,
                         np.array(rows).reshape(-1, n), np.array(senses, dtype="U2"),
                         np.array(rhs), sense)


def long_lp(seed, rows=20, columns=40):
    """Nonnegative columns without upper bounds, so no pivot is a bound flip.
    Seeds 0-2 each take more than 2 * REFACTOR_EVERY pivots."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0, 1, (rows, columns)) * (rng.random((rows, columns)) < 0.6)
    senses = ["<="] * (rows - rows // 3) + [">="] * (rows // 3)
    rhs = rng.uniform(1, 10, rows)
    objective = rng.uniform(0, 3, columns)
    return LinearProgram(objective, np.zeros(columns), np.full(columns, np.inf),
                         matrix, np.array(senses), rhs)


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

    def spy(self, cost, tol, movable):
        basis = list(self.basis)
        verdict = pivot(self, cost, tol, movable)
        flips.append(verdict is None and basis == self.basis)
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
    assert assert_matches_refactoring_loop(lp).status == "optimal"
    assert any(flips)


def test_updated_inverse_matches_refactoring_loop_on_markets():
    lps = [build_lp(assemble_welfare(*random_convex_market(seed)), ()) for seed in range(8)]
    for risk in ("expectation", "worst_case"):  # commitment cells, some infeasible
        program = assemble_welfare(*commitment_bids(risk))
        lps += [build_lp(program, cell) for cell in ((0,), (1,))]
    for lp in lps:
        assert_matches_refactoring_loop(lp)


def test_updated_inverse_matches_refactoring_loop_on_long_lps():
    for seed in range(3):
        result = assert_matches_refactoring_loop(long_lp(seed))
        assert result.iterations > 2 * REFACTOR_EVERY


def test_inverse_is_rebuilt_on_cadence_and_before_each_verdict(monkeypatch):
    inverted_at, fresh_verdicts = [], []
    refactor, run = simplex._Simplex._refactor, simplex._Simplex.run

    def spy_refactor(self):
        inverted_at.append(self.iterations)
        refactor(self)

    def spy_run(self, cost):
        verdict = run(self, cost)
        fresh = np.linalg.inv(self.A[:, self.basis])
        fresh_verdicts.append(np.array_equal(self.Binv, fresh))
        return verdict

    monkeypatch.setattr(simplex._Simplex, "_refactor", spy_refactor)
    monkeypatch.setattr(simplex._Simplex, "run", spy_run)
    for seed in range(3):
        inverted_at.clear()
        fresh_verdicts.clear()
        result = solve_lp(long_lp(seed))
        assert result.iterations > 2 * REFACTOR_EVERY
        # no bound flips here, so each iteration between inversions is one
        # basis change applied as an eta update
        assert max(np.diff(inverted_at)) <= REFACTOR_EVERY, inverted_at
        assert fresh_verdicts and all(fresh_verdicts)


def ladder_lp(agents, states, periods, seed):
    rng = np.random.default_rng(seed)
    bids = [
        (_producer if a % 2 == 0 else _consumer)(rng, f"agent_{a}", states, periods)
        for a in range(agents)
    ]
    return build_lp(assemble_welfare(bids, MarketDimensions(1, periods, states)), ())


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
            scale = max(1.0, abs(reference[0]))
            assert result.objective == pytest.approx(reference[0], abs=1e-7 * scale)


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
    ],
)
def test_lp_rejects_malformed_input(change, message):
    fields = dict(objective=np.ones(2), lower=np.zeros(2), upper=np.ones(2),
                  matrix=np.ones((1, 2)), senses=np.array(["<="]), rhs=np.ones(1))
    fields.update(change)
    with pytest.raises(ValueError, match=message):
        LinearProgram(**fields)
