"""LP solver: golden duals, oracle cross-checks, degeneracy, status detection."""

import numpy as np
import pytest

from statemarket.clearing import LinearProgram, LPRow, solve_lp
from statemarket.market import assemble_welfare
from statemarket.clearing.core import build_lp

from instances import price_formation_bids
from oracles import lp_vertex_oracle


def test_single_bound_dual():
    lp = LinearProgram(
        objective=np.array([1.0]),
        lower=np.array([-np.inf]),
        upper=np.array([np.inf]),
        rows=(LPRow((0,), (1.0,), "<=", 1.0),),
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
        rows = []
        for _ in range(m):
            idx = tuple(range(n))
            coeffs = tuple(rng.uniform(-2, 2, n).tolist())
            sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
            midpoint = sum(
                c * (lo + hi) / 2 for c, lo, hi in zip(coeffs, lower, upper)
            )
            rows.append(LPRow(idx, coeffs, sense, midpoint + float(rng.uniform(-1, 1))))
        lp = LinearProgram(
            objective=rng.uniform(-3, 3, n),
            lower=lower,
            upper=upper,
            rows=tuple(rows),
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
        rows=(LPRow((0,), (1.0,), ">=", 2.0),),
        sense="max",
    )
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        lower=np.array([0.0, 0.0]),
        upper=np.array([np.inf, 5.0]),
        rows=(LPRow((0, 1), (-1.0, 1.0), "<=", 3.0),),
        sense="max",
    )
    assert solve_lp(lp).status == "unbounded"


def test_degenerate_lp_terminates():
    # many redundant rows through the optimum exercise Bland's rule
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        lower=np.zeros(2),
        upper=np.full(2, np.inf),
        rows=(
            LPRow((0, 1), (1.0, 1.0), "<=", 2.0),
            LPRow((0, 1), (2.0, 2.0), "<=", 4.0),
            LPRow((0, 1), (1.0, 2.0), "<=", 3.0),
            LPRow((0, 1), (2.0, 1.0), "<=", 3.0),
        ),
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
        rows=(LPRow((0, 1), (1.0, -1.0), "=", 0.0),),
        sense="max",
    )
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.x[0] == pytest.approx(4.0)


@pytest.mark.parametrize(
    "rows, status",
    [
        ((), "optimal"),
        ((LPRow((), (), "<=", 1.0),), "optimal"),
        ((LPRow((), (), ">=", 1.0),), "infeasible"),
    ],
)
def test_lp_without_variables(rows, status):
    # an agent whose only contract is pinned contributes such an LP
    lp = LinearProgram(np.zeros(0), np.zeros(0), np.zeros(0), rows, sense="max")
    result = solve_lp(lp)
    assert result.status == status
    if status == "optimal":
        assert result.objective == 0.0 and result.x.shape == (0,)


def test_duplicated_equality_row_drives_out_its_artificial():
    # the repeated row leaves one artificial basic at zero after phase 1; it
    # must leave the basis before phase 2 without moving the optimum
    row = LPRow((0, 1), (1.0, 1.0), "=", 1.0)
    lp = LinearProgram(
        objective=np.array([1.0, 2.0]),
        lower=np.zeros(2),
        upper=np.full(2, np.inf),
        rows=(row, row),
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
        rows = (
            LPRow(tuple(range(n)), tuple(rng.uniform(0.1, 1, n).tolist()), "<=", 4.0),
        )
        lp = LinearProgram(rng.uniform(-2, 3, n), lower, upper, rows, sense="max")
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
        rows=(LPRow((0, 1), (1.0, 1.0), "<=", 10.0),),
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
        rows=(
            LPRow(tuple(range(n)), tuple(rng.uniform(-1, 1, n).tolist()), "=", 1.0),
            LPRow(tuple(range(n)), tuple(rng.uniform(-1, 1, n).tolist()), "<=", 2.0),
        ),
        sense="max",
    )
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.duals, b.duals)
    assert a.iterations == b.iterations
