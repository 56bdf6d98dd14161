"""Branch and bound over commitments against cell enumeration.

``_best_cell`` must pick the cell that solving every cell in lexicographic
order picks, with the same LP solution bit for bit, and raise the same error
where enumeration raises one, although it meets cells in another order. Its
shortcuts (a bound inherited from an agreeing relaxation, the dive toward a
relaxation's rounding) are checked against what they stand for, and its LP
counts are pinned.
"""

from dataclasses import replace

import numpy as np
import pytest

from statemarket.clearing import clear, core
from statemarket.clearing.core import PRUNE_MARGIN, _best_cell
from statemarket.errors import Infeasible, NumericalFailure, Unbounded
from statemarket.market import ContractGrid, assemble_welfare

from instances import (
    commitment_bids,
    infeasible_commitment_market,
    random_commitment_market,
    random_convex_market,
    unbounded_commitment_market,
)
from oracles import assert_same_search, best_cell_by_enumeration


def _binaries(market) -> int:
    return len(assemble_welfare(*market).binaries)


# the oracle solves 2^B LPs per search, so the corpus keeps B <= 6
MARKETS = {
    **{f"random_{seed}": random_commitment_market(seed) for seed in range(70)
       if _binaries(random_commitment_market(seed)) <= 6},
    **{f"fixture_{risk}": commitment_bids(risk) for risk in ("expectation", "worst_case")},
}


def searches(program):
    """(agent, prices) of the welfare search and of every agent's at the
    cleared prices."""
    prices = clear(program).prices
    return [(None, None), *((a, prices) for a in range(len(program.bids)))]


@pytest.mark.parametrize("market", MARKETS.values(), ids=MARKETS.keys())
def test_search_picks_the_enumerated_cell(market):
    program = assemble_welfare(*market)
    for agent, prices in searches(program):
        assert_same_search(_best_cell(program, agent, prices),
                           best_cell_by_enumeration(program, agent, prices))


@pytest.mark.parametrize(
    "make, error, welfare_message",
    [
        (infeasible_commitment_market, Infeasible,
         "no binary assignment admits a feasible allocation"),
        (unbounded_commitment_market, Unbounded,
         "cell (0, 0, 0, 0, 0, 0), welfare LP 31x27: the objective is unbounded"),
    ],
    ids=["infeasible", "unbounded"],
)
def test_flawed_market_raises_what_enumeration_raises(make, error, welfare_message):
    bids, dims = make(1)
    program = assemble_welfare(bids, dims)
    unit = next(a for a, bid in enumerate(bids) if len(bid.decisions) >= 2)
    prices = ContractGrid(np.zeros(dims.shape))
    messages = []
    for agent, at in ((None, None), (unit, prices)):
        with pytest.raises(error) as found:
            _best_cell(program, agent, at)
        with pytest.raises(error) as expected:
            best_cell_by_enumeration(program, agent, at)
        assert str(found.value) == str(expected.value)
        messages.append(str(found.value))
    assert messages[0] == welfare_message


def lps_solved(monkeypatch) -> list:
    calls = []
    solve = core.solve_lp

    def counted(lp, start=None):
        calls.append(lp)
        return solve(lp, start=start)

    monkeypatch.setattr(core, "solve_lp", counted)
    return calls


def test_search_solves_fewer_lps_than_cells(monkeypatch):
    program = assemble_welfare(*random_commitment_market(6))
    assert len(program.binaries) == 6
    calls = lps_solved(monkeypatch)
    _best_cell(program)
    assert len(calls) < 2 ** len(program.binaries)


def test_a_relaxation_that_fails_numerically_prunes_nothing(monkeypatch):
    program = assemble_welfare(*random_commitment_market(6))
    expected = best_cell_by_enumeration(program)
    relaxations, leaves = [], []
    solve = core.solve_lp

    def fail_on_relaxations(lp, start=None):
        if lp.num_vars > program.objective.size:  # a relaxation has binary columns
            relaxations.append(lp)
            raise NumericalFailure("singular basis: test")
        leaves.append(lp)
        return solve(lp, start=start)

    monkeypatch.setattr(core, "solve_lp", fail_on_relaxations)
    found = _best_cell(program)
    assert relaxations
    assert len(leaves) == 2 ** len(program.binaries)
    assert_same_search(found, expected)


def test_a_warm_relaxation_that_fails_numerically_prunes_nothing(monkeypatch):
    """The root relaxation's bound is at least every cell's value, so with
    every relaxation after it failing the search solves every cell."""
    program = assemble_welfare(*random_commitment_market(6))
    expected = best_cell_by_enumeration(program)
    warm, leaves = [], []
    solve = core.solve_lp

    def fail_when_warm(lp, start=None):
        if start is not None:
            warm.append(lp)
            raise NumericalFailure("singular basis: test")
        if lp.num_vars == program.objective.size:
            leaves.append(lp)
        return solve(lp)

    monkeypatch.setattr(core, "solve_lp", fail_when_warm)
    found = _best_cell(program)
    assert warm
    assert len(leaves) == 2 ** len(program.binaries)
    assert_same_search(found, expected)


def test_an_inherited_bound_is_the_nodes_own_relaxation(monkeypatch):
    """Each node handed a bound would have solved a relaxation (a cell's LP at
    a leaf) whose optimum is that bound, within PRUNE_MARGIN relative."""
    node = core._Search.node
    inherited = []

    def check_bound(search, depth, bound, start):
        if bound is not None:
            lp = core.build_lp(search.program, search.cell, search.agent, search.prices,
                               search.own[depth:])
            own = core.solve_lp(lp)
            assert own.status == "optimal"
            assert abs(own.objective - bound[0]) <= PRUNE_MARGIN * max(1.0, abs(bound[0]))
            inherited.append(depth > 0)
        return node(search, depth, bound, start)

    monkeypatch.setattr(core._Search, "node", check_bound)
    for market in MARKETS.values():
        program = assemble_welfare(*market)
        for agent, prices in searches(program):
            _best_cell(program, agent, prices)
    assert sum(inherited) > 100


def test_an_integral_root_relaxation_names_the_first_cell_solved(monkeypatch):
    """When a search's root relaxation has integral binaries, the next LP it
    solves is that cell's: the search dives toward the rounding, and every
    node on the way inherits the root's bound."""
    build, solve = core.build_lp, core.solve_lp
    built, solved = {}, []

    def build_and_record(program, cell, agent=None, prices=None, free=()):
        lp = build(program, cell, agent, prices, free)
        built[id(lp)] = (lp, tuple(cell), list(free))  # lp held, so its id stays unique
        return lp

    def solve_and_record(lp, start=None):
        outcome = solve(lp, start=start)
        # a warm relaxation is derived from the root's LP, not built
        _, cell, free = built.get(id(lp), (lp, None, None))
        solved.append((cell, free, outcome))
        return outcome

    named = 0
    for market in MARKETS.values():
        program = assemble_welfare(*market)
        for agent, prices in searches(program):
            built.clear()
            solved.clear()
            with monkeypatch.context() as patch:
                patch.setattr(core, "build_lp", build_and_record)
                patch.setattr(core, "solve_lp", solve_and_record)
                _best_cell(program, agent, prices)
            (cell, free, root), *rest = solved
            if not free or root.status != "optimal":
                continue
            relaxed = root.x[-len(free):]
            if not set(relaxed) <= {0.0, 1.0}:
                continue
            rounded = list(cell)
            for b, value in zip(free, relaxed):
                rounded[b] = int(value)
            assert rest[0][:2] == (tuple(rounded), [])
            named += 1
    assert named >= 20


def test_an_infeasible_market_is_proved_by_its_root_relaxation(monkeypatch):
    calls = lps_solved(monkeypatch)
    for seed in range(10):
        program = assemble_welfare(*infeasible_commitment_market(seed))
        with pytest.raises(Infeasible):
            clear(program)
        (root,) = calls  # the relaxation freeing every binary
        assert root.num_vars == program.objective.size + len(program.binaries)
        calls.clear()


def test_clearing_the_random_corpus_solves_fewer_lps(monkeypatch):
    """Welfare and verification searches over ``random_commitment_market``
    seeds 0-69: 2 892 LPs before the root relaxation came first and bounds
    were inherited, 2 505 after, 2 488 since the simplex enters by the
    largest score, 2 114 since the search dives toward each relaxation's
    rounding, 1 570 since the verification certifies convex agents and
    cleared cells from the welfare LP's duals, 1 537 since every LP starts
    from the slack basis or a relaxation's, and 1 526 since a dual pivot
    passes every breakpoint a boxed column can flip past."""
    calls = lps_solved(monkeypatch)
    for seed in range(70):
        clear(assemble_welfare(*random_commitment_market(seed)))
    assert len(calls) <= 1526


def iterations_taken(monkeypatch) -> list[int]:
    """The iterations of each LP ``core`` solves from now on."""
    iterations = []
    solve = core.solve_lp

    def counted(lp, start=None):
        outcome = solve(lp, start=start)
        iterations.append(outcome.iterations)
        return outcome

    monkeypatch.setattr(core, "solve_lp", counted)
    return iterations


def test_clearing_the_random_corpus_takes_fewer_iterations(monkeypatch):
    """The simplex iterations of the searches above: 59 811 with every
    relaxation solved cold, 31 428 since each relaxation below the root
    starts from the basis of the nearest one solved above it, 28 309 since
    certified best responses take no LP, and 13 519 since every LP starts
    from the slack basis, with no phase 1, and reaches a feasible basis by
    the dual simplex, and 12 510 since its ratio test takes the long step."""
    iterations = iterations_taken(monkeypatch)
    for seed in range(70):
        clear(assemble_welfare(*random_commitment_market(seed)))
    assert sum(iterations) <= 12510


def test_clearing_the_convex_corpus_takes_fewer_iterations(monkeypatch):
    """One welfare LP per ``random_convex_market`` seed 0-99, and no
    verification LP: 2 569 iterations with the dual simplex's short step,
    1 795 with the long step."""
    iterations = iterations_taken(monkeypatch)
    for seed in range(100):
        clear(assemble_welfare(*random_convex_market(seed)))
    assert len(iterations) == 100
    assert sum(iterations) <= 1795


@pytest.mark.parametrize(
    "make, error, lps, iterations",
    [(infeasible_commitment_market, Infeasible, 20, 448),
     (unbounded_commitment_market, Unbounded, 128, 2386)],
    ids=["infeasible", "unbounded"],
)
def test_clearing_a_flawed_corpus_takes_no_more_work(monkeypatch, make, error, lps, iterations):
    """The LPs and iterations of clearing seeds 0-19 up to the typed error:
    499 and 2 712 iterations with the dual simplex's short step."""
    taken = iterations_taken(monkeypatch)
    for seed in range(20):
        with pytest.raises(error):
            clear(assemble_welfare(*make(seed)))
    assert len(taken) <= lps
    assert sum(taken) <= iterations


def test_build_lp_frees_binaries_only_for_a_searchs_root(monkeypatch):
    """Every relaxation is the root's LP with the set binaries fixed by
    bounds, below an unbounded root too, so ``build_lp`` frees binaries only
    for a search's root, once per search over two or more: 20 calls on the
    unbounded corpus, whose welfare searches raise, and 140 on the random
    one. Building each relaxation below a root with no optimal state made
    108 on the unbounded corpus."""
    build, run = core.build_lp, core._Search.run
    started, roots = [], []

    def run_and_record(search):
        started.append(search)
        return run(search)

    def build_and_record(program, cell, agent=None, prices=None, free=()):
        if len(free):
            search = started[-1]
            assert not any(cell) and list(free) == search.own
            roots.append(search)
        return build(program, cell, agent, prices, free)

    monkeypatch.setattr(core._Search, "run", run_and_record)
    monkeypatch.setattr(core, "build_lp", build_and_record)
    for seed in range(20):
        with pytest.raises(Unbounded):
            clear(assemble_welfare(*unbounded_commitment_market(seed)))
    assert len(roots) == 20
    for seed in range(70):
        clear(assemble_welfare(*random_commitment_market(seed)))
    assert roots == [search for search in started if len(search.own) >= 2]
    assert len(roots) == 160


@pytest.mark.parametrize(
    "market",
    [commitment_bids("expectation"), commitment_bids("worst_case"), random_convex_market(0)],
    ids=["fixture_expectation", "fixture_worst_case", "convex"],
)
def test_one_binary_or_none_solves_every_cell_and_nothing_else(monkeypatch, market):
    program = assemble_welfare(*market)
    assert len(program.binaries) <= 1
    for agent, prices in searches(program):
        calls = lps_solved(monkeypatch)
        _best_cell(program, agent, prices)
        own = sum(agent is None or a == agent for a, _ in program.binaries)
        assert len(calls) == 2 ** own


def test_a_relaxation_is_the_root_with_fixed_bounds_and_is_not_checked_again(monkeypatch):
    """``fixed(depth)`` equals the root with the set binaries' bounds
    replaced, without running ``LinearProgram.__post_init__`` again."""
    program = assemble_welfare(*random_commitment_market(3))
    search = core._Search(program, None, None)
    search.relax(0, None)
    checked = []
    post_init = core.LinearProgram.__post_init__
    monkeypatch.setattr(core.LinearProgram, "__post_init__",
                        lambda lp: checked.append(lp) or post_init(lp))
    own = len(search.own)
    assert own >= 2
    search.cell[search.own[0]] = 1
    fixed = search.fixed(2)
    assert checked == []
    first = search.root.num_vars - own
    lower, upper = search.root.lower.copy(), search.root.upper.copy()
    lower[first:first + 2] = upper[first:first + 2] = [1, 0]
    reference = replace(search.root, lower=lower, upper=upper)
    assert len(checked) == 1
    for name in ("objective", "lower", "upper", "matrix", "senses", "rhs"):
        assert np.array_equal(getattr(fixed, name), getattr(reference, name)), name
    assert (fixed.sense, fixed.constant) == (reference.sense, reference.constant)
