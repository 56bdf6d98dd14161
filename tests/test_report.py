"""State description reports."""

import numpy as np
import pytest

from statemarket.quantize import describe_states, solve_exact, state_descriptions
from statemarket.scenarios import ScenarioSet


def test_descriptions_cover_the_measure():
    rng = np.random.default_rng(90)
    scen = ScenarioSet(rng.uniform(4, 14, (10, 2)), np.full(10, 0.1))
    records = state_descriptions(solve_exact(scen, 2))
    assert len(records) == 2
    assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)


def test_one_decimal_center_formatting():
    scen = ScenarioSet(
        np.array([[9.04, 9.85], [9.01, 9.93], [2.0, 3.0]]),
        np.full(3, 1.0 / 3),
    )
    records = state_descriptions(solve_exact(scen, 2))
    texts = {r.center_text for r in records}
    assert "(9.0, 9.9)" in texts
    # stored centers keep full precision; rounding is presentation-only
    wind_state = max(records, key=lambda r: r.center[0])
    assert tuple(wind_state.center) == pytest.approx((9.025, 9.89), abs=1e-12)


def test_singleton_support_single_state():
    scen = ScenarioSet(np.array([[7.5]]), np.array([1.0]))
    solution = solve_exact(scen, 1)
    records = state_descriptions(solution)
    assert len(records) == 1
    assert records[0].probability == pytest.approx(1.0)
    text = describe_states(solution)
    assert "State 1 occurs when" in text

