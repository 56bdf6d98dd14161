"""tests/ladder.py, the clearing ladder's report."""

import re

import ladder

LINE = r"   2x2x1      8 vars /    2 rows  dual +\d+  primal +\d+ +\d+\.\d ms  optimal 666\.3695044"


def test_a_rung_line_gives_the_shape_iterations_time_and_objective():
    assert re.fullmatch(LINE, ladder.rung_line("2x2x1"))


def test_main_prints_one_line_per_rung(capsys):
    assert ladder.main(["2x2x1", "2x2x1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(re.fullmatch(LINE, line) for line in lines)
