"""tests/loc.py, the code-line count."""

import loc

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment beside code counts


# a comment line does not
class Point:
    """Class docstring."""

    def norm(self):
        """Function docstring."""
        text = """a string that is not a docstring
spans two code lines"""
        return math.hypot(
            self.x, self.y,
        ), text
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, def, the string's two lines, return and its two lines
    assert loc.code_lines(SOURCE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SOURCE)
    second.write_text("x = 1\n\n")
    assert loc.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out == f"      8  {first}\n      1  {second}\n      9  total\n"
