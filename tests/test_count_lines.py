import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "count_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Lines 1-2 docstring, 3 blank, 4 comment, 5-6 blank, 7 code, 8 docstring,
# 9-11 one expression: 11 lines, 4 of them code.
SOURCE = '''"""Module docstring
on two lines."""

# A comment-only line.


def f(x):
    """Function docstring."""
    return (x
            + 1
            + 2)
'''


def test_count_skips_docstrings_comments_and_blank_lines():
    assert load_tool().count(SOURCE) == (11, 4)


def test_trailing_comment_leaves_a_line_code():
    assert load_tool().count("x = 1  # set x\n# only a comment\n") == (2, 1)
