import importlib.util
from pathlib import Path

import pytest

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


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        load_tool().main(["--help"])
    assert exited.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_missing_path_exits_two(capsys):
    with pytest.raises(SystemExit) as exited:
        load_tool().main(["no/such/path.py"])
    assert exited.value.code == 2
    assert "no such file or directory: no/such/path.py" in capsys.readouterr().err


def test_default_path_from_another_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert load_tool().main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith("modunfold/dsp.py") for line in lines)
    assert lines[-1].endswith(f"all {len(lines) - 2} files")
