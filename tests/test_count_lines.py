import subprocess

import pytest

from conftest import load_tool

count_lines = load_tool("count_lines")


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
    assert count_lines.count(SOURCE) == (11, 4)


def test_trailing_comment_leaves_a_line_code():
    assert count_lines.count("x = 1  # set x\n# only a comment\n") == (2, 1)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        count_lines.main(["--help"])
    assert exited.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_missing_path_exits_two(capsys):
    with pytest.raises(SystemExit) as exited:
        count_lines.main(["no/such/path.py"])
    assert exited.value.code == 2
    assert "no such file or directory: no/such/path.py" in capsys.readouterr().err


def test_default_path_from_another_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert count_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith("modunfold/dsp.py") for line in lines)
    assert lines[-1].endswith(f"all {len(lines) - 2} files")


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A throwaway repository whose one commit holds pkg/a.py (4 lines, 1 code) and
    pkg/notes.txt; the worktree then changes a.py and adds an uncommitted b.py."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text('"""Doc."""\n\n# note\nx = 1\n')
    (package / "notes.txt").write_text("not python\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "one")
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_rev_counts_the_committed_files(repo, capsys):
    assert count_lines.main(["--rev", "HEAD", "pkg"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["      4      1  pkg/a.py", "      4      1  all 1 files"]
    assert count_lines.main(["pkg"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "      3      3  all 2 files"


def test_rev_from_a_subdirectory(repo, monkeypatch, capsys):
    monkeypatch.chdir(repo / "pkg")
    assert count_lines.main(["--rev", "HEAD", "."]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "      4      1  a.py"


@pytest.mark.parametrize("args, reason", [
    (["--rev", "nosuch", "pkg"], "nosuch"),
    (["--rev", "HEAD", "missing"], "no *.py files at HEAD: missing")],
    ids=["unknown-rev", "missing-path"])
def test_bad_rev_or_path_exits_two(repo, capsys, args, reason):
    with pytest.raises(SystemExit) as exited:
        count_lines.main(args)
    assert exited.value.code == 2
    assert reason in capsys.readouterr().err


def test_rev_outside_a_repository_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    with pytest.raises(SystemExit) as exited:
        count_lines.main(["--rev", "HEAD", "."])
    assert exited.value.code == 2
    assert "git ls-tree" in capsys.readouterr().err
