"""``tools/code_lines.py``, the count every source size in the ROADMAP cites."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("code_lines", REPO / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


def f():
    """Function docstring."""
    # a comment-only line
    text = """a string that
is no docstring"""
    return text
'''


def test_count_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    # Code lines: the import, the def, both lines of the string, the return.
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines.count(path) == (12, 5)


def test_main_prints_each_module_and_their_total(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: (int(lines.replace(",", "")), int(code.replace(",", "")))
              for name, lines, code in rows}
    modules = sorted((REPO / "src" / "delaysched").glob("*.py"))
    assert [name for name, _, _ in rows] == [p.name for p in modules] + ["total"]
    total = counts.pop("total")
    assert counts == {path.name: code_lines.count(path) for path in modules}
    assert total == tuple(map(sum, zip(*counts.values())))
