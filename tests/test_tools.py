"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring
over two lines."""

# a comment line
import os  # code with a comment


def f(x):
    """Function docstring."""
    "a string statement is not code either"
    text = """a multi-line
string value"""
    return (x,
            os.sep)
'''


def test_counts_lines_with_a_code_token():
    # import, def, the two lines of text and the two of the return.
    assert code_lines.code_lines(SAMPLE) == 6
    assert code_lines.code_lines("") == 0


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["6", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "sub" / "b.py")],
        ["7", "total"],
    ]
