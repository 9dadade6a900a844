"""`tools/code_lines.py` counts the lines that hold code: not blank lines,
comments or docstrings, but every line of a multi-line statement or of a
string that is no docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class Point:
    """A class docstring."""

    def norm(self):
        """A function docstring."""
        text = """a string
that is no docstring"""
        return (
            os.sep,
            text,
        )
'''


def load():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_comments_docstrings_and_blank_lines(tmp_path, capsys):
    tool = load()
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    # import, class, def, the string's two lines and the return's four
    assert tool.code_lines(sample) == 9
    assert tool.main([str(sample), str(sample)]) == 0
    assert capsys.readouterr().out.split() == ["9", str(sample), "9", str(sample), "18", "total"]
    assert tool.main([]) == 2
