"""The counting rules of `tools/code_lines.py`, pinned on small sources."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines_module)
code_lines = code_lines_module.code_lines


@pytest.mark.parametrize("source, want", [
    # module, class and function docstrings, one-line and multi-line
    ('"""Module."""\n'
     'class C:\n'
     '    """Class\n'
     '    docstring."""\n'
     '    def f(self):\n'
     '        """Function."""\n'
     '        return 1\n', 3),
    ('async def g():\n'
     '    """Coroutine\n'
     '    docstring.\n'
     '    """\n'
     '    return 2\n', 2),
    # blank lines and comment-only lines
    ('# a comment\n'
     '\n'
     'x = 1\n'
     '    # an indented comment\n'
     '\n'
     'y = 2\n', 2),
    # a multi-line string that is not a docstring counts every line
    ('x = 1\n'
     'y = """one\n'
     'two\n'
     'three"""\n', 4),
    ('def f():\n'
     '    x = 1\n'
     '    """not a docstring:\n'
     '    the first statement is x = 1"""\n', 4),
    # code with a trailing comment counts once
    ('x = 1  # one\n'
     'y = [1,  # two\n'
     '     2]  # three\n', 3),
])
def test_code_lines_rules(source, want):
    assert code_lines(source) == want


def test_empty_source_has_no_code_lines():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0
