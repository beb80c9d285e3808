import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blanks():
    source = '''"""Module
docstring."""
# a comment

import os  # code with a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
that is not a docstring"""
        return (text,
                os.sep)
'''
    # import, class, def, the two-line assignment, the two-line return
    assert load_tool("code_lines").code_lines(source) == 7
