"""The counting rule of ``tools/loc.py``, in whose counts the line targets are stated."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

MODULE = [
    '"""Module docstring,',
    'over two lines."""',
    "",
    "import os",
    "",
    "# a comment line",
    "    ",
    'TEXT = """not a docstring:',
    'every line of it is code"""',
    "",
    "",
    "class Box:",
    '    """Class docstring."""',
    "",
    "    size = 1  # a trailing comment is code",
    "    # an indented comment",
    "",
    "    def grow(self):",
    '        """Function docstring,',
    "",
    '        with a blank line."""',
    '        return "# in a string"',
    "",
    "",
    "async def wait():",
    '    """Async docstring."""',
    "    pass",
]


def test_counts_leave_out_blanks_comments_and_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location("loc", LOC)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    path = tmp_path / "module.py"
    path.write_text("\n".join(MODULE) + "\n", encoding="utf-8")
    # code: the import, both lines of TEXT, the class line, size, the def
    # line, its return, the async def line and its pass
    assert loc.counts(path) == (27, 9)
