"""Line counts of the modules under ``src/csbf``: total lines and code lines.

Code lines leave out blank lines, ``#`` comment lines and module, class and
function docstrings.  Run from anywhere: ``python tools/loc.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csbf"


DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) held by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skipped = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in skipped and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main() -> None:
    total = code = 0
    print(f"{'module':<24}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code_lines = counts(path)
        total, code = total + lines, code + code_lines
        print(f"{path.name:<24}{lines:>7}{code_lines:>7}")
    print(f"{'total':<24}{total:>7}{code:>7}")


if __name__ == "__main__":
    main()
