"""Physical and code lines of each module of ``src/delaysched``.

Code lines leave out blank lines, comment-only lines and the docstrings
of modules, classes and functions.  Run from anywhere:

    python3 tools/code_lines.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "delaysched"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(physical lines, code lines)`` of one source file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for n, line in enumerate(lines, 1)
               if n not in skip and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


def main() -> None:
    total_lines = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:16} {lines:6,} {code:6,}")
    print(f"{'total':16} {total_lines:6,} {total_code:6,}")


if __name__ == "__main__":
    main()
