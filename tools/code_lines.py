"""Count the code lines of Python files: lines that hold a token other
than a comment, leaving out docstrings and blank lines.

    python tools/code_lines.py src/tiedbracket/*.py

prints each file's count and, for more than one file, their total.
Tokens are found with `tokenize`, so a line inside a multi-line string
or bracket counts, and docstrings with `ast`: the first statement of a
module, class or function when it is a string constant.
"""

import ast
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path) -> int:
    """The number of code lines of the Python file ``path``."""
    with tokenize.open(path) as f:
        source = f.read()
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source, path)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(paths) -> int:
    if not paths:
        print("usage: python tools/code_lines.py FILE.py ...", file=sys.stderr)
        return 2
    counts = [(path, code_lines(path)) for path in paths]
    for path, n in counts:
        print(f"{n:6d} {path}")
    if len(counts) > 1:
        print(f"{sum(n for _, n in counts):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
