"""Count the code lines of Python source files.

Usage, from the root of a checkout::

    python3 tools/line_count.py src/pellipse/*.py

A code line is a physical line that holds a token other than a comment,
a blank line or an indentation change, and is not part of a docstring.
One line per file gives its count and path, and the last line the total,
as ``<total> code lines``.
"""

import ast
import io
import sys
import tokenize

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(src: str) -> int:
    """The number of code lines of the Python source ``src``."""
    docs = set()
    for node in ast.walk(ast.parse(src)):
        body = getattr(node, "body", None)
        if (
            isinstance(body, list)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:7d} {path}")
    print(f"{total:7d} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
