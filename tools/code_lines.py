"""Count the code lines of the package: non-blank lines that are neither
comments nor docstrings.

usage: python tools/code_lines.py [FILE...]

A Python file loses its comment-only lines and the lines of its module,
class and function docstrings; a C file loses its /* */ and // comments.
A line that holds code and a comment counts. Without arguments it counts
src/hpqe/*.py and src/hpqe/kernels.c under the repository root. It
prints one count per file and the total.
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hpqe"

# a C comment or a string literal, which may hold comment markers
C_TOKEN = re.compile(r'/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S)


def python_lines(text: str) -> int:
    lines = text.splitlines()
    drop = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                drop.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for k in code - drop if lines[k - 1].strip())


def c_lines(text: str) -> int:
    def blank(m):
        # a comment keeps only its line breaks; a string stays
        s = m.group(0)
        return s if s[0] in "\"'" else "\n" * s.count("\n")
    return sum(1 for line in C_TOKEN.sub(blank, text).splitlines() if line.strip())


def count(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    return python_lines(text) if path.suffix == ".py" else c_lines(text)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = ([Path(a) for a in args] if args
             else sorted(PACKAGE.glob("*.py")) + [PACKAGE / "kernels.c"])
    total = 0
    for path in paths:
        n = count(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
