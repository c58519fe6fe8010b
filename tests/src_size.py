"""Lines, code lines and tokens per module of ``src/partsem``.

Code lines leave out blank lines, comment-only lines and the lines of
docstrings (the first statement of a module, class or function, when it is a
string), so a deletion of comments or docstrings does not read as less code.
Tokens are counted with ``tokenize``, leaving out comments and layout tokens
(newlines, indents, dedents, the encoding and the end marker).  Run from the
repository root, it prints one line per module and a total:

    python tests/src_size.py
"""

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every docstring of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def module_size(path: Path) -> tuple[int, int, int]:
    """The lines, the code lines and the non-layout tokens of one module."""
    with path.open("rb") as source:
        tokens = [tok for tok in tokenize.tokenize(source.readline) if tok.type not in LAYOUT]
    text = path.read_text()
    code = set()
    for tok in tokens:
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(text)), len(tokens)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/partsem")
    sizes = {path.name: module_size(path) for path in sorted(root.glob("*.py"))}
    for name, (lines, code, tokens) in sorted(sizes.items(), key=lambda item: -item[1][0]):
        print(f"{name:22} {lines:6,} lines {code:6,} code lines {tokens:8,} tokens")
    lines, code, tokens = (sum(size[i] for size in sizes.values()) for i in range(3))
    print(f"{'total':22} {lines:6,} lines {code:6,} code lines {tokens:8,} tokens")
