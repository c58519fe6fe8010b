"""Lines and tokens per module of ``src/partsem``.

Tokens are counted with ``tokenize``, leaving out comments and layout tokens
(newlines, indents, dedents, the encoding and the end marker).  Run from the
repository root, it prints one line per module and a total:

    python tests/src_size.py
"""

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def module_size(path: Path) -> tuple[int, int]:
    """The lines and the non-layout tokens of one module."""
    with path.open("rb") as source:
        tokens = sum(tok.type not in LAYOUT for tok in tokenize.tokenize(source.readline))
    return len(path.read_text().splitlines()), tokens


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/partsem")
    sizes = {path.name: module_size(path) for path in sorted(root.glob("*.py"))}
    for name, (lines, tokens) in sorted(sizes.items(), key=lambda item: -item[1][0]):
        print(f"{name:22} {lines:6,} lines {tokens:8,} tokens")
    print(f"{'total':22} {sum(s[0] for s in sizes.values()):6,} lines "
          f"{sum(s[1] for s in sizes.values()):8,} tokens")
