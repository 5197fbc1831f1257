"""Print the line count and the code-line count of each Python file given.

The line count is ``wc -l``'s.  A code line holds a token of a statement:
comments, blank lines and docstrings (a statement that is only a string
literal) are not counted.  A string literal inside a statement counts every
line it spans.  Standard library only:

    python3 tools/loc.py src/satmetric/*.py
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: Tokens that belong to no statement's text.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(tok.type != tokenize.STRING for tok in statement):
                    for tok in statement:
                        rows.update(range(tok.start[0], tok.end[0] + 1))
                statement = []
    return len(rows)


def main(paths: list[str]) -> int:
    totals = [0, 0]
    print(f"{'lines':>7} {'code':>7}  file")
    for name in paths:
        path = Path(name)
        counts = (path.read_bytes().count(b"\n"), code_lines(path))
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{counts[0]:7d} {counts[1]:7d}  {name}")
    print(f"{totals[0]:7d} {totals[1]:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
