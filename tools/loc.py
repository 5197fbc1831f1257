"""Print the line count and the code-line count of each Python file given;
a directory stands for its ``*.py`` files, sorted.

The line count is ``wc -l``'s.  A code line holds a token of a statement:
comments, blank lines and docstrings (a statement that is only a string
literal) are not counted.  A string literal inside a statement counts every
line it spans.  With ``--diff``, print the code lines of each module in two
directories and the change from the first to the second.  Standard library
only:

    python3 tools/loc.py src/satmetric
    python3 tools/loc.py --diff <base>/src/satmetric src/satmetric
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


def diff(base: Path, head: Path) -> int:
    """Each module's code lines in ``base`` and ``head`` (0 where it is absent)
    and their change, then the totals."""
    names = sorted({path.name for folder in (base, head) for path in folder.glob("*.py")})
    totals = [0, 0]
    print(f"{'base':>7} {'code':>7} {'change':>7}  module")
    for name in names:
        counts = [code_lines(folder / name) if (folder / name).exists() else 0
                  for folder in (base, head)]
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{counts[0]:7d} {counts[1]:7d} {counts[1] - counts[0]:+7d}  {name}")
    print(f"{totals[0]:7d} {totals[1]:7d} {totals[1] - totals[0]:+7d}  total")
    return 0


def main(paths: list[str]) -> int:
    if not paths or paths[0] == "--diff" and len(paths) != 3:
        print("usage: loc.py <file or directory> ... | --diff <base directory> <directory>",
              file=sys.stderr)
        return 2
    if paths[0] == "--diff":
        return diff(Path(paths[1]), Path(paths[2]))
    totals = [0, 0]
    print(f"{'lines':>7} {'code':>7}  file")
    for path in (found for name in paths for found in (
            sorted(Path(name).glob("*.py")) if Path(name).is_dir() else [Path(name)])):
        counts = (path.read_bytes().count(b"\n"), code_lines(path))
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{counts[0]:7d} {counts[1]:7d}  {path}")
    print(f"{totals[0]:7d} {totals[1]:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
