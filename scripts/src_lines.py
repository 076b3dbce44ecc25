#!/usr/bin/env python3
"""Print the size of the ``convexbench`` package: physical lines, and code lines.

Code lines are the lines that hold a token of a statement other than a
docstring, as ``tokenize`` reads them: comments, blank lines and statements
that are one bare string (docstrings) do not count, and a token that spans
several lines (a multi-line string) counts each of them.  Run it from
anywhere: ``python3 scripts/src_lines.py``, or give another package directory.
"""
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "convexbench"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    rows, statement = set(), []
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):  # not a docstring
                    rows.update(r for t in statement for r in range(t.start[0], t.end[0] + 1))
                statement = []
    return len(rows)


def main(package: Path) -> None:
    files = sorted(package.rglob("*.py"))
    physical = sum(len(p.read_bytes().splitlines()) for p in files)
    print(f"physical lines: {physical}")
    print(f"code lines: {sum(map(code_lines, files))}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
