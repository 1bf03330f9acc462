#!/usr/bin/env python3
"""Count the code, docstring, comment and blank lines of each package module.

    PYTHONPATH=src python scripts/src_lines.py

Prints one line per module of `src/wallman_lab`, then the totals.  Each
physical line is counted once, by the first kind that fits it: a docstring
line lies inside the docstring of a module, class or function (found with
`ast`); a comment line has a comment as its first token (found with
`tokenize`); a blank line is empty or white space; every other line is code.
The four counts of a file sum to its `wc -l`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

from wallman_lab.cli import quiet_on_closed_pipe

KINDS = ("code", "docstring", "comment", "blank")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wallman_lab"


def docstring_lines(tree):
    """The line numbers covered by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def comment_lines(source):
    """The line numbers whose first token is a comment."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        tok.start[0] for tok in tokens if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip()
    }


def classify(source):
    """{kind: count} over the lines of a module's source, for each of KINDS."""
    docstrings, comments = docstring_lines(ast.parse(source)), comment_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        if number in docstrings:
            kind = "docstring"
        elif number in comments:
            kind = "comment"
        elif not line.strip():
            kind = "blank"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main():
    total = dict.fromkeys(KINDS, 0)
    print("module", *KINDS, "lines")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = classify(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(path.name, *counts.values(), sum(counts.values()))
    print("total", *total.values(), sum(total.values()))
    return 0


if __name__ == "__main__":
    sys.exit(quiet_on_closed_pipe(main))
