#!/usr/bin/env python3
"""Print the two size measures a BENCH_<pr>.json records for the package:

    scripts/src_stats.py [PACKAGE_DIR]

as one JSON object, {"src_optrans_lines": N, "defaulted_parameters": M}.
N counts the lines of every ``*.py`` file under PACKAGE_DIR (default: the
repo's ``src/optrans``), as ``wc -l`` does.  M counts, over every function,
method and lambda there, the parameters that carry a default value,
positional and keyword-only alike, as parsed by ``ast``.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def src_stats(package: Path) -> dict:
    lines = defaulted = 0
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, FUNCTIONS):
                args = node.args
                defaulted += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return {"src_optrans_lines": lines, "defaulted_parameters": defaulted}


def main(argv: list) -> int:
    if len(argv) > 1:
        print("usage: scripts/src_stats.py [PACKAGE_DIR]", file=sys.stderr)
        return 2
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "optrans"
    print(json.dumps(src_stats(package)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
