#!/usr/bin/env python3
"""Compare two records digests written by run.py (perfbench/out/digest-*.json).

    python3 perfbench/compare_digests.py A.json B.json

Keys, flags and counts must match exactly and floats to a relative 1e-10.
Exit code 0 when they match, 1 when they differ.
"""

import json
import sys

from digest import compare_digests


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as a, open(argv[1], encoding="utf-8") as b:
        problems = compare_digests(json.load(a), json.load(b))
    for problem in problems[:20]:
        print(problem)
    print("digests match" if not problems else f"{len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
