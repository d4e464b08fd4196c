#!/usr/bin/env python3
"""Per-criterion wall times from a tier-1 test log.

    PYTHONPATH=src python -m pytest -q > tier1.log; python3 bench/acceptance_times.py tier1.log

Reads the acceptance checklist lines the suite prints at the end,

    criterion  9: PASS  ml FER 0.01055, ... (163s)

and prints one JSON object: seconds and verdict per criterion, plus their
total.  Reads stdin when the path is `-` or missing.  This report is not a
benchmark workload: the whole suite takes minutes per run; `c9-bsc` is the
benchmark's proxy for criterion 9, which dominates it.
"""

from __future__ import annotations

import json
import re
import sys

LINE = re.compile(r"^criterion\s+(\d+):\s+(PASS|FAIL)\b.*\((\d+(?:\.\d+)?)s\)\s*$")


def parse(lines) -> dict:
    criteria = {}
    for line in lines:
        match = LINE.match(line.strip())
        if match:
            num, verdict, seconds = match.groups()
            criteria[f"criterion_{int(num):02d}"] = {"verdict": verdict, "seconds": float(seconds)}
    return criteria


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else "-"
    if path == "-":
        criteria = parse(sys.stdin)
    else:
        with open(path, encoding="utf-8") as fh:
            criteria = parse(fh)
    if not criteria:
        print(f"acceptance_times.py: no 'criterion NN: PASS|FAIL ... (Xs)' lines in {path}", file=sys.stderr)
        return 1
    total = sum(c["seconds"] for c in criteria.values())
    print(json.dumps({"criteria": criteria, "total_s": total}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
