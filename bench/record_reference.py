#!/usr/bin/env python3
"""Record the reference CSV rows every benchmark run is checked against.

    python3 bench/record_reference.py

Runs each workload's configs once, serially, at the default workload seed
through the public simulate path and writes bench/reference_rows.json
(rows without the `seconds` column, plus a hash of each config list).
Record them on a commit whose output is known good; a run at that seed
then counts every row that differs as a failed sweep point.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rmlab import sim  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, csv_rows  # noqa: E402


def main() -> int:
    table = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        rows = []
        for cfg in workload.with_seed(DEFAULT_SEED):
            config = sim.config_from_dict(cfg)
            rows.append(csv_rows(sim.csv_report(config, sim.run_simulation(config))))
        table["workloads"][name] = {"config_sha256": workload.config_hash(DEFAULT_SEED), "rows": rows}
        print(f"{name}: {sum(map(len, rows))} rows", file=sys.stderr)
    (HERE / "reference_rows.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
