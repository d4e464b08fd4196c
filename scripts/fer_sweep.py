#!/usr/bin/env python3
"""Sweep FER for several decoders on one code and print a combined CSV.

Example:
    python scripts/fer_sweep.py --m 4 --r 2 --trials 2000 \
        --decoders reed,dumer,dumer-list:8,rpa --params 0.01,0.02,0.04,0.06
"""

import argparse
import sys

from rmlab import sim


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--channel", default="bsc")
    ap.add_argument("--params", default="0.01,0.02,0.04,0.06")
    ap.add_argument("--decoders", default="reed,dumer,dumer-list:8,rpa")
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--hard", action="store_true")
    args = ap.parse_args()

    # every config is checked before the first row is printed
    try:
        configs = [
            sim.config_from_dict(
                {
                    "m": args.m,
                    "r": args.r,
                    "decoder": decoder,
                    "channel": args.channel,
                    "params": [float(p) for p in args.params.split(",")],
                    "trials": args.trials,
                    "seed": args.seed,
                    "hard": args.hard,
                }
            )
            for decoder in args.decoders.split(",")
        ]
    except (sim.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(sim.CSV_HEADER)
    for config in configs:
        points = sim.run_simulation(config, workers=args.workers)
        body = sim.csv_report(config, points).splitlines()[1:]
        print("\n".join(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())
