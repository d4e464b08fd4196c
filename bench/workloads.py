"""The benchmark's workloads: fixed lists of `rmlab simulate` configs.

Each config is the JSON object `rmlab simulate` reads, minus its `seed`,
which the benchmark fills in from `--seed`.  Trial counts are fixed so a
config's CSV rows are a pure function of (config, seed); a run repeats the
whole list in rounds until its time is up.

End-to-end throughput is reported per config slot (`trials_per_s.cfg1` ..
`cfg3`), in the order listed here, because every workload must report the
same metric names.  README.md maps each slot to its decoder.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 1
SLOTS = 3

_BSC_SWEEP = ["bsc:0.01", "bsc:0.02", "bsc:0.032", "bsc:0.05"]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    # Indices of configs timed in wall seconds, not reference seconds
    # (reference.py): their time barely follows the machine's slow spells,
    # so scaling would only add the reference kernel's noise.
    wall_clock: tuple = ()

    def with_seed(self, seed: int) -> list[dict]:
        return [dict(cfg, seed=seed) for cfg in self.configs]

    def config_hash(self, seed: int) -> str:
        text = json.dumps(self.with_seed(seed), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 9's traffic at its calibrated point (ML FER ~ 1e-2).
        # `ml` is a memory-bound product with a 16 MB codebook; it moves a
        # third as much as the reference kernel does, so it runs wall-clock.
        Workload(
            "c9-bsc",
            wall_clock=(0,),
            configs=(
                {"m": 5, "r": 2, "decoder": "ml", "channels": ["bsc:0.032"], "trials": 400},
                {"m": 5, "r": 2, "decoder": "dumer-list:16", "channels": ["bsc:0.032"], "trials": 120},
                {"m": 5, "r": 2, "decoder": "rpa-chase:3", "channels": ["bsc:0.032"], "trials": 60},
            ),
        ),
        # Cheap decoders over a four-point sweep: the harness (streams,
        # encode, packaging) shows here.  Serial, because a two-worker pool
        # on a shared two-core machine did not hold steady; pool start-up is
        # measured as sim.parallel_efficiency in the traced run instead.
        Workload(
            "light-bsc-sweep",
            configs=(
                {"m": 5, "r": 2, "decoder": "dumer", "channels": _BSC_SWEEP, "trials": 100},
                {"m": 5, "r": 2, "decoder": "reed", "channels": _BSC_SWEEP, "trials": 400},
                {"m": 5, "r": 2, "decoder": "sakkour", "channels": _BSC_SWEEP, "trials": 40},
            ),
        ),
        # Large n, few trials, the AWGN soft path.
        Workload(
            "long-awgn",
            configs=(
                {"m": 8, "r": 3, "decoder": "dumer", "channels": ["awgn:0.9"], "trials": 60},
                {"m": 8, "r": 3, "decoder": "dumer-list:16", "channels": ["awgn:0.9"], "trials": 20},
                {"m": 7, "r": 2, "decoder": "rpa", "channels": ["awgn:1.3"], "trials": 100},
            ),
        ),
    )
}

assert all(len(w.configs) == SLOTS for w in WORKLOADS.values())


def slot_label(cfg: dict) -> str:
    """Decoder id as a metric-name fragment, e.g. dumer-list:16 -> dumer-list-16."""
    return cfg["decoder"].replace(":", "-")


def csv_rows(csv_text: str) -> list[str]:
    """The data rows of a `csv_report`, without the wall-clock `seconds` column."""
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()[1:]]
