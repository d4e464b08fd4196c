"""Timed rounds of a workload through the public simulate path.

`Bench.untraced` gives the end-to-end metrics, `Bench.traced` the
per-layer ones; both check every CSV row they see (see `Bench.failed`).
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from collections import Counter

from rmlab import sim

from reference import kernel_seconds, scaled
from replay import KERNEL_SPANS, Tracer, replay_point
from workloads import csv_rows, slot_label

PARALLEL_WORKERS = 2

# Per-config detail only: zero on every workload without an ML or RPA
# config, so the workload totals carry them as ml_gflops and rpa_calls.
DETAIL_ONLY = ("decoders.ml_us", "decoders.rpa_us")

_perf = time.perf_counter


def warm_up(configs):
    """One single-trial run per config through the public path: fills the
    lazy caches (ML sign codebook, RPA tables, lru_cached orders)."""
    for cfg in configs:
        config = sim.config_from_dict(dict(cfg, trials=1, channels=cfg["channels"][:1]))
        sim.csv_report(config, sim.run_simulation(config))


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished children."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _rounds(seconds: float, body):
    """Call body() until the next call would end past `seconds`; at least once."""
    start = _perf()
    times = []
    while not times or (_perf() - start) + statistics.median(times) <= seconds:
        t0 = _perf()
        body()
        times.append(_perf() - t0)
    return times


class Bench:
    """One run of a workload: timings plus the row check.

    `attempted` counts sweep points run; `failed` counts those that raised
    or whose CSV row (all columns but `seconds`) differs from the expected
    row: the stored reference at the reference seed, else the row the
    serial replay's error counts imply.
    """

    def __init__(self, workload, configs, stored):
        self.workload = workload
        self.configs = configs
        self.labels = [slot_label(c) for c in configs]
        self.stored = stored
        self.observed = [[] for _ in configs]  # per config: rows of each run, None if it raised
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.errors = []
        self.details = []
        self.kernel = []  # reference-kernel seconds, in the order run

    def _simulate(self, i, workers):
        """Config i through the public path; records its rows, returns seconds."""
        t0 = _perf()
        try:
            config = sim.config_from_dict(self.configs[i])
            rows = csv_rows(sim.csv_report(config, sim.run_simulation(config, workers=workers)))
        except Exception:
            self.errors.append(f"{self.labels[i]} raised:\n{traceback.format_exc()}")
            rows = None
        self.observed[i].append(rows)
        return _perf() - t0

    def _replay(self, i, tracer=None):
        """Serial replay of config i; returns the CSV rows its counts imply."""
        config = sim.config_from_dict(self.configs[i])
        n, trials = config.params.n, config.trials
        points = []
        for p, spec in enumerate(config.channels):
            b, e = replay_point(config, p, tracer)
            points.append(sim.SimPoint(spec, trials, b, e, b / (trials * n), e / trials,
                                       *sim.wilson_interval(e, trials), 0.0))
        return csv_rows(sim.csv_report(config, points))

    def _check_rows(self, expected):
        for i, runs in enumerate(self.observed):
            points = len(self.configs[i]["channels"])
            for rows in runs:
                self.attempted += points
                bad = points if rows is None else sum(a != b for a, b in zip(rows, expected[i]))
                if rows is not None and bad:
                    self.errors.append(f"{self.labels[i]}: {bad} CSV row(s) differ from {expected[i]}: {rows}")
                self.failed += bad

    def untraced(self, seconds):
        """End-to-end metrics from the median over rounds of each config's
        time in reference seconds (reference.py): the reference kernel runs
        between every two configs, so each sample is scaled by the machine
        speed measured right around it.  Configs in the workload's
        `wall_clock` keep their wall time."""
        wall = [[] for _ in self.configs]
        reported = [[] for _ in self.configs]
        kernel = self.kernel = [kernel_seconds()]

        def one_round():
            for i in range(len(self.configs)):
                wall[i].append(self._simulate(i, 1))
                kernel.append(kernel_seconds())
                unscaled = i in self.workload.wall_clock
                reported[i].append(wall[i][-1] if unscaled else scaled(wall[i][-1], kernel[-2], kernel[-1]))

        self.rounds = len(_rounds(seconds, one_round))
        rss = _peak_rss_mb()
        self._check_rows(self.stored or [self._replay(i) for i in range(len(self.configs))])
        metrics = {}
        for slot, cfg in enumerate(self.configs, start=1):
            trials = cfg["trials"] * len(cfg["channels"])
            tps = trials / statistics.median(reported[slot - 1])
            metrics[f"trials_per_s.cfg{slot}"] = (tps, "1/s")
            self.details.append(f"cfg{slot} {self.labels[slot - 1]} m={cfg['m']} r={cfg['r']} trials_per_s={tps:.6g} "
                                f"wall_trials_per_s={trials / statistics.median(wall[slot - 1]):.6g}")
        metrics["sweep_s"] = (statistics.median(map(sum, zip(*reported))), "s")
        metrics["peak_rss_mb"] = (rss, "MB")
        self.details.append(f"sweep_wall_s={statistics.median(map(sum, zip(*wall))):.6g} "
                            f"kernel_s={statistics.median(kernel):.6g}")
        return metrics

    def traced(self, seconds):
        samples = []  # per round: one dict per config

        def one_round():
            per_config = []
            for i, cfg in enumerate(self.configs):
                t0 = _perf()
                sim.config_from_dict(cfg)
                config_s = _perf() - t0
                serial_s = self._simulate(i, 1)
                harness_rows = self.observed[i][-1]
                parallel_s = self._simulate(i, PARALLEL_WORKERS)
                tracer = Tracer()
                with tracer.installed():
                    replayed = self._replay(i, tracer)
                if harness_rows is not None and harness_rows != replayed:
                    self.errors.append(f"replay guard: {self.labels[i]} replay rows {replayed} "
                                       f"differ from the harness rows {harness_rows}")
                per_config.append(dict(config_s=config_s, serial_s=serial_s, parallel_s=parallel_s,
                                       time=tracer.time, count=tracer.count, replayed=replayed))
            samples.append(per_config)

        self.rounds = len(_rounds(seconds, one_round))
        self._check_rows(self.stored or [c["replayed"] for c in samples[0]])
        for slot, label in enumerate(self.labels):
            med = _median_metrics([_layer_metrics([rnd[slot]]) for rnd in samples])
            self.details.append(f"cfg{slot + 1} {label} " + " ".join(f"{k}={v:.6g}" for k, (v, _) in med.items()))
        med = _median_metrics([_layer_metrics(rnd) for rnd in samples])
        return {k: v for k, v in med.items() if k not in DETAIL_ONLY}


def _median_metrics(rounds):
    return {k: (statistics.median(r[k][0] for r in rounds), unit) for k, (_, unit) in rounds[0].items()}


def _layer_metrics(configs):
    """Per-layer metrics of one round over the given per-config samples.

    Times and counts are per trial over all the configs' trials unless the
    unit says otherwise.
    """
    t = sum((c["time"] for c in configs), Counter())
    n = sum((c["count"] for c in configs), Counter())
    trials = n["trials"]
    serial = sum(c["serial_s"] for c in configs)
    parallel = sum(c["parallel_s"] for c in configs)
    layers = t["stream"] + t["encode"] + t["transmit"] + t["llr"] + t["decode"]

    def us(key):
        return t[key] / trials * 1e6, "us"

    def per_trial(key):
        return n[key] / trials, "count"

    return {
        "channel.stream_us": us("stream"),
        "channel.transmit_us": us("transmit"),
        "channel.llr_us": us("llr"),
        "channel.llr_of_sum_us": us("llr_of_sum"),
        "channel.llr_of_sum_calls": per_trial("llr_of_sum_calls"),
        "rmcode.encode_us": us("encode"),
        "rmcode.package_us": us("package"),
        "rmcode.package_calls": per_trial("package_calls"),
        "decoders.decode_us": us("decode"),
        "decoders.fht_us": us("fht"),
        "decoders.fht_calls": per_trial("fht_calls"),
        "decoders.fht_rows": per_trial("fht_rows"),
        "decoders.fht_ops": per_trial("fht_ops"),
        "decoders.ml_us": us("ml"),
        "decoders.ml_gflops": (n["ml_flop"] / t["ml"] / 1e9 if t["ml"] else 0.0, "GFLOP/s"),
        "decoders.ml_flop": per_trial("ml_flop"),
        "decoders.ml_bytes": per_trial("ml_bytes"),
        "decoders.rpa_us": us("rpa"),
        "decoders.rpa_calls": per_trial("rpa_calls"),
        "decoders.self_us": ((t["decode"] - sum(t[k] for k in KERNEL_SPANS)) / trials * 1e6, "us"),
        "decoders.noncodeword_frac": (n["noncodeword"] / trials, "fraction"),
        "decoders.undecodable": (n["undecodable"], "count"),
        "sim.config_s": (sum(c["config_s"] for c in configs), "s"),
        "sim.overhead_frac": (1.0 - layers / serial, "fraction"),
        "sim.parallel_efficiency": (serial / (PARALLEL_WORKERS * parallel), "fraction"),
        "trace_overhead_frac": (t["wall"] / serial - 1.0, "fraction"),
    }
