import ctypes
import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmlab import rmcode, sim
from rmlab.channel import ChannelSpec
from rmlab.rmcode import TooLarge
from rmlab.sim import (
    ConfigError,
    SimConfig,
    config_from_dict,
    csv_report,
    resolve_decoder,
    run_simulation,
    wilson_interval,
)


def base_config(**over):
    data = {
        "m": 3,
        "r": 1,
        "decoder": "reed",
        "channels": ["bsc:0.05"],
        "trials": 50,
    }
    data.update(over)
    return data


# ---- configuration ----


def test_config_happy_path():
    cfg = config_from_dict(base_config())
    assert cfg.params == rmcode.CodeParams(3, 1)
    assert cfg.channels == (ChannelSpec("bsc", 0.05),)
    assert cfg.seed == 0 and cfg.hard is False and cfg.timing is False


def test_config_channel_plus_params_form():
    data = {k: v for k, v in base_config().items() if k != "channels"}
    cfg = config_from_dict(data | {"channel": "bsc", "params": [0.01, 0.02]})
    assert cfg.channels == (ChannelSpec("bsc", 0.01), ChannelSpec("bsc", 0.02))


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict(base_config(bogus=1))


def test_config_missing_keys():
    data = base_config()
    del data["decoder"]
    with pytest.raises(ConfigError, match="missing config key"):
        config_from_dict(data)
    data = {k: v for k, v in base_config().items() if k != "channels"}
    with pytest.raises(ConfigError, match="'channels' or 'channel'"):
        config_from_dict(data)


def test_config_validates_trials_and_channels():
    with pytest.raises(ConfigError):
        config_from_dict(base_config(trials=0))
    with pytest.raises(ConfigError):
        config_from_dict(base_config(channels=[]))


def test_config_validates_decoder_compatibility():
    with pytest.raises(ConfigError):
        config_from_dict(base_config(decoder="fht", r=2))  # fht needs r == 1
    with pytest.raises(ConfigError):
        config_from_dict(base_config(decoder="nonsense"))


# ---- decoder resolution ----


def test_resolve_rejects_hard_decoder_on_soft_channel():
    params = rmcode.CodeParams(3, 1)
    with pytest.raises(ConfigError, match="hard=true"):
        resolve_decoder("reed", params, "awgn", False)
    kind, fn = resolve_decoder("reed", params, "awgn", True)
    assert kind == "hard"


def test_resolve_kinds():
    params = rmcode.CodeParams(4, 2)
    assert resolve_decoder("reed", params, "bsc", False)[0] == "hard"
    assert resolve_decoder("sakkour", params, "bsc", False)[0] == "hard"
    assert resolve_decoder("dumer", params, "awgn", False)[0] == "soft"
    assert resolve_decoder("dumer-list:8", params, "bec", False)[0] == "soft"
    assert resolve_decoder("ml", params, "awgn", False)[0] == "soft"
    # rpa is hard-input on the BSC, LLR-input elsewhere
    assert resolve_decoder("rpa", params, "bsc", False)[0] == "hard"
    assert resolve_decoder("rpa", params, "awgn", False)[0] == "soft"
    assert resolve_decoder("rpa-chase:3", params, "awgn", False)[0] == "soft"


def test_resolve_argument_handling():
    params = rmcode.CodeParams(4, 2)
    with pytest.raises(ConfigError):
        resolve_decoder("dumer-list", params, "awgn", False)  # missing :mu
    with pytest.raises(ConfigError):
        resolve_decoder("dumer-list:x", params, "awgn", False)
    with pytest.raises(ConfigError):
        resolve_decoder("dumer-list:0", params, "awgn", False)
    with pytest.raises(ConfigError):
        resolve_decoder("reed:3", params, "bsc", False)  # takes no argument


@pytest.mark.parametrize("arg", ["1_6", " 8", "+8", "\u0663", "-1", "9" * 5000])
def test_resolve_accepts_only_plain_digit_arguments(arg):
    # int() parses all but the last; the first four would decode under an id the CSV echoes as typed
    params = rmcode.CodeParams(4, 2)
    for name in ("dumer-list", "rpa-chase"):
        with pytest.raises(ConfigError, match="bad :argument"):
            resolve_decoder(f"{name}:{arg}", params, "awgn", False)
        with pytest.raises(ConfigError):
            config_from_dict(base_config(decoder=f"{name}:{arg}", channels=["awgn:1.0"]))


def test_resolve_structural_constraints():
    with pytest.raises(ConfigError):
        resolve_decoder("fht", rmcode.CodeParams(4, 2), "awgn", False)
    with pytest.raises(ConfigError):
        resolve_decoder("sakkour", rmcode.CodeParams(4, 1), "bsc", False)
    with pytest.raises(ConfigError):
        resolve_decoder("rpa", rmcode.CodeParams(4, 0), "bsc", False)
    with pytest.raises(ConfigError):
        resolve_decoder("bw", rmcode.CodeParams(5, 2), "bsc", False)  # odd gap
    assert resolve_decoder("bw", rmcode.CodeParams(6, 2), "bsc", False)[0] == "hard"
    with pytest.raises(TooLarge):
        resolve_decoder("ml", rmcode.CodeParams(6, 3), "awgn", False)


def test_list_size_guard_counts_min_of_u_and_codewords():
    # a dumer-list:u row holds at most min(u, 2^k) paths of n LLRs
    rm83 = rmcode.CodeParams(8, 3)
    assert sim.LIST_MAX_CELLS == 1 << 22
    assert resolve_decoder("dumer-list:16384", rm83, "awgn", False)[0] == "soft"  # at the cap
    for ident in ("dumer-list:16385", "dumer-list:1048576", f"dumer-list:{10**30}"):
        with pytest.raises(TooLarge, match="paths of 256 LLRs"):
            config_from_dict({"m": 8, "r": 3, "decoder": ident, "trials": 1, "channels": ["awgn:1.0"]})
    # 2^5 codewords of 16 bits: any list size is 2^9 cells
    assert resolve_decoder(f"dumer-list:{1 << 80}", rmcode.CodeParams(4, 1), "awgn", False)[0] == "soft"


@pytest.mark.parametrize("mu", [256, 1024])
def test_list_rows_peak_below_the_guard_model(mu):
    # the guard's cap assumes at most 16 bytes per cell of one row's list;
    # one RM(8,3) row at 2^16 and 2^18 cells peaks near 12.6
    import tracemalloc

    params = rmcode.CodeParams(8, 3)
    L = 2.0 + np.random.default_rng(mu).normal(size=(1, params.n))
    tracemalloc.start()
    try:
        sim.resolve_block_decoder(f"dumer-list:{mu}", params, "awgn", False)[1](L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * mu * params.n


# ---- the README decoder table ----

# a code meeting each constraint the table states, keyed by its first clause
_TABLE_CODES = {
    "any (m, r)": (4, 2),
    "r == 1": (4, 1),
    "r == 2": (4, 2),
    "r >= 1": (4, 2),
    "list size u >= 1": (4, 2),
    "m - r even and >= 2": (6, 2),
    "k <= 24 (exhaustive enumeration)": (4, 2),
}


def _readme_decoder_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Decoder ids", 1)[1].split("\n\n", 2)[1]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]
    assert rows[0] == ["id", "input", "constraint"]
    return rows[2:]


def test_readme_decoder_table_matches_resolve():
    rows = _readme_decoder_rows()
    assert len(rows) == 9
    help_text = sim._combo_help()
    for ident, kind, constraint in rows:
        name, _, placeholder = ident.strip("`").partition(":")
        decoder_id = f"{name}:2" if placeholder else name
        m, r = _TABLE_CODES[constraint.split(";")[0]]
        params = rmcode.CodeParams(m, r)
        if kind == "both":
            assert resolve_decoder(decoder_id, params, "bsc", False)[0] == "hard"
            assert resolve_decoder(decoder_id, params, "awgn", False)[0] == "soft"
        else:
            assert kind in ("hard", "soft")
            assert resolve_decoder(decoder_id, params, "bsc", False)[0] == kind
        assert (f"{name}:<" if placeholder else f"{name} (") in help_text


# ---- wilson interval ----


def test_wilson_fixture():
    lo, hi = wilson_interval(1, 10)
    assert lo == pytest.approx(0.0179, abs=2e-4)
    assert hi == pytest.approx(0.4042, abs=2e-4)


def test_wilson_endpoints_exact():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    lo2, hi2 = wilson_interval(1000, 1000)
    assert hi2 == 1.0
    assert hi > 0.0 and lo2 < 1.0


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


@given(st.integers(0, 500), st.integers(1, 500))
def test_wilson_contains_point_estimate(successes, trials):
    successes = min(successes, trials)
    lo, hi = wilson_interval(successes, trials)
    phat = successes / trials
    assert 0.0 <= lo <= phat <= hi <= 1.0


def test_wilson_shrinks_with_trials():
    lo1, hi1 = wilson_interval(10, 100)
    lo2, hi2 = wilson_interval(100, 1000)
    assert hi2 - lo2 < hi1 - lo1


# ---- stream keying ----


def test_stream_keys_are_injective_across_fields():
    seen = set()
    for seed in (0, 1):
        for point in (0, 1):
            for trial in (0, 1):
                for tag in (0, 1):
                    seen.add(sim._stream_key(seed, point, trial, tag))
    assert len(seen) == 16


def test_message_and_noise_streams_differ():
    a = sim._stream_key(9, 0, 5, 0)
    b = sim._stream_key(9, 0, 5, 1)
    assert a != b


@pytest.mark.parametrize("m, r", [(1, 0), (3, 1), (5, 2), (8, 3), (9, 4)])
@pytest.mark.parametrize("seed", [0, -1, 1 << 63, (1 << 64) + 5, -(1 << 70)])
def test_block_streams_equal_per_trial_generators_at_key_edges(m, r, seed):
    from rmlab import channel as ch

    cfg = SimConfig(m=m, r=r, decoder="dumer", channels=(ChannelSpec("awgn", 1.0),), trials=1, seed=seed)
    point, trials = sim.MAX_POINTS - 1, range(sim.MAX_TRIALS - 3, sim.MAX_TRIALS)
    bits, u = sim._streams(cfg, point, trials)
    p = cfg.params
    want_bits = np.stack([ch._rng(sim._stream_key(seed, point, t, 0)).integers(0, 2, size=p.k) for t in trials])
    want_u = np.stack([ch._rng(sim._stream_key(seed, point, t, 1)).random(p.n) for t in trials])
    assert bits.dtype == want_bits.dtype and np.array_equal(bits, want_bits)
    assert u.dtype == want_u.dtype and np.array_equal(u, want_u)


# ---- simulation behavior ----


def test_noiseless_channel_gives_zero_fer():
    cfg = config_from_dict(base_config(channels=["bsc:0"], trials=100))
    (pt,) = run_simulation(cfg)
    assert pt.blk_err == 0 and pt.bit_err == 0
    assert pt.fer == 0.0 and pt.fer_lo == 0.0


def test_always_flipping_channel_gives_fer_one():
    # p = 1 flips every bit; the complement of a codeword is a codeword,
    # so reed returns it and every block and bit is wrong
    cfg = config_from_dict(base_config(channels=["bsc:1"], trials=100))
    (pt,) = run_simulation(cfg)
    assert pt.fer == 1.0 and pt.ber == 1.0 and pt.fer_hi == 1.0


def test_runs_are_deterministic():
    cfg = config_from_dict(base_config(trials=300))
    a = csv_report(cfg, run_simulation(cfg))
    b = csv_report(cfg, run_simulation(cfg))
    assert a == b


def test_parallel_equals_serial():
    cfg = config_from_dict(base_config(trials=300, channels=["bsc:0.05", "bsc:0.1"]))
    serial = csv_report(cfg, run_simulation(cfg, workers=1))
    parallel = csv_report(cfg, run_simulation(cfg, workers=3))
    assert serial == parallel


@pytest.mark.parametrize("workers", [0, -2, -5])
def test_run_simulation_rejects_worker_counts_below_one(workers):
    cfg = config_from_dict(base_config())
    with pytest.raises(ConfigError, match="workers"):
        run_simulation(cfg, workers=workers)


def test_seed_changes_results():
    noisy = base_config(trials=400, channels=["bsc:0.08"])
    a = run_simulation(config_from_dict(noisy))[0]
    b = run_simulation(config_from_dict(noisy | {"seed": 1}))[0]
    assert (a.bit_err, a.blk_err) != (b.bit_err, b.blk_err)


def test_sweep_points_use_distinct_noise():
    cfg = config_from_dict(base_config(trials=400, channels=["bsc:0.08", "bsc:0.08"]))
    a, b = run_simulation(cfg)
    assert a.fer == pytest.approx(b.fer, abs=0.08)
    assert (a.bit_err, a.blk_err) != (b.bit_err, b.blk_err)


def test_error_logging_caps_and_sorts():
    cfg = config_from_dict(base_config(trials=300, channels=["bsc:0.15"], max_errors_to_log=5))
    (pt,) = run_simulation(cfg)
    assert len(pt.error_trials) == 5
    assert list(pt.error_trials) == sorted(pt.error_trials)
    # logged trials really are the first failing ones: rerunning one must fail
    kind, fn = resolve_decoder("reed", cfg.params, "bsc", False)
    from rmlab import channel as ch

    trial = pt.error_trials[0]
    rng = ch._rng(sim._stream_key(0, 0, trial, 0))
    order = rmcode.monomials(cfg.params)
    bits = rng.integers(0, 2, size=cfg.params.k)
    msg = rmcode.Message(cfg.params, {order[i]: int(bits[i]) for i in range(cfg.params.k)})
    c = rmcode.encode(msg)
    out = ch.transmit(c, cfg.channels[0], sim._stream_key(0, 0, trial, 1))
    assert not np.array_equal(fn(out.data), c)


def test_timing_disabled_zeroes_seconds():
    cfg = config_from_dict(base_config(trials=20))
    (pt,) = run_simulation(cfg)
    assert pt.seconds == 0.0
    cfg_timed = config_from_dict(base_config(trials=20, timing=True))
    (pt2,) = run_simulation(cfg_timed)
    assert pt2.seconds > 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_timed_sweep_charges_every_point(workers):
    data = base_config(trials=300, channels=["bsc:0.02", "bsc:0.05", "bec:0.3"], decoder="dumer", r=2)
    untimed = run_simulation(config_from_dict(data), workers=workers)
    start = time.perf_counter()
    timed = run_simulation(config_from_dict(data | {"timing": True}), workers=workers)
    wall = time.perf_counter() - start
    assert all(pt.seconds > 0.0 for pt in timed)
    assert sum(pt.seconds for pt in timed) <= wall
    assert [dataclasses.replace(pt, seconds=0.0) for pt in timed] == untimed


def test_run_simulation_rejects_worker_counts_above_cap_before_any_pool(monkeypatch):
    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} workers was asked for")

    monkeypatch.setattr(sim, "worker_pool", no_pool)
    cfg = config_from_dict(base_config())
    for workers in (sim.MAX_WORKERS + 1, 100_000):
        with pytest.raises(ConfigError, match="workers"):
            run_simulation(cfg, workers=workers)


def test_csv_shape():
    cfg = config_from_dict(base_config(trials=40, channels=["bsc:0.05", "bec:0.3"], decoder="dumer"))
    text = csv_report(cfg, run_simulation(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == sim.CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("3,1,dumer,bsc,0.05,40,")
    assert lines[2].startswith("3,1,dumer,bec,0.3,40,")
    assert text.endswith("\n")


def test_bec_with_hard_quantization_and_undecodable_fallback():
    # erased LLRs quantize to bit 0; reed still returns codewords, so the
    # run completes and rates stay in range
    cfg = config_from_dict(base_config(trials=60, channels=["bec:0.4"], hard=True))
    (pt,) = run_simulation(cfg)
    assert 0.0 <= pt.fer <= 1.0


def test_regression_rm52_rpa_bsc():
    # frozen reference run: any change to the RNG keying, the channel, or
    # the decoder shows up here
    cfg = SimConfig(
        m=5, r=2, decoder="rpa", channels=(ChannelSpec("bsc", 0.03),), trials=10_000, seed=7
    )
    (pt,) = run_simulation(cfg)
    assert pt.blk_err == 94
    assert pt.bit_err == 533
    assert pt.fer == pytest.approx(0.0094, abs=0)


# ---- config-time rejection of what would fail or alias mid-sweep ----


def test_resolve_rejects_chase_t_beyond_cap():
    params = rmcode.CodeParams(5, 2)
    assert resolve_decoder("rpa-chase:16", params, "awgn", False)[0] == "soft"
    for t in (17, 40):
        with pytest.raises(ConfigError, match="t must be in"):
            resolve_decoder(f"rpa-chase:{t}", params, "awgn", False)
    # below the cap, t is bounded by the code length
    with pytest.raises(ConfigError, match="t must be in"):
        resolve_decoder("rpa-chase:9", rmcode.CodeParams(3, 1), "awgn", False)
    with pytest.raises(ConfigError):
        config_from_dict(base_config(decoder="rpa-chase:40", m=5, r=2, channels=["awgn:1"]))


def test_config_resolves_decoder_on_every_channel():
    mixed = base_config(channels=["bsc:0.01", "awgn:1"])
    with pytest.raises(ConfigError, match="on awgn"):
        config_from_dict(mixed)
    assert config_from_dict(mixed | {"hard": True}).hard is True
    with pytest.raises(ConfigError, match="on bec"):
        config_from_dict(base_config(decoder="sakkour", r=2, channels=["bsc:0.01", "bec:0.1"]))
    # a SimConfig built directly is checked the same way, not at point 1 of the sweep
    mixed_specs = (ChannelSpec("bsc", 0.05), ChannelSpec("awgn", 0.8))
    with pytest.raises(ConfigError, match="on awgn"):
        SimConfig(m=4, r=1, decoder="reed", channels=mixed_specs, trials=50)
    assert SimConfig(m=4, r=1, decoder="reed", channels=mixed_specs, trials=50, hard=True).hard is True


def test_config_rejects_stream_key_aliasing():
    assert sim._stream_key(1, 0, 0, 0) == sim._stream_key(1, sim.MAX_POINTS, 0, 0)
    assert sim._stream_key(1, 0, 0, 0) == sim._stream_key(1, 0, sim.MAX_TRIALS, 0)
    many = ["bsc:0.01"] * sim.MAX_POINTS
    assert len(config_from_dict(base_config(channels=many)).channels) == sim.MAX_POINTS
    with pytest.raises(ConfigError, match="sweep points"):
        config_from_dict(base_config(channels=many + ["bsc:0.01"]))
    assert config_from_dict(base_config(trials=sim.MAX_TRIALS)).trials == sim.MAX_TRIALS
    with pytest.raises(ConfigError, match="trials"):
        config_from_dict(base_config(trials=sim.MAX_TRIALS + 1))
    with pytest.raises(ConfigError, match="trials"):
        SimConfig(m=3, r=1, decoder="reed", channels=(ChannelSpec("bsc", 0.1),), trials=2**40)


@pytest.mark.parametrize("text", ["awgn:nan", "awgn:inf", "bsc:nan", "bec:-inf"])
def test_config_rejects_non_finite_channel_parameters(text):
    with pytest.raises(ConfigError, match="finite|parameter"):
        config_from_dict(base_config(decoder="dumer", channels=[text]))


@pytest.mark.parametrize(
    "over,match",
    [
        ({"channel": "bsc", "params": ["x"]}, "'params' must be a list of numbers"),
        ({"channel": "bsc", "params": [True]}, "'params' must be a list of numbers"),
        ({"channel": "bsc", "params": [None]}, "'params' must be a list of numbers"),
        ({"channel": "bsc", "params": "0.1"}, "'params' must be a list of numbers"),
        ({"channel": "bsc", "params": [2]}, r"bsc parameter must be in \[0, 1\]"),
        ({"channel": "fsk", "params": [0.1]}, "unknown channel kind"),
        ({"channels": ["bsc:2"]}, "bad channel spec 'bsc:2'"),
        ({"channels": ["bsc"]}, "bad channel spec 'bsc'"),
        ({"channels": "bsc:0.1"}, "'channels' must be a list of strings"),
        ({"channels": [0.1]}, "'channels' must be a list of strings"),
    ],
)
def test_config_rejects_bad_channels_with_config_error(over, match):
    data = {k: v for k, v in base_config().items() if k != "channels"} | over
    with pytest.raises(ConfigError, match=match):
        config_from_dict(data)


# ---- mistyped config values ----


@pytest.mark.parametrize(
    "over",
    [
        {"hard": "false"},
        {"hard": 0},
        {"timing": "yes"},
        {"timing": 1},
        {"trials": 2.7},
        {"trials": "50"},
        {"trials": True},
        {"m": True},
        {"r": 1.5},
        {"seed": float("nan")},
        {"seed": None},
        {"max_errors_to_log": 2.5},
        {"max_errors_to_log": -1},
    ],
)
def test_config_rejects_mistyped_values(over):
    with pytest.raises(ConfigError):
        config_from_dict(base_config(**over))


def test_config_accepts_integral_numbers_and_bools():
    cfg = config_from_dict(base_config(trials=50.0, seed=7.0, hard=True, timing=False))
    assert cfg.trials == 50 and isinstance(cfg.trials, int)
    assert cfg.seed == 7 and cfg.hard is True and cfg.timing is False
    assert config_from_dict(base_config(seed=10**400)).seed == 10**400  # too big for a float
    with pytest.raises(ConfigError, match="trials"):
        config_from_dict(base_config(trials=10**400))


# ---- import cost ----


def test_wilson_z_is_scipys_quantile():
    from scipy.special import ndtri

    assert sim._WILSON_Z == float(ndtri(0.975))


def test_importing_the_harness_leaves_scipy_unloaded():
    # scipy.special takes about 0.2 s to import; BSC and BEC runs never need it
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, rmlab.sim; sys.exit('scipy.special' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0


def _blas_threads(_=None):
    get_threads = sim._openblas("get_num_threads")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


def test_pool_workers_run_one_blas_thread():
    if sim._openblas("get_num_threads") is None:
        pytest.skip("numpy does not run on a bundled OpenBLAS")
    before = _blas_threads()
    with sim.worker_pool(2) as pool:
        assert list(pool.map(_blas_threads, range(4))) == [1] * 4
    assert _blas_threads() == before  # the serial path keeps its threads


# ---- the steady heap ----

@pytest.fixture
def fresh_heap_policy():
    """_steady_heap runs again on its next call, here and after the test."""
    sim._steady_heap.cache_clear()
    yield
    sim._steady_heap.cache_clear()


def _recording_mallopt(monkeypatch, path):
    """Replace mallopt by a recorder that appends "pid param value" lines to
    path, a file, so forked workers record too."""

    def mallopt(param, value):
        with open(path, "a") as f:
            f.write(f"{os.getpid()} {param} {value}\n")
        return 1

    monkeypatch.setattr(sim, "_mallopt", lambda: mallopt)


def _recorded(path):
    calls = {}
    for line in path.read_text().splitlines():
        pid, param, value = map(int, line.split())
        calls.setdefault(pid, []).append((param, value))
    return calls


_BOTH_THRESHOLDS = [(sim._M_MMAP_THRESHOLD, sim._HEAP_BYTES), (sim._M_TRIM_THRESHOLD, 2 * sim._HEAP_BYTES)]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_simulation_sets_both_heap_thresholds_once_per_process(workers, fresh_heap_policy,
                                                                   monkeypatch, tmp_path):
    _recording_mallopt(monkeypatch, tmp_path / "calls")
    cfg = config_from_dict(base_config(trials=300, channels=["bsc:0.05", "bsc:0.1"]))
    for _ in range(2):
        run_simulation(cfg, workers=workers)
    calls = _recorded(tmp_path / "calls")
    assert calls[os.getpid()] == _BOTH_THRESHOLDS
    assert all(pid_calls == _BOTH_THRESHOLDS for pid_calls in calls.values())


def _pid(_):
    return os.getpid()


def test_pool_workers_set_both_heap_thresholds(fresh_heap_policy, monkeypatch, tmp_path):
    """Workers apply the policy themselves, as a spawned worker must."""
    _recording_mallopt(monkeypatch, tmp_path / "calls")
    with sim.worker_pool(2) as pool:
        pids = set(pool.map(_pid, range(8)))
    calls = _recorded(tmp_path / "calls")
    assert pids <= set(calls)
    assert all(pid_calls == _BOTH_THRESHOLDS for pid_calls in calls.values())


def test_golden_csv_without_mallopt(fresh_heap_policy, monkeypatch):
    monkeypatch.setattr(sim, "_mallopt", lambda: None)
    data = Path(__file__).parent / "data"
    cfg = config_from_dict(json.loads((data / "golden_sim_config.json").read_text()))
    assert csv_report(cfg, run_simulation(cfg)) == (data / "golden_sim.csv").read_text()


def test_repeated_run_takes_almost_no_minor_faults(fresh_heap_policy):
    """Freed block arrays stay in the heap: a second identical run of the
    light-sweep reed config faults in almost no pages (about 487 without
    the policy, on glibc's default thresholds)."""
    if platform.libc_ver()[0] != "glibc" or sim._mallopt() is None:
        pytest.skip("glibc's mallopt is unavailable")
    import resource

    cfg = config_from_dict({"m": 5, "r": 2, "decoder": "reed", "trials": 400, "seed": 1,
                            "channels": ["bsc:0.01", "bsc:0.02", "bsc:0.032", "bsc:0.05"]})
    run_simulation(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_simulation(cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50
