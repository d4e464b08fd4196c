import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from rmlab import cli, sim
from rmlab.decoders import oracle

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---- encode ----


def test_encode_symbolic_message(capsys):
    rc, out, _ = run(capsys, "encode", "3", "1", '{"x1": 1}')
    assert rc == 0
    assert out.strip() == "F0"


def test_encode_mask_keys_match_symbolic(capsys):
    rc, out1, _ = run(capsys, "encode", "3", "2", '{"3": 1, "4": 1}')
    rc2, out2, _ = run(capsys, "encode", "3", "2", '{"x1x2": 1, "x3": 1}')
    assert rc == rc2 == 0
    assert out1 == out2


def test_encode_empty_message_is_zero_word(capsys):
    rc, out, _ = run(capsys, "encode", "3", "1", "{}")
    assert rc == 0
    assert out.strip() == "00"


def test_encode_rejects_bad_degree(capsys):
    rc, _, err = run(capsys, "encode", "3", "1", '{"x1x2": 1}')
    assert rc == 2
    assert "error" in err


def test_encode_rejects_bad_json(capsys):
    rc, _, err = run(capsys, "encode", "3", "1", "{not json")
    assert rc == 2


# ---- decode ----


def test_decode_hex_roundtrip(capsys):
    rc, out, _ = run(capsys, "decode", "3", "1", "reed", "--hex", "F1")
    assert rc == 0
    obj = json.loads(out)
    assert obj["codeword_hex"] == "F0"
    assert obj["message"] == {"1": 1}  # mask keys on output; x-names are input sugar
    assert obj["metric"] == 3.0  # (7 agreements - 1 disagreement) / 2


def test_decode_llr_soft_decoder(capsys):
    llrs = ",".join(["-2.0"] * 4 + ["2.0"] * 4)
    rc, out, _ = run(capsys, "decode", "3", "1", "fht", f"--llr={llrs}")
    assert rc == 0
    obj = json.loads(out)
    assert obj["codeword_hex"] == "F0"
    assert obj["metric"] == pytest.approx(8.0)


def test_decode_requires_matching_input_kind(capsys):
    assert run(capsys, "decode", "3", "1", "reed", "--llr=1,1,1,1,1,1,1,1")[0] == 2
    assert run(capsys, "decode", "3", "1", "fht", "--hex", "F0")[0] == 2
    assert run(capsys, "decode", "3", "1", "reed")[0] == 2
    rc = run(capsys, "decode", "3", "1", "reed", "--hex", "F0", "--llr=1,1,1,1,1,1,1,1")[0]
    assert rc == 2


def test_decode_names_the_missing_input_flag(capsys):
    llrs = "--llr=1,1,1,1,1,1,1,1"
    rc, out, err = run(capsys, "decode", "3", "1", "reed", llrs)
    assert (rc, out) == (2, "")
    assert "'reed' needs --hex input" in err
    rc, out, err = run(capsys, "decode", "3", "1", "fht", "--hex", "F0")
    assert (rc, out) == (2, "")
    assert "'fht' needs --llr input" in err
    # a bad argument or code reports itself, not the input flag
    rc, _, err = run(capsys, "decode", "3", "1", "reed:3", llrs)
    assert rc == 2 and "takes no :argument" in err
    rc, _, err = run(capsys, "decode", "3", "1", "sakkour", llrs)
    assert rc == 2 and "second-order" in err
    # rpa takes either kind
    assert run(capsys, "decode", "3", "1", "rpa", llrs)[0] == 0
    assert run(capsys, "decode", "3", "1", "rpa", "--hex", "F0")[0] == 0


@pytest.mark.parametrize(
    "decoder,why", [("rpa-chase:9", "t must be in [0, 8]"), ("dumer-list:0", "list size must be >= 1"),
                    ("bogus", "unknown decoder id")]
)
def test_decode_llr_errors_name_the_awgn_resolution(capsys, decoder, why):
    # --llr words decode as on awgn: a bad id or argument reports that
    # resolution, not a second one on the bsc
    rc, out, err = run(capsys, "decode", "3", "1", decoder, "--llr=1,2,3,4,5,6,7,8")
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {decoder!r} on awgn: {why};")


@pytest.mark.parametrize("arg", ["1_6", " 8", "+8", "\u0663"])
def test_decoder_argument_must_be_plain_digits(capsys, tmp_path, arg):
    rc, out, err = run(capsys, "decode", "3", "1", f"dumer-list:{arg}", "--llr=1,1,1,1,1,1,1,1")
    assert (rc, out) == (2, "")
    assert "bad :argument" in err
    cfg = tmp_path / "c.json"
    data = {"m": 3, "r": 1, "decoder": f"dumer-list:{arg}", "trials": 5, "channels": ["awgn:1.0"]}
    cfg.write_text(json.dumps(data))
    rc, out, err = run(capsys, "simulate", str(cfg))
    assert (rc, out) == (2, "")
    assert "bad :argument" in err


def test_decode_wrong_llr_count(capsys):
    assert run(capsys, "decode", "3", "1", "fht", "--llr=1,2,3")[0] == 2


def test_decode_undecodable_reports_cleanly(capsys):
    rc, out, _ = run(capsys, "decode", "4", "2", "bw", "--hex", "C000")
    assert rc == 0
    assert "undecodable" in json.loads(out)


def test_decode_resource_guard(capsys):
    llrs = ",".join(["1"] * 64)
    rc, _, err = run(capsys, "decode", "6", "3", "ml", f"--llr={llrs}")
    assert rc == 4
    assert "resource guard" in err


def test_bw_past_the_evaluation_cap_exits_4_at_once(capsys):
    # E = RM(15, 7) evaluates 2^14 monomials on 2^15 points, past rmcode's
    # cell cap; the guard fires before any step-1 table is built
    start = time.perf_counter()
    rc, out, err = run(capsys, "decode", "15", "1", "bw", "--hex", "0" * (1 << 13))
    assert time.perf_counter() - start < 2.0
    assert (rc, out) == (4, "")
    assert err.startswith("resource guard:") and err.count("\n") == 1


def test_list_size_guard_exits_4_at_once(capsys, tmp_path):
    # 2^20 paths of 256 LLRs, 1 GiB per array: this config used to pass
    # config_from_dict and die allocating in its first block
    cfg = tmp_path / "c.json"
    data = {"m": 8, "r": 3, "decoder": "dumer-list:1048576", "trials": 2, "channels": ["awgn:0.9"]}
    cfg.write_text(json.dumps(data))
    for argv in (("simulate", str(cfg)), ("decode", "8", "3", "dumer-list:1048576", "--llr=" + ",".join(["1"] * 256))):
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (4, "")
        assert err.startswith("resource guard:") and err.count("\n") == 1


def test_bw_size_guard_exits_4_at_once(capsys, tmp_path):
    # RM(14,0) indexes k_R * k_E = 6476 * 9908 step-1 cells, past sim.BW_MAX_CELLS
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"m": 14, "r": 0, "decoder": "bw", "trials": 2, "channels": ["bsc:0.01"]}))
    for argv in (("simulate", str(cfg)), ("decode", "14", "0", "bw", "--hex", "0" * (1 << 12))):
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (4, "")
        assert err.startswith("resource guard:") and "64164208 step-1 cells" in err and err.count("\n") == 1


def test_decode_ml_matches_recorded_outputs(capsys, monkeypatch):
    # exit code, stdout and stderr of `rmlab decode ... ml` on a fixed call
    # set, recorded when every row went through the exhaustive search:
    # valid words, AWGN and BSC words around d/2 errors, ties, zeros, r = 0
    # and r = m codes, magnitudes near 1e+-300 and subnormals, k = 22,
    # the resource guard (exit 4) and bad input (exit 2)
    cases = json.loads((DATA / "decode_ml_outputs.json").read_text())
    certified = []
    certify = oracle._certified

    def counted(params, L):
        words, ok = certify(params, L)
        certified.extend(ok)
        return words, ok

    monkeypatch.setattr(oracle, "_certified", counted)
    for case in cases:
        assert run(capsys, *case["argv"]) == (case["rc"], case["out"], case["err"]), case["argv"]
    assert 0 < sum(certified) < len(certified)  # both paths ran


def test_structure_layer_matches_recorded_outputs(capsys):
    # exit code, stdout and stderr of 414 calls recorded before the monomial
    # evaluations went through one array evaluator: encode for m <= 6, every
    # exact analyze report for m <= 4, mc exit and polarize at m = 5, 8 and
    # 10 with two seeds, reed, sakkour and bw decodes (bw's inconsistent
    # erased words included), and the error and resource-guard exits
    cases = json.loads((DATA / "structure_outputs.json").read_text())
    start = time.perf_counter()
    for case in cases:
        assert run(capsys, *case["argv"]) == (case["rc"], case["out"], case["err"]), case["argv"]
    assert time.perf_counter() - start < 5.0


# ---- analyze ----


def test_analyze_weights_rows(capsys):
    rc, out, _ = run(capsys, "analyze", "weights", "3", "1")
    assert rc == 0
    assert out.splitlines() == ["0,1", "4,14", "8,1"]


def test_analyze_weights_guard(capsys):
    rc, _, err = run(capsys, "analyze", "weights", "5", "3")
    assert rc == 4


def test_analyze_ghw_rows(capsys):
    rc, out, _ = run(capsys, "analyze", "ghw", "3", "1")
    assert rc == 0
    assert out.splitlines() == ["1,4", "2,6", "3,7", "4,8"]


def test_analyze_exit_line(capsys):
    rc, out, _ = run(capsys, "analyze", "exit", "3", "0", "0.5")
    assert rc == 0
    m, r, p, label, value, mode, trials = out.strip().split(",")
    assert (m, r, p, label, mode, trials) == ("3", "0", "0.5", "h", "exact", "0")
    assert float(value) == pytest.approx(0.5**7)


def test_analyze_area_line(capsys):
    rc, out, _ = run(capsys, "analyze", "area", "3", "1")
    assert rc == 0
    fields = out.strip().split(",")
    assert fields[:4] == ["3", "1", "0.5", "0.5"]
    assert float(fields[4]) < 1e-3


def test_analyze_polarize_rows_balance(capsys):
    rc, out, err = run(capsys, "analyze", "polarize", "3", "0.5")
    assert rc == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 8
    total = math.fsum(float(line.split(",")[4]) for line in lines)
    assert total == pytest.approx(4.0, abs=1e-9)
    names = [line.split(",")[1] for line in lines]
    assert names[0] == "x1x2x3" and names[-1] == "1"


def test_analyze_polarize_mc_mode_skips_checks(capsys):
    rc, out, _ = run(capsys, "analyze", "polarize", "2", "0.5", "--mode", "mc", "--trials", "2000")
    assert rc == 0
    assert all(line.split(",")[5] == "mc" for line in out.splitlines())


@pytest.mark.parametrize("argv", [("exit", "3", "1", "0.5"), ("polarize", "2", "0.5")])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_analyze_mc_rejects_trials_below_one(capsys, argv, trials):
    rc, out, err = run(capsys, "analyze", *argv, "--mode", "mc", "--trials", trials)
    assert (rc, out) == (2, "")
    assert err == f"error: mc mode needs trials >= 1, got {trials}\n"


def test_analyze_twin_output(capsys):
    rc, out, _ = run(capsys, "analyze", "twin", "3", "0.45", "0.4")
    assert rc == 0
    lines = out.splitlines()
    selected = [l for l in lines if ",selected_H," in l]
    sym = [l for l in lines if ",symmetric_difference," in l]
    assert [l.split(",")[1] for l in selected] == ["x1", "x2", "x3", "1"]
    assert [l.split(",")[1] for l in sym] == ["r=0", "r=1", "r=2", "r=3"]
    # at p=0.45 the entropy ranking matches the degree ranking exactly
    assert all(l.split(",")[4] == "0" for l in sym)


def test_analyze_polarize_guard(capsys):
    rc, _, err = run(capsys, "analyze", "polarize", "5", "0.5")
    assert rc == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("polarize", "21", "0.3"),
        ("twin", "21", "0.3", "0.1"),
        ("polarize", "30", "0.3"),
        ("polarize", "40", "0.3", "--mode", "mc", "--trials", "1"),
        ("exit", "30", "1", "0.5", "--mode", "mc", "--trials", "1"),
        # one past the mc cap, n <= 2^14
        ("polarize", "15", "0.3", "--mode", "mc", "--trials", "1"),
        ("exit", "15", "7", "0.5", "--mode", "mc", "--trials", "1"),
        # a single evaluation row of 2^30 cells passes rmcode's cell cap
        ("weights", "30", "0"),
    ],
)
def test_analyze_size_guards_exit_4_at_once(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, "analyze", *argv)
    assert time.perf_counter() - start < 2.0
    assert (rc, out) == (4, "")
    assert err.startswith("resource guard:") and err.count("\n") == 1


def test_encode_past_the_evaluation_cap_exits_4_at_once(capsys):
    # the empty message evaluates no monomial, yet its word has 2^30 bits
    for message in ('{"0": 1}', "{}"):
        start = time.perf_counter()
        rc, out, err = run(capsys, "encode", "30", "0", message)
        assert time.perf_counter() - start < 2.0
        assert (rc, out) == (4, "")
        assert err.startswith("resource guard:") and err.count("\n") == 1


def test_analyze_mc_runs_at_m_12(capsys):
    rc, out, err = run(capsys, "analyze", "polarize", "12", "0.3", "--mode", "mc", "--trials", "1")
    assert (rc, err) == (0, "")
    assert len(out.splitlines()) == 1 << 12
    rc, out, err = run(capsys, "analyze", "exit", "12", "2", "0.3", "--mode", "mc", "--trials", "1")
    assert (rc, err) == (0, "")
    m, r, p, label, value, mode, trials = out.strip().split(",")
    assert (m, r, label, mode, trials) == ("12", "2", "h", "mc", "1")
    assert value in ("0", "1")


def test_analyze_polarize_rejects_negative_m(capsys):
    rc, out, err = run(capsys, "analyze", "polarize", "-1", "0.3")
    assert (rc, out) == (2, "")
    assert err == "error: m must be >= 0, got -1\n"


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_analyze_twin_rejects_non_finite_eps(capsys, eps):
    rc, out, err = run(capsys, "analyze", "twin", "2", "0.3", eps)
    assert (rc, out) == (2, "")
    assert err == f"error: eps must be finite, got {eps}\n"


def test_polarization_report_matches_the_cli(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "polarization_report.py"
    done = subprocess.run(
        [sys.executable, str(script), "--m", "2", "--p", "0.3,0.7"],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    blocks = done.stdout.split("# m=2 p=")[1:]
    assert [block.split("\n", 1)[0] for block in blocks] == ["0.3", "0.7"]
    for p, block in zip(("0.3", "0.7"), blocks):
        rc, out, _ = run(capsys, "analyze", "polarize", "2", p)
        assert rc == 0
        expect = [(line.split(",")[1], float(line.split(",")[4])) for line in out.splitlines()]
        got = [
            (line.split("]")[0].split("[")[1].strip(), float(line.split("=")[1]))
            for line in block.splitlines()
            if line.strip().startswith("H[")
        ]
        assert [name for name, _ in got] == [name for name, _ in expect]
        for (_, h), (_, ref) in zip(got, expect):
            assert h == pytest.approx(ref, abs=5e-7)
        residual = [line for line in block.splitlines() if "balance residual:" in line]
        assert len(residual) == 1 and float(residual[0].split(":")[1]) < 1e-12


# ---- simulate ----


def test_simulate_matches_golden_csv(capsys, tmp_path):
    golden = (DATA / "golden_sim.csv").read_text()
    config = DATA / "golden_sim_config.json"
    rc, out, err = run(capsys, "simulate", str(config))
    assert rc == 0
    assert out == golden
    # the logged error trials land on stderr as comments
    assert err.count("# error") == 9


def test_simulate_parallel_matches_golden(capsys):
    config = DATA / "golden_sim_config.json"
    rc, out, _ = run(capsys, "simulate", str(config), "--workers", "2")
    assert rc == 0
    assert out == (DATA / "golden_sim.csv").read_text()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_rejects_worker_counts_below_one(capsys, workers):
    rc, out, err = run(capsys, "simulate", str(DATA / "golden_sim_config.json"), "--workers", workers)
    assert rc == 2 and out == ""
    assert "workers must be >= 1" in err


def test_simulate_rejects_worker_counts_above_cap(capsys, monkeypatch):
    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} workers was asked for")

    monkeypatch.setattr(sim, "worker_pool", no_pool)
    rc, out, err = run(capsys, "simulate", str(DATA / "golden_sim_config.json"), "--workers", "100000")
    assert rc == 2 and out == ""
    assert f"workers must be <= {sim.MAX_WORKERS}" in err


def test_simulate_rejects_bad_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 3, "r": 1, "decoder": "reed", "trials": 10}))
    assert run(capsys, "simulate", str(bad))[0] == 2
    bad.write_text("{')")
    assert run(capsys, "simulate", str(bad))[0] == 2
    assert run(capsys, "simulate", str(tmp_path / "missing.json"))[0] == 2


@pytest.mark.parametrize("text", ["[]", "3", "null", '"x"'])
def test_simulate_rejects_a_config_that_is_not_an_object(capsys, tmp_path, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    rc, out, err = run(capsys, "simulate", str(cfg))
    assert (rc, out, err) == (2, "", "error: config JSON must be an object\n")


@pytest.mark.parametrize(
    "over",
    [{"channel": "bsc", "params": ["x"]}, {"channels": ["bsc:2"]}, {"channels": "bsc:0.1"}, {"channels": [1]}],
)
def test_simulate_rejects_bad_channels(capsys, tmp_path, over):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"m": 3, "r": 1, "decoder": "reed", "trials": 5} | over))
    rc, out, err = run(capsys, "simulate", str(cfg))
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_simulate_rejects_incompatible_decoder(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps({"m": 3, "r": 1, "decoder": "reed", "trials": 5, "channels": ["awgn:1.0"]})
    )
    rc, _, err = run(capsys, "simulate", str(cfg))
    assert rc == 2
    assert "hard=true" in err


@pytest.mark.parametrize(
    "over",
    [
        {"decoder": "rpa-chase:40", "m": 5, "r": 2, "channels": ["awgn:1.0"]},
        {"decoder": "reed", "channels": ["bsc:0.01", "awgn:1.0"]},
        {"decoder": "dumer", "channels": ["awgn:nan"]},
        {"decoder": "dumer", "trials": 2**32 + 1},
    ],
)
def test_simulate_rejects_configs_that_would_fail_mid_sweep(capsys, tmp_path, over):
    cfg = tmp_path / "c.json"
    data = {"m": 3, "r": 1, "decoder": "reed", "trials": 5, "channels": ["bsc:0.01"]}
    cfg.write_text(json.dumps(data | over))
    rc, out, err = run(capsys, "simulate", str(cfg))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "over",
    [{"hard": "false"}, {"timing": "no"}, {"trials": 2.7}, {"m": True}, {"seed": "1"}],
)
def test_simulate_rejects_mistyped_config_values(capsys, tmp_path, over):
    cfg = tmp_path / "c.json"
    data = {"m": 3, "r": 1, "decoder": "reed", "trials": 5, "channels": ["bsc:0.01"]}
    cfg.write_text(json.dumps(data | over))
    rc, out, err = run(capsys, "simulate", str(cfg))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_decode_rejects_non_finite_llrs(capsys, bad):
    rc, out, err = run(capsys, "decode", "2", "1", "dumer", f"--llr={bad},1,1,1")
    assert rc == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("decoder", ["rpa-chase:3", "dumer-list:4", "ml"])
def test_decode_rejects_llrs_whose_sums_could_overflow(capsys, decoder):
    # RM(5,2): n * max|L| must stay below 2^1020; 1e308 made a NaN or an
    # infinite metric, and 2^1020 / 32 is the first magnitude rejected
    edge = 2.0**1020 / 32
    for mag in (1e308, 1.7e308, edge):
        llrs = ",".join([repr(-mag), repr(mag)] * 16)
        rc, out, err = run(capsys, "decode", "5", "2", decoder, f"--llr={llrs}")
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "2^1020" in err
    llrs = ",".join([repr(-math.nextafter(edge, 0)), repr(math.nextafter(edge, 0))] * 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "decode", "5", "2", decoder, f"--llr={llrs}")
    assert (rc, err) == (0, "")
    assert math.isfinite(json.loads(out)["metric"])


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "rmlab", "encode", "3", "1", '{"x1": 1}'],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "F0"


def _env_with_src():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy.integrate alone takes about 0.5 s to import; only `analyze area` needs it
    code = "import sys, rmlab.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), timeout=120)
    assert done.returncode == 0


def _fer_sweep(*argv):
    script = Path(__file__).resolve().parents[1] / "scripts" / "fer_sweep.py"
    return subprocess.run(
        [sys.executable, str(script), *argv],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )


def test_fer_sweep_checks_every_config_before_any_row():
    # fht cannot decode RM(4, 2); reed, listed first, must not print its rows
    done = _fer_sweep("--m", "4", "--r", "2", "--decoders", "reed,fht", "--trials", "20")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "'fht'" in done.stderr
    done = _fer_sweep("--params", "0.01,x", "--decoders", "reed", "--trials", "20")
    assert (done.returncode, done.stdout) == (2, "")


def test_fer_sweep_prints_one_row_per_decoder_and_point():
    done = _fer_sweep("--m", "3", "--r", "1", "--decoders", "reed,dumer", "--params", "0.01,0.05",
                      "--trials", "20")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == sim.CSV_HEADER
    assert [line.split(",")[2:5] for line in lines[1:]] == [
        [d, "bsc", p] for d in ("reed", "dumer") for p in ("0.01", "0.05")
    ]
