import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rmlab import cli, sim

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


def test_simulate_rejects_bad_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 3, "r": 1, "decoder": "reed", "trials": 10}))
    assert run(capsys, "simulate", str(bad))[0] == 2
    bad.write_text("{')")
    assert run(capsys, "simulate", str(bad))[0] == 2
    assert run(capsys, "simulate", str(tmp_path / "missing.json"))[0] == 2


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
