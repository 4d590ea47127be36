import json
import math
from pathlib import Path

import pytest

from mfgibbs import thermodynamics
from mfgibbs.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_degeneracy(capsys):
    code, out, err = run(capsys, "check", "--config",
                         str(CONFIGS / "uniform_cantor.json"))
    assert code == 0
    assert "degenerate,true" in out
    assert "osc_satisfied,true" in out
    assert "degenerate=true" in err


def test_check_non_degenerate(capsys):
    code, out, _ = run(capsys, "check", "--config",
                       str(CONFIGS / "cantor_14_34.json"))
    assert code == 0
    assert "degenerate,false" in out


def test_cdf_accepts_rational_points(capsys):
    code, out, _ = run(capsys, "cdf", "--config",
                       str(CONFIGS / "uniform_cantor.json"),
                       "--points", "1/3,1/9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value,error_bound"
    assert lines[1].split(",")[1] == "0.5"
    assert lines[2].split(",")[1] == "0.25"


def test_cdf_lebesgue_identity(capsys):
    code, out, _ = run(capsys, "cdf", "--config",
                       str(CONFIGS / "lebesgue.json"),
                       "--points", "0.25,0.5,0.75")
    assert code == 0
    values = [float(line.split(",")[1])
              for line in out.strip().split("\n")[1:]]
    assert values == [0.25, 0.5, 0.75]


def test_spectrum_csv_layout(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _, err = run(capsys, "spectrum", "--config",
                       str(CONFIGS / "cantor_14_34.json"),
                       "--out", str(out_file), "--threads", "2")
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "q,beta,alpha,beta_star"
    assert len(lines) == 203  # header + 201 rows + trailing newline
    assert lines[-1] == ""
    assert "alpha_zero=0.761860" in err


def test_beta_respects_grid_flags(capsys):
    code, out, _ = run(capsys, "beta", "--config",
                       str(CONFIGS / "cantor_14_34.json"),
                       "--q-min", "0", "--q-max", "1", "--q-steps", "3")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 3
    q0 = float(rows[0].split(",")[1])
    assert q0 == pytest.approx(math.log(2) / math.log(3), abs=1e-9)
    q1 = float(rows[2].split(",")[1])
    assert q1 == pytest.approx(0.0, abs=1e-9)


def test_endpoints_command(capsys):
    code, out, _ = run(capsys, "endpoints", "--config",
                       str(CONFIGS / "cantor_14_34.json"))
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[0]) == pytest.approx(0.2618595071429148, abs=1e-12)
    assert float(row[1]) == pytest.approx(1.2618595071429148, abs=1e-12)


def test_pressure_levels_csv(capsys):
    code, out, err = run(capsys, "pressure", "--config",
                         str(CONFIGS / "moebius_pair.json"))
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 10
    assert "error_bound=" in err


def test_verify_prop_small_battery(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "cantor_14_34.json").read_text())
    cfg["probe"] = {"words": ["0", "1", "01"], "ks": [1]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "verify-prop", "--config", str(path))
    assert code == 0
    assert "violations=0" in err
    assert out.count("\n") == 4  # header + 3 probes


def test_detrend_summary(capsys):
    code, _, err = run(capsys, "detrend", "--config",
                       str(CONFIGS / "cantor_14_34.json"))
    assert code == 0
    assert "passed=true" in err
    assert "violation=false" in err


def test_detrend_flags_violation(capsys):
    code, _, err = run(capsys, "detrend", "--config",
                       str(CONFIGS / "lebesgue.json"))
    assert code == 0
    assert "passed=false" in err
    assert "violation=true" in err


def test_predict_packing_grid(capsys):
    code, out, err = run(capsys, "predict-packing", "--config",
                         str(CONFIGS / "cantor_14_34.json"))
    assert code == 0
    assert out.startswith("alpha,hausdorff,packing,empty")
    assert "plateau=0.630930" in err


def test_missing_config_is_a_config_error(capsys):
    code, _, err = run(capsys, "check", "--config", "/no/such/file.json")
    assert code == 2
    assert "config error" in err


def test_malformed_json_line_number(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"schema_version\": 1,\n}")
    code, _, err = run(capsys, "check", "--config", str(path))
    assert code == 2
    assert "broken.json:3" in err


def test_unknown_family_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "system": {"family": "quadratic", "domain": [0, 1],
                   "maps": [{"ratio": 0.5, "offset": 0},
                            {"ratio": 0.5, "offset": 0.5}]},
        "potential": {"kind": "bernoulli", "probabilities": [0.5, 0.5]},
    }))
    code, _, err = run(capsys, "check", "--config", str(path))
    assert code == 2
    assert "unknown family" in err


def test_bad_rational_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "system": {"family": "affine", "domain": [0, 1],
                   "maps": [{"ratio": "1/0", "offset": 0},
                            {"ratio": 0.5, "offset": 0.5}]},
        "potential": {"kind": "bernoulli", "probabilities": [0.5, 0.5]},
    }))
    code, _, err = run(capsys, "check", "--config", str(path))
    assert code == 2
    assert "bad rational" in err


def test_runtime_error_exits_one(tmp_path, capsys):
    # geometric potential on the Moebius pair without normalization:
    # the cascade gate refuses a potential with nonzero pressure
    cfg = json.loads((CONFIGS / "moebius_pair.json").read_text())
    cfg["potential"]["normalize"] = False
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "cdf", "--config", str(path),
                       "--points", "0.1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["beta", "spectrum", "predict-packing"])
@pytest.mark.parametrize("normalize", [False, True])
def test_spectral_commands_refuse_unnormalized(tmp_path, capsys, command,
                                               normalize):
    cfg = json.loads((CONFIGS / "cantor_14_34.json").read_text())
    cfg["potential"]["probabilities"] = [0.5, 0.6]
    cfg["potential"]["normalize"] = normalize
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    if normalize:
        assert code == 0 and out
    else:
        assert code == 1
        assert out == ""
        assert err.startswith("error: potential has pressure 9.531e-02")


def test_wrong_weight_count_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "system": {"family": "affine", "domain": [0, 1],
                   "maps": [{"ratio": "1/3", "offset": 0},
                            {"ratio": "1/3", "offset": "2/3"}]},
        "potential": {"kind": "bernoulli",
                      "probabilities": [0.2, 0.3, 0.5]},
    }))
    code, _, err = run(capsys, "check", "--config", str(path))
    assert code == 2
    assert "weights" in err


def test_threads_below_one_rejected(capsys):
    # --threads is ignored, but a value below one is still a config fault
    code, out, err = run(capsys, "check", "--config",
                         str(CONFIGS / "lebesgue.json"), "--threads", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("config error: --threads must be positive")


def test_beta_determinism_across_threads(tmp_path, capsys, monkeypatch):
    # each level of 1,024 words runs as 16 chunks of 64, in turn on one
    # worker and then over a pool of four
    calls = []
    chunk = thermodynamics._sums_chunk
    monkeypatch.setattr(thermodynamics, "_sums_chunk",
                        lambda *a, **kw: calls.append(a[3]) or chunk(*a, **kw))
    monkeypatch.setattr(thermodynamics, "_CHUNK", 64)
    outs = []
    for workers in (1, 4):
        monkeypatch.setattr(thermodynamics, "_WORKERS", workers)
        out = tmp_path / f"workers{workers}.csv"
        code, _, _ = run(capsys, "beta", "--config",
                         str(CONFIGS / "moebius_pair.json"), "--depth", "10",
                         "--q-steps", "21", "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert max(calls) == 1024 - 64


@pytest.mark.parametrize("command,field,value,message", [
    ("beta", "q_grid", [-1, 1, 5], "q_grid: expected an object"),
    ("check", "pressure", {"depth": "x"}, "pressure.depth: bad number 'x'"),
    ("check", "pressure", {"depth": 2.5}, "pressure.depth: expected an integer"),
    ("beta", "q_grid", {"steps": "many"}, "q_grid.steps: bad number"),
    ("check", "potential", {"kind": "bernoulli",
                            "probabilities": "0.25,0.75"},
     "potential.probabilities: expected a list"),
    ("check", "potential", {"kind": "finite_range", "depth": 1,
                            "table": "0,1"},
     "potential.table: expected a list"),
    ("check", "potential", {"kind": "bernoulli",
                            "probabilities": [0.25, 0.75],
                            "normalize": "false"},
     "potential.normalize: expected true or false"),
    ("holder", "holder", {"method": "median"},
     "holder.method: unknown method 'median'"),
    ("spectrum", "q_grid", {"steps": 2},
     "q_grid.steps: need at least 3 points, got 2"),
    ("predict-packing", "q_grid", {"steps": 2},
     "q_grid.steps: need at least 3 points, got 2"),
    ("beta", "q_grid", {"steps": 1},
     "q_grid.steps: need at least 2 points, got 1"),
    ("beta", "q_grid", {"min": 1, "max": 1},
     "q_grid.min: 1 is not below the grid's upper end 1"),
    ("spectrum", "q_grid", {"min": 2, "max": -2},
     "q_grid.min: 2 is not below the grid's upper end -2"),
])
def test_config_faults_name_the_field(tmp_path, capsys, command, field,
                                      value, message):
    cfg = json.loads((CONFIGS / "cantor_14_34.json").read_text())
    cfg[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: " + message)


@pytest.mark.parametrize("argv,message", [
    (("spectrum", "--q-steps", "2"), "--q-steps: need at least 3 points, got 2"),
    (("predict-packing", "--q-steps", "2"),
     "--q-steps: need at least 3 points, got 2"),
    (("beta", "--q-steps", "1"), "--q-steps: need at least 2 points, got 1"),
    (("beta", "--q-min", "4", "--q-max", "-4"),
     "--q-min: 4 is not below the grid's upper end -4"),
    (("spectrum", "--q-min", "20"),
     "--q-min: 20 is not below the grid's upper end 10"),
])
def test_q_grid_flag_faults_name_the_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--config",
                         str(CONFIGS / "cantor_14_34.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: " + message)


def test_beta_accepts_two_q_steps(capsys):
    code, out, _ = run(capsys, "beta", "--config",
                       str(CONFIGS / "cantor_14_34.json"), "--q-steps", "2")
    assert code == 0
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("command", ["pressure", "coarse", "endpoints"])
def test_depth_below_one_rejected(capsys, command):
    code, out, err = run(capsys, command, "--config",
                         str(CONFIGS / "cantor_14_34.json"), "--depth", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("config error: --depth must be positive")


@pytest.mark.parametrize("argv,message", [
    (("cdf", "--points", "nan,inf"),
     "--points: expected a finite number, got 'nan'"),
    (("cdf", "--points", "0.5,-inf"),
     "--points: expected a finite number, got '-inf'"),
    (("cdf", "--points", "inf/2"),
     "--points: expected a finite number, got 'inf/2'"),
    (("beta", "--q-min", "nan"), "--q-min: expected a finite number, got nan"),
    (("beta", "--q-max", "inf"), "--q-max: expected a finite number, got inf"),
    (("pressure", "--tol", "nan"), "--tol: expected a finite number, got nan"),
])
def test_non_finite_flags_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--config",
                         str(CONFIGS / "lebesgue.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: " + message)


@pytest.mark.parametrize("command,section,field,value,message", [
    ("cdf", "cdf", "points", [0.5, math.nan],
     "cdf.points: expected a finite number, got nan"),
    ("check", "potential", "probabilities", [math.inf, 0.5],
     "potential.probabilities: expected a finite number, got inf"),
    ("beta", "q_grid", "min", -math.inf,
     "q_grid.min: expected a finite number, got -inf"),
    ("pressure", "pressure", "tol", math.nan,
     "pressure.tol: expected a finite number, got nan"),
    ("check", "pressure", "depth", math.inf,
     "pressure.depth: expected a finite number, got inf"),
])
def test_non_finite_config_numbers_rejected(tmp_path, capsys, command,
                                            section, field, value, message):
    # Python's json reads and writes NaN, Infinity and -Infinity
    cfg = json.loads((CONFIGS / "lebesgue.json").read_text())
    cfg.setdefault(section, {})[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: " + message)


def test_system_map_infinity_rejected(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "lebesgue.json").read_text())
    cfg["system"]["maps"][1]["offset"] = math.inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "check", "--config", str(path))
    assert code == 2
    assert err.startswith("config error: maps[1].offset: expected a finite "
                          "number, got inf")
