import argparse
import gc
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mfgibbs import cli, thermodynamics
from mfgibbs.cli import _build_parser, main
from mfgibbs.estimators import default_scale_base
from mfgibbs.symbolic import PeriodicWord
from mfgibbs.thermodynamics import Potential

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


def test_cdf_tol_alone_keeps_the_safe_depth(capsys):
    # the default descent stops at the precision floor's safe depth,
    # 27 on the Cantor set, also when only --tol is given
    config = str(CONFIGS / "cantor_14_34.json")
    tol_only = run(capsys, "cdf", "--config", config, "--points", "0.3,0.7",
                   "--tol", "0")
    assert tol_only[0] == 0
    assert tol_only == run(capsys, "cdf", "--config", config, "--points",
                           "0.3,0.7", "--depth", "27", "--tol", "0")


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


def _necklaces(n):
    """The primitive binary words of length n that are their own least
    rotation: one word per periodic orbit of period n."""
    words = (format(i, f"0{n}b") for i in range(2**n))
    return [w for w in words
            if all(w < w[p:] + w[:p] for p in range(1, n))]


def test_verify_prop_classifies_or_refuses_each_period(tmp_path, capsys):
    # the oracle is the sign of S_l(psi - k*phi)/l, the quotient's trend
    # per level, where it is at least 0.05; the probe strides by the
    # coding's period, so a period it cannot resolve must be refused
    ifs = cli.build_system(cli.load_config(str(CONFIGS / "cantor_14_34.json")))
    psi = Potential.from_probabilities((0.25, 0.75))
    phi = Potential.geometric(ifs)
    cfg = json.loads((CONFIGS / "cantor_14_34.json").read_text())
    path = tmp_path / "cfg.json"
    for n in range(1, 15):
        words = _necklaces(n)
        expected = {}
        for w in words:
            pw = PeriodicWord.parse(w)
            for k in (1, 3):
                trend = (psi.block_sum(pw) - k * phi.block_sum(pw)) / n
                if abs(trend) >= 0.05:
                    expected[w, str(k)] = ("tends_to_infinity" if trend > 0
                                           else "tends_to_zero")
        for batch in ([words] if n <= 8 else [[w] for w in words]):
            cfg["probe"] = {"words": batch, "ks": [1, 3]}
            path.write_text(json.dumps(cfg))
            code, out, err = run(capsys, "verify-prop", "--config", str(path))
            if n > 8:
                assert (code, out) == (2, ""), batch
                assert err.startswith(f"config error: probe.words: "
                                      f"'{batch[0]}' has period {n};")
                continue
            # a finite limit where the trend is below 0.05 exits 1
            rows = out.splitlines()[1:]
            assert code in (0, 1) and len(rows) == 2 * len(words), err
            for row in rows:
                word, k, _, classification, *_ = row.split(",")
                want = expected.get((word, k), classification)
                assert classification == want, row


@pytest.mark.parametrize("config,n_max", [("moebius_pair", 25),
                                           ("cantor_14_34", 27)])
def test_default_battery_classifies_down_to_the_depth_cap(tmp_path, capsys,
                                                          config, n_max):
    # at F's max_depth the probed cylinder is where F stops, so the probe
    # stops one level short of it; each probe then reads the sign of
    # S_l(psi - k*phi), the quotient's trend per level
    cfg = cli.load_config(str(CONFIGS / f"{config}.json"))
    ifs = cli.build_system(cfg)
    psi = cli.build_potential(cfg, ifs)  # moebius_pair's level is 10
    phi = Potential.geometric(ifs)
    code, out, err = run(capsys, "verify-prop", "--config",
                         str(CONFIGS / f"{config}.json"), "--depth",
                         str(n_max))
    rows = out.splitlines()[1:]
    assert code == 0 and len(rows) == 2 * len(cli.DEFAULT_BATTERY), err
    for row in rows:
        word, k, _, classification, *_ = row.split(",")
        pw = PeriodicWord.parse(word)
        trend = psi.block_sum(pw) - int(k) * phi.block_sum(pw)
        assert abs(trend) >= 0.05 * len(word)
        assert classification == ("tends_to_infinity" if trend > 0
                                  else "tends_to_zero"), row


def _with(tmp_path, config, **sections):
    """The path of a copy of `config` with `sections` merged in."""
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    for key, value in sections.items():
        cfg[key] = {**cfg.get(key, {}), **value}
    path = tmp_path / f"{config}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("argv", [("pressure",), ("check",), ("spectrum",),
                                  ("endpoints",), ("beta",),
                                  ("cdf", "--points", "0.3,0.7")])
def test_normalize_sets_the_shift_whatever_the_config_gives(tmp_path, capsys,
                                                            argv):
    # a shift of 1e306 swamps phi in every periodic sum unless normalize
    # drops it before it takes the pressure
    shifted = _with(tmp_path, "moebius_pair", potential={"shift": 1e306})
    plain = run(capsys, argv[0], "--config",
                str(CONFIGS / "moebius_pair.json"), *argv[1:])
    assert plain[0] == 0
    assert run(capsys, argv[0], "--config", shifted, *argv[1:]) == plain


def test_beta_solves_at_q_where_rounding_passes_1e_10(tmp_path, capsys):
    path = _with(tmp_path, "cantor_14_34",
                 q_grid={"min": -10, "max": 1e8, "steps": 5})
    code, out, err = run(capsys, "beta", "--config", path)
    assert code == 0, err
    assert out.splitlines()[-1] == "100000000,-26185950.714291479"


def test_beta_grid_reaches_the_float_maximum(tmp_path, capsys):
    # (q_max - q_min) * i overflows from i = 2 on: those points divide
    # first; spectrum refuses the grid, whose beta* would be rounding
    path = _with(tmp_path, "cantor_14_34",
                 q_grid={"min": -10, "max": 1e308, "steps": 5})
    code, out, err = run(capsys, "beta", "--config", path)
    assert code == 0, err
    qs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert qs == [-10.0, 2.5e307, 5e307, 7.5e307, 1e308]
    code, out, err = run(capsys, "spectrum", "--config", path)
    assert (code, out) == (2, "")
    assert err.startswith("config error: q_grid.max: q=1e+308 rounds ")


def test_beta_refuses_a_grid_end_whose_sums_overflow(capsys):
    # on level 10 of moebius_pair S_10 psi reaches -10.17, so q * S_10 psi
    # overflows at 1e308; before, a root past the float range exited 1
    code, out, err = run(capsys, "beta", "--config",
                         str(CONFIGS / "moebius_pair.json"), "--q-min", "-10",
                         "--q-max", "1e308", "--q-steps", "5")
    assert (code, out) == (2, "")
    assert err == ("config error: --q-max: q=1e+308 puts the level sums' "
                   "terms past the float range\n")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(exponent=307.0, steps=5, negative=False)
@example(exponent=308.0, steps=5, negative=True)
@given(exponent=st.floats(300.0, 308.25), steps=st.integers(2, 6),
       negative=st.booleans())
def test_beta_never_exits_one_on_a_grid_it_accepts(capsys, exponent, steps,
                                                   negative):
    far = 10.0 ** exponent
    ends = ((f"--q-min={-far!r}", "--q-max=10") if negative
            else ("--q-min=-10", f"--q-max={far!r}"))
    code, out, err = run(capsys, "beta", "--config",
                         str(CONFIGS / "moebius_pair.json"), *ends,
                         "--q-steps", str(steps))
    assert code in (0, 2), err
    if code == 2:
        end = "--q-min" if negative else "--q-max"
        assert err.startswith(f"config error: {end}: q="), err
    else:
        betas = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert len(betas) == steps and all(map(math.isfinite, betas))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ends=st.lists(st.floats(-1000.0, 1000.0), min_size=2, max_size=2,
                     unique=True).map(sorted),
       steps=st.integers(3, 60))
def test_beta_prints_the_q_column_of_spectrum(capsys, ends, steps):
    flags = ("--config", str(CONFIGS / "cantor_14_34.json"),
             f"--q-min={ends[0]!r}", f"--q-max={ends[1]!r}",
             "--q-steps", str(steps))
    columns = []
    for command in ("beta", "spectrum"):
        code, out, err = run(capsys, command, *flags)
        assert code == 0, err
        columns.append([line.split(",")[0] for line in out.splitlines()[1:]])
    assert columns[0] == columns[1]


@pytest.mark.parametrize("config,steps", [("cantor_14_34", 201),
                                          ("moebius_pair", 101)])
def test_beta_and_spectrum_share_the_default_grid(capsys, config, steps):
    # the q values -7.7 and -3.6 printed one ulp apart before
    flags = ("--config", str(CONFIGS / f"{config}.json"), "--q-steps",
             str(steps))
    columns = [[line.split(",")[0] for line in run(
        capsys, command, *flags)[1].splitlines()[1:]]
        for command in ("beta", "spectrum")]
    assert len(columns[0]) == steps
    assert columns[0] == columns[1]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(config="cantor_14_34", depth=17)
@example(config="cantor_14_34", depth=2000)
@given(config=st.sampled_from(["cantor_14_34", "lebesgue", "moebius_pair",
                               "uniform_cantor"]),
       depth=st.integers(1, 8) | st.integers(27, 3000))
def test_coarse_depth_and_deltas_take_one_path(tmp_path, capsys, config,
                                               depth):
    # --depth j is the box size base**-j; given as coarse.deltas it prints
    # the same bytes, and the same refusal after the source's name
    path = CONFIGS / f"{config}.json"
    base = default_scale_base(cli.build_system(cli.load_config(str(path))))
    by_flag = run(capsys, "coarse", "--config", str(path), "--depth",
                  str(depth))
    by_field = run(capsys, "coarse", "--config", _with(
        tmp_path, config, coarse={"deltas": [base ** -depth]}))
    if by_flag[0] == 0:
        assert by_field == by_flag
    else:
        assert by_flag[:2] == by_field[:2] == (2, "")
        flag, field = "config error: --depth: ", "config error: coarse.deltas: "
        assert by_flag[2].startswith(flag) and by_field[2].startswith(field)
        assert by_flag[2][len(flag):] == by_field[2][len(field):]


@pytest.mark.parametrize("argv", [
    ("check",), ("cdf", "--points", "0,1/9,0.25,1/3,0.5,0.7,1"),
    ("spectrum",)], ids=["check", "cdf", "spectrum"])
def test_negated_moebius_coefficients_print_the_same_bytes(tmp_path, capsys,
                                                           argv):
    # (-a x - b)/(-c x - d) is the same map, and its normal form the same
    # floats
    cfg = json.loads((CONFIGS / "moebius_pair.json").read_text())
    for mp in cfg["system"]["maps"]:
        for key in "abcd":
            mp[key] = -mp[key]
    path = tmp_path / "negated.json"
    path.write_text(json.dumps(cfg))
    want = run(capsys, *argv, "--config", str(CONFIGS / "moebius_pair.json"))
    assert want[0] == 0
    assert run(capsys, *argv, "--config", str(path)) == want


@pytest.mark.parametrize("command", ["spectrum", "predict-packing"])
@pytest.mark.parametrize("config", ["cantor_14_34", "uniform_cantor",
                                    "moebius_pair", "lebesgue"])
def test_q_grid_end_past_the_rounding_of_beta_star_names_the_field(
        tmp_path, capsys, config, command):
    # beta + q*alpha rounds by about 2**-52 * |q * alpha|: at q = 1e308
    # spectrum printed a beta* of 2.5e291 on cantor_14_34, predict-packing
    # a Hausdorff value of -0.079 on uniform_cantor, and both exited 1 on
    # moebius_pair, whose roots fail to converge there
    path = _with(tmp_path, config,
                 q_grid={"min": -10, "max": 1e308, "steps": 5})
    code, out, err = run(capsys, command, "--config", path)
    assert (code, out) == (2, "")
    assert err.startswith("config error: q_grid.max: q=1e+308 rounds "
                          "beta + q*alpha by about "), err
    assert err.splitlines()[0].endswith(", past 1e-9")


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


def test_detrend_window_below_the_float_spacing_exits_one(tmp_path,
                                                         capsys):
    cfg = json.loads((CONFIGS / "lebesgue.json").read_text())
    cfg["detrend"] = {"t0": "1/2", "windows": 55}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "detrend", "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: window 55: every sample at radius ")


@pytest.mark.parametrize("command,field,unit", [
    ("beta", "--q-steps", "points"),
    ("beta", "q_grid.steps", "points"),
    ("spectrum", "q_grid.steps", "points"),
    ("predict-packing", "packing.alpha_steps", "points"),
    ("detrend", "detrend.windows", "windows"),
    ("verify-prop", "probe.n_max", "depths"),
])
def test_counts_above_the_enumeration_cap_exit_two(tmp_path, capsys,
                                                   monkeypatch, command,
                                                   field, unit):
    # a cap of 250 stands in for 10**8, so no run here allocates much;
    # it stays above the defaults of the other counts, 201 at most
    monkeypatch.setattr(cli, "ENUMERATION_CAP", 250)
    cfg = json.loads((CONFIGS / "cantor_14_34.json").read_text())
    flags = ()
    if field.startswith("--"):
        flags = (field, "251")
    else:
        section, _, key = field.partition(".")
        cfg.setdefault(section, {})[key] = 251
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path), *flags)
    assert (code, out) == (2, "")
    assert err == f"config error: {field}: at most 250 {unit}, got 251\n"


def test_memory_error_exits_one(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "beta_grid", exhausted)
    code, out, err = run(capsys, "beta", "--config",
                         str(CONFIGS / "cantor_14_34.json"))
    assert (code, out, err) == (1, "", "error: MemoryError\n")


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


@pytest.mark.parametrize("config,command,message", [
    ([{"schema_version": 1}], "check", "config root must be an object"),
    # no --points, no cdf.points and no top-level points
    ({"points": None}, "cdf", "no points given: pass --points or set "
                             "cdf.points in the config"),
])
def test_config_without_its_shape_exits_two(tmp_path, capsys, config,
                                            command, message):
    if isinstance(config, dict):
        cfg = json.loads((CONFIGS / "cantor_14_34.json").read_text())
        cfg.update(config)
        config = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out, err) == (2, "", f"config error: {message}\n")


def test_log_weights_read_as_the_probabilities_logs(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "cantor_14_34.json").read_text())
    cfg["potential"] = {"kind": "bernoulli",
                        "log_weights": [math.log(0.25), math.log(0.75)]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    expected = run(capsys, "cdf", "--config",
                   str(CONFIGS / "cantor_14_34.json"))
    assert expected[0] == 0
    assert run(capsys, "cdf", "--config", str(path)) == expected


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
    # the level-10 word matrices are composed as 16 blocks of 64 words,
    # then as one block of the default size; --threads is ignored
    blocks = []
    kernel = thermodynamics._phi_sums
    monkeypatch.setattr(thermodynamics, "_phi_sums",
                        lambda a, *rest: blocks.append(len(a))
                        or kernel(a, *rest))
    outs = []
    for chunk, threads, expected in ((64, "4", [64] * 16),
                                     (thermodynamics._CHUNK, "1", [1024])):
        monkeypatch.setattr(thermodynamics, "_CHUNK", chunk)
        blocks.clear()
        out = tmp_path / f"chunk{chunk}.csv"
        code, _, _ = run(capsys, "beta", "--config",
                         str(CONFIGS / "moebius_pair.json"), "--depth", "10",
                         "--q-steps", "21", "--threads", threads,
                         "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
        # normalize composes level 10, the shared build takes it
        assert blocks == expected
    assert outs[0] == outs[1]


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
    ("coarse", "coarse", {"deltas": []},
     "coarse.deltas: need at least one box size"),
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
    ("detrend", "detrend", {"t0": 0, "windows": 1},
     "detrend.windows: need at least 2 windows, got 1"),
    ("detrend", "detrend", {"t0": 0, "windows": 0},
     "detrend.windows: need at least 2 windows, got 0"),
    ("predict-packing", "packing", {"alpha_steps": 1},
     "packing.alpha_steps: need at least 2 points, got 1"),
    ("predict-packing", "packing", {"alpha_steps": 0},
     "packing.alpha_steps: need at least 2 points, got 0"),
    ("pressure", "pressure", {"depth": 0},
     "pressure.depth: must be positive, got 0"),
    ("beta", "pressure", {"depth": -1},
     "pressure.depth: must be positive, got -1"),
    ("verify-prop", "probe", {"n_max": 7},
     "probe.n_max: need at least 8 depths, got 7"),
    ("coarse", "coarse", {"deltas": ["1/81"], "alpha_bin_width": 0},
     "coarse.alpha_bin_width: must be positive, got 0"),
    ("coarse", "coarse", {"deltas": ["1/81"], "alpha_bin_width": -0.1},
     "coarse.alpha_bin_width: must be positive, got -0.1"),
    ("holder", "scales", {"base": 1},
     "scales.base: must exceed 1, got 1"),
    ("holder", "scales", {"base": 3, "j_min": 5, "j_max": 5},
     "scales.j_max: must exceed j_min, got 5 <= 5"),
    ("endpoints", "endpoints", {"ell_max": 0},
     "endpoints.ell_max: must be positive, got 0"),
    ("cdf", "cdf", {"points": []}, "cdf.points: need at least one point"),
    ("holder", "holder", {"points": []},
     "holder.points: need at least one point"),
    # probe entries the library would refuse in the middle of the battery
    ("verify-prop", "probe", {"ks": [2]},
     "probe.ks: k must be a positive odd integer, got 2"),
    ("verify-prop", "probe", {"ks": [0]},
     "probe.ks: k must be a positive odd integer, got 0"),
    ("verify-prop", "probe", {"words": ["ab"]},
     "probe.words: 'ab' is not a word on the symbols 0 to 1"),
    ("verify-prop", "probe", {"words": ["012"]},
     "probe.words: '012' is not a word on the symbols 0 to 1"),
    ("verify-prop", "probe", {"words": [""]},
     "probe.words: '' is not a word on the symbols 0 to 1"),
    # ranges the library would refuse later without naming the field
    ("coarse", "coarse", {"deltas": [1.0]},
     "coarse.deltas: 1.0 is outside (0.0, 1.0)"),
    ("coarse", "coarse", {"deltas": ["1/81", -0.1]},
     "coarse.deltas: -0.1 is outside (0.0, 1.0)"),
    ("pressure", "pressure", {"tol": -1},
     "pressure.tol: -1.0 is outside [0.0, inf]"),
    ("holder", "holder", {"points": [0, 7]},
     "holder.points: 7.0 is outside [0.0, 1.0]"),
    ("detrend", "detrend", {"t0": -0.5},
     "detrend.t0: -0.5 is outside [0.0, 1.0]"),
    # 3**-700 is below the smallest subnormal float
    ("holder", "scales", {"base": 3, "j_min": 1, "j_max": 700},
     "scales.j_max: radius 3**-700 underflows to 0"),
    # 3**2000 is above the largest float
    ("holder", "scales", {"base": 3, "j_min": -2000, "j_max": -1000},
     "scales.j_min: radius 3**2000 overflows"),
    # 1/5e-324 overflows to inf boxes, far over the cap
    ("coarse", "coarse", {"deltas": ["1/81", 5e-324]},
     "coarse.deltas: box size 4.94066e-324 needs over 100000000 boxes"),
    # an exponent near 1 over a width of 1e-300 is a bin index near 1e300
    ("coarse", "coarse", {"deltas": ["1/729"], "alpha_bin_width": 1e-300},
     "coarse.alpha_bin_width: bin width 1e-300 puts an exponent at delta "
     "0.00137174 in a bin past int64"),
    # every grid point is a root or a Legendre step
    ("beta", "q_grid", {"steps": 10**6 + 1},
     "q_grid.steps: at most 1000000 points, got 1000001"),
    ("predict-packing", "packing", {"alpha_steps": 10**6 + 1},
     "packing.alpha_steps: at most 1000000 points, got 1000001"),
    # a null alpha_hat is a fault, not a request for the estimate
    ("detrend", "detrend", {"t0": 0, "alpha_hat": None},
     "detrend.alpha_hat: expected a number, got NoneType"),
    # the probe strides by a period it resolves only up to 8 letters
    ("verify-prop", "probe", {"words": ["00110100101100"], "ks": [1]},
     "probe.words: '00110100101100' has period 14; the probe resolves "
     "periods up to 8"),
    ("verify-prop", "probe", {"words": ["0101", "0000010011"]},
     "probe.words: '0000010011' has period 10; the probe resolves "
     "periods up to 8"),
    # S_k psi would sum terms near the float range's end
    ("pressure", "potential", {"kind": "geometric_multiple",
                               "coefficient": 1e308},
     "potential.coefficient: 1e+308 makes the periodic sums overflow"),
    ("pressure", "potential", {"kind": "geometric_multiple",
                               "coefficient": 1, "shift": -1e308},
     "potential.shift: -1e+308 makes the periodic sums overflow"),
    # q_max - q_min overflows, so no grid point between them is finite
    *((command, "q_grid", {"min": -1e308, "max": 1e308, "steps": 5},
       "q_grid.max: the span from -1e+308 to 1e+308 overflows")
      for command in ("beta", "spectrum", "predict-packing")),
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
    (("predict-packing", "--q-min=-1e308", "--q-max", "1e308"),
     "--q-max: the span from -1e+308 to 1e+308 overflows"),
    # the end of larger |q| is named, with the rounding of beta + q*alpha
    (("spectrum", "--q-min=-1e8"),
     "--q-min: q=-1e+08 rounds beta + q*alpha by about 2.8e-08, past 1e-9"),
    (("predict-packing", "--q-min=-1e7", "--q-max", "1e8"),
     "--q-max: q=1e+08 rounds beta + q*alpha by about 2.8e-08, past 1e-9"),
])
def test_q_grid_flag_faults_name_the_flag(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--config",
                         str(CONFIGS / "cantor_14_34.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: " + message)


def test_moebius_pressure_depth_below_one_names_the_field(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "moebius_pair.json").read_text())
    cfg["pressure"] = {"depth": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "pressure", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("config error: pressure.depth: must be positive")


@pytest.mark.parametrize("pressure,flags,message", [
    ({"depth": 1}, (), "pressure.depth: need at least 2 levels, got 1"),
    ({"depth": 10}, ("--depth", "1"), "--depth: need at least 2 levels, got 1"),
])
def test_moebius_pressure_level_one_names_its_source(tmp_path, capsys,
                                                     pressure, flags,
                                                     message):
    # the geometric potential has no finite range: its pressure bound
    # needs two periodic levels
    cfg = json.loads((CONFIGS / "moebius_pair.json").read_text())
    cfg["pressure"] = pressure
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "pressure", "--config", str(path), *flags)
    assert (code, out) == (2, "")
    assert err.startswith("config error: " + message)


@pytest.mark.parametrize("depth", [1, 6, 7])
@pytest.mark.parametrize("argv", [("cdf", "--points", "0.5"),
                                  ("holder", "--points", "0")])
def test_moebius_shallow_normalization_names_the_field(tmp_path, capsys,
                                                       argv, depth):
    # the config normalizes at pressure.depth, the distribution function
    # checks the pressure at level 8; up to level 6 the residual shows
    cfg = json.loads((CONFIGS / "moebius_pair.json").read_text())
    cfg["pressure"] = {"depth": depth}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *argv, "--config", str(path))
    if depth == 7:
        assert code == 0
        return
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: pressure.depth: level {depth} is "
                          f"too shallow to normalize at; the potential "
                          f"keeps pressure -")


def test_verify_prop_needs_the_probe_window(capsys):
    # three depths once classified word 011 as a finite limit here
    code, out, err = run(capsys, "verify-prop", "--config",
                         str(CONFIGS / "moebius_pair.json"), "--depth", "3")
    assert (code, out) == (2, "")
    assert err.startswith("config error: --depth: need at least 8 depths, "
                          "got 3")


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
    # a list of no points at all
    (("detrend", "--points", ","), "--points: no points in ','"),
    (("cdf", "--points", " , ,"), "--points: no points in ' , ,'"),
    (("holder", "--points", ","), "--points: no points in ','"),
    # detrend reads one point
    (("detrend", "--points", "0.25,0.9"),
     "--points: detrend takes one point, got 2"),
    # ranges the library would refuse later without naming the flag
    (("cdf", "--points", "0.5", "--tol", "-1"),
     "--tol: -1.0 is outside [0.0, inf]"),
    (("pressure", "--tol", "-0.5"), "--tol: -0.5 is outside [0.0, inf]"),
    (("holder", "--points", "0,7"), "--points: 7.0 is outside [0.0, 1.0]"),
    (("detrend", "--points", "7"), "--points: 7.0 is outside [0.0, 1.0]"),
])
def test_non_finite_flags_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--config",
                         str(CONFIGS / "lebesgue.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: " + message)


def test_deep_coarse_refuses_before_allocating(capsys):
    # 3**40 boxes of the Cantor domain do not fit in an int64 array
    code, out, err = run(capsys, "coarse", "--config",
                         str(CONFIGS / "cantor_14_34.json"), "--depth", "40")
    assert code == 2
    assert out == ""
    assert err == ("config error: --depth: box size 8.22526e-20 needs over "
                   "100000000 boxes\n")


def test_coarse_depth_past_the_float_range_names_the_flag(capsys):
    # base**-depth cannot convert a depth of 10**400 to a float
    code, out, err = run(capsys, "coarse", "--config",
                         str(CONFIGS / "cantor_14_34.json"), "--depth",
                         str(10**400))
    assert (code, out) == (2, "")
    assert err == ("config error: --depth: int too large to convert to "
                   "float\n")


def test_box_size_one_is_refused_by_name(tmp_path, capsys):
    # on a domain of width 2 a box size of 1 is inside it, but its log is
    # 0, the denominator of every coarse exponent
    cfg = json.loads((CONFIGS / "lebesgue.json").read_text())
    cfg["system"]["domain"] = [0, 2]
    cfg["system"]["maps"] = [{"ratio": 0.5, "offset": 0},
                             {"ratio": 0.5, "offset": 1}]
    cfg["coarse"] = {"deltas": ["1/4", 1]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "coarse", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == ("config error: coarse.deltas: box size 1 has log 0, "
                   "which leaves no exponent\n")


@pytest.mark.parametrize("config,command,section,value,start,end", [
    # (y - x)**27 underflows to 0 on the depth-25 cylinders of 0.25
    ("cantor_14_34", "verify-prop", "probe", {"words": ["01"], "ks": [27]},
     "error: depth 25: secant base ", " to the power k = 27 underflows to 0"),
    # the squares of (t - t0)**340 underflow at every radius, so degree
    # 340 is the last tried, not degree 10**308
    ("cantor_14_34", "detrend", "detrend", {"t0": 0.3, "alpha_hat": 1e308},
     "error: window 1: every sample at radius 0.333333 has (t - t0)**340 "
     "square to 0 at degree 340", ""),
])
def test_runs_past_the_float_range_exit_one(tmp_path, capsys, config,
                                            command, section, value, start,
                                            end):
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    cfg[section] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(start) and err.endswith(end + "\n"), err


@pytest.mark.parametrize("config,argv,section,value,source,level", [
    ("moebius_pair", ("pressure",), "pressure", {"depth": 10**8},
     "pressure.depth", 10**8),
    ("moebius_pair", ("check",), "pressure", {"depth": 27},
     "pressure.depth", 27),
    ("cantor_14_34", ("endpoints", "--depth", "30"), None, None, "--depth",
     30),
    ("moebius_pair", ("spectrum", "--depth", "27"), None, None, "--depth",
     27),
    ("cantor_14_34", ("beta", "--depth", "27"), None, None, "--depth", 27),
    # 2**(10**308) words are refused before the power is formed
    ("moebius_pair", ("endpoints",), "endpoints", {"ell_max": 1e308},
     "endpoints.ell_max", int(1e308)),
], ids=["pressure.depth", "check-pressure.depth", "endpoints--depth",
        "spectrum--depth", "beta--depth", "endpoints.ell_max"])
def test_levels_past_the_cap_exit_two(tmp_path, capsys, config, argv,
                                      section, value, source, level):
    # each run composes its level, which holds over 10**8 words
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    if section:
        cfg[section] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert (code, out) == (2, "")
    assert err == (f"config error: {source}: 2**{level} periodic points "
                   f"exceed cap 100000000\n")


@pytest.mark.parametrize("config,argv,normalize", [
    # a range-1 potential's pressure reads the transfer matrix
    ("cantor_14_34", ("pressure", "--depth", "40"), True),
    # nothing in check composes the level of a potential left as it is
    ("moebius_pair", ("check",), False),
])
def test_levels_no_run_composes_stay_valid(tmp_path, capsys, config, argv,
                                           normalize):
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    cfg["potential"]["normalize"] = normalize
    cfg["pressure"] = {"depth": 10**8}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert code == 0, err
    assert out


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


def test_points_outside_the_domain(capsys):
    # F is 0 left of the domain and 1 right of it; the Hoelder estimate
    # and the detrending test take the domain's ends but nothing beyond
    config = str(CONFIGS / "cantor_14_34.json")
    code, out, _ = run(capsys, "cdf", "--config", config,
                       "--points=-1,2")
    assert code == 0
    assert out.splitlines()[1:] == ["-1,0,0", "2,1,0"]
    for command in ("holder", "detrend"):
        code, _, _ = run(capsys, command, "--config", config,
                         "--points", "1")
        assert code == 0


def test_system_map_infinity_rejected(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "lebesgue.json").read_text())
    cfg["system"]["maps"][1]["offset"] = math.inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "check", "--config", str(path))
    assert code == 2
    assert err.startswith("config error: maps[1].offset: expected a finite "
                          "number, got inf")


AFFINE_PAIR = [{"ratio": 0.5, "offset": 0}, {"ratio": 0.5, "offset": 0.5}]
MOEBIUS_MAP = {"a": 2, "b": 2, "c": 1, "d": 3}


@pytest.mark.parametrize("family,domain,maps,message", [
    ("affine", [1, 0], AFFINE_PAIR, "system: bad base interval [1.0, 0.0]"),
    ("affine", [0, 1], [{"ratio": 1.5, "offset": 0}, AFFINE_PAIR[1]],
     "system: affine ratio 1.5 not in (0, 1)"),
    ("affine", [0, 1], [AFFINE_PAIR[0], {"ratio": 0.5, "offset": 0.6}],
     "system: affine map does not send the interval into itself"),
    ("moebius", [0, 1], [{"a": 1, "b": 1.2, "c": 0, "d": 2}, MOEBIUS_MAP],
     "system: Moebius map does not send the interval into itself"),
    ("moebius", [0, 1], [{"a": 0, "b": 1, "c": 1, "d": 0}, MOEBIUS_MAP],
     "system: need ad - bc > 0 for an increasing Moebius map"),
    ("moebius", [0, 1], [{"a": -2, "b": 0, "c": 1, "d": -0.5}, MOEBIUS_MAP],
     "system: Moebius pole 0.5 inside the interval"),
    # (c x + d)^2 overflows, so the slope at 0 reads 0
    ("moebius", [0, 1],
     [{"a": 1e-160, "b": 0, "c": 1e160, "d": 1e160}, MOEBIUS_MAP],
     "system: Moebius map is not increasing on the interval"),
    ("moebius", [0, 1], [{"a": 1, "b": 0, "c": 0, "d": 1}, MOEBIUS_MAP],
     "system: Moebius map is not a contraction (r_max=1.0)"),
    # (c x + d)^2 underflows, so the slope is unbounded
    ("moebius", [0, 1], [{"a": 1e200, "b": 0, "c": 0, "d": 1e-200},
                         MOEBIUS_MAP],
     "system: Moebius map is not a contraction (r_max=inf)"),
    # ad - bc overflows, or is inf - inf
    ("moebius", [0, 1],
     [{"a": 1e200, "b": 0, "c": 1e200, "d": 2e200}, MOEBIUS_MAP],
     "system: Moebius coefficients overflow (ad - bc = inf)"),
    ("moebius", [0, 1],
     [{"a": 1e200, "b": 1e200, "c": 1e200, "d": 2e200}, MOEBIUS_MAP],
     "system: Moebius coefficients overflow (ad - bc = nan)"),
    ("affine", [0, 1], AFFINE_PAIR[::-1],
     "system: maps must be indexed left to right"),
    ("affine", [0, 1], AFFINE_PAIR[:1],
     "system.maps: need a list of at least two maps"),
    ("affine", [0, 1], [{"ratio": 0.01, "offset": k / 65} for k in range(65)],
     "system: alphabet sizes beyond 64 are not supported"),
])
def test_map_construction_faults_exit_two(tmp_path, capsys, family, domain,
                                          maps, message):
    cfg = json.loads((CONFIGS / "lebesgue.json").read_text())
    cfg["system"] = {"family": family, "domain": domain, "maps": maps}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "check", "--config", str(path))
    assert (code, out, err) == (2, "", f"config error: {message}\n")


def test_out_in_a_missing_directory_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "check", "--config",
                         str(CONFIGS / "lebesgue.json"), "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"config error: --out: [Errno 2] No such file or " \
                  f"directory: {str(target)!r}\n"


def test_failing_run_leaves_out_untouched(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "moebius_pair.json").read_text())
    cfg["potential"]["normalize"] = False
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    target = tmp_path / "x.csv"
    target.write_text("kept\n")
    code, _, _ = run(capsys, "cdf", "--config", str(path), "--points", "0.5",
                     "--out", str(target))
    assert code == 1
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize("field,message", [
    ('"pressure": {"depth": ' + "1" * 4401 + "}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
    ('"points": ' + "[" * 100_000 + "]" * 100_000,
     "maximum recursion depth exceeded"),
], ids=["long-integer", "deep-nesting"])
def test_unreadable_config_value_exits_two(tmp_path, capsys, field, message):
    path = tmp_path / "cfg.json"
    text = (CONFIGS / "lebesgue.json").read_text()
    path.write_text(text.replace('"schema_version": 1,',
                                 f'"schema_version": 1, {field},'))
    code, out, err = run(capsys, "check", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {path}: {message}")


def _moebius_at_level(tmp_path, depth):
    cfg = json.loads((CONFIGS / "moebius_pair.json").read_text())
    cfg["pressure"]["depth"] = depth
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_beta_at_one_vanishes_at_the_config_level(tmp_path, capsys):
    # the potential is normalized at pressure.depth, the level the
    # roots are solved at, so beta(1) = 0 to solver precision
    code, out, _ = run(capsys, "beta", "--config",
                       _moebius_at_level(tmp_path, 12),
                       "--q-min", "0", "--q-max", "1", "--q-steps", "2")
    assert code == 0
    q, beta = out.splitlines()[2].split(",")
    assert float(q) == 1.0
    assert abs(float(beta)) <= 1e-12


def test_endpoints_depth_is_only_ell_max(capsys):
    config = str(CONFIGS / "moebius_pair.json")
    with_depth = run(capsys, "endpoints", "--config", config, "--depth", "6")
    assert with_depth == run(capsys, "endpoints", "--config", config)


# a depth-2 table on cantor_14_34's maps: its pressure, spectra and
# ratios read the table, but the cascade F cannot split by it
DEPTH_2 = {"kind": "finite_range", "depth": 2, "table": [0, 1, 1, 0],
           "normalize": True}
# the bytes these subcommands printed on DEPTH_2 before F refused it
DEPTH_2_RUNS = {
    ("check",): (
        "property,value\nfamily,affine\nalphabet_size,2\n"
        "r_min,0.33333333333333331\nr_max,0.33333333333333331\n"
        "osc_satisfied,true\neffective_range,2\n"
        "ratio_min,0.28514307617840512\nratio_max,1.1953823028052426\n"
        "degenerate,false\n",
        "check: osc=true degenerate=false\n"),
    ("pressure",): (
        "level,pressure\n",
        "pressure: value=5.5511151231257827e-17 error_bound=0 levels=0\n"),
    ("endpoints",): (
        "alpha_minus,alpha_plus\n0.28514307617840512,1.1953823028052426\n",
        "endpoints: [0.285143, 1.195382] at ell_max=6\n"),
    ("beta", "--q-steps", "5"): (
        "q,beta\n-10,12.269287905776224\n-5,6.2923970527413964\n"
        "0,0.63092975357145742\n5,-1.1102298421768404\n"
        "10,-2.5359658840602508\n",
        "beta: 5 points on [-10, 10]\n"),
}


@pytest.mark.parametrize("argv", [("cdf", "--points", "0.25"), ("holder",),
                                  ("coarse",), ("verify-prop",),
                                  ("detrend",)])
def test_distribution_commands_refuse_a_deeper_table(tmp_path, capsys, argv):
    path = _with(tmp_path, "cantor_14_34", potential=DEPTH_2)
    assert run(capsys, *argv, "--config", path) == (
        2, "", "config error: potential.depth: the child matrices do not "
               "fix the splits of a table of depth 2 on this system\n")


@pytest.mark.parametrize("argv", list(DEPTH_2_RUNS))
def test_other_commands_keep_a_deeper_table(tmp_path, capsys, argv):
    path = _with(tmp_path, "cantor_14_34", potential=DEPTH_2)
    assert run(capsys, *argv, "--config", path) == (0, *DEPTH_2_RUNS[argv])


@pytest.mark.parametrize("argv,code", [
    (("check",), 2), (("pressure",), 2), (("beta",), 2),
    # short of the table's range, pressure takes the periodic levels
    (("pressure", "--depth", "10"), 0)])
def test_transfer_matrix_past_its_cap_names_the_depth(tmp_path, capsys,
                                                     argv, code):
    # a depth-14 table's transfer matrix on 13-blocks has side 2**13
    path = _with(tmp_path, "cantor_14_34", potential={
        "kind": "finite_range", "depth": 14, "table": [0] * 2**14,
        "normalize": True})
    got, out, err = run(capsys, *argv, "--config", path)
    assert got == code, err
    if code:
        assert (out, err) == ("", "config error: potential.depth: transfer "
                                  "matrix of side 8192 is too large\n")


@pytest.mark.parametrize("command", ["check", "spectrum"])
def test_many_maps_scan_under_the_cap(tmp_path, capsys, command):
    # 22 maps: 22**6 words are past the cap, so the default cohomology
    # scan stops at level 5
    path = _with(tmp_path, "cantor_14_34", system={"maps": [
        {"ratio": "1/50", "offset": f"{i}/22"} for i in range(22)]},
        potential={"probabilities": ["1/22"] * 22})
    code, out, err = run(capsys, command, "--config", path)
    assert code == 0, err
    assert "degenerate=true" in err


@pytest.mark.parametrize("argv", [
    ("cdf", "--depth", "30", "--points", "0.5"),
    ("coarse", "--depth", "4"),
    ("verify-prop", "--depth", "3"),
])
def test_local_depth_leaves_the_potential_normalized(capsys, argv):
    # --depth is the descent cap, the box scale or the probe depth here,
    # not the level the config's potential is normalized at
    code, _, err = run(capsys, *argv, "--config",
                       str(CONFIGS / "moebius_pair.json"))
    assert "normalize it first" not in err
    assert "exceed cap" not in err
    if argv[0] != "verify-prop":  # the shallow battery finds a limit
        assert code == 0


@pytest.mark.parametrize("argv,flag", [
    (("holder", "--tol", "0.5"), "--tol"),
    (("check", "--q-min", "3"), "--q-min"),
])
def test_unread_flag_exits_two(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(CONFIGS / "moebius_pair.json")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# the flags each subcommand reads besides --config, --out and --threads
READS = {
    "check": (),
    "pressure": ("--depth", "--tol"),
    "beta": ("--depth", "--q-min", "--q-max", "--q-steps"),
    "spectrum": ("--depth", "--q-min", "--q-max", "--q-steps"),
    "predict-packing": ("--depth", "--q-min", "--q-max", "--q-steps"),
    "endpoints": ("--depth",),
    "coarse": ("--depth",),
    "verify-prop": ("--depth",),
    "cdf": ("--points", "--depth", "--tol"),
    "holder": ("--points",),
    "detrend": ("--points",),
}


@pytest.mark.parametrize("command", sorted(READS))
def test_each_subcommand_parses_only_the_flags_it_reads(capsys, command):
    parser = _build_parser()
    flags = (("--depth", "3"), ("--tol", "0.1"), ("--q-min", "0"),
             ("--q-max", "1"), ("--q-steps", "3"), ("--points", "0.5"))
    # --threads stays accepted, and ignored, everywhere
    assert parser.parse_args([command, "--config", "c.json",
                              "--threads", "2"]).threads == 2
    for flag, value in flags:
        argv = [command, "--config", "c.json", flag, value]
        if flag in READS[command]:
            parser.parse_args(argv)
            continue
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# each subcommand on cantor_14_34 in milliseconds, and one run of each
# failing exit code
WARM_RUNS = [((command,) + flags, 0) for command, flags in {
    "check": (), "pressure": ("--depth", "6"), "beta": ("--q-steps", "5"),
    "spectrum": ("--q-steps", "5"), "predict-packing": ("--q-steps", "5"),
    "endpoints": (), "coarse": ("--depth", "5"), "verify-prop": (),
    "cdf": ("--points", "0.3,0.7"), "holder": ("--points", "0.3"),
    "detrend": ("--points", "0.3")}.items()]
WARM_RUNS += [(("cdf", "--points", "0.3", "--depth", "40", "--tol", "0"), 1),
              (("cdf", "--points", "nan"), 2)]


@pytest.mark.parametrize("argv, code", WARM_RUNS,
                         ids=[" ".join(argv) for argv, _ in WARM_RUNS])
def test_warm_main_leaves_no_cyclic_garbage(capsys, monkeypatch, argv, code):
    # the parser is built once per process, so a command after the first
    # frees everything it made by reference counting alone
    argv = [argv[0], "--config", str(CONFIGS / "cantor_14_34.json"),
            *argv[1:]]
    assert main(argv) == code
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == code
        garbage = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert garbage == 0
    assert built == []
    assert _build_parser() is _build_parser()


# every config field the CLI reads, with a subcommand that reads it
FUZZ_TARGETS = (
    ("check", "schema_version"), ("check", "system.family"),
    ("check", "system.domain"), ("check", "system.maps"),
    ("check", "potential.kind"), ("check", "potential.probabilities"),
    ("check", "potential.coefficient"), ("check", "potential.shift"),
    ("pressure", "potential.coefficient"), ("pressure", "potential.shift"),
    ("check", "potential.normalize"),
    ("check", "pressure.depth"), ("pressure", "pressure"),
    ("pressure", "pressure.depth"), ("pressure", "pressure.tol"),
    ("beta", "q_grid"), ("beta", "q_grid.min"), ("beta", "q_grid.max"),
    ("beta", "q_grid.steps"), ("spectrum", "q_grid.steps"),
    ("endpoints", "endpoints"), ("endpoints", "endpoints.ell_max"),
    ("cdf", "cdf"), ("cdf", "cdf.points"), ("cdf", "points"),
    ("holder", "holder.points"),
    ("holder", "scales"), ("holder", "scales.base"),
    ("holder", "scales.j_min"), ("holder", "scales.j_max"),
    ("coarse", "coarse"), ("coarse", "coarse.deltas"),
    ("coarse", "coarse.alpha_bin_width"), ("verify-prop", "probe"),
    ("verify-prop", "probe.words"), ("verify-prop", "probe.ks"),
    ("verify-prop", "probe.n_max"), ("detrend", "detrend"),
    ("detrend", "detrend.t0"), ("detrend", "detrend.alpha_hat"),
    ("detrend", "detrend.windows"), ("predict-packing", "packing"),
    ("predict-packing", "packing.alphas"),
    ("predict-packing", "packing.alpha_steps"),
)
HOSTILE = (0, -1, 1, 2.5, "x", "1/0", None, True, [], {},
           [2], [-1], [""], ["x"], 10**8, 1e308, 5e-324, [1e308], [5e-324],
           [41])
# the list fields; no entry of one is left for the library to refuse
LIST_FIELDS = ("probe.words", "probe.ks", "coarse.deltas", "cdf.points",
               "holder.points", "packing.alphas")
# sample-config settings that keep each run to milliseconds
CHEAP = {"q_grid": {"steps": 5}, "coarse": {"deltas": ["1/81"]},
         "probe": {"words": ["01"], "n_max": 10}, "detrend": {"t0": 0},
         "points": [0, 1]}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(config="cantor_14_34", target=("detrend", "detrend.windows"),
         value=0)
@example(config="cantor_14_34",
         target=("predict-packing", "packing.alpha_steps"), value=1)
@example(config="moebius_pair", target=("pressure", "pressure.depth"),
         value=0)
@example(config="moebius_pair", target=("pressure", "potential.coefficient"),
         value=1e308)
@example(config="moebius_pair", target=("verify-prop", "probe.words"),
         value=[""])
@example(config="moebius_pair", target=("verify-prop", "probe.ks"),
         value=[2])
@example(config="lebesgue", target=("holder", "holder.points"), value=[-1])
@example(config="lebesgue", target=("beta", "q_grid.max"), value=1e308)
@example(config="cantor_14_34", target=("spectrum", "q_grid"),
         value={"min": -1e308, "max": 1e308})
@example(config="uniform_cantor", target=("coarse", "coarse.deltas"),
         value=[2])
@given(config=st.sampled_from(["cantor_14_34", "lebesgue", "moebius_pair",
                               "uniform_cantor"]),
       target=st.sampled_from(FUZZ_TARGETS), value=st.sampled_from(HOSTILE))
def test_hostile_config_field_exits_cleanly(tmp_path, capsys, config,
                                            target, value):
    command, field = target
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    for key, cheap in CHEAP.items():
        if isinstance(cheap, dict):
            cfg[key] = {**cfg.get(key, {}), **cheap}
        else:
            cfg.setdefault(key, cheap)
    section, _, key = field.partition(".")
    if key:
        if not isinstance(cfg.get(section), dict):
            cfg[section] = {}
        cfg[section][key] = value
    else:
        cfg[section] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code in (0, 1, 2)
    if field in LIST_FIELDS:
        assert code != 1, err
    if code == 0:
        # every printed number is finite, apart from verify-prop's
        # limit_value, NaN where no limit is found, and predict-packing's
        # rows marked empty
        header, *rows = (line.split(",") for line in out.splitlines())
        for row in rows:
            if command == "predict-packing" and row[-1] == "true":
                continue
            for name, cell in zip(header, row):
                if name != "limit_value":
                    assert cell.lower() not in ("nan", "inf", "-inf"), row
    if code == 2:
        # the fault names the field, its section, or the missing points
        assert err.startswith(tuple(f"config error: {name}" for name
                                    in (field, section, "no points"))), err
