import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from winentropy.cli import main


def run(tmp_path, *argv):
    outs_before = set(tmp_path.iterdir())
    code = main(list(argv))
    return code, set(tmp_path.iterdir()) - outs_before


def test_value_command(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = main(["value", "--t", "0", "--x", "0.5", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed.startswith("-0.076713")
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(-0.0767132049, abs=1e-9)
    manifest = json.loads((tmp_path / "v.json.manifest.json").read_text())
    assert manifest["command"] == "value"
    assert "wall_time_s" in manifest and "version" in manifest


def test_trinomial_command(tmp_path):
    out = tmp_path / "tri.json"
    code = main(["trinomial", "--sigma", "2", "--sigma-bar", "10",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    oracle = 4 * math.log(4.0) + 96 * math.log(96.0 / 99.0)
    assert payload["scaled_entropy"] == pytest.approx(oracle, abs=1e-9)
    assert payload["limit"] == pytest.approx(4 * math.log(4.0) - 3.0, abs=1e-9)
    assert payload["gap"] == pytest.approx(oracle - (4 * math.log(4.0) - 3.0),
                                           abs=1e-9)


def test_simulate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    def cmd(seed):
        return ["simulate", "--x0", "0.5", "--paths", "50", "--seed", seed,
                "--eps", "0.05", "--base-dt", "0.005"]
    assert main(cmd("7") + ["--out", str(a)]) == 0
    assert main(cmd("7") + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(cmd("8") + ["--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_simulate_binary_roundtrip(tmp_path):
    from winentropy.paths import PathEnsemble
    out = tmp_path / "ens.bin"
    code = main(["simulate", "--paths", "20", "--seed", "3", "--eps", "0.1",
                 "--base-dt", "0.01", "--format", "binary", "--out", str(out)])
    assert code == 0
    ens = PathEnsemble.from_binary(out)
    assert ens.n_paths == 20


def test_threads_flag_does_not_change_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["entropy", "--paths", "200", "--seed", "5", "--eps", "0.05",
            "--base-dt", "0.005", "--flavor", "log-moment"]
    assert main(base + ["--threads", "1", "--out", str(a)]) == 0
    assert main(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_counterexample_command(tmp_path):
    out = tmp_path / "ce.json"
    code = main(["counterexample", "--flavor", "log-moment", "--delta", "0",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(-0.25, abs=1e-8)


def test_reciprocity_command(tmp_path):
    out = tmp_path / "rec.json"
    code = main(["reciprocity", "--sigma-spec", "const:1.6487212707001282",
                 "--paths", "50", "--seed", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["lhs"]["value"] == pytest.approx(1 / (2 * math.e), abs=1e-10)
    assert payload["rhs"]["value"] == pytest.approx(1 / (2 * math.e), abs=1e-10)


def test_stationary_and_residual_and_dp(tmp_path):
    out = tmp_path / "st.csv"
    assert main(["stationary-solve", "--nx", "64", "--out", str(out)]) == 0
    assert out.read_text().startswith("x,value,closed_form")

    out2 = tmp_path / "res.csv"
    assert main(["hjb-residual", "--nx", "16", "--nt", "16",
                 "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 1 + 15 * 15

    out3 = tmp_path / "dp.csv"
    assert main(["dp-solve", "--nx", "30", "--eps", "0.05",
                 "--out", str(out3)]) == 0
    header = out3.read_text().splitlines()[0]
    assert header == "t,x,value,sigma_policy"


def test_density_vs_mc_command(tmp_path):
    out = tmp_path / "dmc.csv"
    code = main(["density-vs-mc", "--paths", "2000", "--dt", "0.002",
                 "--bins", "8", "--seed", "1", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "bin_lo,bin_hi,observed,expected,std_error,z"
    assert len(rows) == 9


def test_md_commands(tmp_path):
    out = tmp_path / "md.json"
    code = main(["md-entropy", "--d", "2", "--paths", "150", "--seed", "4",
                 "--base-dt", "0.002", "--out", str(out)])
    assert code == 0
    assert "value" in json.loads(out.read_text())

    out2 = tmp_path / "search.json"
    code = main(["md-search", "--d", "1", "--x0", "0.5", "--budget", "2",
                 "--paths", "100", "--out", str(out2)])
    assert code == 0
    payload = json.loads(out2.read_text())
    assert set(payload) >= {"baseline_value", "candidates",
                            "improves_significantly"}


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# defaults for small runs\npaths=64\nseed=9\n")
    out = tmp_path / "e1.json"
    code = main(["entropy", "--eps", "0.1", "--base-dt", "0.01",
                 "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["n_paths"] == 64

    out2 = tmp_path / "e2.json"
    code = main(["entropy", "--eps", "0.1", "--base-dt", "0.01",
                 "--paths", "32", "--config", str(cfg), "--out", str(out2)])
    assert code == 0
    # explicit flag wins over the config value
    assert json.loads(out2.read_text())["n_paths"] == 32


def test_validation_exit_codes(tmp_path, capsys):
    assert main(["value", "--t", "1.0", "--x", "0.5",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["no-such-command"]) == 2
    assert main(["reciprocity", "--sigma-spec", "bogus",
                 "--out", str(tmp_path / "y.json")]) == 2


def test_csv_to_json_format_override(tmp_path):
    out = tmp_path / "res.json"
    code = main(["hjb-residual", "--nx", "8", "--nt", "8", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload, list) and "residual" in payload[0]


def test_config_values_are_cast_by_flag_type(tmp_path):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "dp.csv"
    cfg.write_text("nt=2000\n")
    assert main(["dp-solve", "--nx", "16", "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "t,x,value,sigma_policy"
    manifest = json.loads((tmp_path / "dp.csv.manifest.json").read_text())
    assert manifest["parameters"]["nt"] == 2000
    # each bad value is refused before the command runs
    for cmd, bad in (("dp-solve", "nt=abc"), ("dp-solve", "nt=2.5"),
                     ("dp-solve", "format=xml"), ("simulate", "fixed_step=maybe")):
        cfg.write_text(bad + "\n")
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2


# explicit flags that keep every run small; config keys set anything else
_MC = ["--paths", "8", "--eps", "0.1", "--base-dt", "0.05"]
_CHEAP_FLAGS = {
    "value": ["--t", "0.2", "--x", "0.5"],
    "sigma-star": ["--t", "0.2", "--x", "0.5"],
    "hjb-residual": ["--nx", "8", "--nt", "8"],
    "stationary-solve": ["--nx", "16"],
    "dp-solve": ["--nx", "8", "--nt", "300"],
    "dp-refine": ["--levels", "2", "--nx0", "8", "--eps", "0.05"],
    "simulate": _MC + ["--horizon", "0.2", "--dt", "0.02"],
    "entropy": _MC,
    "p-divergence": _MC + ["--p", "3"],
    "p-derivative": _MC,
    "sigma-martingale": _MC,
    "moment": _MC,
    "density": ["--t", "0.5", "--x", "0.5", "--points", "5", "--terms", "3"],
    "density-vs-mc": ["--paths", "20", "--dt", "0.05", "--bins", "4"],
    "trinomial": ["--sigma", "2", "--sigma-bar", "10"],
    "counterexample": ["--delta", "1e-3"],
    "reciprocity": ["--paths", "8", "--dt", "0.01"],
    "md-entropy": ["--paths", "8", "--base-dt", "0.05"],
    "md-search": ["--paths", "8", "--budget", "1"],
}
_CONFIG_VALUES = ["abc", "", "nan", "inf", "-inf", "-1", "0", "1", "2", "3",
                  "0.5", "0.05", "1e-3", "2.5", "true", "no", "csv", "json",
                  "binary", "standard", "log-moment", "specific", "p",
                  "2.1,2.05", "0.25,0.5", "0.3,0.3", "0.5", "const:2",
                  "one-plus-half-sin"]


def test_config_values_that_raised_now_exit_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    for cmd, flags, line in (
            ("entropy", _MC, "t0=-inf"),       # the step grid grew without end
            ("density-vs-mc", _CHEAP_FLAGS["density-vs-mc"], "t=inf"),
            ("dp-refine", ["--levels", "2", "--nx0", "8"], "eps=0"),
            ("md-entropy", _CHEAP_FLAGS["md-entropy"], "seed=-1")):
        cfg.write_text(line + "\n")
        assert main([cmd, *flags, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


def _config_keys(command):
    from winentropy.cli import build_parser
    _, subparsers = build_parser()
    return sorted(a.dest for a in subparsers[command]._actions
                  if a.dest not in ("help", "out", "config"))


@st.composite
def _config_case(draw):
    command = draw(st.sampled_from(sorted(_CHEAP_FLAGS)))
    keys = draw(st.lists(st.sampled_from(_config_keys(command)),
                         min_size=1, max_size=2, unique=True))
    return command, {k: draw(st.sampled_from(_CONFIG_VALUES)) for k in keys}


@settings(max_examples=150)
@given(_config_case())
def test_any_config_value_ends_in_documented_exit_code(tmp_path_factory, case):
    from winentropy.paths import set_max_workers
    command, values = case
    d = tmp_path_factory.mktemp("cfg")
    cfg = d / "c.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    try:
        code = main([command, *_CHEAP_FLAGS[command], "--config", str(cfg),
                     "--out", str(d / "out")])
    finally:
        set_max_workers(None)
    assert code in (0, 2, 3)
