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
    lines = out.read_text().splitlines()
    assert lines[0] == "x,value,closed_form"
    assert (lines[1], lines[-1]) == ("0,0,0", "1,0,0")     # no -0 in either column

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


def test_density_vs_mc_without_survivors_exits_3(tmp_path, capsys):
    # at t = 8 all three paths are absorbed: no histogram to compare
    code = main(["density-vs-mc", "--paths", "3", "--t", "8",
                 "--out", str(tmp_path / "dmc.csv")])
    assert code == 3
    assert "no path survived to t=8.0" in capsys.readouterr().err
    assert not (tmp_path / "dmc.csv").exists()


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

    # ... even when it equals the flag's default
    out3 = tmp_path / "e3.json"
    code = main(["entropy", "--eps", "0.1", "--base-dt", "0.01",
                 "--paths", "10000", "--config", str(cfg), "--out", str(out3)])
    assert code == 0
    assert json.loads(out3.read_text())["n_paths"] == 10000


def test_validation_exit_codes(tmp_path, capsys):
    assert main(["value", "--t", "1.0", "--x", "0.5",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["no-such-command"]) == 2
    assert main(["reciprocity", "--sigma-spec", "bogus",
                 "--out", str(tmp_path / "y.json")]) == 2


@pytest.mark.parametrize("dt", ["0", "5", "0.3", "-0.001", "nan"])
def test_reciprocity_bad_dt_exits_2(tmp_path, capsys, dt):
    assert main(["reciprocity", "--paths", "8", "--dt", dt,
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stationary-solve", "dp-solve"])
def test_grid_too_large_to_allocate_exits_2(tmp_path, capsys, command):
    # 1e12 nodes is 8 TB per row: the allocation is refused at once
    assert main([command, "--nx", str(10**12),
                 "--out", str(tmp_path / "g.csv")]) == 2
    err = capsys.readouterr().err
    assert "out of memory" in err and str(10**12 + 1) in err
    assert not (tmp_path / "g.csv").exists()


def test_csv_to_json_format_override(tmp_path):
    out = tmp_path / "res.json"
    code = main(["hjb-residual", "--nx", "8", "--nt", "8", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload, list) and "residual" in payload[0]


def test_row_json_is_strict_and_keeps_integers(tmp_path):
    out = tmp_path / "refine.json"
    assert main(["dp-refine", "--levels", "2", "--nx0", "8", "--eps", "0.05",
                 "--format", "json", "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    rows = json.loads(out.read_text(), parse_constant=reject)
    assert [(r["n_x"], type(r["n_x"]), type(r["n_t"])) for r in rows] == \
        [(8, int, int), (16, int, int)]
    # the first level has no previous level to compare with
    assert rows[0]["gap_to_previous"] is None
    assert isinstance(rows[1]["gap_to_previous"], float)


def test_object_json_is_strict(tmp_path):
    # an absorbed path makes the specific entropy and its error infinite
    out = tmp_path / "ent.json"
    assert main(["entropy", "--flavor", "specific", "--paths", "64", "--eps", "1e-3",
                 "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    payload = json.loads(out.read_text(), parse_constant=reject)
    assert payload["value"] is None and payload["std_error"] is None
    assert payload["n_paths"] == 64 and payload["flavor"] == "specific"
    json.loads((tmp_path / "ent.json.manifest.json").read_text(), parse_constant=reject)


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


@pytest.mark.parametrize("argv", [
    ["simulate", *_CHEAP_FLAGS["simulate"], "--format", "json"],
    ["value", *_CHEAP_FLAGS["value"], "--format", "binary"],
    ["counterexample", *_CHEAP_FLAGS["counterexample"], "--format", "csv"],
])
def test_format_outside_the_commands_kinds_exits_2(tmp_path, capsys, argv):
    code, written = run(tmp_path, *argv, "--out", str(tmp_path / "artifact"))
    assert code == 2
    assert written == set()
    assert "--format" in capsys.readouterr().err


def test_threads_flag_is_scoped_to_its_call(tmp_path, monkeypatch):
    from winentropy import closed_form, paths
    seen = []
    monkeypatch.setattr(closed_form, "value_function",
                        lambda t, x: seen.append(paths.get_max_workers()) or 0.0)
    paths.set_max_workers(None)
    monkeypatch.setenv("WINENTROPY_THREADS", "1")
    argv = ["value", "--t", "0", "--x", "0.5", "--threads", "4"]
    assert main(argv + ["--out", str(tmp_path / "v.json")]) == 0
    assert seen == [4]
    assert paths._MAX_WORKERS is None and paths.get_max_workers() == 1
    # restored on a failing call too
    assert main(argv + ["--out", str(tmp_path / "no" / "v.json")]) == 2
    assert paths._MAX_WORKERS is None


def _explicit_values(command, flags):
    from winentropy.cli import build_parser
    ap, _ = build_parser()
    return vars(ap.parse_args([command, *flags]))


@pytest.mark.parametrize("command", sorted(_CHEAP_FLAGS))
def test_manifest_records_every_resolved_flag(tmp_path, command):
    out = tmp_path / "artifact"
    assert main([command, *_CHEAP_FLAGS[command], "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "artifact.manifest.json").read_text())
    params = manifest["parameters"]
    expected = set(_config_keys(command)) - {"format", "threads", "seed"}
    assert expected <= set(params), expected - set(params)
    for key, value in _explicit_values(command, _CHEAP_FLAGS[command]).items():
        if key in expected:
            assert params[key] == value, key
    assert manifest["seed"] == (0 if "seed" in _config_keys(command) else None)


def test_manifest_records_resolved_dp_steps(tmp_path):
    from winentropy.pde import DpSpec
    out = tmp_path / "dp.csv"
    assert main(["dp-solve", "--nx", "8", "--eps", "0.05", "--out", str(out)]) == 0
    params = json.loads((tmp_path / "dp.csv.manifest.json").read_text())["parameters"]
    spec = DpSpec.balanced(n_x=8, eps=0.05)
    assert params["nt"] == spec.n_t and params["penalty_K"] == spec.resolved_penalty


# sha256 of each artifact at _CHEAP_FLAGS (plus the listed flags), pinned
# before the command table replaced the hand-written parser
_GOLDEN = {
    "value": "4bed206080b84c116b5fe28a1c1a589fedc690b60e55ca804777aed120ed9b8b",
    "sigma-star": "ae26d95617f83ff6bfbdb15f7c9a11eec82b802d0f3cf9f01ef44829684efd14",
    "hjb-residual": "03f04ed4006df726da3309b7db273c23445fd38f232199a353f7f26be41d241b",
    # re-pinned when the banded LAPACK solve gave way to the discrete
    # Green's-function sum, a change in the last digits (notes/decisions.md
    # section 17), and again when the closed_form column's end rows read 0
    # where they read -0 (notes/decisions.md section 18)
    "stationary-solve": "ec0ee250470ab0bcfad85eb682f9e6df6af59265d216ca14845898d3262a5689",
    "dp-solve": "923e8dacaf20b79ea14b5d918bd8d736117f06bf4a7a8c6eb23cb45bcf94982e",
    "dp-refine": "cc0a8d7420ff005b5c414dd71f645afea0329f2467226506d25ba0bee3f9f3af",
    "simulate": "b402c98f47f08590669aae8d40b8d4f9b514bffae304a4a9ff712505591f3452",
    "entropy": "2500070fd1bfa7c6477e1023d31f35e009b3f8f0c7880b556de6190f94fa4ba2",
    "p-divergence": "2fb46013884be9c3737b831a52790a4acc28a0e9967524db2edc978992db5e48",
    "p-derivative": "a72e5afd1f17e4f20fccb0df511197fcece171eb0bfd356aac56434a3fd1b0c5",
    "sigma-martingale": "e199392ca07768efafb79b963ffa1eb14d6be996588e1e699f7f9584183222f1",
    "density": "c099bd9b6e3ed3643ad0b01d76c6c70e28276dfd59ac0fb17550dffdcbd65f7a",
    "density-vs-mc": "18d4595d428b9a3b3edf20e5883ee11d7bdcac1290a398fab5d3b6d16e45d026",
    "trinomial": "19c4faca2864d0f2ed9426968bea1c3acb2e9853b09650e4602c2cdb4ad0baab",
    "counterexample": "048b7cded8205cab35aa1072426b3b4ec655ef905f32778b9242716cfc8269ac",
    "reciprocity": "10740a9d3fc270545a80938441e86213fc49410ade8300eb26aa440e71eddc33",
    # re-pinned when the matrix-entropy sums moved to time order, a change in
    # the last digits (notes/decisions.md section 13)
    "md-entropy": "ef1f0642156ea07942fcdfff11bc6431439760f85bc6b0d3c78293186908ad10",
    # re-pinned when non-PSD candidates became infeasible: the budget-1
    # candidate, flat theta = -0.75, is not PSD at the centroid
    # (notes/decisions.md section 15)
    "md-search": "e36f47601d6446c9d54d686306bc79fca9c93be46df4e48cc4d4f93191669aa5",
    "simulate --format binary": "6a47c568c7aee801d098b455d0be2b9d002efddcf29ffd3db0ed77727a24b0ed",
    "simulate --scheme standard": "cffd45fc72c2c4607f22d61194df4f737ee9db445eaf7108793435fd10a67e12",
    "hjb-residual --format json": "af2f1868bac9ebb7f12cb47738fe8d13abb2844378cda9a2febbcb8fc07c3078",
}


def test_every_table_row_has_cheap_flags_and_a_pin():
    from winentropy.cli import _TABLE
    assert set(_CHEAP_FLAGS) == set(_TABLE)
    assert {case.split()[0] for case in _GOLDEN} == set(_TABLE)


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_artifact_bytes_are_pinned(tmp_path, case):
    import hashlib
    command, *extra = case.split()
    out = tmp_path / "artifact"
    assert main([command, *_CHEAP_FLAGS[command], *extra, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN[case]


def test_parser_is_built_once(tmp_path, monkeypatch):
    import argparse
    argv = ["value", "--t", "0", "--x", "0.5", "--out", str(tmp_path / "v.json")]
    assert main(argv) == 0
    calls = []
    original = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert main(argv) == 0
    assert main(["sigma-star", *argv[1:]]) == 0
    assert calls == []
