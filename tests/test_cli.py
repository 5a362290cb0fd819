"""Command-line runner: outputs, determinism, exit codes, config validation."""

import ast
import copy
import dataclasses
import hashlib
import inspect
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab
from cocyclelab import acceptance as acc
from cocyclelab import cli, engine, errors
from cocyclelab import directions as dr


def write_config(tmp_path, body, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


def trace_config(tmp_path, n=10):
    return write_config(tmp_path, {
        "system": {"kind": "doubling"},
        "observable": "indicator(0.0,0.5)-0.5",
        "parameters": {"N": n},
    })


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], lines[1:]


def test_trace_writes_rows_and_summary(tmp_path):
    cfg = trace_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["trace", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    csv_path, = out.glob("*.csv")
    header, rows = read_rows(csv_path)
    assert header == "seed,fingerprint,n,phi_0,norm"
    assert len(rows) == 10
    assert all(r.startswith("3,") for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["operation"] == "trace"
    assert summary["seed"] == 3
    assert summary["parameters"]["N"] == 10
    # doubling-map orbits are literal lattice orbits, and the summary says so
    assert summary["orbit_mode"] == "exact"
    assert summary["fingerprint"]
    assert all(f",{summary['fingerprint']}," in r for r in rows)


def test_same_config_same_bytes(tmp_path):
    cfg = trace_config(tmp_path, n=25)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["trace", "--config", cfg, "--seed", "7", "--out", str(out1)]) == 0
    assert cli.main(["trace", "--config", cfg, "--seed", "7", "--out", str(out2)]) == 0
    csv1, = out1.glob("*.csv")
    csv2, = out2.glob("*.csv")
    assert csv1.read_bytes() == csv2.read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


_POOLED = {
    "directions": ({"kind": "iid-shift", "law": "rademacher", "d": 2}, "iid(rademacher, d=2)",
                   {}),
    "filling": ({"kind": "rotation", "alpha": "golden"}, "indicator(0.0,0.5)-0.5", {}),
    # past two digit-word marks, so the threads save and read one memo at once
    "filling.doubling": ({"kind": "doubling"}, "indicator(0.0,0.5)-0.5", {"N": 20_000}),
    "sojourn": ({"kind": "iid-shift", "law": "gaussian", "d": 2}, "iid(gaussian, d=2)",
                {"cone": "!angular:1,0,0.5"}),
}


@pytest.mark.parametrize("case", sorted(_POOLED))
def test_parallel_jobs_do_not_change_output(tmp_path, case):
    # the threads share the parsed specs; each seed's output is its own
    op = case.partition(".")[0]
    system, obs, params = _POOLED[case]
    cfg = write_config(tmp_path, {"system": system, "observable": obs,
                                  "parameters": {"N": 2000, "seeds": 3, **params}})
    out1, out2 = tmp_path / "serial", tmp_path / "pooled"
    assert cli.main([op, "--config", cfg, "--out", str(out1), "--jobs", "1"]) == 0
    assert cli.main([op, "--config", cfg, "--out", str(out2), "--jobs", "2"]) == 0
    for name in (f"{op}.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_env_seed_equals_flag_seed(tmp_path, monkeypatch):
    cfg = trace_config(tmp_path)
    out_env, out_flag, out_win = tmp_path / "env", tmp_path / "flag", tmp_path / "win"
    monkeypatch.setenv("COCYCLE_LAB_SEED", "9")
    assert cli.main(["trace", "--config", cfg, "--out", str(out_env)]) == 0
    # an explicit flag beats the environment
    assert cli.main(["trace", "--config", cfg, "--seed", "3", "--out", str(out_win)]) == 0
    monkeypatch.delenv("COCYCLE_LAB_SEED")
    assert cli.main(["trace", "--config", cfg, "--seed", "9", "--out", str(out_flag)]) == 0
    env_csv, = out_env.glob("*.csv")
    flag_csv, = out_flag.glob("*.csv")
    win_csv, = out_win.glob("*.csv")
    assert env_csv.read_bytes() == flag_csv.read_bytes()
    assert json.loads((out_win / "summary.json").read_text())["seed"] == 3


def test_bad_cone_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "system": {"kind": "iid-shift", "law": "rademacher", "d": 2},
        "observable": "iid(rademacher, d=2)",
        "parameters": {"N": 100, "cone": "wedge:1"},
    })
    assert cli.main(["sojourn", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "cone" in capsys.readouterr().err


def test_cone_of_another_dimension_fails_before_any_trace(tmp_path, capsys, monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("a trace was built")

    monkeypatch.setattr(cli, "ergodic_sums", no_trace)
    out = tmp_path / "o"
    code = cli.main(["sojourn", "--system", "iid-shift:gaussian:3",
                     "--obs", "iid(gaussian, d=3)", "--cone", "angular:1,0,0.5",
                     "--N", "64", "--jobs", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: cone: ")
    assert not out.exists()


def test_missing_parameter_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "system": {"kind": "doubling"},
        "observable": "frac-0.5",
    })
    assert cli.main(["trace", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "parameters.N" in capsys.readouterr().err


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["trace", "--config", str(bad)]) == 1
    assert cli.main(["trace", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("body, error", [
    ("[1]", "config: [1] is not of type 'object'"),
    ('"N"', "config: 'N' is not of type 'object'"),
    ('{"parameters": [1]}', "parameters: [1] is not of type 'object'"),
    ('{"parameters": null}', "parameters: None is not of type 'object'"),
    ('{"parameters": {"M": NaN}}', "config: nan is not a finite number"),
    ('{"parameters": {"M": -Infinity}}', "config: -inf is not a finite number"),
    ('{"parameters": {"M": 1e999}}', "config: inf is not a finite number"),
])
def test_config_file_of_another_shape_is_a_config_error(tmp_path, capsys, body, error):
    # the file must hold an object of finite numbers, also where flags merge in
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    out = tmp_path / "o"
    assert cli.main(["sojourn", "--config", str(cfg), "--N", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not out.exists()


_WALK = ["--system", "iid-shift:gaussian:2", "--obs", "iid(gaussian,d=2)", "--N", "100"]


@pytest.mark.parametrize("argv, error", [
    (["sojourn", *_WALK, "--cone", "halfspace:0,1", "--M", "nan"],
     "parameters.M: nan is not a finite number"),
    (["brownian", "--cone", "halfspace:0,1", "--h", "nan"],
     "parameters.h: nan is not a finite number"),
    (["brownian", "--cone", "halfspace:0,1", "--t", "inf"],
     "parameters.t: inf is not a finite number"),
    (["directions", *_WALK, "--quorum=-inf"],
     "parameters.quorum: -inf is not a finite number"),
    (["directions", *_WALK, "--thresholds", "1,nan"],
     "parameters.thresholds: nan is not a finite number"),
    (["sojourn", *_WALK, "--cone", "halfspace:0,1", "--grid", "1,x"],
     "parameters.grid: '1,x' is not a comma-separated list of ints"),
], ids=["M", "h", "t", "quorum", "thresholds", "grid"])
def test_flags_must_be_finite_numbers(tmp_path, capsys, argv, error):
    out = tmp_path / "o"
    assert cli.main(argv + ["--jobs", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    (["sojourn", *_WALK, "--cone", "halfspace:nan,1"],
     "cone: cone 'halfspace:nan,1' has a number that is not finite"),
    (["trace", "--system", "rotation:golden", "--obs", "1e999", "--N", "5"],
     "observable: literal inf is not a finite number"),
], ids=["cone", "observable"])
def test_numbers_in_cone_and_observable_strings_must_be_finite(tmp_path, capsys, argv,
                                                              error):
    out = tmp_path / "o"
    assert cli.main(argv + ["--jobs", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("field, text", [
    ("observable", "iid(gaussian,d=2.5)"), ("observable", "iid(gaussian,d=0)"),
    ("observable", "iid(gaussian,d=-1)"), ("cone", "full:2.5"), ("cone", "full:0"),
    ("cone", "full:-1"), ("cone", "orthant:"), ("set", "cylpos:1.7"), ("set", "cylpos:-0.5"),
    # every spec string takes its kind's count of finite values, and a kind
    # with no values takes no suffix; a set's string takes no measure
    ("system", "iid-shift:gaussian:2.5"), ("system", "iid-shift:gaussian:x"),
    ("system", "doubling:7"), ("system", "cat-map:foo"), ("system", "doubling:"),
    ("cone", "full:2,3"), ("set", "cylpos:1,5"), ("set", "interval:0,0.5,0.9"),
    ("set", "rect:0,.5,0,1,0.3"), ("set", "interval:0,0.5,-3"),
    ("set", "interval:0,0.5,nan"), ("set", "interval:0,0.5,0"),
])
def test_spec_dimensions_and_coordinates_must_be_whole(tmp_path, capsys, field, text):
    parse = {"observable": cocyclelab.parse_observable, "cone": cocyclelab.parse_cone,
             "set": cocyclelab.parse_set, "system": cli._system_from_string}[field]
    with pytest.raises(errors.ConfigInvalid) as e:
        parse(text)
    assert e.value.field == field
    argv = {"observable": ["trace", "--system", "iid-shift:gaussian:2", "--N", "5", "--obs"],
            "cone": ["brownian", "--samples", "5", "--cone"],
            "set": ["induce", "--system", "rotation:golden", "--obs", "frac", "--returns", "5",
                    "--cap", "100", "--set"],
            "system": ["trace", "--obs", "frac", "--N", "5", "--system"]}[field]
    out = tmp_path / "o"
    assert cli.main(argv + [text, "--jobs", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


def test_only_the_spec_reader_reads_spec_strings():
    # the three spec parsers hand their string to errors._spec, and split
    # or convert nothing themselves
    for module, name in [("cones", "parse_cone"), ("induce", "parse_set"),
                         ("cli", "_system_from_string")]:
        tree = ast.parse(Path(cli.__file__).with_name(f"{module}.py").read_text())
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
        calls = {c.func.id if isinstance(c.func, ast.Name) else c.func.attr
                 for c in ast.walk(fn) if isinstance(c, ast.Call)
                 and isinstance(c.func, (ast.Name, ast.Attribute))}
        assert "_spec" in calls, name
        assert not calls & {"split", "rsplit", "partition", "rpartition", "float", "int"}, name
    # a set's measure follows from its kind: no field, no constructor parameter
    assert "measure" not in {f.name for f in dataclasses.fields(cocyclelab.SetSpec)}
    for make in (cocyclelab.interval, cocyclelab.rect, cocyclelab.cylinder_positive):
        assert "measure" not in inspect.signature(make).parameters
    assert cocyclelab.interval(0, 0.25).measure == 0.25
    assert cocyclelab.rect(0, .5, 0, .5).measure == 0.25
    assert cocyclelab.cylinder_positive(1).measure == 0.5


def test_summary_that_is_not_strict_json_is_a_declared_error(tmp_path):
    # summary.json is RFC 8259 JSON, which has no NaN: nothing is written
    path = tmp_path / "summary.json"
    with pytest.raises(errors.CocycleLabError, match="not strict JSON"):
        cli._write_summary(str(path), {"measure": float("nan")})
    assert not path.exists()


@pytest.mark.parametrize("entry", ["flag", "environment", "config"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch, entry):
    # numpy refuses negative seeds; the run names the field instead
    argv = {"flag": ["trace", "--system", "doubling", "--obs", "frac", "--N", "10",
                     "--seed", "-1"],
            "environment": ["brownian", "--cone", "halfspace:0,1", "--samples", "10"],
            "config": ["trace", "--config", write_config(tmp_path, {
                "system": {"kind": "doubling", "seed": -5}, "observable": "frac",
                "parameters": {"N": 10}})]}[entry]
    monkeypatch.setenv("COCYCLE_LAB_SEED", "-2")
    out = tmp_path / "o"
    assert cli.main(argv + ["--jobs", "1", "--out", str(out)]) == 1
    error = {"flag": "seed: -1", "environment": "seed: -2", "config": "system.seed: -5"}[entry]
    assert capsys.readouterr().err == f"config error: {error} is not a whole number >= 0\n"
    assert not out.exists()


def test_schema_rejects_unknown_fields(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "system": {"kind": "doubling"},
        "observable": "frac",
        "parameters": {"N": 5, "bogus_knob": 1},
    })
    assert cli.main(["trace", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "bogus_knob" in capsys.readouterr().err


def test_config_error_in_a_pooled_task_is_a_config_error(tmp_path, capsys):
    code = cli.main(["sojourn", "--system", "iid-shift:gaussian:2", "--obs", "iid(gaussian,d=2)",
                     "--cone", "halfspace:0,1", "--N", "100", "--grid", "10,1000",
                     "--seeds", "2", "--jobs", "2", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: grid:")


def test_runtime_cap_is_a_declared_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "system": {"kind": "doubling"},
        "observable": "frac-0.5",
        "parameters": {"set": "interval:0,0.001", "returns": 50, "cap": 2},
    })
    assert cli.main(["induce", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err


def test_accept_single_criterion(tmp_path, capsys):
    out = tmp_path / "acc"
    cfg = write_config(tmp_path, {"parameters": {"criteria": [5]}})
    assert cli.main(["accept", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    report = json.loads((out / "accept_report.json").read_text())
    assert report["passed"] == 1 and report["failed"] == 0
    assert report["criteria"][0]["id"] == 5
    assert report["criteria"][0]["passed"] is True


def test_induce_csv_contract(tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"kind": "doubling"},
        "observable": "indicator(0.0,0.5)-0.5",
        "parameters": {"set": "interval:0,0.5", "returns": 20},
    })
    out = tmp_path / "ind"
    assert cli.main(["induce", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    csv_path, = out.glob("*.csv")
    header, rows = read_rows(csv_path)
    assert header.startswith("seed,fingerprint,n,R_n,")
    assert len(rows) == 20
    summary = json.loads((out / "summary.json").read_text())
    assert summary["parameters"]["set"] == "interval:0,0.5"
    assert summary["mean_return_time"] > 1.0


def test_flags_without_config_file(tmp_path):
    out = tmp_path / "flags"
    code = cli.main(["trace", "--system", "doubling", "--obs", "frac-0.5",
                     "--N", "7", "--seed", "2", "--out", str(out)])
    assert code == 0
    csv_path, = out.glob("*.csv")
    _, rows = read_rows(csv_path)
    assert len(rows) == 7


def test_trace_builds_no_checkpoints(tmp_path):
    # traces store no orbit states; the summary still echoes the setting
    out = tmp_path / "cp"
    assert cli.main(["trace", "--system", "rotation:golden", "--obs", "frac-0.5",
                     "--N", "3000", "--checkpoint-every", "1", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["checkpoint_every"] == 1


# SHA-256 of (CSV, summary.json) per operation at small sizes. Only
# rotation and iid-shift systems: their realized orbits are fixed, so
# any change to these digests is a change to the output contract.
GOLDEN = {
    "trace.rotation": (
        ["trace", "--system", "rotation:golden", "--obs", "indicator(0.0,0.5)-0.5",
         "--N", "300", "--seed", "3"],
        "e87ef862fb0d79eb6af6fa0f9a4989d4e31f9694b5b39f7574a4c2f36beda8b3",
        "335f7272d9b35580ce3e865e2065a8efd0ab2911aa493eae5d64420aefbabc7d"),
    "trace.gaussian2": (
        ["trace", "--system", "iid-shift:gaussian:2", "--obs", "iid(gaussian, d=2)",
         "--N", "200", "--seed", "5"],
        "045eb067cbd587eddb8fcb8b7f7bc4e44510a45c9dd4ce3a71b4ed4693eb8b38",
        "d5c630d339f29ac92fdf21c1099398da1dc3399498ea18be80b152395ab728ea"),
    "induce.rotation": (
        ["induce", "--system", "rotation:sqrt2m1", "--obs", "frac-0.5",
         "--set", "interval:0,0.25", "--returns", "100", "--seed", "1"],
        "0780f61f575eb14ffde512e735955b338c3f13ea0b367ecca5febffaaf543067",
        "ccea5f629389d1618c4c7f53c5a8d3d6ca1899966cc14b86d3b56e59f0f4229c"),
    "directions.rademacher2": (
        ["directions", "--system", "iid-shift:rademacher:2",
         "--obs", "iid(rademacher, d=2)", "--N", "2000", "--seeds", "2", "--seed", "4"],
        "f962a69161a20602087b62195d33ef33840da71134eac00b35d8af257e0dfc5a",
        "b76408314c48468517c05608d5654fefd1b0c6003c698d9d423cf7579ced43f5"),
    "directions.gaussian3": (
        ["directions", "--system", "iid-shift:gaussian:3", "--obs", "iid(gaussian, d=3)",
         "--N", "1500", "--thresholds", "1,5,20", "--seed", "7"],
        "14cee9d9183ef92059f481ee9952d95ad4de903b52a8914c802944fc62fcf9f7",
        "7e724aa7857ea7d2b30f5d96a827845b833685f70728adda36ea8bf837405f2e"),
    "filling.rotation": (
        ["filling", "--system", "rotation:golden", "--obs", "indicator(0.0,0.5)-0.5",
         "--N", "500", "--seeds", "2", "--seed", "2"],
        "20db3511d403bda702af94d6fa3aebef3b6749874de6187cc1f19c31d6b50ffb",
        "1916d3d1b64c7933a2d333bf4f010ecb03de3d3c7af4827e6cc61c0868e03d94"),
    # N on an engine block boundary: the N+1-step trace adds a one-row block
    "filling.rotation.block": (
        ["filling", "--system", "rotation:golden", "--obs", "indicator(0.0,0.5)-0.5",
         "--N", "65536", "--seed", "6"],
        "eac25d098e7b9bb5394fe909cf3009115e8c32f06cfb9b0a32a37f568e0455eb",
        "8b23d93291903bf0869d4c9402a7203674f85902f37eba8aab8486bdd29d27c3"),
    "sojourn.halfspace": (
        ["sojourn", "--system", "iid-shift:gaussian:2", "--obs", "iid(gaussian, d=2)",
         "--cone", "halfspace:0,1", "--N", "4096", "--seeds", "2", "--seed", "8"],
        "4a405b6f1386ad57e12851bfc9ed7bf1ffcee97073a3d20dc932900a4403fc87",
        "a34d23be39a5c15b5451d7c3d148822e32c7b84bd55fd15790844efd7bd20ebc"),
    "sojourn.angular": (
        ["sojourn", "--system", "iid-shift:gaussian:2", "--obs", "iid(gaussian, d=2)",
         "--cone", "angular:1,0,0.5", "--N", "1000", "--grid", "10,100,1000", "--seed", "9"],
        "4a6d75bf09ad34a3fb8e0cb3baf461da8ba1101f1e4268f313a959abb4c0d73c",
        "ab2a6040adafe94c46c057cee4d1e65eedf8db5517e190072fec5d699c785946"),
    "brownian.halfspace": (
        ["brownian", "--cone", "halfspace:0,1", "--samples", "300", "--seed", "11"],
        "5dec8af2793f1d66ca1f7ad3271f252bfa9ae187ac71c53033f39cf6fe66a58a",
        "423acd4e9b72694622e1b6bcbe39bc1e43f5e43dbafc5b39471a3efeea315477"),
    "brownian.angular": (
        ["brownian", "--cone", "angular:1,0,0.5", "--samples", "20", "--seed", "12"],
        "e4b518e094c8161540c055eb5142b8902241083f648dfd5bf7105f3e3a2933ea",
        "23e1a1594a9d25be583a55e7d1d317199fbf3ee4f842bf03159320bea8d6af19"),
    "brownian.angular.complement": (
        ["brownian", "--cone", "!angular:1,0,0.5", "--samples", "20", "--seed", "13"],
        "38e9dea685370fa791abc6dfdddae3798ed8fc4eec7d2431355f077a8cd76b0c",
        "6ae5249d3d8dd2393338a35fd3aa14cf802f4d36da4caf8561bfc3482f76c419"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_recorded_digests(tmp_path, name):
    argv, csv_digest, summary_digest = GOLDEN[name]
    out = tmp_path / "out"
    assert cli.main(argv + ["--jobs", "1", "--out", str(out)]) == 0
    csv_path, = out.glob("*.csv")
    assert sha256(csv_path) == csv_digest
    assert sha256(out / "summary.json") == summary_digest


@pytest.mark.parametrize("cone, h", [("angular:1,0,0.5", "2"), ("halfspace:0,1", "0.5")])
def test_brownian_step_size_is_a_config_error(tmp_path, capsys, cone, h):
    out = tmp_path / "o"
    code = cli.main(["brownian", "--cone", cone, "--h", h, "--samples", "3",
                     "--out", str(out)])
    assert code == 1
    assert "config error: h:" in capsys.readouterr().err
    assert not (out / "brownian.csv").exists()


@pytest.mark.parametrize("stack", [
    ["scipy"],
    ["jsonschema", "referencing", "rpds", "jsonschema_specifications"],
    ["concurrent", "multiprocessing"],
], ids=["scipy", "jsonschema", "process-pool"])
def test_cli_import_loads_no_stack(stack):
    # a fresh interpreter, so modules loaded by other tests do not count
    src = str(Path(cocyclelab.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cocyclelab, cocyclelab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in sys.argv[2:]))")
    out = subprocess.run([sys.executable, "-c", code, src, *stack], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("law, d", [("gaussian", 2), ("rademacher", 3), ("cauchy", 2)])
def test_sojourn_ball_pass_equals_per_horizon_frequency(law, d):
    system = {"kind": "iid-shift", "law": law, "d": d}
    N = 5000
    grid = sorted({int(n) for n in np.geomspace(1, N, 64)})
    sysm = cocyclelab.parse_system(system)
    obs = cocyclelab.parse_observable(f"iid({law}, d={d})")
    cone = cocyclelab.parse_cone("halfspace:" + ",".join(["1"] + ["0"] * (d - 1)), d)
    for g in (None, grid):
        ns, _, _, ball = cli._sojourn_task(sysm, obs, cone, N, g, 20.0, 3)
        tr = cocyclelab.ergodic_sums(sysm, obs, cocyclelab.sample_initial(sysm, 3), N)
        ref = [cocyclelab.ball_visit_frequency(tr, int(n), 20.0) for n in ns]
        assert ball.tobytes() == np.array(ref).tobytes()


def named_modules(node, owner=None):
    # (module, innermost enclosing function) of each import and string under node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((a.name, owner) for a in child.names)
        elif isinstance(child, ast.ImportFrom):
            yield child.module or "", owner
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value, owner
        yield from named_modules(child, child.name if isinstance(child, ast.FunctionDef)
                                 else owner)


def test_one_worker_pool():
    # threads in directions._map run every pooled seed; nothing pickles a task
    users = set()
    for path in sorted(Path(cli.__file__).parent.rglob("*.py")):
        text = path.read_text()
        for word in ("ProcessPoolExecutor", "multiprocessing", "__reduce__"):
            assert word not in text, (path.name, word)
        users |= {(path.stem, owner) for name, owner in named_modules(ast.parse(text))
                  if name.startswith("concurrent")}
    assert users == {("directions", "_map")}


def dir_task_on_traces(system, obs, N, mesh, ladder, epsilon, seed):
    # the directions task on a trace per seed: the reference the fold must equal
    tr = cocyclelab.ergodic_sums(system, obs, cocyclelab.sample_initial(system, seed), N)
    h = dr.hist_from_trace(tr, mesh, ladder)
    return h, dr.recurrence_diagnostic(tr, epsilon).verdict if N >= 1024 else "inconclusive"


_FOLDED = {   # system, observable, the labels of seeds 0 to 2
    "recurrent": ("rotation:golden", "cobdrift(h=sin2pi(frac),c=[0.0])",
                  {"recurrent-like": 3}),
    "transient": ("iid-shift:gaussian:2", "iid(gaussian,d=2)+[0.3,0.1]", {"transient-like": 3}),
    # seed 1 returns to 0: a zero norm counts in the minima, not in the histogram
    "returning": ("iid-shift:rademacher:2", "iid(rademacher, d=2)",
                  {"inconclusive": 2, "transient-like": 1}),
}


@pytest.mark.parametrize("case", sorted(_FOLDED))
def test_directions_fold_writes_the_bytes_of_traces(tmp_path, monkeypatch, case):
    # past one 65536-step block, with no trace built
    system, obs, labels = _FOLDED[case]
    argv = ["directions", "--system", system, "--obs", obs, "--N", "70000", "--seeds", "3",
            "--jobs", "1", "--out"]
    with monkeypatch.context() as m:
        m.setattr(cli, "_dir_task", dir_task_on_traces)
        assert cli.main(argv + [str(tmp_path / "traces")]) == 0

    def no_trace(*args, **kwargs):
        raise AssertionError("a trace was built")

    monkeypatch.setattr(cli, "ergodic_sums", no_trace)
    monkeypatch.setattr(engine, "ergodic_sums", no_trace)
    assert cli.main(argv + [str(tmp_path / "fold")]) == 0
    for name in ("directions.csv", "summary.json"):
        assert (tmp_path / "fold" / name).read_bytes() == (tmp_path / "traces" / name).read_bytes()
    assert json.loads((tmp_path / "fold" / "summary.json").read_text())["recurrence"] == labels


def test_directions_task_memory_is_a_few_blocks():
    # a trace of 2^20 steps and its norms take 24 MB; the fold holds a few blocks
    N = 1 << 20
    system = cocyclelab.iid_shift("rademacher", d=2)
    obs = cocyclelab.iid_increment("rademacher", 2)
    mesh, ladder = dr.make_mesh(2), dr.default_m_ladder(N ** 0.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._dir_task(system, obs, N, mesh, ladder, 0.5, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_run_alone_writes_output_and_no_task_parses_a_spec():
    # operations return their rows and fields; pooled tasks take parsed specs
    users, tasks = {}, {}
    for node in ast.parse(Path(cli.__file__).read_text()).body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        for name in names:
            users.setdefault(name, set()).add(owner)
        if owner and owner.endswith("_task"):
            tasks[owner] = names
    for name in ("_write_csv", "_resolve_out", "_base_summary"):
        assert users[name] == {"run"}, name
    assert users["_write_summary"] == {"run", "_op_accept"}
    assert set(tasks) == {"_dir_task", "_filling_task", "_sojourn_task"}
    for name, refs in tasks.items():
        assert not refs & {"parse_system", "parse_observable", "parse_cone"}, name


# The CSV writer before it encoded rows in numpy, kept verbatim (with its
# block size) as the byte reference.

WRITE_ROWS = 1 << 16       # CSV rows formatted per write


def write_csv_before(path: str, header, blocks) -> int:
    n = 0
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for block in blocks:
            arrays = [c for c in block if isinstance(c, np.ndarray)]
            fields = [("%.17g" if c.dtype.kind == "f" else "%d")
                      if isinstance(c, np.ndarray) else str(c).replace("%", "%%")
                      for c in block]
            fmt = ",".join(fields) + "\r\n"
            rows = len(arrays[0])
            for lo in range(0, rows, WRITE_ROWS):
                cols = [a[lo:lo + WRITE_ROWS].tolist() for a in arrays]
                f.write("".join(map(fmt.__mod__, zip(*cols))))
            n += rows
    return n


def same_csv(tmp_path, header, blocks):
    a, b = tmp_path / "before.csv", tmp_path / "now.csv"
    assert cli._write_csv(str(b), header, blocks) == write_csv_before(str(a), header, blocks)
    assert b.read_bytes() == a.read_bytes()


EDGE_FLOATS = np.array([
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
    np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0), -9.9999999999999991e-05,
    1e16, np.nextafter(1e16, 0.0), 1e17, np.nextafter(1e17, 0.0), np.nextafter(1e17, 1e18),
    -1.2345678901234567e16, 0.1, 1.0 / 3.0, -2.5, 1.0, 123456789012345678.0])
EDGE_INTS = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1, 9, 10, -10,
                      99, 100, -999_999, 10**18, -10**18], dtype=np.int64)


def test_writer_edge_rows_match_the_writer_before(tmp_path):
    n = 2 * cli.WRITE_ROWS + 37
    rng = np.random.default_rng(4)
    block = [12, "ab%dc%%", np.resize(EDGE_FLOATS, n), np.resize(EDGE_INTS, n),
             np.arange(n) % 3 == 0, (np.arange(n) % 256).astype(np.uint8),
             rng.standard_normal(n),
             rng.integers(-2**40, 2**40, n), "f0e1d2c3b4a5",
             np.array([np.iinfo(np.uint64).max, 0, 2**63], dtype=np.uint64).repeat(n)[:n]]
    header = [f"c{j}" for j in range(len(block))]
    same_csv(tmp_path, header, [block])
    # empty blocks, blocks that end on and just past the block size, and a
    # strided column (a trace's column is a view of its (N+1, d) values)
    values = rng.standard_normal((cli.WRITE_ROWS + 1, 2))
    same_csv(tmp_path, ["s", "n", "x", "y"], [
        [1, np.arange(0), np.empty(0), np.empty(0)],
        [2, np.arange(cli.WRITE_ROWS), *values[:-1].T],
        [3, np.arange(0), np.empty(0), np.empty(0)],
        [4, np.arange(cli.WRITE_ROWS + 1), *values.T]])
    same_csv(tmp_path, ["s"], [])


_columns = st.one_of(
    st.builds(lambda v: np.array(v, dtype=np.float64),
              st.lists(st.floats(allow_subnormal=True) | st.sampled_from(EDGE_FLOATS.tolist()))),
    st.builds(lambda v: np.array(v, dtype=np.int64),
              st.lists(st.integers(-2**63, 2**63 - 1) | st.sampled_from(EDGE_INTS.tolist()))),
    st.builds(lambda v: np.array(v, dtype=bool), st.lists(st.booleans())),
    st.builds(lambda v: np.array(v, dtype=np.uint8), st.lists(st.integers(0, 255))),
)
_constants = st.integers(-2**70, 2**70) | st.text(
    st.characters(min_codepoint=32, max_codepoint=126), max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(_columns | _constants, min_size=1, max_size=6),
                          st.integers(0, 40)), max_size=4),
       st.integers(1, 9))
def test_writer_matches_the_writer_before(tmp_path_factory, blocks, write_rows):
    # every column of a block is cut to one length, which crosses a small
    # block size several times
    tmp = tmp_path_factory.mktemp("csv")
    out = []
    for cols, rows in blocks:
        cols = [np.resize(c, rows) if isinstance(c, np.ndarray) else c for c in cols]
        out.append([np.arange(rows), *cols])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "WRITE_ROWS", write_rows)
        same_csv(tmp, ["n"] + [f"c{j}" for j in range(max(map(len, out), default=0))], out)


@pytest.mark.parametrize("kind", ["trace", "distinct"])
def test_writer_memory_per_row(tmp_path, kind):
    # block-sized temporaries: about 9 bytes a row for a rotation trace and 16
    # for all-distinct floats; the per-row `%` writer took 72 and 88
    N = 200_000
    if kind == "trace":
        sysm = cocyclelab.rotation("golden")
        tr = cocyclelab.ergodic_sums(sysm, cocyclelab.parse_observable("indicator(0.0,0.5)-0.5"),
                                     cocyclelab.sample_initial(sysm, 3), N,
                                     checkpoint_every=None)
        cols = [np.arange(1, N + 1), *tr.values[1:].T, tr.norms[1:]]
    else:
        rng = np.random.default_rng(0)
        cols = [np.arange(1, N + 1), np.cumsum(rng.integers(1, 8, N)), rng.standard_normal(N)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._write_csv(str(tmp_path / "out.csv"), ["a"] * (len(cols) + 2),
                       [[3, "0123456789ab", *cols]])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / N < 24


# ------------------------------------------------------------ schema check
# The package checks configs and accept reports with its own validator for
# the schema subset it ships; jsonschema is the oracle here, as scipy is in
# test_brownian.py.

def agrees_with_reference(schema, x):
    """The first error of x in JSON-path order, once all of them agree with
    the reference (None if there are none)."""
    from jsonschema import Draft202012Validator
    expected = sorted(((e.json_path, e.message) for e in Draft202012Validator(schema)
                       .iter_errors(x)), key=lambda e: e[0])
    assert sorted(cli._schema_errors(schema, x), key=lambda e: e[0]) == expected
    return expected[0] if expected else None


CONFIG_SCHEMA = cli._load_schema("config.schema.json")
_POS_INT = st.integers(1, 2**40)
_POS_FLOAT = st.floats(0, 1e12, exclude_min=True)
_PARAMS = {
    "N": _POS_INT, "checkpoint_every": _POS_INT, "set": st.text(max_size=6),
    "returns": _POS_INT, "cap": _POS_INT, "seeds": _POS_INT,
    "thresholds": st.lists(_POS_FLOAT, min_size=1, max_size=3),
    "quorum": st.floats(0, 1, exclude_min=True), "epsilon": _POS_FLOAT,
    "cone": st.text(max_size=6), "grid": st.just("dyadic") | st.lists(_POS_INT, min_size=1,
                                                                       max_size=3),
    "M": _POS_FLOAT, "t": _POS_FLOAT, "h": _POS_FLOAT, "samples": _POS_INT,
    "criteria": st.lists(st.integers(1, 16), min_size=1, max_size=3),
}
_OP_PARAMS = {"trace": ["N", "checkpoint_every"], "induce": ["set", "returns", "cap"],
              "directions": ["N", "seeds", "thresholds", "quorum", "epsilon"],
              "filling": ["N", "seeds"], "sojourn": ["cone", "N", "grid", "seeds", "M"],
              "brownian": ["cone", "t", "h", "samples"], "accept": ["criteria"]}
_SYSTEMS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("rotation"),
                           "alpha": st.sampled_from(["golden", "sqrt2m1", "sqrt3m1"])}),
    st.fixed_dictionaries({"kind": st.sampled_from(["doubling", "cat-map"])},
                          optional={"seed": st.integers(-2**70, 2**70)}),
    st.fixed_dictionaries({"kind": st.just("iid-shift"), "d": st.integers(1, 4),
                           "law": st.sampled_from(["rademacher", "gaussian", "cauchy"])}))


def valid_configs(op):
    walk = {} if op in ("brownian", "accept") else {
        "system": _SYSTEMS, "observable": st.text(min_size=1, max_size=6)}
    params = st.lists(st.sampled_from(_OP_PARAMS[op]), min_size=1, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({k: _PARAMS[k] for k in names}))
    return st.fixed_dictionaries(
        {"operation": st.just(op), "seed": st.integers(-2**63, 2**63 - 1), "parameters": params,
         **walk}, optional={"jobs": st.integers(1, 4), "out": st.text(max_size=6)})


# wrong types, a bool in a number slot, out-of-range numbers, empty lists and
# strings, and grids that are neither "dyadic" nor a list of ints
_ODD_NUMBERS = [0, -1, 0.0, -0.5, 0.5, 1.5, 16, 17, 2.0**70, float("nan")]
_ODD_VALUES = [True, False, None, "", "x", "dyadic", [], [0], [1.5], [2.0], ["a"], [True],
               {}, {"x": 1}, *_ODD_NUMBERS]
_GRIDS = ["dyadic", "linear", "", [], [0], [1, -1], [1.5], [2.0], ["a"], [True], 3, None, {}]


def entries(x):
    """(container, key) of every entry of x, nested ones included."""
    for k, v in list(x.items() if isinstance(x, dict) else enumerate(x)):
        yield x, k
        if isinstance(v, (dict, list)):
            yield from entries(v)


def mutate(data, x, keys):
    """x with one entry given an odd value, made an integral float, deleted or
    added; `keys` are the names an added entry may take."""
    spots = list(entries(x))
    how = data.draw(st.sampled_from(["odd", "number", "float", "delete", "add"]))
    if how in ("number", "float"):
        spots = [(n, k) for n, k in spots if type(n[k]) in (int, float)] or spots
    if how == "add" or not spots:
        node = data.draw(st.sampled_from([x, *(n[k] for n, k in spots if isinstance(n[k], dict))]))
        key = data.draw(st.sampled_from([*keys, "bogus"]))
    else:
        node, key = data.draw(st.sampled_from(spots))
    if how == "delete" and isinstance(node, dict):
        del node[key]
    elif how == "float" and type(node[key]) is int:
        node[key] = float(node[key])
    else:
        pool = _ODD_NUMBERS if how == "number" else _ODD_VALUES
        node[key] = copy.deepcopy(data.draw(st.sampled_from(pool)))
    return x


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(_OP_PARAMS)).flatmap(valid_configs), st.data())
def test_config_validator_agrees_with_reference(cfg, data):
    assert agrees_with_reference(CONFIG_SCHEMA, cfg) is None
    keys = ["operation", "seed", "system", "observable", "parameters", "jobs", "out",
            "kind", "d", *_PARAMS]
    if data.draw(st.integers(0, 3)) == 0:
        cfg["parameters"]["grid"] = copy.deepcopy(data.draw(st.sampled_from(_GRIDS)))
    for _ in range(data.draw(st.integers(1, 2))):
        cfg = mutate(data, cfg, keys)
    expected = agrees_with_reference(CONFIG_SCHEMA, cfg)
    if expected is None:
        cli.validate_config(cfg)
    else:
        with pytest.raises(errors.ConfigInvalid) as e:
            cli.validate_config(cfg)
        assert (e.value.field, e.value.message) == (expected[0][2:] or "config", expected[1])


@pytest.mark.parametrize("params, field", [
    ({"N": True}, "parameters.N"),          # a bool is no integer
    ({"N": 5.0}, None),                     # an integral float is one
    ({"N": 5.5}, "parameters.N"),
    ({"quorum": False}, "parameters.quorum"),
    ({"N": 0, "bogus": 1}, "parameters"),   # the object's own path sorts first
    ({"thresholds": []}, "parameters.thresholds"),
    ({"grid": "linear"}, "parameters.grid"),
    ({"grid": [1, 0]}, "parameters.grid"),  # oneOf names the grid, not its item
    ({"grid": [4.0]}, None),
])
def test_config_validator_edges(params, field):
    cfg = {"operation": "sojourn", "seed": 1, "parameters": params}
    expected = agrees_with_reference(CONFIG_SCHEMA, cfg)
    assert (expected and expected[0][2:]) == field


@pytest.fixture(scope="module")
def accept_report():
    report = acc.report_dict(acc.run_all([2, 5, 6, 16]))
    report["fingerprint"] = "0123456789ab"
    return report


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_report_validator_agrees_with_reference(accept_report, data):
    schema = cli._load_schema("accept_report.schema.json")
    report = copy.deepcopy(accept_report)
    assert agrees_with_reference(schema, report) is None
    keys = ["criteria", "passed", "failed", "fingerprint", "id", "name", "measured",
            "gate", "seconds"]
    for _ in range(data.draw(st.integers(1, 2))):
        rows = report.get("criteria")
        rows = [r for r in rows if isinstance(r, dict)] if isinstance(rows, list) else []
        mutate(data, data.draw(st.sampled_from([report, *rows])), keys)
    agrees_with_reference(schema, report)


@pytest.mark.parametrize("sub", [
    {"type": "string", "pattern": "^a"},
    {"type": "array", "items": {"type": "integer", "multipleOf": 2}},
    {"type": "object", "additionalProperties": {"type": "string"}},
    {"type": ["string", "null"]},
    {"oneOf": [{"const": 1}, {"format": "date"}]},
])
def test_schema_with_an_unchecked_keyword_is_refused(tmp_path, monkeypatch, sub):
    schema = copy.deepcopy(CONFIG_SCHEMA)
    schema["properties"]["parameters"]["properties"]["extra"] = sub
    (tmp_path / "schemas").mkdir()
    (tmp_path / "schemas" / "edited.schema.json").write_text(json.dumps(schema))
    monkeypatch.setattr(cli, "resources", SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(ValueError, match="does not check"):
        cli._load_schema("edited.schema.json")
