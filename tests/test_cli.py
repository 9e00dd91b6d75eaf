"""Command front end: exit codes, emitted files, reproducibility."""

import copy
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nilflow.averaging import JoiningSpec, scan_with_invariance
from nilflow.cli import _encode_json, _load_algebra, _load_function, _load_members, _load_system, main
from nilflow.dynamics import haar_array
from nilflow.lie_core import GroupElement
from nilflow.pet import MAX_LEVEL_TERMS, PolyFamily
from test_acceptance import DEMO_COMMANDS

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run(command, config, out, extra=()):
    return main([command, "--config", str(config), "--out", str(out), *extra])


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_rows(out_dir):
    return (Path(out_dir) / "report.csv").read_text().splitlines()


MISSING = object()  # as a value for with_entry: delete the entry


def with_entry(cfg, path, value):
    """cfg with the entry at a dotted path (digits index lists) set to value, or deleted."""
    *parents, key = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = cfg
    for name in parents:
        node = node[name]
    if value is MISSING:
        del node[key]
    else:
        node[key] = value
    return cfg


def test_verify_poly_demo_reports_each_member(tmp_path, capsys):
    assert run("verify-poly", DEMOS / "demo_verify_poly.json", tmp_path) == 0
    rows = read_rows(tmp_path)
    assert rows[0] == "member,degree,internal_class,leading_degree,leading_coefficient,weight_c,weight_d"
    assert len(rows) == 5
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["well_formed"] is True and cert["members"] == 4
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_verify_poly_empty_family(tmp_path):
    cfg = write_config(tmp_path, {"algebra": {"builtin": "abelian", "dim": 1}, "family": []})
    assert run("verify-poly", cfg, tmp_path) == 0
    assert read_rows(tmp_path) == ["member,degree,internal_class,leading_degree,leading_coefficient,weight_c,weight_d"]


@pytest.mark.parametrize("command", ["verify-poly", "pet"])
def test_verify_poly_flags_origin_violation(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path,
        {"algebra": {"builtin": "heisenberg", "dim": 3}, "family": [{"coords": {"y1": {"1": 2, "t": 1}}}]},
    )
    assert run(command, cfg, tmp_path) == 2
    assert "'y1'" in capsys.readouterr().err


# H3 written out: [x1, y1] = z, with x1 and y1 on layer 1 and z on layer 2
H3_EXPLICIT = {"labels": ["x1", "y1", "z"], "layers": [1, 1, 2], "step": 2, "brackets": [[0, 1, [[2, "1"]]]]}


def test_explicit_algebra_runs_like_the_builtin(tmp_path):
    family = [{"coords": {"x1": {"t": 1}}}, {"coords": {"y1": {"t^2": 1}}}]
    for name, algebra in (("builtin", {"builtin": "heisenberg", "dim": 3}), ("explicit", H3_EXPLICIT)):
        cfg = write_config(tmp_path, {"algebra": algebra, "family": family}, f"{name}.json")
        assert run("pet", cfg, tmp_path / name) == 0
    assert (tmp_path / "builtin" / "report.csv").read_bytes() == (tmp_path / "explicit" / "report.csv").read_bytes()
    assert (tmp_path / "builtin" / "certificate.json").read_bytes() == (tmp_path / "explicit" / "certificate.json").read_bytes()


def test_explicit_algebra_that_fails_verification_is_config_error(tmp_path, capsys):
    # [a, b] = c and [b, a] = c break antisymmetry; c on layer 1 breaks the grading
    bad = {"labels": ["a", "b", "c"], "layers": [1, 1, 1], "step": 1, "brackets": [[0, 1, [[2, 1]]], [1, 0, [[2, 1]]]]}
    cfg = write_config(tmp_path, {"algebra": bad, "family": [{"coords": {"a": {"t": 1}}}]})
    assert run("pet", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "antisymmetry violation at (0,1,2)" in err
    assert "grading violation at (0,1,2)" in err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_pet_demo_writes_certified_trace(tmp_path):
    assert run("pet", DEMOS / "demo_pet_pair.json", tmp_path) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["certified"] is True
    assert cert["trace"]["depth"] >= 2
    assert all(s["certificate"]["kind"] in ("weight_descent", "count_descent") for s in cert["trace"]["steps"])
    assert len(read_rows(tmp_path)) == cert["trace"]["depth"] + 1


def test_pet_zero_depth_truncates(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "algebra": {"builtin": "heisenberg", "dim": 3},
            "family": [{"coords": {"x1": {"t": 1}}}, {"coords": {"x1": {"t^2": 1}}}],
            "max_depth": 0,
        },
    )
    assert run("pet", cfg, tmp_path) == 4
    assert not (tmp_path / "report.csv").exists()


def test_pet_negative_depth_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "algebra": {"builtin": "heisenberg", "dim": 3},
            "family": [{"coords": {"x1": {"t": 1}}}, {"coords": {"x1": {"t^2": 1}}}],
            "max_depth": -1,
        },
    )
    assert run("pet", cfg, tmp_path) == 2
    assert "max_depth" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "command, demo, path, value",
    [
        ("average", "demo_weyl_square", "n_samples", 2.9),
        ("average", "demo_weyl_square", "n_samples", True),
        ("average", "demo_weyl_square", "n_samples", "5"),
        ("average", "demo_weyl_square", "seed", 2.9),
        ("average", "demo_weyl_square", "threads", 2.9),
        ("pet", "demo_pet_pair", "max_depth", 2.9),
        ("generic", "demo_generic_lines", "seed", 2.9),
        ("vdc", None, "seed", 2.9),
        ("vdc", None, "signal.n_samples", 2.9),
        ("average", "demo_weyl_square", "seed", -1),
        ("generic", "demo_generic_lines", "seed", -1),
        ("vdc", None, "seed", -1),
        ("average", "demo_weyl_square", "--seed", -1),
        ("generic", "demo_generic_lines", "--seed", -1),
        ("vdc", None, "--seed", -1),
    ],
)
def test_counts_and_seeds_must_be_json_integers(tmp_path, capsys, command, demo, path, value):
    """A float, a bool or a string in place of a count or seed is refused, not
    truncated, and so is a negative seed, from the config or from --seed."""
    cfg = json.loads(json.dumps(FLOW_VDC) if demo is None else (DEMOS / f"{demo}.json").read_text())
    extra = [path, str(value)] if path.startswith("--") else []
    if not extra:
        cfg = with_entry(cfg, path, value)
    key = path.split(".")[-1].lstrip("-")
    assert run(command, write_config(tmp_path, cfg), tmp_path / "out", extra) == 2
    message = f"{key} must be at least 0, got -1" if value == -1 else f"{key} must be an integer, got {value!r}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pet_family_growth_truncates_quickly(tmp_path, capsys):
    # each level of this family's descent is about twice the size of the last
    start = time.monotonic()
    assert run("pet", DEMOS / "demo_pet_weights.json", tmp_path) == 4
    assert time.monotonic() - start < 30
    assert f"over the cap of {MAX_LEVEL_TERMS}" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_average_demo_outputs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("average", DEMOS / "demo_weyl_square.json", out1) == 0
    assert run("average", DEMOS / "demo_weyl_square.json", out2) == 0
    for name in ("report.csv", "certificate.json", "sidecar.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = read_rows(out1)
    assert rows[0] == "T,estimate,std_error,cauchy_gap"
    assert len(rows) == 3


def test_average_seed_override_lands_in_sidecar(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("average", DEMOS / "demo_weyl_square.json", out1, ["--seed", "99"]) == 0
    assert run("average", DEMOS / "demo_weyl_square.json", out2) == 0
    assert json.loads((out1 / "sidecar.json").read_text())["seed"] == 99
    assert json.loads((out2 / "sidecar.json").read_text())["seed"] == 7


@pytest.mark.parametrize(
    "command, demo",
    [("pet", "demo_pet_pair"), ("verify-poly", "demo_verify_poly"), ("vdc", "demo_vdc_one")],
)
def test_seed_is_refused_where_no_seed_is_read(tmp_path, capsys, command, demo):
    """pet and verify-poly have no --seed flag; vdc has one for flow signals only."""
    try:
        code = run(command, DEMOS / f"{demo}.json", tmp_path / "out", ["--seed", "5"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_vdc_sidecar_records_a_seed_only_for_a_flow_signal(tmp_path):
    assert run("vdc", DEMOS / "demo_vdc_one.json", tmp_path / "expr") == 0
    assert "seed" not in json.loads((tmp_path / "expr" / "sidecar.json").read_text())
    assert run("vdc", write_config(tmp_path, FLOW_VDC), tmp_path / "flow", ["--seed", "5"]) == 0
    assert json.loads((tmp_path / "flow" / "sidecar.json").read_text())["seed"] == 5


@pytest.mark.parametrize("second", [[1, 0, 1], [1, 0, 5], [1, 0, 0]])
def test_average_refuses_heisenberg_functions_on_a_torus(tmp_path, capsys, second):
    """A torus has no central coordinate for a vertical function to read."""
    cfg = {
        "systems": [{"kind": "torus", "dim": 2}, {"kind": "torus", "dim": 2}],
        "algebra": {"builtin": "abelian", "dim": 2},
        "family": [{"coords": {"e1": {"t": 1}, "e2": {"t": "1/3"}}}],
        "functions": [{"kind": "heis_vertical", "freq": [1, 0, 1]}, {"kind": "heis_vertical", "freq": second}],
        "t_grid": [5],
        "n_samples": 50,
    }
    assert run("average", write_config(tmp_path, cfg), tmp_path / "out") == 2
    assert "heis_vertical" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_average_tuple_on_an_acting_matrix_factor_matches_a_numpy_oracle(tmp_path):
    """Tuple elements live in each factor's own algebra, where the flow
    t -> (t^2, 2 t^2) acts; the shift (1/3, 0) turns the product
    cos(2 pi m.x) cos(2 pi m.x') into one with phase 4 pi / 3."""
    cfg = json.loads((DEMOS / "demo_acting_matrix.json").read_text())
    cfg.update(t_grid=[2, 5], n_samples=500, invariance={"tuples": [[["0", "0"], ["1/3", "0"]]]})
    assert run("average", write_config(tmp_path, cfg), tmp_path / "out") == 0
    deviations = json.loads((tmp_path / "out" / "certificate.json").read_text())["invariance"]["deviations"]

    pts = haar_array(_load_system("systems[0]", cfg["systems"][0]), cfg["seed"], 500)
    base = np.cos(2 * np.pi * (pts @ np.array([-2.0, 1.0])))
    sums = {shift: np.zeros(500) for shift in (0.0, 1 / 3)}
    want = []
    for j in range(100):
        t = (j + 0.5) * 0.05
        for shift, acc in sums.items():
            moved = np.mod(pts + np.array([shift + t * t, 2 * t * t]), 1.0)
            acc += np.cos(2 * np.pi * (moved @ np.array([2.0, -1.0])))
        if j + 1 in (40, 100):
            means = [float((base * acc / (j + 1)).mean()) for acc in sums.values()]
            want.append(abs(means[1] - means[0]))
    assert np.max(np.abs(np.array(deviations[0]) - want)) <= 1e-12


def test_average_tuple_in_the_flow_algebra_on_an_acting_matrix_factor_is_config_error(tmp_path, capsys):
    """One coordinate per element fits the flow's algebra, not the factor's."""
    cfg = json.loads((DEMOS / "demo_acting_matrix.json").read_text())
    cfg["invariance"] = {"tuples": [[["0"], ["1/3"]]]}
    assert run("average", write_config(tmp_path, cfg), tmp_path / "out") == 2
    assert "expected 2 coordinates, got 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_average_empty_grid_is_config_error(tmp_path):
    cfg = json.loads((DEMOS / "demo_weyl_square.json").read_text())
    cfg["t_grid"] = []
    assert run("average", write_config(tmp_path, cfg), tmp_path) == 2


def test_average_invariance_block(tmp_path):
    assert run("average", DEMOS / "demo_heisenberg_joining.json", tmp_path) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    devs = cert["invariance"]["deviations"]
    assert len(devs) == 2 and all(len(row) == 2 for row in devs)
    assert all(0 <= v < 0.1 for row in devs for v in row)


def test_average_invariance_reuses_the_scan_pass(tmp_path):
    """The certificate's deviations are those of a library scan_with_invariance
    call, and the report does not depend on the invariance block."""
    cfg = json.loads((DEMOS / "demo_heisenberg_joining.json").read_text())
    assert run("average", DEMOS / "demo_heisenberg_joining.json", tmp_path / "with") == 0
    plain = {key: value for key, value in cfg.items() if key != "invariance"}
    assert run("average", write_config(tmp_path, plain), tmp_path / "without") == 0
    assert (tmp_path / "with" / "report.csv").read_bytes() == (tmp_path / "without" / "report.csv").read_bytes()

    algebra = _load_algebra(cfg)
    systems = [_load_system("system", node) for node in cfg["systems"]]
    _, deviations = scan_with_invariance(
        JoiningSpec(systems, cfg["joining"]),
        PolyFamily(_load_members(cfg, algebra)),
        (),
        [_load_function("function", node) for node in cfg["functions"]],
        cfg["t_grid"],
        [tuple(GroupElement(algebra, el) for el in tup) for tup in cfg["invariance"]["tuples"]],
        dt=cfg["dt"],
        n_samples=cfg["n_samples"],
        seed=cfg["seed"],
    )
    cert = json.loads((tmp_path / "with" / "certificate.json").read_text())
    assert cert["invariance"]["deviations"] == deviations


@pytest.mark.parametrize("key", ["invariance", "elements"])
def test_average_rejects_elements_of_the_wrong_arity(tmp_path, capsys, key):
    """One element per factor: an extra one is an error, not silently dropped."""
    cfg = json.loads((DEMOS / "demo_heisenberg_joining.json").read_text())
    if key == "invariance":
        cfg["invariance"]["tuples"][0].append(["7", "7", "7"])
    else:
        cfg["joining"] = "graph"
        cfg["elements"] = [["0", "0", "0"], ["1/3", "0", "0"], ["0", "1/5", "0"], ["7", "7", "7"]]
    assert run("average", write_config(tmp_path, cfg), tmp_path / "out") == 2
    assert "has 4 elements, need one per factor (3)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize(
    "override, extra, message",
    [
        ({"n_samples": 0}, [], "n_samples must be at least 1, got 0"),
        ({}, ["--threads", "0"], "threads must be at least 1, got 0"),
        ({}, ["--threads", "-4"], "threads must be at least 1, got -4"),
    ],
    ids=["no-samples", "zero-threads", "negative-threads"],
)
def test_average_rejects_no_samples_and_no_threads(tmp_path, capsys, override, extra, message):
    """No NaN estimates from zero samples, and no thread count recorded that was not used."""
    cfg = {**json.loads((DEMOS / "demo_heisenberg_joining.json").read_text()), **override}
    assert run("average", write_config(tmp_path, cfg), tmp_path / "out", extra) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize(
    "command, demo, threads",
    [
        ("vdc", "demo_vdc_one", "-4"),
        ("pet", "demo_pet_pair", "0"),
        ("verify-poly", "demo_verify_poly", "0"),
        ("generic", "demo_generic_lines", "0"),
    ],
)
def test_every_subcommand_rejects_no_threads(tmp_path, capsys, command, demo, threads):
    assert run(command, DEMOS / f"{demo}.json", tmp_path / "out", ["--threads", threads]) == 2
    assert f"threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generic_demo_avoids_both_lines(tmp_path):
    assert run("generic", DEMOS / "demo_generic_lines.json", tmp_path) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["point"]["h1"] != "0" and cert["point"]["h2"] != "0"
    assert cert["witnesses"]


def test_generic_improper_functional_fails_certification(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "algebra": {"builtin": "abelian", "dim": 2},
            "vars": ["t", "h"],
            "family": [{"coords": {"e1": {"t h": 1}}}],
            "functionals": [[0, 1]],
        },
    )
    assert run("generic", cfg, tmp_path) == 3


def test_vdc_constant_signal(tmp_path):
    assert run("vdc", DEMOS / "demo_vdc_one.json", tmp_path) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["lhs_norm"] == 1.0 and cert["rhs_corr"] == 1.0


FLOW_VDC = {
    "T": 4, "S": 4, "dt": "0.5",
    "signal": {
        "kind": "flow",
        "system": {"kind": "torus", "dim": 1},
        "algebra": {"builtin": "abelian", "dim": 1},
        "family": [{"coords": {"e1": {"t": "1/3"}}}],
        "function": {"kind": "torus_character", "freq": [1]},
        "n_samples": 200,
    },
}


def test_vdc_flow_signal(tmp_path):
    assert run("vdc", write_config(tmp_path, FLOW_VDC), tmp_path) == 0
    assert len(read_rows(tmp_path)) == 2


def test_vdc_flow_signal_rejects_no_samples(tmp_path, capsys):
    """No NaN correlations from zero samples."""
    cfg = write_config(tmp_path, {**FLOW_VDC, "signal": {**FLOW_VDC["signal"], "n_samples": 0}})
    assert run("vdc", cfg, tmp_path / "out") == 2
    assert "n_samples must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_vdc_rejects_empty_window(tmp_path):
    cfg = write_config(tmp_path, {"T": 0, "S": 4, "dt": "0.5", "signal": {"kind": "expr", "expr": "one"}})
    assert run("vdc", cfg, tmp_path) == 2


def test_vdc_nonpositive_dt_is_config_error(tmp_path, capsys):
    cfg = json.loads((DEMOS / "demo_vdc_one.json").read_text())
    cfg["dt"] = 0
    assert run("vdc", write_config(tmp_path, cfg), tmp_path) == 2
    assert "dt must be positive" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ({"T": 200, "S": 0}, "horizon S must be positive"),
        ({"T": 3, "S": 1, "dt": "0.3"}, "dt=3/10 does not divide S=1"),
    ],
    ids=["S-zero", "dt-does-not-divide-S"],
)
def test_vdc_names_the_horizon_at_fault(tmp_path, capsys, override, message):
    cfg = {**demo_config("demo_vdc_one"), **override}
    assert run("vdc", write_config(tmp_path, cfg), tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_vdc_unknown_expression(tmp_path):
    cfg = write_config(tmp_path, {"T": 4, "S": 4, "dt": "0.5", "signal": {"kind": "expr", "expr": "sinh"}})
    assert run("vdc", cfg, tmp_path) == 2


def demo_config(name):
    return json.loads((DEMOS / f"{name}.json").read_text())


GRAPH_WEYL = {**demo_config("demo_weyl_square"), "joining": "graph"}


@pytest.mark.parametrize(
    "command, demo, path, value, fragment",
    [
        ("pet", "demo_pet_pair", "family", MISSING, "config is missing required key 'family'"),
        ("average", "demo_weyl_square", "systems.0.kind", MISSING, "config is missing required key 'kind'"),
        ("vdc", "demo_vdc_one", "signal.kind", "noise", "unknown signal kind 'noise'"),
        ("pet", "demo_pet_pair", "", [1, 2], "config root must be a JSON object"),
        ("average", "demo_weyl_square", "systems.0.dim", MISSING, "torus systems need a positive dimension"),
        ("average", "demo_weyl_square", "functions.1.kind", "sawtooth", "unknown test-function kind 'sawtooth'"),
        ("pet", "demo_pet_pair", "algebra", {"dim": 2, "labels": ["a"], "layers": [1]}, "dim field disagrees"),
        ("average", "demo_weyl_square", "dt", "1/0", "got '1/0'"),
        ("pet", "demo_pet_pair", "family.0", "t x1", "family member 0 must be an object, got 't x1'"),
        ("vdc", "demo_vdc_one", "T", True, "got True"),
        ("average", "demo_weyl_square", "t_grid", [True, 100], "got True"),
        ("verify-poly", "demo_verify_poly", "family.0.coords.x1", {"t^-1": 1, "t": 1}, "'t^-1': exponent '-1'"),
        ("verify-poly", "demo_verify_poly", "family.0.coords.x1", {"t^x": 1}, "'t^x': exponent 'x'"),
        ("average", "demo_weyl_square", "family.0.coords", {"e9": {"t": 1}}, "label 'e9'; the algebra has ['e1']"),
        ("pet", "demo_pet_pair", "family.0.coords.x1", 3, "coordinate 'x1' must be an object"),
        ("pet", "demo_pet_pair", "family.0.coords.x1", [[[1], 1]], "coordinate 'x1' must be an object"),
        ("average", "demo_weyl_square", "functions.1.freq", [1.7], "frequency entries must be integers, got [1.7]"),
        ("average", "demo_weyl_square", "functions.1.freq", [True], "frequency entries must be integers, got [True]"),
        ("average", "demo_dichotomy_exceptional", "t_grid", "12", "t_grid must be an array, got '12'"),
        ("average", "demo_dichotomy_exceptional", "h", "1", "h must be an array, got '1'"),
        ("average", "demo_dichotomy_exceptional", "vars", "th", "vars must be an array, got 'th'"),
        ("average", "demo_dichotomy_exceptional", "family.0.vars", "th", "family[0].vars must be an array, got 'th'"),
        (
            "vdc", "demo_vdc_one", "", {**FLOW_VDC, "signal": {**FLOW_VDC["signal"], "vars": ["t", "h"], "h": "1"}},
            "h must be an array, got '1'",
        ),
        ("generic", "demo_generic_lines", "functionals", {"10": 1, "01": 1}, "functionals must be an array, got {"),
        ("generic", "demo_generic_lines", "functionals", ["10", "01"], "functionals[0] must be an array, got '10'"),
        ("average", "demo_weyl_square", "", {**GRAPH_WEYL, "elements": "00"}, "elements must be an array, got '00'"),
        ("average", "demo_weyl_square", "", {**GRAPH_WEYL, "elements": ["0", "0"]}, "elements[0] must be an array, got '0'"),
        ("average", "demo_weyl_square", "invariance", {"tuples": {"00": 1}}, "invariance.tuples must be an array, got {"),
        ("average", "demo_weyl_square", "invariance", {"tuples": ["00"]}, "invariance.tuples[0] must be an array, got '00'"),
        (
            "average", "demo_heisenberg_joining", "invariance.tuples.1", ["000", "100", "010"],
            "invariance.tuples[1][0] must be an array, got '000'",
        ),
        (
            "verify-poly", "demo_verify_poly", "family.0",
            {"vars": ["t", "h"], "domain": "th", "coords": [[{"exp": [1, 0], "coef": "1"}], [], []]},
            "family[0].domain must be an array, got 'th'",
        ),
    ],
    ids=[
        "missing-key", "missing-nested-key", "unknown-signal-kind", "root-not-object", "torus-without-dim",
        "unknown-function-kind", "algebra-dim-vs-labels", "dt-1/0", "member-is-a-string", "T-true",
        "t_grid-true", "negative-exponent", "non-integer-exponent", "unknown-label", "scalar-coordinate",
        "term-list-coordinate", "freq-1.7", "freq-true", "t_grid-string", "h-string", "vars-string",
        "member-vars-string", "signal-h-string", "functionals-object", "functional-string", "elements-string",
        "element-string", "tuples-object", "tuple-string", "tuple-element-string", "member-domain-string",
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, command, demo, path, value, fragment):
    """Every malformed config exits 2 with stderr naming the fault, and writes nothing."""
    cfg = demo_config(demo)
    cfg = with_entry(cfg, path, value) if path else value
    assert run(command, write_config(tmp_path, cfg), tmp_path / "out") == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_average_tuple_across_different_groups_is_config_error(tmp_path, capsys):
    """A tuple's flows g_i phi_i g_0^{-1} need g_0 in every factor's group."""
    cfg = json.loads((DEMOS / "demo_weyl_square.json").read_text())
    cfg["joining"] = "product"
    cfg["systems"][1] = {"kind": "torus", "dim": 2, "acting_matrix": [[1], [2]]}
    cfg["functions"][1]["freq"] = [1, 0]
    cfg["invariance"] = {"tuples": [[["1/3"], ["0", "0"]]]}
    assert run("average", write_config(tmp_path, {**cfg, "invariance": None}), tmp_path / "plain") == 0
    assert run("average", write_config(tmp_path, cfg), tmp_path / "out") == 2
    assert "every factor on the base factor's group" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_library_fault_is_not_a_config_error(tmp_path, monkeypatch):
    """Only ConfigError exits 2: a ValueError raised inside the library propagates."""
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("nilflow.cli.scan_with_invariance", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run("average", DEMOS / "demo_weyl_square.json", tmp_path / "out")


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run("pet", path, tmp_path) == 2
    assert "cannot load config" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert run("pet", tmp_path / "absent.json", tmp_path) == 2


# ----------------------------------------------------------------------
# the config fuzz: every node of every demo config, and of the sidecar each
# one writes, is replaced in turn by each of FUZZ_VALUES


FUZZ_VALUES = ["x", True, 1.5, None, {}, [], -1, 0]


def small_demo(name):
    """A demo config shrunk so that a run takes milliseconds; its typing does not depend on size."""
    cfg = demo_config(name)
    if "n_samples" in cfg:
        cfg.update(n_samples=16, t_grid=[1, 2])
    if "signal" in cfg:
        cfg.update(T=2, S=2)
    return cfg


def fuzz_base(tmp_path, name, source):
    """The small demo `name` itself, or the sidecar that its run writes."""
    cfg = small_demo(name)
    if source == "sidecar":
        assert run(DEMO_COMMANDS[name], write_config(tmp_path, cfg, "base.json"), tmp_path / "base") == 0
        cfg = json.loads((tmp_path / "base" / "sidecar.json").read_text())
    return cfg


def node_paths(node, path=()):
    """The path of every node of a JSON document, the root's () first."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


def replaced(doc, path, value):
    """A copy of doc with its node at `path` replaced by value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def outcome(command, config, out):
    """The exit code of a run, or the type and message of what it raised."""
    try:
        return run(command, config, out)
    except Exception as exc:  # any exception is a bug in nilflow
        return f"{type(exc).__name__}: {exc}"


def fuzz_run(tmp_path, name, source, path, value):
    """The outcome of the demo's command on its config with one node replaced."""
    cfg = replaced(fuzz_base(tmp_path, name, source), path, value)
    return outcome(DEMO_COMMANDS[name], write_config(tmp_path, cfg), tmp_path / "out")


@pytest.mark.parametrize("source", ["demo", "sidecar"])
@pytest.mark.parametrize("name", sorted(DEMO_COMMANDS))
def test_config_fuzz_ends_with_a_nilflow_exit_code(tmp_path, capsys, name, source):
    """Whatever replaces a node, a run exits 0, 2, 3 or 4; it never raises."""
    base = fuzz_base(tmp_path, name, source)
    config = tmp_path / "cfg.json"
    outcomes = {}
    for path in node_paths(base):
        for value in FUZZ_VALUES:
            config.write_text(json.dumps(replaced(base, path, value)))
            code = outcome(DEMO_COMMANDS[name], config, tmp_path / "out")
            outcomes.setdefault(code, []).append((path, value))
    capsys.readouterr()
    bugs = {code: cases for code, cases in outcomes.items() if code not in (0, 2, 3, 4)}
    assert not bugs


# (demo, source, path, value, the key the message must name): mutations that must exit 2
REFUSED = [
    ("demo_weyl_square", "demo", ("seed",), -1, "seed"),
    ("demo_generic_lines", "demo", ("seed",), -1, "seed"),
    ("demo_pet_pair", "sidecar", ("family", 1, "coords", 0, 0, "exp", 0), True, "exp"),
    ("demo_generic_lines", "demo", ("vars", 1), None, "vars"),
    ("demo_pet_pair", "sidecar", ("family", 0, "vars", 0), None, "vars"),
    ("demo_pet_pair", "sidecar", ("algebra", "labels", 2), None, "labels"),
    ("demo_pet_pair", "sidecar", ("algebra", "brackets"), {}, "brackets"),
    ("demo_verify_poly", "demo", ("family", 0, "coords"), None, "coords"),
    ("demo_verify_poly", "demo", ("family", 0, "coords"), 0, "coords"),
    ("demo_verify_poly", "sidecar", ("family", 0, "coords", 0), {}, "coords"),
    ("demo_weyl_square", "demo", ("systems", 0, "dim"), True, "dim"),
    ("demo_weyl_square", "demo", ("algebra", "dim"), True, "dim"),
    ("demo_pet_pair", "sidecar", ("algebra", "dim"), True, "dim"),
    ("demo_heisenberg_joining", "demo", ("invariance",), 0, "invariance"),
    ("demo_heisenberg_joining", "demo", ("invariance",), [], "invariance"),
    ("demo_verify_poly", "demo", ("family",), {}, "family"),
    ("demo_pet_pair", "demo", ("max_depth",), True, "max_depth"),
    ("demo_weyl_square", "demo", ("functions", 0, "part"), 0, "part"),
    ("demo_vdc_one", "demo", ("signal",), [], "signal"),
    ("demo_vdc_one", "demo", ("signal", "expr"), 0, "expr"),
    ("demo_heisenberg_joining", "sidecar", ("systems", 0, "dim"), -1, "dim"),
]


@pytest.mark.parametrize("name, source, path, value, key", REFUSED)
def test_refused_config_value_is_config_error_naming_its_key(tmp_path, capsys, name, source, path, value, key):
    assert fuzz_run(tmp_path, name, source, path, value) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


STILL_VALID = [
    *(("demo_verify_poly", "demo", ("family", 1, "coords", "y1", "t^2"), v) for v in (1.5, -1, 0)),
    *(("demo_verify_poly", "sidecar", ("family", 0, "coords", 0, 0, "coef"), v) for v in (1.5, -1, 0)),
    *(("demo_dichotomy_exceptional", "demo", ("h", 0), v) for v in (1.5, -1, 0)),
    *(("demo_heisenberg_joining", "demo", ("invariance", "tuples", 0, 0, 0), v) for v in (1.5, -1, 0)),
    ("demo_weyl_square", "sidecar", ("elements",), None),
    ("demo_heisenberg_joining", "demo", ("invariance",), None),
    ("demo_pet_pair", "sidecar", ("algebra", "step"), None),
]


@pytest.mark.parametrize("name, source, path, value", STILL_VALID)
def test_still_valid_config_value_runs(tmp_path, name, source, path, value):
    """Rationals such as 1.5, -1 and 0 are values, not types, and null means the default."""
    assert fuzz_run(tmp_path, name, source, path, value) == 0


# ----------------------------------------------------------------------
# the JSON writer


JSON_EDGE_STRINGS = [
    "", "plain", "caf\u00e9", "\u2603 snow", "\U0001d538", 'say "hi"', "back\\slash", "\x00\x1f\n\t\x7f",
]
JSON_EDGE_VALUES = JSON_EDGE_STRINGS + [
    0, 7, -7, 2**64 - 1, -(2**70), True, False, None,
    0.0, -0.0, 1e-05, 1e16, 5e-324, 1.5, -2.25, 0.1, math.nan, math.inf, -math.inf,
    np.float64(0.1), {}, [], (), (1, "a"),
]


def _random_json(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return rng.choice(JSON_EDGE_VALUES)
    if roll < 0.6:
        return [_random_json(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if roll < 0.7:
        return tuple(_random_json(rng, depth - 1) for _ in range(rng.randint(0, 3)))
    keys = [rng.choice(JSON_EDGE_STRINGS) + str(rng.randint(0, 9)) for _ in range(rng.randint(0, 5))]
    return {k: _random_json(rng, depth - 1) for k in keys}


def test_json_writer_matches_the_standard_encoder():
    docs = [[v] for v in JSON_EDGE_VALUES] + JSON_EDGE_VALUES
    docs.append({str(i): v for i, v in enumerate(JSON_EDGE_VALUES)})
    rng = random.Random(11)
    docs += [_random_json(rng, 5) for _ in range(300)]
    for doc in docs:
        assert _encode_json(doc) == json.dumps(doc, indent=2, sort_keys=True), repr(doc)


@pytest.mark.parametrize(
    "bad", [Fraction(1, 3), np.int64(3), {1, 2}, {1: "int key"}], ids=["fraction", "int64", "set", "int_key"]
)
def test_json_writer_refuses_what_is_not_json(bad):
    with pytest.raises(TypeError):
        _encode_json({"outer": [bad]})
