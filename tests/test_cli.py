"""Command front end: exit codes, emitted files, reproducibility."""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nilflow.averaging import JoiningSpec, scan_with_invariance
from nilflow.cli import _encode_json, _load_algebra, _load_members, main
from nilflow.dynamics import function_from_json_dict, haar_array, system_from_json_dict
from nilflow.lie_core import GroupElement
from nilflow.pet import MAX_LEVEL_TERMS, PolyFamily

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run(command, config, out, extra=()):
    return main([command, "--config", str(config), "--out", str(out), *extra])


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_rows(out_dir):
    return (Path(out_dir) / "report.csv").read_text().splitlines()


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
    ],
)
def test_counts_and_seeds_must_be_json_integers(tmp_path, capsys, command, demo, path, value):
    """A float, a bool or a string in place of a count or seed is refused, not truncated."""
    source = json.dumps(FLOW_VDC) if demo is None else (DEMOS / f"{demo}.json").read_text()
    cfg = json.loads(source)
    *parents, key = path.split(".")
    node = cfg
    for name in parents:
        node = node[name]
    node[key] = value
    assert run(command, write_config(tmp_path, cfg), tmp_path / "out") == 2
    assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err
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

    pts = haar_array(system_from_json_dict(cfg["systems"][0]), cfg["seed"], 500)
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
    systems = [system_from_json_dict(node) for node in cfg["systems"]]
    _, deviations = scan_with_invariance(
        JoiningSpec(systems, cfg["joining"]),
        PolyFamily(_load_members(cfg, algebra)),
        (),
        [function_from_json_dict(node) for node in cfg["functions"]],
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


def test_vdc_unknown_expression(tmp_path):
    cfg = write_config(tmp_path, {"T": 4, "S": 4, "dt": "0.5", "signal": {"kind": "expr", "expr": "sinh"}})
    assert run("vdc", cfg, tmp_path) == 2


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run("pet", path, tmp_path) == 2
    assert "cannot load config" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert run("pet", tmp_path / "absent.json", tmp_path) == 2


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
