"""Command front end: exit codes, emitted files, reproducibility."""

import json
import time
from pathlib import Path

import pytest

from nilflow.cli import main
from nilflow.pet import MAX_LEVEL_TERMS

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


def test_verify_poly_flags_origin_violation(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"algebra": {"builtin": "heisenberg", "dim": 3}, "family": [{"coords": {"y1": {"1": 2, "t": 1}}}]},
    )
    assert run("verify-poly", cfg, tmp_path) == 2
    assert "'y1'" in capsys.readouterr().err


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


def test_vdc_flow_signal(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "T": 4, "S": 4, "dt": "0.5",
            "signal": {
                "kind": "flow",
                "system": {"kind": "torus", "dim": 1},
                "algebra": {"builtin": "abelian", "dim": 1},
                "family": [{"coords": {"e1": {"t": "1/3"}}}],
                "function": {"kind": "torus_character", "freq": [1]},
                "n_samples": 200,
            },
        },
    )
    assert run("vdc", cfg, tmp_path) == 0
    assert len(read_rows(tmp_path)) == 2


def test_vdc_rejects_empty_window(tmp_path):
    cfg = write_config(tmp_path, {"T": 0, "S": 4, "dt": "0.5", "signal": {"kind": "expr", "expr": "one"}})
    assert run("vdc", cfg, tmp_path) == 2


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
