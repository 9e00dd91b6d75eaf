"""End-to-end acceptance battery.

One test per shipped guarantee, in order: exact group law against matrix
models, the degree law under differencing, certified descent over generator
pools, order axioms, the square-flow equidistribution base case, the
exceptional-vs-generic parameter dichotomy, joint-average convergence with
invariance gain on the Heisenberg quotient, the correlation-bound battery,
meagre-set sampling soundness, and byte-reproducible command runs.

Numeric tolerances are Monte Carlo standard-error multiples plus an explicit
O(1/T) quadrature/boundary allowance where a continuum oracle is compared
against a fixed-step time discretization.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nilflow.averaging import (
    JoiningSpec,
    mean_ergodic_base,
    scan_with_invariance,
    vdc_check,
    half_step_times,
)
from nilflow.cli import main as cli_main
from nilflow.dynamics import TestFunction, heisenberg3, torus
from nilflow.lie_core import GroupElement, bch_product, identity, make_builtin
from nilflow.multipoly import MultiPoly
from nilflow.pet import PolyFamily, derived_family, family_precedes, pet_trace, pivot
from nilflow.poly_maps import (
    PolyMap,
    difference,
    lt_equivalent,
    polynomial_degree,
)
from nilflow.zariski import MeagreSet, Variety, generic_sample, membership

from oracles import (
    heisenberg_from_matrix,
    heisenberg_to_matrix,
    matrix_bch,
    ut_from_matrix,
    ut_to_matrix,
)

H3 = make_builtin("heisenberg", dim=3)
SUT4 = make_builtin("strictly_upper_triangular", n=4)
FN23 = make_builtin("free_nilpotent", generators=2, step=3)
A1 = make_builtin("abelian", dim=1)
A2 = make_builtin("abelian", dim=2)

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def poly(entries, variables=("t",)):
    return MultiPoly(tuple(variables), {k: Fraction(v) for k, v in entries.items()})


def build(alg, coord_entries, variables=("t",)):
    return PolyMap.build(
        alg, variables, {label: poly(e, variables) for label, e in coord_entries.items()}
    )


def random_fraction(rng):
    return Fraction(rng.randint(-60, 60), rng.randint(1, 12))


# ----------------------------------------------------------------------
# 1. group law against faithful matrix models


def test_01_group_law_matches_matrix_model():
    start = time.monotonic()
    rng = random.Random(2024)

    for _ in range(1000):
        a = tuple(random_fraction(rng) for _ in range(3))
        b = tuple(random_fraction(rng) for _ in range(3))
        got = bch_product(GroupElement(H3, a), GroupElement(H3, b)).coords
        want = matrix_bch(heisenberg_to_matrix, heisenberg_from_matrix, a, b)
        assert got == tuple(want)

    labels = SUT4.labels
    for _ in range(1000):
        a = tuple(random_fraction(rng) for _ in range(6))
        b = tuple(random_fraction(rng) for _ in range(6))
        got = bch_product(GroupElement(SUT4, a), GroupElement(SUT4, b)).coords
        want = matrix_bch(
            lambda c: ut_to_matrix(labels, c, 4), lambda m: ut_from_matrix(labels, m), a, b
        )
        assert got == tuple(want)

    assert time.monotonic() - start < 10


# ----------------------------------------------------------------------
# 2. polynomial degree law and annihilation by differencing


def _random_poly_map(alg, rng):
    entries = {}
    labels = list(alg.labels)
    for label in rng.sample(labels, rng.randint(1, min(3, len(labels)))):
        coeffs = {}
        for k in range(1, 5):
            if rng.random() < 0.5:
                coeffs[(k,)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if coeffs:
            entries[label] = MultiPoly(("t",), coeffs)
    if not entries:
        entries[labels[0]] = poly({(1,): 1})
    return PolyMap.build(alg, ("t",), entries)


def test_02_degree_law_and_differencing_annihilation():
    start = time.monotonic()
    rng = random.Random(4099)
    for alg in (H3, FN23):
        for _ in range(100):
            phi = _random_poly_map(alg, rng)
            current = phi
            steps = 0
            while not current.is_constant_on_domain():
                current = difference(current)
                steps += 1
                assert steps <= 40
            assert difference(current).is_constant_identity()
            assert polynomial_degree(phi) == steps
    assert time.monotonic() - start < 60


# ----------------------------------------------------------------------
# 3. certified descent over two generator pools


A2_POOL_ENTRIES = [
    {"e1": {(3,): 1}},
    {"e1": {(3,): 1, (1,): 1}},
    {"e1": {(3,): 1, (1,): 2}},
    {"e1": {(3,): 1, (1,): 3}},
    {"e1": {(3,): 1}, "e2": {(1,): 1}},
    {"e1": {(3,): 1}, "e2": {(1,): 2}},
    {"e1": {(3,): 1, (1,): 1}, "e2": {(1,): 1}},
    {"e1": {(3,): 1, (1,): 2}, "e2": {(1,): 1}},
]

H3_POOL_ENTRIES = [
    {"x1": {(1,): 1}},
    {"y1": {(1,): 1}},
    {"x1": {(1,): 2}},
    {"x1": {(1,): 1}, "y1": {(1,): 1}},
    {"z": {(1,): 1}},
    {"z": {(1,): 2}},
    {"z": {(2,): 1}},
    {"z": {(2,): 1, (1,): 1}},
]


def _pool(alg, entry_list):
    return [build(alg, entries) for entries in entry_list]


def test_03_derived_families_descend_with_certificates():
    start = time.monotonic()
    for alg, entry_list in ((A2, A2_POOL_ENTRIES), (H3, H3_POOL_ENTRIES)):
        maps = _pool(alg, entry_list)
        for size in (1, 2, 3):
            for subset in itertools.combinations(maps, size):
                family = PolyFamily(list(subset))
                p = pivot(family)
                assert family_precedes(derived_family(family, p), family)
                trace = pet_trace(family, max_depth=128)
                assert sum(mult for _, mult in trace.final_family) <= 1
                assert all(step.certificate for step in trace.steps)
    assert time.monotonic() - start < 120


# ----------------------------------------------------------------------
# 4. order axioms


def test_04_order_axioms_hold():
    maps = _pool(A2, A2_POOL_ENTRIES)
    families = [PolyFamily([m]) for m in maps]
    families += [PolyFamily(list(pair)) for pair in itertools.combinations(maps, 2)]

    n = len(families)
    rel = [[family_precedes(families[i], families[j]) for j in range(n)] for i in range(n)]

    for i in range(n):
        assert not rel[i][i]
    for i in range(n):
        for j in range(n):
            if not rel[i][j]:
                continue
            for k in range(n):
                if rel[j][k]:
                    assert rel[i][k]

    for pool in (maps, _pool(H3, H3_POOL_ENTRIES)):
        m = len(pool)
        eq = [[lt_equivalent(pool[i], pool[j]) for j in range(m)] for i in range(m)]
        for i in range(m):
            assert eq[i][i]
        for i in range(m):
            for j in range(m):
                assert eq[i][j] == eq[j][i]
                for k in range(m):
                    if eq[i][j] and eq[j][k]:
                        assert eq[i][k]


# ----------------------------------------------------------------------
# 5. square-flow equidistribution base case


def test_05_square_flow_average_is_fresnel_small():
    start = time.monotonic()
    T = 500
    phi = build(A1, {"e1": {(2,): 1}})
    out = mean_ergodic_base(
        torus(1), phi, (), TestFunction("torus_character", (1,)),
        [T], dt="0.02", n_samples=10**4, seed=42,
    )
    norm = out.report.estimates[-1]
    se = out.report.std_errors[-1]
    assert norm <= 0.05
    assert out.classification == "mean_zero"

    m = 2**21
    t_fine = (np.arange(m) + 0.5) * (T / m)
    fresnel = abs(np.exp(2j * np.pi * t_fine * t_fine).mean()) / math.sqrt(2)
    assert abs(norm - fresnel) <= 3 * se + 1 / T
    assert time.monotonic() - start < 60


# ----------------------------------------------------------------------
# 6. exceptional versus generic parameter


def test_06_exceptional_vs_generic_parameter():
    start = time.monotonic()
    T, dt, n = 1000, 0.02, 2000
    phi = build(A2, {"e1": {(1, 0): 1}, "e2": {(1, 1): 1}}, variables=("t", "h"))
    f = TestFunction("torus_character", (1, -1))
    out = mean_ergodic_base(torus(2), phi, (1,), f, [T], dt=str(dt), n_samples=n, seed=6)

    norm = out.report.estimates[-1]
    assert norm >= 0.3
    assert abs(norm - 1 / math.sqrt(2)) <= 3 * out.report.std_errors[-1]
    assert out.classification == "invariant"

    gen = out.generic
    h = out.generic_h[0]
    assert h != 1
    beat = abs(1 - float(h))
    assert beat * dt < 0.5
    c = np.exp(2j * np.pi * (1 - float(h)) * (np.arange(round(T / dt)) + 0.5) * dt).mean()
    assert gen.classification == "mean_zero"
    assert gen.report.estimates[-1] <= 0.05
    assert abs(gen.report.estimates[-1] - abs(c) / math.sqrt(2)) <= 3 * gen.report.std_errors[-1] + 1e-9
    assert time.monotonic() - start < 60


# ----------------------------------------------------------------------
# 7. joint averages converge and regain invariance


@pytest.mark.slow
def test_07_joint_averages_converge_and_gain_invariance():
    start = time.monotonic()
    family = PolyFamily([build(H3, {"x1": {(1,): 1}}), build(H3, {"y1": {(1,): 1}})])
    fns = [
        TestFunction("heis_vertical", (1, 0, 1)),
        TestFunction("heis_vertical", (0, 0, 1)),
        TestFunction("heis_abelian", (1, 1)),
    ]
    joining = JoiningSpec([heisenberg3()] * 3, "diagonal")

    report = scan_with_invariance(
        joining, family, (), fns, [250, 500, 1000], dt="0.1", n_samples=10**5, seed=77
    )[0]
    assert report.cauchy_gap <= 5 * max(report.std_errors)

    g = GroupElement(H3, (Fraction(1, 3), Fraction(1, 5), Fraction(0)))
    e = identity(H3)
    push_x = GroupElement(H3, (Fraction(1), Fraction(0), Fraction(0)))
    push_y = GroupElement(H3, (Fraction(0), Fraction(1), Fraction(0)))
    deviations = scan_with_invariance(
        joining, family, (), fns, [100, 1000],
        g_list=[(g, g, g), (e, push_x, push_y)],
        dt="0.2", n_samples=10**5, seed=77,
    )[1]
    for dev_100, dev_1000 in deviations:
        assert dev_100 >= 3 * dev_1000
    assert time.monotonic() - start < 600


# ----------------------------------------------------------------------
# 8. correlation-bound battery


def test_08_correlation_bound_battery():
    start = time.monotonic()
    T = S = 200
    dt = 0.05
    times = half_step_times(T, S, dt)

    m = 2**21
    t_fine = (np.arange(m) + 0.5) * (T / m)
    fresnel_lhs = abs(float(np.cos(2 * np.pi * t_fine * t_fine).mean()))
    fine = vdc_check(
        np.cos(2 * np.pi * np.square(half_step_times(T, S, 0.0125))), S, T, 0.0125
    )

    battery = [
        ("constant", np.ones_like(times), 1.0, 1.0),
        ("cosine", np.cos(2 * np.pi * times), 0.0, 0.0),
        ("square_phase", np.cos(2 * np.pi * times * times), fresnel_lhs, fine["rhs_corr"]),
    ]
    recorded = {}
    for name, trajectory, lhs_oracle, rhs_oracle in battery:
        out = vdc_check(trajectory, S, T, dt)
        assert abs(out["lhs_norm"] - lhs_oracle) <= 1e-2
        assert abs(out["rhs_corr"] - rhs_oracle) <= 1e-2
        c = out["lhs_norm"] / math.sqrt(max(out["rhs_corr"], 1e-16))
        recorded[name] = c
        assert math.isfinite(c)
        assert out["lhs_norm"] <= c * math.sqrt(max(out["rhs_corr"], 1e-16)) + 1e-12

    assert recorded["constant"] == 1.0
    assert time.monotonic() - start < 30


# ----------------------------------------------------------------------
# 9. meagre-set sampling soundness


def test_09_generic_sampling_avoids_meagre_set():
    start = time.monotonic()
    names = ("h1", "h2")

    def hp(entries):
        return MultiPoly(names, {k: Fraction(v) for k, v in entries.items()})

    meagre = MeagreSet(
        [
            Variety([hp({(1, 0): 1})]),
            Variety([hp({(0, 1): 1})]),
            Variety([hp({(1, 0): 1, (0, 1): -1})]),
            Variety([hp({(1, 0): 1, (0, 1): 1, (0, 0): -3})]),
            Variety([hp({(1, 1): 1, (0, 0): -2})]),
        ]
    )
    for seed in range(10**4):
        point = generic_sample(meagre, seed=seed)
        assert membership(meagre, point) is False
    assert time.monotonic() - start < 10


# ----------------------------------------------------------------------
# 10. byte-identical command runs


DEMO_COMMANDS = {
    "demo_bch_degrees": "verify-poly",
    "demo_verify_poly": "verify-poly",
    "demo_pet_weights": "verify-poly",
    "demo_pet_pair": "pet",
    "demo_weyl_square": "average",
    "demo_acting_matrix": "average",
    "demo_dichotomy_exceptional": "average",
    "demo_heisenberg_joining": "average",
    "demo_dichotomy_generic": "generic",
    "demo_generic_lines": "generic",
    "demo_vdc_cos": "vdc",
    "demo_vdc_fresnel": "vdc",
    "demo_vdc_one": "vdc",
}


def test_10_demo_runs_are_byte_identical(tmp_path):
    shipped = {p.stem for p in DEMOS.glob("*.json")}
    assert shipped == set(DEMO_COMMANDS)

    # the third run reads the first run's sidecar, which alone reproduces it
    for name, command in sorted(DEMO_COMMANDS.items()):
        outputs = []
        for run_id, config in (
            ("first", DEMOS / f"{name}.json"),
            ("second", DEMOS / f"{name}.json"),
            ("sidecar", tmp_path / name / "first" / "sidecar.json"),
        ):
            out_dir = tmp_path / name / run_id
            code = cli_main(
                [command, "--config", str(config), "--out", str(out_dir)]
            )
            assert code == 0, name
            outputs.append(
                {
                    f: (out_dir / f).read_bytes()
                    for f in ("report.csv", "certificate.json", "sidecar.json")
                }
            )
        assert outputs[0] == outputs[1] == outputs[2], name
        # the on-disk JSON format, whatever writes it
        for f in ("certificate.json", "sidecar.json"):
            data = outputs[0][f].decode("ascii")
            assert data == json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n", (name, f)
