"""Joint time averages: normalization, oracles, invariance, correlation test."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nilflow.averaging import (
    AverageReport,
    _flow_elements,
    JoiningSpec,
    convergence_scan,
    flow_correlation_trajectory,
    half_step_times,
    invariance_check,
    joining_average,
    mean_ergodic_base,
    vdc_check,
)
from nilflow.dynamics import TestFunction, haar_array, heisenberg3, torus
from nilflow.lie_core import GroupElement, identity, make_builtin
from nilflow.multipoly import MultiPoly
from nilflow.pet import PolyFamily
from nilflow.poly_maps import PolyMap

SQRT2 = Fraction(str(math.sqrt(2)))

A1 = make_builtin("abelian", dim=1)
A2 = make_builtin("abelian", dim=2)
H3 = make_builtin("heisenberg", dim=3)


def t_times(scale, var_names=("t",), power=1):
    return MultiPoly(tuple(var_names), {(power,) + (0,) * (len(var_names) - 1): Fraction(scale)})


def rotation_family(*scales):
    maps = [PolyMap.build(A1, ("t",), {"e1": t_times(s)}) for s in scales]
    return PolyFamily(maps)


def char(freq, part="cos"):
    return TestFunction("torus_character", tuple(freq), part)


def ones(dim):
    return char((0,) * dim)


def midpoints(T, dt):
    n = round(T / dt)
    return (np.arange(n) + 0.5) * dt


# ----------------------------------------------------------------------
# joining specs


def test_joining_spec_validation():
    with pytest.raises(ValueError):
        JoiningSpec([torus(1), torus(2)], "diagonal")
    with pytest.raises(ValueError):
        JoiningSpec([torus(1), torus(1)], "swirl")
    with pytest.raises(ValueError):
        JoiningSpec([torus(1), torus(1)], "graph")
    with pytest.raises(ValueError):
        JoiningSpec([torus(1), torus(1)], "product", elements=[identity(A1), identity(A1)])
    spec = JoiningSpec([torus(1), torus(2)], "product")
    assert spec.k == 1


# ----------------------------------------------------------------------
# normalization, boundedness, determinism


def test_all_ones_functions_give_exactly_one():
    fam = rotation_family(SQRT2)
    fns = [ones(1), ones(1)]
    for kind, elements in (
        ("diagonal", None),
        ("product", None),
        ("graph", [identity(A1), GroupElement(A1, (Fraction(1, 3),))]),
    ):
        joining = JoiningSpec([torus(1), torus(1)], kind, elements=elements)
        est, se = joining_average(joining, fam, (), fns, T=5, dt="0.5", n_samples=50, seed=9)
        assert est == 1.0
        assert se == 0.0


def test_estimates_are_bounded_by_one():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = rotation_family(SQRT2)
    est, _ = joining_average(joining, fam, (), [char((1,)), char((2,), "sin")], T=3, dt="0.1", n_samples=200, seed=4)
    assert abs(est) <= 1.0


def test_scan_is_deterministic_and_thread_invariant():
    joining = JoiningSpec([heisenberg3(), heisenberg3()], "diagonal")
    fam = PolyFamily([PolyMap.build(H3, ("t",), {"x1": t_times(1)})])
    fns = [TestFunction("heis_abelian", (1, 0)), TestFunction("heis_abelian", (0, 1))]
    runs = [
        convergence_scan(joining, fam, (), fns, [5, 10], dt="0.25", n_samples=900, seed=17, threads=w)
        for w in (1, 1, 3)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_constant_functions_have_zero_cauchy_gap():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    report = convergence_scan(
        joining, rotation_family(SQRT2), (), [ones(1), ones(1)], [2, 4, 6, 8], dt="0.5", n_samples=20, seed=0
    )
    assert report.cauchy_gap == 0.0
    assert report.estimates == (1.0, 1.0, 1.0, 1.0)


def test_report_validation():
    with pytest.raises(ValueError):
        AverageReport((2.0, 1.0), (0.1, 0.1), (0.0, 0.0), 0.0, 0.05, 10, 0)
    with pytest.raises(ValueError):
        AverageReport((1.0, 2.0), (0.1, 0.1), (-0.1, 0.0), 0.0, 0.05, 10, 0)


def test_arity_and_grid_errors():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = rotation_family(SQRT2)
    with pytest.raises(ValueError):
        joining_average(joining, fam, (), [ones(1)], T=1, dt="0.5", n_samples=5)
    with pytest.raises(ValueError):
        joining_average(joining, fam, (), [ones(1), ones(1)], T=1, dt="-0.5", n_samples=5)
    with pytest.raises(ValueError):
        joining_average(joining, fam, (), [ones(1), ones(1)], T=1, dt="0.3", n_samples=5)
    with pytest.raises(ValueError):
        convergence_scan(joining, fam, (), [ones(1), ones(1)], [4, 2], dt="0.5", n_samples=5)


# ----------------------------------------------------------------------
# closed-form oracles for rotations


def test_rotation_correlation_matches_seedwise_oracle():
    T, dt, n, seed = 200, 0.05, 4000, 23
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    est, se = joining_average(
        joining, rotation_family(SQRT2), (), [char((1,)), char((1,))], T=T, dt=str(dt), n_samples=n, seed=seed
    )
    alpha = float(SQRT2)
    x = haar_array(torus(1), seed, n)[:, 0]
    c = np.exp(2j * np.pi * alpha * midpoints(T, dt)).mean()
    oracle = float(np.mean(np.cos(2 * np.pi * x) * np.real(np.exp(2j * np.pi * x) * c)))
    assert abs(est - oracle) <= 1e-9
    assert abs(est) <= 3 * se + 1 / (math.pi * alpha * T)


def test_quadratic_flow_kills_mean_zero_character():
    T = 500
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = PolyFamily([PolyMap.build(A1, ("t",), {"e1": t_times(1, power=2)})])
    est, se = joining_average(
        joining, fam, (), [ones(1), char((1,))], T=T, dt="0.02", n_samples=2000, seed=5
    )
    assert abs(est) <= 3 * se + 1 / T


def test_resonant_triple_stabilizes_at_orbit_average():
    fns = [char((1,)), char((-2,)), char((1,))]
    joining = JoiningSpec([torus(1)] * 3, "diagonal")
    fam = rotation_family(SQRT2, 2 * SQRT2)
    report = convergence_scan(joining, fam, (), fns, [50, 100, 200], dt="0.05", n_samples=3000, seed=11)

    grid = (np.arange(16) + 0.5) / 16
    xs, ss = np.meshgrid(grid, grid, indexing="ij")
    orbit_oracle = float(
        np.mean(np.cos(2 * np.pi * xs) * np.cos(4 * np.pi * (xs + ss)) * np.cos(2 * np.pi * (xs + 2 * ss)))
    )
    assert abs(orbit_oracle - 0.25) < 1e-12
    assert abs(report.estimates[-1] - orbit_oracle) <= 3 * report.std_errors[-1] + 0.01


def test_heisenberg_pair_scan_is_sane():
    joining = JoiningSpec([heisenberg3()] * 3, "diagonal")
    fam = PolyFamily(
        [
            PolyMap.build(H3, ("t",), {"x1": t_times(1)}),
            PolyMap.build(H3, ("t",), {"y1": t_times(1)}),
        ]
    )
    fns = [
        TestFunction("heis_abelian", (1, 0)),
        TestFunction("heis_abelian", (0, 1)),
        TestFunction("heis_abelian", (1, 1)),
    ]
    report = convergence_scan(joining, fam, (), fns, [20, 40], dt="0.05", n_samples=1500, seed=2)
    assert all(abs(e) <= 1.0 for e in report.estimates)
    assert report.cauchy_gap == abs(report.estimates[1] - report.estimates[0])


# ----------------------------------------------------------------------
# invariance diagnostics


def test_identity_tuple_deviation_is_exactly_zero():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = rotation_family(SQRT2)
    devs = invariance_check(
        joining, fam, (), [char((1,)), char((1,))], [5, 10],
        g_list=[(identity(A1), identity(A1))], dt="0.5", n_samples=100, seed=3,
    )
    assert devs == [[0.0, 0.0]]


def test_abelian_diagonal_tuple_cancels_exactly():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = rotation_family(SQRT2)
    g = GroupElement(A1, (Fraction(2, 7),))
    devs = invariance_check(
        joining, fam, (), [char((1,)), char((1,))], 5,
        g_list=[(g, g)], dt="0.5", n_samples=100, seed=3,
    )
    assert devs == [[0.0]]


def test_offdiagonal_deviation_shrinks_and_matches_shift_oracle():
    T_small, T_big, dt, n, seed = 100, 1000, 0.05, 1000, 7
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = rotation_family(SQRT2)
    tuple_off = (identity(A1), GroupElement(A1, (SQRT2,)))
    devs = invariance_check(
        joining, fam, (), [char((1,)), char((1,))], [T_small, T_big],
        g_list=[tuple_off], dt=str(dt), n_samples=n, seed=seed,
    )
    dev_small, dev_big = devs[0]
    assert dev_small >= 3 * dev_big

    alpha = float(SQRT2)
    x = haar_array(torus(1), seed, n)[:, 0]
    q = np.mean(np.exp(2j * np.pi * x) * np.cos(2 * np.pi * x))
    for dev, T in ((dev_small, T_small), (dev_big, T_big)):
        tj = midpoints(T, dt)
        c = np.exp(2j * np.pi * alpha * tj).mean()
        c_shift = np.exp(2j * np.pi * alpha * (tj + 1.0)).mean()
        oracle = abs(np.real((c_shift - c) * q))
        assert abs(dev - oracle) <= 1e-8


def test_invariance_tuple_arity_checked():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    with pytest.raises(ValueError):
        invariance_check(
            joining, rotation_family(SQRT2), (), [char((1,)), char((1,))], 5,
            g_list=[(identity(A1),)], dt="0.5", n_samples=10,
        )


# ----------------------------------------------------------------------
# van der Corput


def test_vdc_constant_signal():
    T = S = 20
    dt = 0.5
    traj = np.ones_like(half_step_times(T, S, dt))
    out = vdc_check(traj, S, T, dt)
    assert out["lhs_norm"] == 1.0
    assert out["rhs_corr"] == 1.0


def test_vdc_periodic_signal_vanishes_at_full_periods():
    T = S = 200
    dt = 0.05
    traj = np.cos(2 * np.pi * half_step_times(T, S, dt))
    out = vdc_check(traj, S, T, dt)
    assert out["lhs_norm"] <= 1e-10
    assert abs(out["rhs_corr"]) <= 1e-10


def test_vdc_fresnel_signal_decays():
    T = S = 200
    dt = 0.05
    times = half_step_times(T, S, dt)
    out = vdc_check(np.cos(2 * np.pi * times * times), S, T, dt)
    assert out["lhs_norm"] <= 1e-2
    assert abs(out["rhs_corr"]) <= 1e-2


def test_vdc_rejects_short_grid():
    with pytest.raises(ValueError):
        vdc_check(np.ones(10), 20, 20, 0.5)


def test_flow_correlation_trajectory_tracks_rotation():
    T = S = 2
    dt = 0.5
    n = 20000
    traj = flow_correlation_trajectory(
        torus(1), rotation_family(SQRT2)[0], (), char((1,)), T, S, dt, n_samples=n, seed=13
    )
    times = half_step_times(T, S, dt)
    expected = 0.5 * np.cos(2 * np.pi * float(SQRT2) * times)
    assert np.max(np.abs(traj - expected)) <= 5 / math.sqrt(n)


# ----------------------------------------------------------------------
# exact flow evaluation along the time grid


def eval_along(phi, h, start, step, count):
    fixed = dict(zip(phi.vars[1:], h))
    return [phi.eval({phi.vars[0]: start + j * step, **fixed}) for j in range(count)]


def random_flow(alg, rng, n_params):
    variables = ("t",) + tuple(f"h{i}" for i in range(n_params))
    coords = []
    for _ in range(alg.dim):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exp = (rng.randint(0, 4),) + tuple(rng.randint(0, 2) for _ in range(n_params))
            terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
        coords.append(MultiPoly(variables, terms))
    return PolyMap(alg, variables, coords)


@pytest.mark.parametrize("alg", [A2, H3], ids=["torus", "heisenberg"])
def test_flow_elements_equal_exact_eval_on_both_grids(alg):
    rng = random.Random(alg.dim)
    for _ in range(40):
        n_params = rng.randint(0, 2)
        phi = random_flow(alg, rng, n_params)
        h = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n_params)]
        dt = Fraction(rng.randint(1, 5), rng.randint(1, 30))
        # the midpoint grid, the half-step grid from 0, and an arbitrary one
        offset = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        for start, step in ((dt / 2, dt), (Fraction(0), dt / 2), (offset, dt)):
            assert _flow_elements(phi, h, start, step, 30) == eval_along(phi, h, start, step, 30)


def test_flow_elements_zero_constant_and_negative_coordinates():
    v = ("t", "a")
    phi = PolyMap(
        H3,
        v,
        [
            MultiPoly.zero(v),
            MultiPoly(v, {(0, 2): Fraction(-3, 7)}),
            MultiPoly(v, {(4, 0): Fraction(-1, 3), (1, 1): Fraction(2, 5), (0, 0): -2}),
        ],
    )
    h = ("-5/4",)
    dt = Fraction(1, 50)
    for start, step in ((dt / 2, dt), (Fraction(0), dt / 2)):
        got = _flow_elements(phi, h, start, step, 2000)
        assert got == eval_along(phi, (Fraction(-5, 4),), start, step, 2000)
        assert all(g.coords[0] == 0 and g.coords[1] == Fraction(-75, 112) for g in got)
    assert _flow_elements(phi, h, Fraction(0), dt, 1)[0].coords[2] == -2


def test_flow_elements_checks_parameter_arity():
    phi = random_flow(A2, random.Random(7), 2)
    with pytest.raises(ValueError, match="parameter point has arity 1, map needs 2"):
        _flow_elements(phi, (1,), Fraction(1, 2), Fraction(1), 3)


# ----------------------------------------------------------------------
# single-flow averages


def test_invariant_function_is_fixed_by_averaging():
    phi = PolyMap.build(A2, ("t",), {"e1": t_times(1), "e2": t_times(1)})
    out = mean_ergodic_base(torus(2), phi, (), char((1, -1)), [5, 20], dt="0.25", n_samples=2000, seed=21)
    assert out.classification == "invariant"
    assert out.dist_to_f[-1] <= 2 * out.report.std_errors[-1] + 1e-9
    assert abs(out.report.estimates[-1] - 1 / math.sqrt(2)) <= 3 * out.report.std_errors[-1]
    assert out.generic is None


def test_parametrized_rotation_exhibits_generic_dichotomy():
    phi = PolyMap.build(
        A2, ("t", "h"), {"e1": t_times(1, ("t", "h")), "e2": MultiPoly(("t", "h"), {(1, 1): Fraction(1)})}
    )
    f = char((1, -1))
    T, dt, n = 50, 0.05, 2000
    out = mean_ergodic_base(torus(2), phi, (1,), f, [T], dt=str(dt), n_samples=n, seed=29)
    assert out.classification == "invariant"
    assert out.dist_to_f[-1] <= 2 * out.report.std_errors[-1] + 1e-9

    assert out.generic_h is not None and out.generic_h[0] != 1
    gen = out.generic
    assert gen.classification == "mean_zero"
    beat = 1 - float(out.generic_h[0])
    c = np.exp(2j * np.pi * beat * midpoints(T, dt)).mean()
    assert abs(gen.report.estimates[-1] - abs(c) / math.sqrt(2)) <= 3 * gen.report.std_errors[-1] + 1e-9
    assert gen.report.estimates[-1] <= 0.05


def test_quadratic_orbit_average_decays():
    phi = PolyMap.build(A1, ("t",), {"e1": t_times(1, power=2)})
    out = mean_ergodic_base(torus(1), phi, (), char((1,)), [100], dt="0.05", n_samples=1000, seed=3)
    assert out.classification == "mean_zero"
    assert out.report.estimates[-1] <= 0.05


def test_mean_ergodic_validation():
    phi = PolyMap.build(A1, ("t",), {"e1": t_times(1)})
    with pytest.raises(ValueError):
        mean_ergodic_base(torus(2), phi, (), char((1, 1)), [10])
    with pytest.raises(ValueError):
        mean_ergodic_base(torus(1), phi, (5,), char((1,)), [10])


@pytest.mark.parametrize(
    "t_grid, dt, message",
    [
        ([10], "0", "dt must be positive"),
        ([], "0.5", "horizon grid is empty"),
        ([0], "0.5", "horizon T must be positive"),
        ([1], "0.3", "does not divide"),
        ([4, 2], "0.5", "strictly increasing"),
    ],
)
def test_scan_validation_is_shared(t_grid, dt, message):
    phi = PolyMap.build(A1, ("t",), {"e1": t_times(1)})
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    with pytest.raises(ValueError, match=message):
        convergence_scan(joining, PolyFamily([phi]), (), [ones(1), ones(1)], t_grid, dt, n_samples=5)
    with pytest.raises(ValueError, match=message):
        mean_ergodic_base(torus(1), phi, (), char((1,)), t_grid, dt, n_samples=5)
