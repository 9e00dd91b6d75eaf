"""Joint time averages: normalization, oracles, invariance, correlation test."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import nilflow.averaging as averaging
from nilflow.averaging import (
    AverageReport,
    _flow_floats,
    _horner,
    _per_sample_averages,
    _pinned,
    _translated,
    JoiningSpec,
    flow_correlation_trajectory,
    half_step_times,
    mean_ergodic_base,
    scan_with_invariance,
    vdc_check,
)
from nilflow.dynamics import (
    TestFunction,
    act_array,
    element_floats,
    eval_fn_array,
    haar_array,
    heisenberg3,
    torus,
)
from nilflow.lie_core import GroupElement, bch_product, group_inverse, identity, make_builtin
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
        report, _ = scan_with_invariance(joining, fam, (), fns, [5], dt="0.5", n_samples=50, seed=9)
        est, se = report.estimates[0], report.std_errors[0]
        assert est == 1.0
        assert se == 0.0


def test_estimates_are_bounded_by_one():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = rotation_family(SQRT2)
    report, _ = scan_with_invariance(joining, fam, (), [char((1,)), char((2,), "sin")], [3], dt="0.1", n_samples=200, seed=4)
    est = report.estimates[0]
    assert abs(est) <= 1.0


def test_scan_is_deterministic_and_thread_invariant():
    joining = JoiningSpec([heisenberg3(), heisenberg3()], "diagonal")
    fam = PolyFamily([PolyMap.build(H3, ("t",), {"x1": t_times(1)})])
    fns = [TestFunction("heis_abelian", (1, 0)), TestFunction("heis_abelian", (0, 1))]
    runs = [
        scan_with_invariance(joining, fam, (), fns, [5, 10], dt="0.25", n_samples=900, seed=17, threads=w)[0]
        for w in (1, 1, 3)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_constant_functions_have_zero_cauchy_gap():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    report, _ = scan_with_invariance(
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
        scan_with_invariance(joining, fam, (), [ones(1)], [1], dt="0.5", n_samples=5)
    with pytest.raises(ValueError):
        scan_with_invariance(joining, fam, (), [ones(1), ones(1)], [1], dt="-0.5", n_samples=5)
    with pytest.raises(ValueError):
        scan_with_invariance(joining, fam, (), [ones(1), ones(1)], [1], dt="0.3", n_samples=5)
    with pytest.raises(ValueError):
        scan_with_invariance(joining, fam, (), [ones(1), ones(1)], [4, 2], dt="0.5", n_samples=5)
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        scan_with_invariance(joining, fam, (), [ones(1), ones(1)], [1], dt="0.5", n_samples=0)
    with pytest.raises(ValueError, match="threads must be at least 1, got -4"):
        scan_with_invariance(joining, fam, (), [ones(1), ones(1)], [1], dt="0.5", n_samples=5, threads=-4)


# ----------------------------------------------------------------------
# closed-form oracles for rotations


def test_rotation_correlation_matches_seedwise_oracle():
    T, dt, n, seed = 200, 0.05, 4000, 23
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    report, _ = scan_with_invariance(
        joining, rotation_family(SQRT2), (), [char((1,)), char((1,))], [T], dt=str(dt), n_samples=n, seed=seed
    )
    est, se = report.estimates[0], report.std_errors[0]
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
    report, _ = scan_with_invariance(
        joining, fam, (), [ones(1), char((1,))], [T], dt="0.02", n_samples=2000, seed=5
    )
    est, se = report.estimates[0], report.std_errors[0]
    assert abs(est) <= 3 * se + 1 / T


def test_resonant_triple_stabilizes_at_orbit_average():
    fns = [char((1,)), char((-2,)), char((1,))]
    joining = JoiningSpec([torus(1)] * 3, "diagonal")
    fam = rotation_family(SQRT2, 2 * SQRT2)
    report, _ = scan_with_invariance(joining, fam, (), fns, [50, 100, 200], dt="0.05", n_samples=3000, seed=11)

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
    report, _ = scan_with_invariance(joining, fam, (), fns, [20, 40], dt="0.05", n_samples=1500, seed=2)
    assert all(abs(e) <= 1.0 for e in report.estimates)
    assert report.cauchy_gap == abs(report.estimates[1] - report.estimates[0])


def test_per_sample_averages_match_the_act_then_eval_loop(monkeypatch):
    """Every slab size, block size and thread count gives the same bits as
    one act_array + eval_fn_array per factor and step."""
    systems = [heisenberg3()] * 3
    joining = JoiningSpec(systems, "product")
    fns = [
        TestFunction("heis_vertical", (1, 0, 1)),
        TestFunction("heis_vertical", (2, -3, 1), "sin"),
        TestFunction("heis_abelian", (1, -1)),
    ]
    start, step = Fraction(1, 4), Fraction(1, 2)
    # x1 is -2^-60 at step 5, where rows at x = 0 round x - floor(x) to 1.0
    t5 = start + 5 * step
    x1 = MultiPoly(("t",), {(1,): Fraction(7, 3), (0,): -Fraction(7, 3) * t5 - Fraction(1, 2**60)})
    maps = [
        PolyMap.build(H3, ("t",), {"x1": x1, "z": t_times(-5, power=2)}),
        PolyMap.build(H3, ("t",), {"y1": t_times(SQRT2), "x1": t_times(Fraction(-1, 9))}),
    ]
    n = 301
    flows = [eval_along(phi, (), start, step, 40) for phi in maps]
    floats = [_flow_floats(_pinned(sys, phi, ()), start, step, 40) for sys, phi in zip(systems[1:], maps)]
    factors = averaging._draw_factors(joining, n, 21)
    factors[1][:20, 0] = 0.0
    x = factors[1][0, 0] + floats[0][5, 0]
    assert x - np.floor(x) == 1.0
    # snapshots cut slabs short and fall on their edges
    snapshots = [1, 7, 8, 16, 23, 40]

    acc = np.zeros(n)
    want = {}
    base = eval_fn_array(fns[0], factors[0], systems[0])
    for j in range(40):
        vals = base.copy()
        for i, flow in enumerate(flows, start=1):
            vals *= eval_fn_array(fns[i], act_array(systems[i], flow[j], factors[i]), systems[i])
        acc += vals
        if j + 1 in snapshots:
            want[j + 1] = acc / (j + 1)

    def check(got, rows=n):
        for s in snapshots:
            assert np.array_equal(got[s].view(np.int64), want[s][:rows].view(np.int64))

    for threads in (1, 2, 3):
        block = -(-n // threads)
        for slab in (1, 7, 8):
            monkeypatch.setattr(averaging, "BLOCK_ROWS", slab * block)
            assert averaging._slab_steps(block) == slab
            check(_per_sample_averages(systems, floats, fns, factors, snapshots, threads))
    # one step per call in blocks of 64 or 7 rows (61 at 5 threads), more
    # blocks than workers
    for rows in (64, 7):
        monkeypatch.setattr(averaging, "BLOCK_ROWS", rows)
        for threads in (1, 2, 3, 5):
            check(_per_sample_averages(systems, floats, fns, factors, snapshots, threads))
    # blocks of 3, 3 and 1 rows: the one-row block takes slabs of up to 17
    # steps between snapshots, still added in step order
    monkeypatch.setattr(averaging, "BLOCK_ROWS", 8192)
    check(_per_sample_averages(systems, floats, fns, [f[:7] for f in factors], snapshots, 3), rows=7)


def test_base_factor_alone_averages_to_the_mean_of_f0():
    """With no acting factor every step adds the base values."""
    f0 = char((3,), "sin")
    joining = JoiningSpec([torus(1)], "diagonal")
    report, _ = scan_with_invariance(joining, PolyFamily([]), (), [f0], [1, 2, 5], dt="0.25", n_samples=300, seed=8)
    mean = float(eval_fn_array(f0, haar_array(torus(1), 8, 300), torus(1)).mean())
    assert len(report.estimates) == 3
    for est in report.estimates:
        assert abs(est - mean) <= 1e-12


def test_acting_matrix_scan_matches_a_numpy_oracle():
    sys = torus(2, acting_matrix=[["1/2"], ["-3"]])
    matrix = np.array([0.5, -3.0])
    phi = PolyMap.build(A1, ("t", "h"), {"e1": MultiPoly(("t", "h"), {(2, 0): Fraction(1, 7), (1, 1): Fraction(1)})})
    fns = [char((1, 2), "sin"), char((2, 1))]
    h, dt, n, seed = ("2/3",), Fraction(1, 8), 400, 5
    report, _ = scan_with_invariance(
        JoiningSpec([sys, sys], "diagonal"), PolyFamily([phi]), h, fns, [2, 5], dt=dt, n_samples=n, seed=seed
    )
    pts = haar_array(sys, seed, n)
    base = np.sin(2 * np.pi * (pts @ np.array([1.0, 2.0])))
    acc = np.zeros(n)
    for j in range(40):
        t = (j + 0.5) * float(dt)
        moved = np.mod(pts + matrix * (t * t / 7 + t * 2 / 3), 1.0)
        acc += np.cos(2 * np.pi * (moved @ np.array([2.0, 1.0])))
        if j + 1 in (16, 40):
            want = float((base * acc / (j + 1)).mean())
            assert abs(report.estimates[(16, 40).index(j + 1)] - want) <= 1e-12


@pytest.mark.parametrize("second", [(1, 0, 1), (1, 0, 5), (1, 0, 0)])
def test_heisenberg_functions_on_a_torus_are_refused(second):
    """A vertical function reads a central coordinate a torus does not have."""
    fns = [TestFunction("heis_vertical", (1, 0, 1)), TestFunction("heis_vertical", second)]
    phi = PolyMap.build(A2, ("t",), {"e1": t_times(1), "e2": t_times(SQRT2)})
    joining = JoiningSpec([torus(2), torus(2)], "diagonal")
    with pytest.raises(ValueError, match="heis_vertical"):
        scan_with_invariance(joining, PolyFamily([phi]), (), fns, [1], dt="0.5", n_samples=5)
    with pytest.raises(ValueError, match="heis_vertical"):
        flow_correlation_trajectory(torus(2), phi, (), fns[1], 1, 1, "0.5", n_samples=5)
    with pytest.raises(ValueError, match="heis_vertical"):
        mean_ergodic_base(torus(2), phi, (), fns[1], [1], "0.5", n_samples=5)


# ----------------------------------------------------------------------
# invariance diagnostics


def test_identity_tuple_deviation_is_exactly_zero():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = rotation_family(SQRT2)
    _, devs = scan_with_invariance(
        joining, fam, (), [char((1,)), char((1,))], [5, 10],
        g_list=[(identity(A1), identity(A1))], dt="0.5", n_samples=100, seed=3,
    )
    assert devs == [[0.0, 0.0]]


def test_abelian_diagonal_tuple_cancels_exactly():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = rotation_family(SQRT2)
    g = GroupElement(A1, (Fraction(2, 7),))
    _, devs = scan_with_invariance(
        joining, fam, (), [char((1,)), char((1,))], [5],
        g_list=[(g, g)], dt="0.5", n_samples=100, seed=3,
    )
    assert devs == [[0.0]]


def test_offdiagonal_deviation_shrinks_and_matches_shift_oracle():
    T_small, T_big, dt, n, seed = 100, 1000, 0.05, 1000, 7
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    fam = rotation_family(SQRT2)
    tuple_off = (identity(A1), GroupElement(A1, (SQRT2,)))
    _, devs = scan_with_invariance(
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


def test_scan_pins_each_map_once_and_translates_the_pinned_maps(monkeypatch):
    """h is substituted once per map and call, not once per tuple pass, and
    the tuples translate maps of t alone."""
    v = ("t", "h")
    phi = PolyMap.build(A1, v, {"e1": MultiPoly(v, {(1, 1): Fraction(1)})})
    substitute, translated = averaging.substitute, averaging._translated
    substituted, translated_vars = [], []
    monkeypatch.setattr(averaging, "substitute", lambda psi, *a, **k: substituted.append(psi.vars) or substitute(psi, *a, **k))
    monkeypatch.setattr(averaging, "_translated", lambda g, psi, g0: translated_vars.append(psi.vars) or translated(g, psi, g0))
    g = GroupElement(A1, (Fraction(1, 3),))
    tuples = [(identity(A1), g, g), (g, identity(A1), g), (identity(A1),) * 3]
    scan_with_invariance(
        JoiningSpec([torus(1)] * 3, "diagonal"), PolyFamily([phi, phi]), ("1/2",), [char((1,))] * 3, [2],
        g_list=tuples, dt="0.5", n_samples=5,
    )
    assert substituted == [v, v]
    assert translated_vars == [("t",)] * 6


def test_invariance_tuple_arity_checked():
    joining = JoiningSpec([torus(1), torus(1)], "diagonal")
    for tup in ((identity(A1),), (identity(A1), identity(A2)), (identity(A2), identity(A1))):
        with pytest.raises(ValueError):
            scan_with_invariance(
                joining, rotation_family(SQRT2), (), [char((1,)), char((1,))], [5],
                g_list=[tup], dt="0.5", n_samples=10,
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


@pytest.mark.parametrize("dt", ["0", "-1/2"])
def test_half_step_grids_reject_nonpositive_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        half_step_times(2, 2, dt)
    with pytest.raises(ValueError, match="dt must be positive"):
        flow_correlation_trajectory(
            torus(1), rotation_family(SQRT2)[0], (), char((1,)), 2, 2, dt, n_samples=10
        )


def test_flow_correlation_trajectory_rejects_no_samples():
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        flow_correlation_trajectory(
            torus(1), rotation_family(SQRT2)[0], (), char((1,)), 2, 2, "0.5", n_samples=0
        )


@pytest.mark.parametrize("n", [1, 3, 700, 9000])
def test_flow_correlation_trajectory_matches_the_per_step_loop(n):
    """Slabs of 8192 // n steps (one step from 8193 samples up) give the
    per-step values bit for bit."""
    phi = PolyMap.build(H3, ("t",), {"x1": t_times(Fraction(7, 3), power=2), "y1": t_times(SQRT2)})
    f = TestFunction("heis_vertical", (1, 2, 1), "sin")
    dt = Fraction(1, 4)
    got = flow_correlation_trajectory(heisenberg3(), phi, (), f, 2, 1, dt, n_samples=n, seed=n)
    pts = haar_array(heisenberg3(), n, n)
    static = eval_fn_array(f, pts, heisenberg3())
    flow = eval_along(phi, (), Fraction(0), dt / 2, 25)
    want = [float((eval_fn_array(f, act_array(heisenberg3(), g, pts), heisenberg3()) * static).mean()) for g in flow]
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


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


def horner_along(sys, phi, h, start, step, count):
    """The exact coordinates Fraction(N_j, den) that the integers of `_horner` stand for."""
    columns = []
    for poly in _pinned(sys, phi, h).coords:
        nums, den = _horner({exp[0]: c for exp, c in poly.terms.items()}, start, step, count)
        columns.append([Fraction(n, den) for n in nums])
    return list(zip(*columns))


def random_flow(alg, rng, n_params, scale=9, den=8):
    variables = ("t",) + tuple(f"h{i}" for i in range(n_params))
    coords = []
    for _ in range(alg.dim):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exp = (rng.randint(0, 4),) + tuple(rng.randint(0, 2) for _ in range(n_params))
            terms[exp] = Fraction(rng.randint(-scale, scale), rng.randint(1, den))
        coords.append(MultiPoly(variables, terms))
    return PolyMap(alg, variables, coords)


@pytest.mark.parametrize("sys", [torus(2), heisenberg3()], ids=["torus", "heisenberg"])
def test_flow_elements_equal_exact_eval_on_both_grids(sys):
    rng = random.Random(sys.dim)
    for _ in range(40):
        n_params = rng.randint(0, 2)
        phi = random_flow(sys.algebra, rng, n_params)
        h = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n_params)]
        dt = Fraction(rng.randint(1, 5), rng.randint(1, 30))
        # the midpoint grid, the half-step grid from 0, and an arbitrary one
        offset = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        for start, step in ((dt / 2, dt), (Fraction(0), dt / 2), (offset, dt)):
            want = [g.coords for g in eval_along(phi, h, start, step, 30)]
            assert horner_along(sys, phi, h, start, step, 30) == want


@pytest.mark.parametrize("sys", [torus(2), heisenberg3()], ids=["torus", "heisenberg"])
def test_flow_floats_equal_floated_elements(sys):
    rng = random.Random(10 + sys.dim)
    for _ in range(40):
        n_params = rng.randint(0, 2)
        phi = random_flow(sys.algebra, rng, n_params, scale=10**12, den=10**9)
        h = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n_params)]
        dt = Fraction(rng.randint(1, 5), rng.randint(1, 30))
        offset = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        for start, step in ((dt / 2, dt), (Fraction(0), dt / 2), (offset, dt)):
            want = element_floats(sys, eval_along(phi, h, start, step, 30))
            got = _flow_floats(_pinned(sys, phi, h), start, step, 30)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_flow_floats_through_an_acting_matrix():
    sys = torus(2, acting_matrix=[["1/3"], ["-7/5"]])
    rng = random.Random(5)
    for _ in range(10):
        phi = random_flow(A1, rng, 1, scale=10**6, den=10**4)
        h = [Fraction(rng.randint(-9, 9), 7)]
        want = element_floats(sys, eval_along(phi, h, Fraction(1, 40), Fraction(1, 20), 50))
        got = _flow_floats(_pinned(sys, phi, h), Fraction(1, 40), Fraction(1, 20), 50)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("sys", [torus(2), heisenberg3()], ids=["torus", "heisenberg"])
def test_translated_flow_floats_equal_the_floated_bch_chain(sys):
    """g phi g0^{-1} as one map gives the floats of the exact products
    g * phi(t) * g0^{-1} taken one grid time at a time."""
    rng = random.Random(20 + sys.dim)
    for _ in range(30):
        n_params = rng.randint(0, 2)
        phi = random_flow(sys.algebra, rng, n_params, scale=10**6, den=10**4)
        h = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n_params)]
        g, g0 = (
            GroupElement(sys.algebra, [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(sys.dim)])
            for _ in range(2)
        )
        dt = Fraction(rng.randint(1, 5), rng.randint(1, 30))
        inv0 = group_inverse(g0)
        chain = [bch_product(bch_product(g, el), inv0) for el in eval_along(phi, h, dt / 2, dt, 200)]
        want = element_floats(sys, chain)
        got = _flow_floats(_translated(g, _pinned(sys, phi, h), g0), dt / 2, dt, 200)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
        got = horner_along(heisenberg3(), phi, h, start, step, 2000)
        assert got == [g.coords for g in eval_along(phi, (Fraction(-5, 4),), start, step, 2000)]
        assert all(c[0] == 0 and c[1] == Fraction(-75, 112) for c in got)
    assert horner_along(heisenberg3(), phi, h, Fraction(0), dt, 1)[0][2] == -2


def test_flow_elements_checks_parameter_arity():
    phi = random_flow(A2, random.Random(7), 2)
    with pytest.raises(ValueError, match="parameter point has arity 1, map needs 2"):
        _pinned(torus(2), phi, (1,))


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


def test_mean_ergodic_prediction_through_an_acting_matrix():
    """The prediction reads the frequency pulled back through the matrix, M^T m."""
    sys = torus(2, acting_matrix=[[1], [2]])
    phi = PolyMap.build(A1, ("t", "h"), {"e1": MultiPoly(("t", "h"), {(1, 1): Fraction(1)})})
    # M^T (2, -1) = 0: every flow fixes the function
    out = mean_ergodic_base(sys, phi, (1,), char((2, -1)), [10], dt="0.25", n_samples=500, seed=4)
    assert out.classification == "invariant"
    assert out.dist_to_f[-1] <= 1e-9
    assert out.generic.classification == "invariant"
    # M^T (1, 0) = 1: the variety is h = 0
    on = mean_ergodic_base(sys, phi, (0,), char((1, 0)), [10], dt="0.25", n_samples=500, seed=4)
    assert on.classification == "invariant"
    assert on.dist_to_f[-1] <= 1e-9
    assert on.generic.classification == "mean_zero" and on.generic_h[0] != 0
    off = mean_ergodic_base(sys, phi, (1,), char((1, 0)), [10], dt="0.25", n_samples=500, seed=4)
    assert off.classification == "mean_zero"
    assert off.report.estimates[-1] <= 1e-9


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
        scan_with_invariance(joining, PolyFamily([phi]), (), [ones(1), ones(1)], t_grid, dt=dt, n_samples=5)
    with pytest.raises(ValueError, match=message):
        mean_ergodic_base(torus(1), phi, (), char((1,)), t_grid, dt, n_samples=5)
