"""Nilmanifold actions, reduction, sampling, and test functions."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nilflow.dynamics import (
    NilSystem,
    TestFunction,
    act_array,
    acting_coords,
    check_function,
    element_floats,
    eval_fn_array,
    function_to_json_dict,
    functional,
    haar_array,
    heisenberg3,
    pushed,
    step_values,
    system_to_json_dict,
    torus,
)
from nilflow.cli import _load_function, _load_system
from nilflow.lie_core import GroupElement, bch_product, identity, make_builtin
from nilflow.multipoly import MultiPoly
from nilflow.poly_maps import PolyMap
from nilflow.zariski import vanishing_variety
from oracles import act_reference, character_reference, reduce_array

H3 = make_builtin("heisenberg", dim=3)


def h3_elt(x=0, y=0, z=0):
    return GroupElement(H3, (Fraction(x), Fraction(y), Fraction(z)))


def torus_elt(*coords):
    alg = make_builtin("abelian", dim=len(coords))
    return GroupElement(alg, tuple(Fraction(c) for c in coords))


# ----------------------------------------------------------------------
# construction


def test_system_kinds():
    assert torus(2).dim == 2
    assert heisenberg3().dim == 3
    with pytest.raises(ValueError):
        NilSystem("klein_bottle")
    with pytest.raises(ValueError):
        NilSystem("heisenberg3", acting_matrix=[[1], [0], [0]])


@pytest.mark.parametrize(
    "kind, dim, matrix, message",
    [
        ("heisenberg3", -1, None, "heisenberg3 systems have dimension 3, got -1"),
        ("heisenberg3", 5, None, "heisenberg3 systems have dimension 3, got 5"),
        ("torus", 2, [[1], []], "acting matrix must have one row per algebra coordinate, all of one length"),
    ],
)
def test_system_shape_is_checked(kind, dim, matrix, message):
    """A dimension or an acting matrix that does not fit is refused, not ignored or cut short."""
    with pytest.raises(ValueError, match=message):
        NilSystem(kind, dim=dim, acting_matrix=matrix)


# ----------------------------------------------------------------------
# action


def test_torus_rotation():
    sys = torus(1)
    out = act_array(sys, torus_elt(Fraction(1, 4)), [[0.9]])[0]
    assert abs(out[0] - 0.15) < 1e-12


def test_identity_fixes_points():
    for sys in (torus(2), heisenberg3()):
        x = haar_array(sys, seed=5, n=1)
        assert np.array_equal(act_array(sys, identity(sys.algebra), x), x)


def test_action_matches_bch_product():
    sys = heisenberg3()
    gx = h3_elt(x=1)
    gy = h3_elt(y=Fraction(1, 3))
    pts = haar_array(sys, seed=9, n=20)
    split = act_array(sys, gx, act_array(sys, gy, pts))
    joined = act_array(sys, bch_product(gx, gy), pts)
    gaps = np.abs(split - joined)
    assert np.minimum(gaps, 1.0 - gaps).max() < 1e-12


def test_action_law_on_random_elements():
    sys = heisenberg3()
    rng = np.random.default_rng(31)
    pts = haar_array(sys, seed=8, n=50)
    for _ in range(10):
        g = GroupElement(H3, tuple(Fraction(v).limit_denominator(64) for v in rng.uniform(-2, 2, 3)))
        h = GroupElement(H3, tuple(Fraction(v).limit_denominator(64) for v in rng.uniform(-2, 2, 3)))
        split = act_array(sys, g, act_array(sys, h, pts))
        joined = act_array(sys, bch_product(g, h), pts)
        gaps = np.abs(split - joined)
        gaps = np.minimum(gaps, 1.0 - gaps)
        assert gaps.max() < 1e-10


def test_algebra_mismatch_rejected():
    with pytest.raises(ValueError):
        act_array(torus(2), torus_elt(Fraction(1, 2)), [[0.1, 0.2]])


def test_acting_matrix_drives_two_frequencies():
    sys = torus(2, acting_matrix=[[1], [2]])
    aux = torus_elt(Fraction(1, 8))
    out = act_array(sys, aux, [[0.0, 0.0]])[0]
    assert abs(out[0] - 0.125) < 1e-15
    assert abs(out[1] - 0.25) < 1e-15


# ----------------------------------------------------------------------
# reduction


def test_reduction_is_exactly_idempotent():
    for sys in (torus(3), heisenberg3()):
        pts = np.random.default_rng(12).uniform(-4, 4, size=(200, sys.dim))
        once = reduce_array(sys, pts)
        twice = reduce_array(sys, once)
        assert np.array_equal(once, twice)
        assert np.all((once >= 0.0) & (once < 1.0))


def test_reduction_kills_lattice_translates():
    sys = heisenberg3()
    pts = haar_array(sys, seed=3, n=40)
    for gamma in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3)):
        a, b, c = (float(v) for v in gamma)
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        shifted = np.stack(
            [x + a, y + b, z + c + 0.5 * (x * b - y * a)],
            axis=1,
        )
        reduced = reduce_array(sys, shifted)
        gaps = np.abs(reduced - pts)
        gaps = np.minimum(gaps, 1.0 - gaps)
        assert gaps.max() < 1e-12


def test_reduce_point_wraps_negatives():
    p = reduce_array(torus(1), [[-0.25]])[0]
    assert abs(p[0] - 0.75) < 1e-15


# ----------------------------------------------------------------------
# Haar sampling


def test_sample_haar_counts_and_determinism():
    sys = torus(2)
    assert haar_array(sys, seed=1, n=0).shape == (0, 2)
    a = haar_array(sys, seed=7, n=100)
    b = haar_array(sys, seed=7, n=100)
    assert np.array_equal(a, b)


def test_character_mean_is_small():
    sys = torus(1)
    n = 100_000
    pts = haar_array(sys, seed=2, n=n)
    vals = eval_fn_array(TestFunction("torus_character", (1,)), pts, sys)
    assert abs(vals.mean()) <= 4 / math.sqrt(n)


def test_haar_invariance_under_fixed_translation():
    sys = heisenberg3()
    n = 50_000
    pts = haar_array(sys, seed=4, n=n)
    f = TestFunction("heis_abelian", (1, 1))
    g = h3_elt(x=Fraction(2, 7), y=Fraction(1, 5), z=Fraction(3, 11))
    before = eval_fn_array(f, pts, sys)
    after = eval_fn_array(f, act_array(sys, g, pts), sys)
    diff = after - before
    se = diff.std(ddof=1) / math.sqrt(n)
    assert abs(diff.mean()) <= 5 * se + 1e-12


# ----------------------------------------------------------------------
# test functions


def test_zero_frequency_is_constant_one():
    f = TestFunction("torus_character", (0, 0))
    assert eval_fn_array(f, [[0.3, 0.8]], torus(2))[0] == 1.0


def test_character_values():
    f = TestFunction("torus_character", (1,))
    assert abs(eval_fn_array(f, [[0.25]], torus(1))[0]) < 1e-15
    g = TestFunction("torus_character", (2, 3))
    assert abs(eval_fn_array(g, [[0.5, 0.5]], torus(2))[0] - (-1.0)) < 1e-12


def test_functions_are_bounded_by_one():
    pts2 = haar_array(torus(2), seed=6, n=500)
    pts3 = haar_array(heisenberg3(), seed=6, n=500)
    cases = [
        (TestFunction("torus_character", (3, -2), "sin"), pts2, torus(2)),
        (TestFunction("heis_abelian", (1, 4)), pts3, heisenberg3()),
        (TestFunction("heis_vertical", (0, 1, 2), "sin"), pts3, heisenberg3()),
    ]
    for f, pts, sys in cases:
        vals = eval_fn_array(f, pts, sys)
        assert np.all(np.abs(vals) <= 1.0 + 1e-15)


def test_vertical_function_uses_central_coordinate():
    f = TestFunction("heis_vertical", (0, 0, 1))
    assert abs(eval_fn_array(f, [[0.9, 0.9, 0.0]], heisenberg3())[0] - 1.0) < 1e-15
    assert abs(eval_fn_array(f, [[0.9, 0.9, 0.5]], heisenberg3())[0] - (-1.0)) < 1e-12


def test_fn_arity_validation():
    with pytest.raises(ValueError):
        TestFunction("heis_abelian", (1, 2, 3))
    with pytest.raises(ValueError):
        TestFunction("torus_character", (1,), "tan")
    with pytest.raises(ValueError):
        eval_fn_array(TestFunction("torus_character", (1, 2)), [[0.1]], torus(1))
    with pytest.raises(ValueError, match="points have 1 coordinates"):
        eval_fn_array(TestFunction("torus_character", (1, 5)), [[0.25]], torus(2))
    with pytest.raises(ValueError):
        step_values(torus(1), TestFunction("torus_character", (1, 2)), np.zeros((1, 3)), np.zeros((1, 2)))


@pytest.mark.parametrize(
    "sys, f, message",
    [
        (torus(2), TestFunction("heis_vertical", (1, 0, 5)), "heis_vertical"),
        (torus(3), TestFunction("heis_vertical", (1, 0, 5)), "heis_vertical"),
        (torus(2), TestFunction("heis_abelian", (1, 0)), "heis_abelian"),
        (torus(2, acting_matrix=[[1], [2]]), TestFunction("heis_abelian", (1, 0)), "heis_abelian"),
        (torus(2), TestFunction("torus_character", (1, 0, 1)), "needs 3 coordinates, got 2"),
        (heisenberg3(), TestFunction("torus_character", (1, 0)), "needs 2 coordinates, got 3"),
        (torus(3), TestFunction("heis_vertical", (1, 0, 1)), "heis_vertical"),
    ],
)
def test_check_function_refuses_what_does_not_fit(sys, f, message):
    with pytest.raises(ValueError, match=message):
        check_function(sys, f)
    with pytest.raises(ValueError, match=message):
        eval_fn_array(f, haar_array(sys, 1, 3), sys)
    with pytest.raises(ValueError, match=message):
        step_values(sys, f, np.zeros((sys.dim, 4)), np.zeros((sys.dim, 2)))


def test_check_function_accepts_what_fits():
    for sys, f in (
        (torus(2), TestFunction("torus_character", (1, -1))),
        (torus(2, acting_matrix=[[1], [2]]), TestFunction("torus_character", (2, -1))),
        (heisenberg3(), TestFunction("torus_character", (0, 0, 0))),
        (heisenberg3(), TestFunction("heis_abelian", (1, 0))),
        (heisenberg3(), TestFunction("heis_vertical", (0, 1, 2))),
    ):
        check_function(sys, f)


def test_functional_pulls_the_frequency_back():
    """The frequency is the functional on the pushed flow; on phi it reads as M^T m."""
    A1 = make_builtin("abelian", dim=1)
    assert functional(torus(2), TestFunction("torus_character", (3, -1))) == [3, -1]
    assert functional(heisenberg3(), TestFunction("heis_abelian", (1, 4))) == [1, 4, 0]
    assert functional(heisenberg3(), TestFunction("heis_vertical", (1, 0, 1))) is None
    sys = torus(2, acting_matrix=[["1/2"], [3]])
    v = ("t", "h")
    phi = PolyMap.build(A1, v, {"e1": MultiPoly(v, {(2, 0): Fraction(1, 7), (1, 1): Fraction(2)})})
    psi = pushed(sys, phi)
    assert psi.algebra == sys.algebra and psi.vars == v
    assert psi.coords == (phi.coords[0] * Fraction(1, 2), phi.coords[0] * 3)
    for freq, pulled in (((2, -1), -2), ((6, -1), 0)):
        ell = functional(sys, TestFunction("torus_character", freq))
        assert ell == list(freq)
        assert vanishing_variety(psi, ell).generators == vanishing_variety(phi, [pulled]).generators
    # the same coordinates for elements: the phase of f along the flow is m . (M v)
    aux = GroupElement(A1, (Fraction(5, 7),))
    assert acting_coords(sys, A1, aux.coords) == (Fraction(5, 14), Fraction(15, 7))
    f = TestFunction("torus_character", (2, -1), "sin")
    pts = haar_array(sys, seed=3, n=50)
    shift = float(sum(k * c for k, c in zip(functional(sys, f), acting_coords(sys, A1, aux.coords))))
    want = np.sin(2 * np.pi * (pts @ np.array([2.0, -1.0]) + shift))
    assert np.max(np.abs(eval_fn_array(f, act_array(sys, aux, pts), sys) - want)) < 1e-12
    with pytest.raises(ValueError, match="algebra mismatch"):
        pushed(torus(2), phi)
    with pytest.raises(ValueError, match="heis_abelian"):
        functional(torus(3), TestFunction("heis_abelian", (1, 0)))


def test_functional_is_decided_by_the_frequency_not_the_kind():
    """A frequency is a functional exactly when it is zero above layer 1."""
    sys = heisenberg3()
    assert functional(sys, TestFunction("torus_character", (0, 0, 1))) is None
    assert functional(sys, TestFunction("torus_character", (1, 4, 0))) == [1, 4, 0]
    vertical, abelian = TestFunction("heis_vertical", (1, 4, 0)), TestFunction("heis_abelian", (1, 4))
    assert functional(sys, vertical) == functional(sys, abelian) == [1, 4, 0]
    pts = haar_array(sys, 5, 64)
    assert eval_fn_array(vertical, pts, sys).tobytes() == eval_fn_array(abelian, pts, sys).tobytes()


# ----------------------------------------------------------------------
# step kernel


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


KERNEL_CASES = [
    (torus(1), [("torus_character", (1,)), ("torus_character", (-3,)), ("torus_character", (0,))]),
    (torus(2), [("torus_character", (1, -1)), ("torus_character", (0, 5)), ("torus_character", (-2, 0))]),
    (torus(3), [("torus_character", (1, 2, -3)), ("torus_character", (0, 0, 0)), ("torus_character", (-1, 0, 4))]),
    (
        heisenberg3(),
        [
            ("heis_abelian", (1, 1)),
            ("heis_abelian", (0, -2)),
            ("heis_vertical", (1, 0, 1)),
            ("heis_vertical", (0, 0, 1)),
            ("heis_vertical", (2, -3, -1)),
            ("torus_character", (1, 0, -7)),
        ],
    ),
]


def kernel_elements(sys, rng):
    """Elements with coordinates up to 1e5 in size, after one that leaves x
    and y in [0, 1) (no Heisenberg offset) and one just below 0, where
    x - floor(x) rounds to 1.0 on points at 0."""
    dim = sys.dim
    out = [GroupElement(sys.algebra, (Fraction(0),) * (dim - 1) + (Fraction(5, 3),))]
    out.append(GroupElement(sys.algebra, (Fraction(-1, 2**60),) * dim))
    for scale in (1, 50, 10**5):
        for _ in range(3):
            out.append(
                GroupElement(
                    sys.algebra,
                    tuple(Fraction(rng.randint(-scale * 10**4, scale * 10**4), 10**4) for _ in range(dim)),
                )
            )
    return out


@pytest.mark.parametrize("sys, kinds", KERNEL_CASES, ids=["torus1", "torus2", "torus3", "heisenberg3"])
def test_step_kernel_is_bit_identical_to_act_then_eval(sys, kinds):
    """Each row of a slab, whole or cut, is the per-step value bit for bit."""
    rng = random.Random(sys.dim)
    pts = haar_array(sys, seed=11, n=3000)
    pts[:40] = 0.0
    # rows whose x or y is -0.0; the last float row below keeps them at -0.0
    pts[40:50, 0] = -0.0
    pts[45:55, min(1, sys.dim - 1)] = -0.0
    elements = kernel_elements(sys, rng)
    coords = element_floats(sys, elements)
    if sys.kind == "heisenberg3":
        assert np.all(np.floor(pts[:, :2] + coords[0][:2]) == 0)
    assert np.any((pts + coords[1]) - np.floor(pts + coords[1]) >= 1.0)
    for g, gf in zip(elements, coords):
        assert np.array_equal(bits(act_array(sys, g, pts)), bits(act_reference(sys.kind, gf, pts)))
    # the first element with its signs flipped: its zero coordinates are -0.0
    rows = np.vstack([coords, -coords[:1]])
    if sys.kind == "heisenberg3":
        moved = pts[:, :2] + rows[-1][:2]
        assert np.all(np.any(np.signbit(moved) & (moved == 0), axis=0))
    for kind, freq in kinds:
        for part in ("cos", "sin"):
            f = TestFunction(kind, freq, part)
            want = np.array([character_reference(freq, part, act_reference(sys.kind, gf, pts)) for gf in rows])
            for g, w in zip(elements, want):
                assert np.array_equal(bits(eval_fn_array(f, act_array(sys, g, pts), sys)), bits(w))
            cols = np.ascontiguousarray(pts.T)
            for steps in (1, 5, len(rows)):
                for j in range(0, len(rows), steps):
                    got = step_values(sys, f, cols, rows[j : j + steps].T)
                    assert np.array_equal(bits(got), bits(want[j : j + steps])), (f, steps, j)


def test_step_kernel_with_acting_matrix():
    sys = torus(2, acting_matrix=[["1/2"], ["-3"]])
    param = make_builtin("abelian", dim=1)
    pts = haar_array(sys, seed=4, n=700)
    f = TestFunction("torus_character", (1, 2), "sin")
    elements = [GroupElement(param, (Fraction(c),)) for c in ("7/3", "-12345/7", "0")]
    got = step_values(sys, f, pts.T, element_floats(sys, elements).T)
    for g, row in zip(elements, got):
        assert np.array_equal(bits(row), bits(eval_fn_array(f, act_array(sys, g, pts), sys)))


def test_kernel_never_writes_into_its_inputs():
    """The helpers work in place only on arrays they allocate themselves."""
    tiny = Fraction(-1, 2**60)
    cases = [
        (torus(3), [("torus_character", (1, 0, 0)), ("torus_character", (2, -1, 1))]),
        (
            heisenberg3(),
            [
                ("torus_character", (1, 1, 3)),
                ("heis_abelian", (1, 0)),
                ("heis_abelian", (-2, 1)),
                ("heis_vertical", (0, 0, 1)),
                ("heis_vertical", (2, 0, -1)),
            ],
        ),
    ]
    for sys, kinds in cases:
        pts = haar_array(sys, seed=5, n=60)
        pts[:10] = 0.0  # the first element moves these to x - floor(x) == 1.0
        pts[10:20] = float(tiny)  # reduce_array's own x - floor(x) == 1.0
        pts[20:30] += 2.5  # not reduced; the rest are
        elements = [
            GroupElement(sys.algebra, (tiny,) * sys.dim),
            GroupElement(sys.algebra, tuple(Fraction(c, 7) for c in (-15, 4, 30)[: sys.dim])),
            GroupElement(sys.algebra, (Fraction(0),) * sys.dim),
        ]
        flow = element_floats(sys, elements)
        assert np.any((pts + flow[0]) - np.floor(pts + flow[0]) >= 1.0)
        assert np.any(pts - np.floor(pts) >= 1.0)
        assert np.all((pts[30:] >= 0.0) & (pts[30:] < 1.0))
        cols = np.ascontiguousarray(pts.T)
        inputs = (pts, cols, flow)
        before = [a.tobytes() for a in inputs]
        calls = [lambda: reduce_array(sys, pts)]
        calls += [lambda g=g: act_array(sys, g, pts) for g in elements]
        for kind, freq in kinds:
            for part in ("cos", "sin"):
                f = TestFunction(kind, freq, part)
                calls.append(lambda f=f: eval_fn_array(f, pts, sys))
                calls.append(lambda f=f: step_values(sys, f, cols, flow.T))
                calls.append(lambda f=f: step_values(sys, f, pts.T, flow[1:].T))
        for call in calls:
            call()
            assert [a.tobytes() for a in inputs] == before


# ----------------------------------------------------------------------
# JSON round trips


def test_system_json_round_trip():
    for sys in (torus(2), heisenberg3(), torus(2, acting_matrix=[["1/2"], ["3"]])):
        again = _load_system("system", system_to_json_dict(sys))
        assert again == sys
    # a float entry reads as its shortest decimal, as everywhere else
    floated = _load_system("system", {"kind": "torus", "dim": 1, "acting_matrix": [[0.1]]})
    assert floated.acting_matrix == ((Fraction(1, 10),),)


def test_function_json_round_trip():
    f = TestFunction("heis_vertical", (1, 0, 2), "sin")
    assert _load_function("function", function_to_json_dict(f)) == f
    assert _load_function("function", {"kind": "heis_vertical", "freq": [1, 0, 2], "part": "sin"}) == f
