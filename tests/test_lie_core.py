"""Algebra construction, bracket, and BCH product checks.

Group products are compared against exact unitriangular matrix models, free
Lie algebra ranks against the Witt formula and their bracket constants
against the free associative algebra; see oracles.py.
"""

import random
from fractions import Fraction

import pytest

from nilflow.lie_core import (
    MAX_BCH_STEP,
    GroupElement,
    LieAlgebraSpec,
    _dynkin_words,
    algebra_from_json_dict,
    algebra_to_json_dict,
    bch_coords,
    bch_product,
    bracket_coords,
    group_inverse,
    identity,
    make_builtin,
    verify_algebra,
)
from nilflow.multipoly import MultiPoly
from oracles import (
    F0,
    F1,
    assoc_bracket,
    assoc_sum,
    dynkin_bch,
    heisenberg_from_matrix,
    heisenberg_to_matrix,
    left_normed_expansion,
    matrix_bch,
    ut_from_matrix,
    ut_to_matrix,
    witt_dimension,
)


def rand_fraction(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_group(rng, alg):
    return GroupElement(alg, tuple(rand_fraction(rng) for _ in range(alg.dim)))


# ----------------------------------------------------------------------
# builtins


def test_heisenberg3_shape():
    h3 = make_builtin("heisenberg", dim=3)
    assert h3.dim == 3
    assert h3.step == 2
    assert h3.layers == (1, 1, 2)
    assert verify_algebra(h3) == []


def test_heisenberg5_brackets():
    h5 = make_builtin("heisenberg", dim=5)
    assert h5.labels == ("x1", "x2", "y1", "y2", "z")
    x1, y1, y2, z = (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), [0, 0, 0, 0, 1]
    assert bracket_coords(h5, x1, y1) == z
    assert bracket_coords(h5, x1, y2) == [0] * 5


def test_abelian_brackets_vanish():
    a3 = make_builtin("abelian", dim=3)
    assert a3.step == 1
    assert bracket_coords(a3, (1, 0, 0), (0, 1, 0)) == [0] * 3
    assert verify_algebra(a3) == []


def test_strictly_upper_triangular_shape():
    ut4 = make_builtin("strictly_upper_triangular", n=4)
    assert ut4.dim == 6
    assert ut4.step == 3
    assert ut4.labels == ("e12", "e23", "e34", "e13", "e24", "e14")
    assert verify_algebra(ut4) == []
    e12, e23, e13 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)
    assert bracket_coords(ut4, e12, e23) == list(e13)
    assert bracket_coords(ut4, e12, e13) == [0] * 6


def test_free_nilpotent_small_shapes():
    f22 = make_builtin("free_nilpotent", generators=2, step=2)
    assert f22.dim == 3
    assert f22.labels == ("x1", "x2", "c12")
    f23 = make_builtin("free_nilpotent", generators=2, step=3)
    assert f23.dim == 5
    assert f23.labels == ("x1", "x2", "c12", "c121", "c122")
    assert f23.layers == (1, 1, 2, 3, 3)
    assert verify_algebra(f23) == []


def test_free_nilpotent_ranks_match_witt_formula():
    for g, s in [(2, 5), (3, 3), (4, 2)]:
        alg = make_builtin("free_nilpotent", generators=g, step=s)
        for d in range(1, s + 1):
            rank = sum(1 for l in alg.layers if l == d)
            assert rank == witt_dimension(g, d), (g, s, d)
        assert verify_algebra(alg) == []


# every shape with at most 256 words of top degree; the larger ones take seconds
FREE_SHAPES = [(g, s) for g in range(1, 5) for s in range(1, MAX_BCH_STEP + 1) if g ** s <= 256]


def test_left_normed_expansion_examples():
    assert left_normed_expansion("x1") == {(0,): 1}
    # [[x1, x2], x1] = 2 x1 x2 x1 - x2 x1 x1 - x1 x1 x2
    assert left_normed_expansion("c121") == {(0, 1, 0): 2, (1, 0, 0): -1, (0, 0, 1): -1}
    assert left_normed_expansion("c11") == {}


@pytest.mark.parametrize("generators, step", FREE_SHAPES)
def test_free_nilpotent_brackets_match_the_free_associative_algebra(generators, step):
    """sum_k c_ijk E(b_k) = E(b_i) E(b_j) - E(b_j) E(b_i) for every pair whose
    layers sum to at most the step, E expanding a label's left-normed word.
    The Witt ranks and verify_algebra would pass a table with every sign
    flipped, or one on another basis; this would not."""
    alg = make_builtin("free_nilpotent", generators=generators, step=step)
    expansion = [left_normed_expansion(label) for label in alg.labels]
    unit = [[F1 if k == i else F0 for k in range(alg.dim)] for i in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            if i == j or alg.layers[i] + alg.layers[j] > alg.step:
                continue
            row = bracket_coords(alg, unit[i], unit[j])
            combination = assoc_sum(*((c, expansion[k]) for k, c in enumerate(row) if c))
            assert combination == assoc_bracket(expansion[i], expansion[j]), (alg.labels[i], alg.labels[j])


def test_free_nilpotent_one_generator_collapses():
    f1 = make_builtin("free_nilpotent", generators=1, step=3)
    assert f1.dim == 1
    assert f1.step == 1


def test_builtin_bounds_enforced():
    with pytest.raises(ValueError):
        make_builtin("strictly_upper_triangular", n=7)
    with pytest.raises(ValueError):
        make_builtin("free_nilpotent", generators=5, step=2)
    with pytest.raises(ValueError):
        make_builtin("heisenberg", dim=4)
    with pytest.raises(ValueError):
        make_builtin("dihedral", n=3)


# ----------------------------------------------------------------------
# bracket and verification


def test_bracket_examples_heisenberg():
    h3 = make_builtin("heisenberg", dim=3)
    x, y = (1, 0, 0), (0, 1, 0)
    assert bracket_coords(h3, x, y) == [0, 0, 1]
    assert bracket_coords(h3, x, x) == [0, 0, 0]
    assert bracket_coords(h3, y, x) == [0, 0, -1]


def test_verify_flags_antisymmetry_violation():
    bad = LieAlgebraSpec(
        ["a", "b", "c", "d"],
        [1, 1, 1, 2],
        {(1, 2): {3: 1}, (2, 1): {3: 1}},
        step=2,
    )
    report = verify_algebra(bad)
    assert any("antisymmetry violation at (1,2,3)" in line for line in report)


def test_verify_flags_grading_and_layer_gaps():
    bad = LieAlgebraSpec(["a", "b", "c"], [1, 1, 1], {(0, 1): {2: 1}}, step=2)
    report = verify_algebra(bad)
    assert any("grading violation at (0,1,2)" in line for line in report)
    assert any("contiguous" in line for line in report)


def test_verify_flags_jacobi_violation():
    # the table of strictly upper triangular 4x4 matrices with the sign of
    # [a,b] flipped; the (a,b,c) Jacobi sum becomes -2r
    bad = LieAlgebraSpec(
        ["a", "b", "c", "p", "q", "r"],
        [1, 1, 1, 2, 2, 3],
        {(0, 1): {3: -1}, (1, 2): {4: 1}, (0, 4): {5: 1}, (3, 2): {5: 1}},
        step=3,
    )
    report = verify_algebra(bad)
    assert any("Jacobi violation at (0,1,2)" in line for line in report)


def test_grading_support_property():
    rng = random.Random(5)
    for alg in (
        make_builtin("strictly_upper_triangular", n=4),
        make_builtin("free_nilpotent", generators=2, step=3),
    ):
        for _ in range(20):
            a = rng.randint(1, alg.step)
            b = rng.randint(1, alg.step)
            x = [rand_fraction(rng) if alg.layers[i] >= a else Fraction(0) for i in range(alg.dim)]
            y = [rand_fraction(rng) if alg.layers[i] >= b else Fraction(0) for i in range(alg.dim)]
            for i, c in enumerate(bracket_coords(alg, x, y)):
                if c != 0:
                    assert alg.layers[i] >= a + b


# ----------------------------------------------------------------------
# group law


def test_bch_heisenberg_frozen_example():
    h3 = make_builtin("heisenberg", dim=3)
    x = GroupElement(h3, (1, 0, 0))
    y = GroupElement(h3, (0, 1, 0))
    assert bch_product(x, y).coords == (1, 1, Fraction(1, 2))


def test_bch_free23_frozen_example():
    f23 = make_builtin("free_nilpotent", generators=2, step=3)
    x = GroupElement(f23, (1, 0, 0, 0, 0))
    y = GroupElement(f23, (0, 1, 0, 0, 0))
    # classical expansion: x + y + [x,y]/2 + [x,[x,y]]/12 + [y,[y,x]]/12,
    # rewritten on the left-normed basis where c121 = [[x1,x2],x1]
    expected = (1, 1, Fraction(1, 2), Fraction(-1, 12), Fraction(1, 12))
    assert bch_product(x, y).coords == expected


def test_bch_abelian_is_addition():
    a4 = make_builtin("abelian", dim=4)
    rng = random.Random(3)
    for _ in range(10):
        x = rand_group(rng, a4)
        y = rand_group(rng, a4)
        assert bch_product(x, y).coords == tuple(
            u + v for u, v in zip(x.coords, y.coords)
        )


def test_group_inverse_examples():
    h3 = make_builtin("heisenberg", dim=3)
    g = GroupElement(h3, (1, 1, Fraction(1, 2)))
    assert group_inverse(g).coords == (-1, -1, Fraction(-1, 2))
    assert group_inverse(identity(h3)) == identity(h3)


def test_inverse_law_random():
    rng = random.Random(17)
    for alg in (
        make_builtin("heisenberg", dim=3),
        make_builtin("strictly_upper_triangular", n=4),
        make_builtin("free_nilpotent", generators=2, step=3),
    ):
        for _ in range(15):
            g = rand_group(rng, alg)
            assert bch_product(g, group_inverse(g)) == identity(alg)
            assert bch_product(group_inverse(g), g) == identity(alg)


def test_identity_laws():
    rng = random.Random(23)
    alg = make_builtin("strictly_upper_triangular", n=4)
    e = identity(alg)
    for _ in range(10):
        g = rand_group(rng, alg)
        assert bch_product(g, e) == g
        assert bch_product(e, g) == g


def test_associativity_random():
    rng = random.Random(29)
    for alg in (
        make_builtin("heisenberg", dim=5),
        make_builtin("strictly_upper_triangular", n=4),
        make_builtin("free_nilpotent", generators=2, step=3),
    ):
        for _ in range(15):
            x, y, z = (rand_group(rng, alg) for _ in range(3))
            assert bch_product(bch_product(x, y), z) == bch_product(x, bch_product(y, z))


def test_bch_matches_heisenberg_matrix_oracle():
    rng = random.Random(41)
    for dim in (3, 5):
        alg = make_builtin("heisenberg", dim=dim)
        for _ in range(50):
            x = rand_group(rng, alg)
            y = rand_group(rng, alg)
            got = bch_product(x, y).coords
            want = matrix_bch(heisenberg_to_matrix, heisenberg_from_matrix, x.coords, y.coords)
            assert got == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bch_matches_ut_matrix_oracle(n):
    alg = make_builtin("strictly_upper_triangular", n=n)
    rng = random.Random(100 + n)
    to_mat = lambda c: ut_to_matrix(alg.labels, c, n)
    from_mat = lambda m: ut_from_matrix(alg.labels, m)
    for _ in range(30):
        x = rand_group(rng, alg)
        y = rand_group(rng, alg)
        assert bch_product(x, y).coords == matrix_bch(to_mat, from_mat, x.coords, y.coords)


BUILTIN_ALGEBRAS = {
    "abelian3": ("abelian", {"dim": 3}),
    "heisenberg3": ("heisenberg", {"dim": 3}),
    "heisenberg5": ("heisenberg", {"dim": 5}),
    "sut4": ("strictly_upper_triangular", {"n": 4}),
    "sut5": ("strictly_upper_triangular", {"n": 5}),
    "sut6": ("strictly_upper_triangular", {"n": 6}),
    "free3_3": ("free_nilpotent", {"generators": 3, "step": 3}),
    "free2_4": ("free_nilpotent", {"generators": 2, "step": 4}),
    "free2_5": ("free_nilpotent", {"generators": 2, "step": 5}),
    "free2_6": ("free_nilpotent", {"generators": 2, "step": 6}),
}


def _oracle_bch(alg, a, b, zero=Fraction(0)):
    return dynkin_bch(lambda x, y: bracket_coords(alg, x, y, zero), alg.step, a, b, zero)


@pytest.mark.parametrize("name", sorted(BUILTIN_ALGEBRAS))
def test_bch_equals_the_unfolded_dynkin_loop(name):
    kind, params = BUILTIN_ALGEBRAS[name]
    alg = make_builtin(kind, **params)
    assert alg.step <= MAX_BCH_STEP
    rng = random.Random(name)
    for _ in range(8):
        a = [rand_fraction(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(alg.dim)]
        b = [rand_fraction(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(alg.dim)]
        assert bch_coords(alg, a, b) == _oracle_bch(alg, a, b)


def _rand_poly(rng, variables):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exp = tuple(rng.randint(0, 2) for _ in variables)
        terms[exp] = terms.get(exp, Fraction(0)) + rand_fraction(rng)
    return MultiPoly(variables, terms)


@pytest.mark.parametrize("name", ["abelian3", "heisenberg3", "heisenberg5", "sut4", "free3_3", "free2_4", "sut5"])
def test_bch_on_polynomial_entries_equals_the_unfolded_dynkin_loop(name):
    kind, params = BUILTIN_ALGEBRAS[name]
    alg = make_builtin(kind, **params)
    assert alg.step <= 4
    variables = ("t", "s")
    zero = MultiPoly.zero(variables)
    rng = random.Random(name)
    for _ in range(3):
        a = [_rand_poly(rng, variables) for _ in range(alg.dim)]
        b = [_rand_poly(rng, variables) for _ in range(alg.dim)]
        assert bch_coords(alg, a, b, zero) == _oracle_bch(alg, a, b, zero)


def test_dynkin_table_is_folded():
    assert _dynkin_words(2) == (
        ((0,), 1), ((1,), 1), ((0, 1), Fraction(1, 2)),
    )
    assert _dynkin_words(3) == _dynkin_words(2) + (
        ((0, 0, 1), Fraction(1, 12)), ((1, 0, 1), Fraction(-1, 12)),
    )
    for step in range(1, MAX_BCH_STEP + 1):
        for word, coef in _dynkin_words(step):
            assert coef != 0
            if len(word) >= 2:
                assert word[-2:] == (0, 1)


def test_bch_step_bound_error():
    labels = [f"e{i}" for i in range(7)]
    chain = {(0, i): {i + 1: 1} for i in range(1, 6)}
    alg = LieAlgebraSpec(labels, [1, 1, 2, 3, 4, 5, 6], chain, step=7)
    g = GroupElement(alg, (1,) * 7)
    with pytest.raises(ValueError):
        bch_product(g, g)


def test_bch_product_rejects_algebra_mismatch():
    h3 = make_builtin("heisenberg", dim=3)
    a3 = make_builtin("abelian", dim=3)
    with pytest.raises(ValueError, match="different algebras"):
        bch_product(GroupElement(h3, (1, 0, 0)), GroupElement(a3, (1, 0, 0)))


# ----------------------------------------------------------------------
# serialization


def test_json_roundtrip_builtin():
    for alg in (
        make_builtin("heisenberg", dim=5),
        make_builtin("strictly_upper_triangular", n=4),
        make_builtin("free_nilpotent", generators=2, step=3),
    ):
        data = algebra_to_json_dict(alg)
        back = algebra_from_json_dict(data)
        assert back == alg


def test_json_fractions_as_strings():
    h3 = make_builtin("heisenberg", dim=3)
    data = algebra_to_json_dict(h3)
    assert data["brackets"] == [[0, 1, [[2, "1"]]]]
    assert data["layers"] == [1, 1, 2]


def test_mirror_orientation_accepted():
    direct = LieAlgebraSpec(["x", "y", "z"], [1, 1, 2], {(0, 1): {2: 1}}, step=2)
    mirrored = LieAlgebraSpec(["x", "y", "z"], [1, 1, 2], {(1, 0): {2: -1}}, step=2)
    assert direct == mirrored
    assert verify_algebra(mirrored) == []
