"""Symbolic map algebra: products, differencing, leading terms."""

import random
from fractions import Fraction

import pytest

from nilflow.cli import _load_members
from nilflow.lie_core import bch_product, identity, make_builtin
from nilflow.multipoly import MultiPoly
from nilflow.poly_maps import (
    PolyMap,
    difference,
    internal_class,
    leading_term,
    lt_equivalent,
    pointwise_inverse,
    pointwise_product,
    polymap_to_json_dict,
    polynomial_degree,
    substitute,
)
from oracles import heisenberg_from_matrix, heisenberg_to_matrix, matrix_bch

H3 = make_builtin("heisenberg", dim=3)


def t_poly(variables=("t",)):
    return MultiPoly.variable(tuple(variables), "t")


def exp_map(entries, variables=("t",), algebra=H3):
    return PolyMap.build(algebra, variables, entries)


# ----------------------------------------------------------------------
# evaluation


def test_eval_substitution_example():
    phi = exp_map({"x1": t_poly() ** 2})
    assert phi.eval([2]).coords == (4, 0, 0)


def test_eval_at_time_zero_is_identity():
    t = t_poly(("t", "h"))
    h = MultiPoly.variable(("t", "h"), "h")
    phi = exp_map({"x1": t * h, "z": t ** 3}, variables=("t", "h"))
    assert phi.fixes_time_origin()
    assert phi.eval({"t": 0, "h": Fraction(7, 3)}) == identity(phi.algebra)


def test_eval_commutes_with_product_against_matrix_oracle():
    phi = exp_map({"x1": t_poly()})
    psi = exp_map({"y1": t_poly()})
    prod = pointwise_product(phi, psi)
    assert prod.eval([1]).coords == (1, 1, Fraction(1, 2))
    for t in (Fraction(1, 2), -1, 2, Fraction(-3, 4), 5):
        got = prod.eval([t]).coords
        want = matrix_bch(
            heisenberg_to_matrix, heisenberg_from_matrix, phi.eval([t]).coords, psi.eval([t]).coords
        )
        assert got == want


def test_eval_commutes_with_product_random_points():
    rng = random.Random(19)
    f23 = make_builtin("free_nilpotent", generators=2, step=3)
    t = t_poly()
    phi = PolyMap.build(f23, ("t",), {"x1": t, "x2": t ** 2})
    psi = PolyMap.build(f23, ("t",), {"x2": t ** 3, "c12": t})
    prod = pointwise_product(phi, psi)
    for _ in range(10):
        p = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))]
        assert prod.eval(p) == bch_product(phi.eval(p), psi.eval(p))


def test_eval_arity_mismatch():
    phi = exp_map({"x1": t_poly()})
    with pytest.raises(ValueError):
        phi.eval([1, 2])


# ----------------------------------------------------------------------
# product and inverse


def test_product_with_inverse_is_constant_identity():
    t = t_poly()
    phi = exp_map({"x1": t, "y1": t ** 2, "z": t ** 3})
    prod = pointwise_product(phi, pointwise_inverse(phi))
    assert prod.is_constant_identity()


def test_product_on_abelian_adds_coordinates():
    a2 = make_builtin("abelian", dim=2)
    t = t_poly()
    phi = PolyMap.build(a2, ("t",), {"e1": t, "e2": t ** 2})
    psi = PolyMap.build(a2, ("t",), {"e1": 3 * t})
    prod = pointwise_product(phi, psi)
    assert prod.coords[0] == 4 * t
    assert prod.coords[1] == t ** 2


def test_product_heisenberg_commutator_coordinate():
    phi = exp_map({"x1": t_poly()})
    psi = exp_map({"y1": t_poly()})
    prod = pointwise_product(phi, psi)
    t = t_poly()
    assert prod.coords[0] == t
    assert prod.coords[1] == t
    assert prod.coords[2] == t ** 2 * Fraction(1, 2)


# ----------------------------------------------------------------------
# substitution


def test_substitute_time_shift():
    phi = exp_map({"x1": t_poly() ** 2})
    shifted = substitute(phi, {"t": (0, {"t": 1, "k": 1})})
    assert shifted.vars == ("t", "k")
    t = MultiPoly.variable(("t", "k"), "t")
    k = MultiPoly.variable(("t", "k"), "k")
    assert shifted.coords[0] == t ** 2 + 2 * t * k + k ** 2
    assert shifted.domain == ("t",)


def test_substitute_identity_keeps_map():
    phi = exp_map({"x1": t_poly(), "z": t_poly() ** 2})
    same = substitute(phi, {"t": (0, {"t": 1})})
    assert same == phi


def test_substitute_time_zero_gives_identity():
    t = t_poly(("t", "h"))
    h = MultiPoly.variable(("t", "h"), "h")
    phi = exp_map({"x1": t * h, "z": t ** 2}, variables=("t", "h"))
    pinned = substitute(phi, {"t": 0})
    assert pinned.is_constant_identity()
    assert pinned.vars == ("t", "h")
    assert pinned.domain == ("h",)


def test_substitute_reads_floats_as_their_shortest_decimal():
    t = t_poly(("t", "h"))
    h = MultiPoly.variable(("t", "h"), "h")
    phi = exp_map({"x1": t * h, "z": t ** 2}, variables=("t", "h"))
    scaled = substitute(phi, {"t": (0.1, {"t": 0.1})})
    assert scaled == substitute(phi, {"t": ("1/10", {"t": "1/10"})})
    assert substitute(phi, {"t": 0.1}).coords[2] == Fraction(1, 100)


def test_substitute_reads_strings_as_numbers():
    t = t_poly(("t", "h"))
    h = MultiPoly.variable(("t", "h"), "h")
    phi = exp_map({"x1": t * h, "z": t ** 2}, variables=("t", "h"))
    pinned = substitute(phi, {"h": "1/2"})
    assert pinned == substitute(phi, {"h": Fraction(1, 2)})
    assert pinned.vars == ("t", "h")
    assert pinned.coords[0] == Fraction(1, 2) * t and pinned.coords[0].degree_in("h") == 0


def test_substitute_unknown_variable():
    phi = exp_map({"x1": t_poly()})
    with pytest.raises(ValueError):
        substitute(phi, {"s": 0})


# ----------------------------------------------------------------------
# differencing


def test_difference_of_constant_identity():
    phi = PolyMap.constant_identity(H3, ("t",))
    assert difference(phi).is_constant_identity()


def test_difference_linear_abelian():
    a2 = make_builtin("abelian", dim=2)
    t = t_poly()
    phi = PolyMap.build(a2, ("t",), {"e1": 2 * t, "e2": -t})
    diff = difference(phi)
    assert diff.vars == ("t", "t_d1")
    h = MultiPoly.variable(("t", "t_d1"), "t_d1")
    assert diff.coords[0] == -2 * h
    assert diff.coords[1] == h
    numeric = substitute(diff, {"t_d1": Fraction(1, 2)})
    assert numeric.coords[0] == -1
    assert numeric.coords[1] == Fraction(1, 2)


def test_difference_chain_on_quadratic():
    phi = exp_map({"x1": t_poly() ** 2})
    d1 = difference(phi)
    assert not d1.is_constant_on_domain()
    d2 = difference(d1)
    assert d2.is_constant_on_domain()
    assert not d2.is_constant_identity()
    d3 = difference(d2)
    assert d3.is_constant_identity()


def test_polynomial_degree_examples():
    assert polynomial_degree(PolyMap.constant_identity(H3, ("t",))) == 0
    assert polynomial_degree(exp_map({"x1": t_poly()})) == 1
    prod = pointwise_product(
        exp_map({"x1": t_poly()}), exp_map({"y1": t_poly() ** 2})
    )
    assert polynomial_degree(prod) == 3


def test_degree_then_one_more_difference_annihilates():
    rng = random.Random(31)
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        t = t_poly()
        poly = coeffs[0] * t + coeffs[1] * t ** 2 + coeffs[2] * t ** 3
        phi = exp_map({"x1": poly, "y1": t * coeffs[2]})
        d = polynomial_degree(phi)
        current = phi
        for _ in range(d):
            current = difference(current)
        assert current.is_constant_on_domain()
        assert difference(current).is_constant_identity()


def test_difference_drops_abelianized_degree_by_one():
    rng = random.Random(37)
    t = t_poly()
    for _ in range(5):
        deg = rng.randint(1, 4)
        poly = sum(
            (Fraction(rng.randint(1, 5)) * t ** j for j in range(1, deg + 1)),
            MultiPoly.zero(("t",)),
        )
        phi = exp_map({"x1": poly})
        diff = difference(phi)
        assert diff.coords[0].degree_in("t") == deg - 1


# ----------------------------------------------------------------------
# class and leading term


def test_internal_class_examples():
    assert internal_class(exp_map({"z": t_poly()})) == 2
    assert internal_class(exp_map({"x1": t_poly()})) == 1
    ut4 = make_builtin("strictly_upper_triangular", n=4)
    corner = PolyMap.build(ut4, ("t",), {"e14": t_poly()})
    assert internal_class(corner) == 3


def test_internal_class_rejects_constant_identity():
    with pytest.raises(ValueError):
        internal_class(PolyMap.constant_identity(H3, ("t",)))
    with pytest.raises(ValueError):
        leading_term(PolyMap.constant_identity(H3, ("t",)))


def test_leading_term_layer_one():
    phi = exp_map({"x1": t_poly() ** 2 + t_poly()})
    lt = leading_term(phi)
    assert lt.internal_class == 1
    assert lt.leading_degree == 2
    assert [c == v for c, v in zip(lt.coefficient, (1, 0))] == [True, True]


def test_leading_term_with_parameter():
    t = t_poly(("t", "h1"))
    h1 = MultiPoly.variable(("t", "h1"), "h1")
    phi = exp_map({"z": t * h1}, variables=("t", "h1"))
    lt = leading_term(phi)
    assert lt.internal_class == 2
    assert lt.leading_degree == 1
    assert lt.coefficient == (MultiPoly.variable(("h1",), "h1"),)


def test_leading_term_after_cancellation():
    phi = exp_map({"x1": t_poly()})
    psi = exp_map({"x1": -t_poly(), "y1": t_poly() ** 3})
    prod = pointwise_product(phi, psi)
    lt = leading_term(prod)
    assert lt.internal_class == 1
    assert lt.leading_degree == 3
    assert lt.coefficient[0] == 0
    assert lt.coefficient[1] == 1


def test_lt_equivalence_examples():
    phi = exp_map({"x1": t_poly()})
    deeper = pointwise_product(phi, exp_map({"z": t_poly()}))
    assert lt_equivalent(phi, deeper)
    assert not lt_equivalent(phi, exp_map({"x1": 2 * t_poly()}))
    assert not lt_equivalent(phi, exp_map({"x1": t_poly() ** 2}))


def test_inverse_preserves_class_and_negates_leading_term():
    t = t_poly()
    phi = exp_map({"x1": t ** 2, "z": t})
    inv = pointwise_inverse(phi)
    assert internal_class(inv) == internal_class(phi)
    lt, lt_inv = leading_term(phi), leading_term(inv)
    assert lt_inv.leading_degree == lt.leading_degree
    assert tuple(-c for c in lt.coefficient) == lt_inv.coefficient


def test_leading_term_ignores_deeper_and_lower_degree_factors():
    phi = exp_map({"x1": t_poly() ** 2})
    deeper = exp_map({"z": t_poly() ** 5})
    lower = exp_map({"x1": t_poly(), "y1": -3 * t_poly()})
    base = leading_term(phi)
    for other in (deeper, lower):
        prod = pointwise_product(phi, other)
        lt = leading_term(prod)
        assert (lt.internal_class, lt.leading_degree) == (1, 2)
        assert lt.coefficient == base.coefficient


# ----------------------------------------------------------------------
# serialization


def test_polymap_json_roundtrip():
    t = t_poly(("t", "h"))
    h = MultiPoly.variable(("t", "h"), "h")
    phi = exp_map({"x1": t * h + t ** 2, "z": t * Fraction(1, 3)}, variables=("t", "h"))
    data = polymap_to_json_dict(phi)
    [back] = _load_members({"family": [data]}, H3)
    assert back == phi
    assert back.domain == phi.domain


def test_polymap_json_domain_field():
    phi = exp_map({"x1": t_poly()})
    diff = difference(phi)
    data = polymap_to_json_dict(diff)
    assert data["domain"] == ["t"]
    [back] = _load_members({"family": [data]}, H3)
    assert back.domain == ("t",)
