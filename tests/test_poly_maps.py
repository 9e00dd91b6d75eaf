"""Symbolic map algebra: products, differencing, leading terms."""

import random
from fractions import Fraction

import pytest

from nilflow.cli import _load_members
from nilflow.lie_core import bch_coords, bch_product, identity, make_builtin
from nilflow.multipoly import MultiPoly
from nilflow.poly_maps import (
    PolyMap,
    check_time_origin,
    difference,
    internal_class,
    leading_term,
    lt_equivalent,
    polymap_to_json_dict,
    polynomial_degree,
)
from oracles import heisenberg_from_matrix, heisenberg_to_matrix, matrix_bch, pointwise_inverse, pointwise_product

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
    check_time_origin(phi, 0)
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
# substitution: `MultiPoly.substitute` on each coordinate of a map


def substitute(phi, new_vars, assignment):
    coords = [c.substitute(new_vars, assignment) for c in phi.coords]
    return PolyMap(phi.algebra, new_vars, coords, domain=phi.domain)


def test_substitute_time_shift():
    phi = exp_map({"x1": t_poly() ** 2})
    shifted = substitute(phi, ("t", "k"), {"t": (Fraction(0), {"t": Fraction(1), "k": Fraction(1)})})
    assert shifted.vars == ("t", "k")
    t = MultiPoly.variable(("t", "k"), "t")
    k = MultiPoly.variable(("t", "k"), "k")
    assert shifted.coords[0] == t ** 2 + 2 * t * k + k ** 2
    assert shifted.domain == ("t",)


def test_substitute_identity_keeps_map():
    phi = exp_map({"x1": t_poly(), "z": t_poly() ** 2})
    same = substitute(phi, ("t",), {"t": (Fraction(0), {"t": Fraction(1)})})
    assert same == phi


def test_substitute_time_zero_gives_identity():
    t = t_poly(("t", "h"))
    h = MultiPoly.variable(("t", "h"), "h")
    phi = exp_map({"x1": t * h, "z": t ** 2}, variables=("t", "h"))
    pinned = substitute(phi, ("t", "h"), {"t": (Fraction(0), {})})
    assert pinned.is_constant_identity()
    assert pinned.vars == ("t", "h")


def test_substitute_unknown_variable():
    phi = exp_map({"x1": t_poly()})
    for new_vars in (("t",), ("t", "s")):
        with pytest.raises(ValueError, match="'s'"):
            substitute(phi, new_vars, {"s": (Fraction(0), {})})


# ----------------------------------------------------------------------
# construction


def test_polymap_takes_polynomials_over_its_own_variables():
    v = ("t", "h")
    zero = MultiPoly.zero(v)
    for bad in (Fraction(1, 2), 0, MultiPoly.variable(("t",), "t"), MultiPoly.zero(("t", "h", "k"))):
        with pytest.raises(ValueError, match="is not a polynomial in"):
            PolyMap(H3, v, [zero, bad, zero])
    # build is the one constructor that takes constants and shorter variable lists
    phi = PolyMap.build(H3, v, {"x1": Fraction(1, 2), 1: t_poly()})
    assert phi.coords == (MultiPoly.const(v, Fraction(1, 2)), MultiPoly.variable(v, "t"), zero)


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
    numeric = [c.substitute(diff.vars, {"t_d1": (Fraction(1, 2), {})}) for c in diff.coords]
    assert numeric[0] == -1
    assert numeric[1] == Fraction(1, 2)


def test_difference_chain_on_quadratic():
    phi = exp_map({"x1": t_poly() ** 2})
    d1 = difference(phi)
    assert not d1.is_constant_on_domain()
    d2 = difference(d1)
    assert d2.is_constant_on_domain()
    assert not d2.is_constant_identity()
    d3 = difference(d2)
    assert d3.is_constant_identity()


def _substitution_difference(phi):
    """Variables and coordinates of phi(g - h) * phi(g)^{-1}: `MultiPoly.substitute`
    of v -> v - v_dn on each coordinate, then BCH with the padded base's inverse."""
    n = 1
    while any(f"{v}_d{n}" in phi.vars for v in phi.domain):
        n += 1
    names = [f"{v}_d{n}" for v in phi.domain]
    new_vars = phi.vars + tuple(names)
    point = {v: (0, {v: 1, h: -1}) for v, h in zip(phi.domain, names)}
    shifted = [c.substitute(new_vars, point) for c in phi.coords]
    base = [-c.with_vars(new_vars) for c in phi.coords]
    return new_vars, bch_coords(phi.algebra, shifted, base, zero=MultiPoly.zero(new_vars))


def test_difference_equals_its_substitution_form():
    rng = random.Random(20261020)
    for alg in (H3, make_builtin("strictly_upper_triangular", n=4)):
        for _ in range(40):
            # a name such as t_d1 among the variables makes the fresh names move on to _d2
            variables = ("t",) + tuple(rng.sample(["h0", "h1", "t_d1", "h0_d1"], rng.randint(0, 3)))
            coords = [
                MultiPoly(
                    variables,
                    {
                        tuple(rng.randint(0, 2) for _ in variables): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(rng.randint(0, 3))
                    },
                )
                for _ in range(alg.dim)
            ]
            domain = rng.sample(variables, rng.randint(0, len(variables)))
            phi = PolyMap(alg, variables, coords, domain=domain)
            got = difference(phi)
            new_vars, want = _substitution_difference(phi)
            assert got.vars == new_vars
            assert got.domain == tuple(domain)
            assert [c.terms for c in got.coords] == [c.terms for c in want]


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


def test_leading_terms_hash_and_compare_coefficients_exactly():
    """Equal Fractions built in different ways key one class; one differing
    coefficient keeps two leading terms apart."""
    half = leading_term(exp_map({"x1": MultiPoly(("t",), {(2,): Fraction(2, 4)}), "y1": t_poly() ** 2 * 3}))
    same = leading_term(exp_map({"x1": MultiPoly(("t",), {(2,): "1/2"}), "y1": t_poly() ** 2 * Fraction(6, 2)}))
    other = leading_term(exp_map({"x1": MultiPoly(("t",), {(2,): "1/2"}), "y1": t_poly() ** 2 * Fraction(3, 2)}))
    assert same == half and hash(same) == hash(half)
    assert other != half
    assert {half: 1, same: 2, other: 3} == {half: 2, other: 3}


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
