"""Exact polynomial arithmetic checks."""

import math
import operator
import random
from fractions import Fraction

import pytest

from nilflow.cli import _poly_from_term_list
from nilflow.errors import ConfigError
from nilflow.multipoly import MultiPoly, as_fraction


def poly_t_h():
    t = MultiPoly.variable(("t", "h"), "t")
    h = MultiPoly.variable(("t", "h"), "h")
    return t, h


def test_as_fraction_reads_floats_as_their_shortest_decimal():
    third = Fraction(1, 3)
    assert as_fraction(0.1) == Fraction(1, 10) != Fraction(0.1)
    assert as_fraction("1/3") == third
    assert as_fraction(3) == 3 and isinstance(as_fraction(3), Fraction)
    assert as_fraction(third) is third
    assert MultiPoly.const(("t",), 0.1).constant_value() == Fraction(1, 10)


@pytest.mark.parametrize("bad", [True, False, None, [1], "abc", "1/0", math.nan, math.inf, "inf"])
def test_as_fraction_refuses_what_is_not_an_exact_finite_rational(bad):
    with pytest.raises(ConfigError, match="expected an exact rational number"):
        as_fraction(bad)
    assert as_fraction(0.1) == Fraction(1, 10)


def test_construction_drops_zero_coefficients():
    p = MultiPoly(("t",), {(1,): Fraction(0), (2,): Fraction(3)})
    assert p.terms == {(2,): Fraction(3)}


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        MultiPoly(("t",), {(1, 2): Fraction(1)})


def test_add_mul_and_scalar_mix():
    t, h = poly_t_h()
    p = (t + h) * (t - h)
    assert p == t * t - h * h
    assert (p - p).is_zero()
    assert 2 * t == t + t
    assert t * 0 == 0
    # an operand that is neither a polynomial nor an exact rational is left to Python
    for foreign in (0.5, None):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(t, foreign)
            with pytest.raises(TypeError):
                op(foreign, t)


def test_power_matches_repeated_product():
    t, h = poly_t_h()
    p = t + 2 * h + 1
    q = MultiPoly.const(("t", "h"), 1)
    for _ in range(4):
        q = q * p
    assert p ** 4 == q


def test_eval_exact():
    t, h = poly_t_h()
    p = t ** 2 * h + 3 * t - Fraction(1, 2)
    assert p.eval([Fraction(1, 3), 6]) == Fraction(2, 3) + 1 - Fraction(1, 2)
    assert p.eval({"t": 0, "h": 5}) == Fraction(-1, 2)


def test_equality_with_scalars():
    p = MultiPoly.const(("t",), Fraction(5, 3))
    assert p == Fraction(5, 3)
    assert MultiPoly.zero(("t",)) == 0
    t = MultiPoly.variable(("t",), "t")
    assert t != 0
    # truthiness is the zero test, as for a Fraction
    assert t and not MultiPoly.zero(("t",)) and not (t - t)


def test_substitute_shifts_variable():
    t, h = poly_t_h()
    p = t ** 2 + h
    q = p.substitute(("t", "h", "s"), {"t": (Fraction(0), {"t": Fraction(1), "s": Fraction(-1)})})
    # q(t,h,s) = (t-s)^2 + h
    assert q.eval([5, 1, 2]) == 10
    assert q.eval([2, 0, 2]) == 0
    # linear coefficients are read like the constant, through as_fraction
    t3, h3, s = (MultiPoly.variable(("t", "h", "s"), v) for v in ("t", "h", "s"))
    for half in (0.5, "1/2"):
        r = p.substitute(("t", "h", "s"), {"t": ("1/3", {"t": 1, "s": half})})
        assert r == (t3 + Fraction(1, 2) * s + Fraction(1, 3)) ** 2 + h3


def test_substitute_constant_point():
    t, h = poly_t_h()
    p = t ** 3 * h
    q = p.substitute(("t", "h"), {"t": (Fraction(2), {})})
    assert q == 8 * h
    assert q.degree_in("t") == 0


def test_coefficients_in_time_variable():
    t, h = poly_t_h()
    p = t ** 2 * (h + 1) + t * 3 + h
    coeffs = [p.coefficient_of("t", d) for d in range(4)]
    assert coeffs[3].is_zero()
    hh = MultiPoly.variable(("h",), "h")
    assert coeffs[2] == hh + 1
    assert coeffs[1] == 3
    assert coeffs[0] == hh


def test_degree_queries():
    t, h = poly_t_h()
    p = t ** 3 * h ** 2 + t
    assert p.degree_in("t") == 3
    assert p.degree_in("h") == 2
    assert p.total_degree_in(["t", "h"]) == 5
    assert MultiPoly.zero(("t", "h")).degree_in("t") == 0


def test_with_vars_and_drop_vars_roundtrip():
    t = MultiPoly.variable(("t",), "t")
    p = t ** 2 + 1
    wide = p.with_vars(("t", "k", "h"))
    assert wide.eval([3, 99, 7]) == 10
    assert wide.coefficient_of("h", 0).coefficient_of("k", 0) == p
    # variable lists only grow at the end
    for reordered in (("k", "t", "h"), ("h",), ()):
        with pytest.raises(ValueError, match="does not extend"):
            p.with_vars(reordered)


def test_term_serialization_roundtrip():
    rng = random.Random(7)
    variables = ("t", "k", "h")
    for _ in range(20):
        terms = {
            tuple(rng.randrange(4) for _ in variables): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(6)
        }
        p = MultiPoly(variables, terms)
        assert _poly_from_term_list("coords[0]", p.to_terms(), variables) == p


def test_random_ring_identities():
    rng = random.Random(11)
    variables = ("t", "h")

    def rand_poly():
        terms = {
            (rng.randrange(3), rng.randrange(3)): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(4)
        }
        return MultiPoly(variables, terms)

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == c * (a + b)
        assert a - a == 0


# ----------------------------------------------------------------------
# substitution against exact evaluation at the image point


def _rand_poly(rng, variables, n_terms=6, max_exp=3):
    terms = {
        tuple(rng.randrange(max_exp + 1) for _ in variables): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(n_terms)
    }
    return MultiPoly(variables, terms)


def _rand_fraction(rng):
    return Fraction(rng.randint(-7, 7), rng.randint(1, 5))


def _image_point(p, assignment, point):
    """Values of p's variables at the image of `point` (new variable -> value)."""
    values = {}
    for v in p.vars:
        if v in assignment:
            c0, linear = assignment[v]
            values[v] = Fraction(c0) + sum(Fraction(c) * point[name] for name, c in linear.items())
        else:
            values[v] = point[v]
    return values


def _assert_substitution_exact(p, new_vars, assignment, rng, points=4):
    q = p.substitute(new_vars, assignment)
    assert q.vars == tuple(new_vars)
    # the result is already clean: revalidating it changes nothing
    assert MultiPoly(q.vars, q.terms).terms == q.terms
    assert all(coef != 0 for coef in q.terms.values())
    for _ in range(points):
        point = {v: _rand_fraction(rng) for v in new_vars}
        assert q.eval(point) == p.eval(_image_point(p, assignment, point))
    return q


def test_substitute_matches_evaluation_for_random_affine_maps():
    rng = random.Random(2011)
    old = ("t", "h", "k")
    for _ in range(60):
        p = _rand_poly(rng, old)
        assigned = rng.sample(old, rng.randint(1, len(old)))
        fresh = ["s", "u"][: rng.randint(0, 2)]
        rng.shuffle(fresh)
        new_vars = list(old) + fresh
        assignment = {}
        for v in assigned:
            names = rng.sample(new_vars, rng.randint(0, len(new_vars)))
            assignment[v] = (_rand_fraction(rng), {n: _rand_fraction(rng) for n in names})
        _assert_substitution_exact(p, new_vars, assignment, rng)


def test_substitute_kept_variable_inside_an_image_adds_exponents():
    rng = random.Random(3)
    t, h = poly_t_h()
    p = t ** 3 * h ** 2 + 2 * t * h - h ** 3
    # t -> t + h with h carried over: both contribute powers of h
    assignment = {"t": (Fraction(0), {"t": Fraction(1), "h": Fraction(1)})}
    q = _assert_substitution_exact(p, ("t", "h"), assignment, rng)
    assert q == (t + h) ** 3 * h ** 2 + 2 * (t + h) * h - h ** 3
    # the variable list may only grow, so it cannot reorder
    with pytest.raises(ValueError, match="does not extend"):
        p.substitute(("h", "t"), assignment)


def test_substitute_pins_to_a_constant():
    rng = random.Random(5)
    t, h = poly_t_h()
    p = t ** 2 * h + 3 * h - t
    q = _assert_substitution_exact(p, ("t", "h"), {"h": (Fraction(-3, 2), {})}, rng)
    assert q == Fraction(-3, 2) * t ** 2 - t - Fraction(9, 2)
    assert q.degree_in("h") == 0
    # pinning every variable leaves a constant
    both = {"t": (Fraction(2), {}), "h": (Fraction(1, 3), {})}
    c = _assert_substitution_exact(p, ("t", "h", "s"), both, rng)
    assert c == p.eval([2, Fraction(1, 3)])
    # a pinned variable cannot be dropped from the list
    with pytest.raises(ValueError, match="does not extend"):
        p.substitute(("t",), {"h": (Fraction(-3, 2), {})})


def test_substitute_introduces_a_fresh_variable():
    rng = random.Random(7)
    t, h = poly_t_h()
    p = t ** 4 - 2 * t * h
    assignment = {"t": (Fraction(0), {"t": Fraction(1), "k": Fraction(1)})}
    q = _assert_substitution_exact(p, ("t", "h", "k"), assignment, rng)
    assert q.degree_in("k") == 4
    assert q.coefficient_of("k", 4) == 1


def test_substitute_drops_terms_that_cancel():
    rng = random.Random(9)
    t, h = poly_t_h()
    # t -> h turns t - h into the zero polynomial
    q = _assert_substitution_exact(t - h, ("t", "h"), {"t": (Fraction(0), {"h": Fraction(1)})}, rng)
    assert q.is_zero() and q.terms == {}
    # (h + s)^2 - h^2 keeps only the terms with s
    shift = {"t": (Fraction(0), {"h": Fraction(1), "s": Fraction(1)})}
    q = _assert_substitution_exact(t ** 2 - h ** 2, ("t", "h", "s"), shift, rng)
    hh = MultiPoly.variable(("t", "h", "s"), "h")
    s = MultiPoly.variable(("t", "h", "s"), "s")
    assert q == 2 * hh * s + s ** 2
    assert len(q.terms) == 2


def test_substitute_rejects_a_kept_variable_missing_from_new_vars():
    t, h = poly_t_h()
    with pytest.raises(ValueError):
        (t * h).substitute(("t",), {"t": (Fraction(0), {"t": Fraction(1)})})
    with pytest.raises(ValueError):
        t.substitute(("t", "h"), {"t": (Fraction(0), {"s": Fraction(1)})})


# ----------------------------------------------------------------------
# the time shifts of PET differencing against substitute()


def test_shift_first_equals_substitute_on_random_polynomials():
    rng = random.Random(20261019)
    for _ in range(200):
        variables = tuple(f"v{i}" for i in range(rng.randint(1, 8)))
        p = _rand_poly(rng, variables, n_terms=rng.randint(0, 8), max_exp=4)
        new_vars = variables + ("k",)
        for x in variables:
            for sign in (1, -1):
                for keep in (False, True):
                    image = {x: Fraction(1), "k": Fraction(sign)} if keep else {"k": Fraction(sign)}
                    want = p.substitute(new_vars, {x: (Fraction(0), image)})
                    got = p.shift(new_vars, x, keep=keep, sign=sign)
                    assert got.vars == want.vars == new_vars
                    assert got.terms == want.terms
                    assert all(type(c) is Fraction for c in got.terms.values())


def test_shift_first_is_the_binomial_expansion():
    t, h, k = (MultiPoly.variable(("t", "h", "k"), v) for v in ("t", "h", "k"))
    p = MultiPoly(("t", "h"), {(4, 1): Fraction(-2, 3), (1, 0): 5})
    assert p.shift(("t", "h", "k"), "t") == Fraction(-2, 3) * (t + k) ** 4 * h + 5 * (t + k)
    assert p.shift(("t", "h", "k"), "t", keep=False) == Fraction(-2, 3) * k ** 4 * h + 5 * k
    q = MultiPoly(("t", "h"), {(1, 3): 7, (2, 0): 1})
    assert q.shift(("t", "h", "k"), "h", sign=-1) == 7 * t * (h - k) ** 3 + t ** 2
    # exactly one appended variable, a known name and a sign of +-1
    for new_vars in (("t", "h"), ("t", "h", "k", "s"), ("h", "t", "k")):
        with pytest.raises(ValueError):
            p.shift(new_vars, "t")
    for name, sign in (("s", 1), ("k", 1), ("t", 2), ("t", 0)):
        with pytest.raises(ValueError):
            p.shift(("t", "h", "k"), name, sign=sign)
    with pytest.raises(ValueError):
        MultiPoly((), {(): 1}).shift(("k",), "k", keep=False)
