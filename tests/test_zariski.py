"""Coefficient varieties, meagre sets, and certified generic points."""

from fractions import Fraction

import pytest

from nilflow.errors import CertificateError
from nilflow.lie_core import make_builtin
from nilflow.multipoly import MultiPoly
from nilflow import zariski
from nilflow.poly_maps import PolyMap
from nilflow.zariski import (
    MeagreSet,
    Variety,
    generic_sample,
    is_proper,
    membership,
    nonvanishing_certificate,
    t_coefficients,
    vanishing_variety,
)

H3 = make_builtin("heisenberg", dim=3)

TH = ("t", "h1", "h2")


def poly(var_names, entries):
    return MultiPoly(tuple(var_names), {tuple(e): Fraction(c) for e, c in entries.items()})


def hpoly(entries):
    return poly(("h1", "h2"), entries)


# ----------------------------------------------------------------------
# time-coefficient extraction


def test_t_coefficients_reads_off_powers():
    p = poly(TH, {(2, 1, 0): 1, (1, 0, 1): 1, (0, 0, 0): 3})
    coeffs = t_coefficients(p)
    assert coeffs == [
        hpoly({(0, 0): 3}),
        hpoly({(0, 1): 1}),
        hpoly({(1, 0): 1}),
    ]


def test_t_coefficients_without_time_variable():
    p = hpoly({(1, 1): 5})
    assert t_coefficients(p) == [p]


def test_t_coefficients_of_layer_coordinate():
    phi = PolyMap.build(
        H3,
        TH,
        {"x1": poly(TH, {(1, 1, 0): 1, (2, 1, 1): 1})},
    )
    coeffs = t_coefficients(phi.coords[0])
    assert coeffs == [hpoly({}), hpoly({(1, 0): 1}), hpoly({(1, 1): 1})]


def test_t_coefficients_fills_gaps_with_zero():
    p = poly(("t", "h1"), {(3, 1): 2})
    coeffs = t_coefficients(p)
    assert len(coeffs) == 4
    assert all(c.is_zero() for c in coeffs[:3])


# ----------------------------------------------------------------------
# vanishing varieties


def test_vanishing_variety_single_generator():
    phi = PolyMap.build(H3, ("t", "h1"), {"x1": poly(("t", "h1"), {(1, 1): 1})})
    v = vanishing_variety(phi, [1, 0, 0])
    assert [str(g) for g in v.generators] == ["0", "h1"]
    assert is_proper(v)


def test_vanishing_variety_improper_for_dead_functional():
    phi = PolyMap.build(H3, ("t", "h1"), {"x1": poly(("t", "h1"), {(1, 1): 1})})
    v = vanishing_variety(phi, [0, 1, 0])
    assert not is_proper(v)


def test_vanishing_variety_diagonal_line():
    x_coord = poly(TH, {(1, 1, 0): 1, (1, 0, 1): -1})
    phi = PolyMap.build(H3, TH, {"x1": x_coord, "z": poly(TH, {(1, 0, 0): 1})})
    v = vanishing_variety(phi, [1, 0, 0])
    nonzero = [g for g in v.generators if not g.is_zero()]
    assert nonzero == [hpoly({(1, 0): 1, (0, 1): -1})]


def test_vanishing_variety_rejects_wrong_arity():
    phi = PolyMap.build(H3, ("t",), {"x1": MultiPoly.variable(("t",), "t")})
    with pytest.raises(ValueError):
        vanishing_variety(phi, [1, 0])


# ----------------------------------------------------------------------
# properness and membership


def test_is_proper_cases():
    assert not is_proper(Variety([]))
    assert is_proper(Variety([hpoly({(1, 0): 1})]))
    assert is_proper(Variety([hpoly({(2, 0): 1, (0, 2): 1}), hpoly({})]))
    assert not is_proper(Variety([hpoly({}), hpoly({})]))


def test_meagre_set_rejects_improper_variety():
    with pytest.raises(ValueError):
        MeagreSet([Variety([hpoly({})])])


def test_membership_examples():
    diag = Variety([hpoly({(1, 0): 1, (0, 1): -1})])
    m = MeagreSet([diag])
    assert not membership(m, (1, 2))
    assert membership(m, (1, 1))
    assert not membership(MeagreSet(), (7,))


# ----------------------------------------------------------------------
# generic sampling


def test_generic_sample_avoids_single_line():
    m = MeagreSet([Variety([hpoly({(1, 0): 1})])])
    point = generic_sample(m, seed=3)
    assert point[0] != 0


def test_generic_sample_empty_set_accepts_first_point():
    assert generic_sample(MeagreSet(), seed=0) == ()
    point = generic_sample(MeagreSet(), seed=0, params=("h1",))
    assert point in ((Fraction(-1),), (Fraction(0),), (Fraction(1),))


def test_generic_sample_off_two_lines():
    m = MeagreSet(
        [
            Variety([hpoly({(1, 0): 1, (0, 1): -1})]),
            Variety([hpoly({(1, 0): 1, (0, 1): 1})]),
        ]
    )
    point = generic_sample(m, seed=42)
    h1, h2 = point
    assert h1 != h2 and h1 != -h2
    assert not membership(m, point)


def test_generic_sample_is_deterministic():
    m = MeagreSet([Variety([hpoly({(1, 0): 1}), hpoly({(0, 1): 1})])])
    assert generic_sample(m, seed=11) == generic_sample(m, seed=11)


def test_generic_sample_exhaustion_raises(monkeypatch):
    m = MeagreSet([Variety([hpoly({(1, 0): 1})])])
    monkeypatch.setattr(zariski, "GENERIC_ATTEMPTS", 0)
    with pytest.raises(CertificateError):
        generic_sample(m, seed=0)


def test_nonvanishing_certificate_contents():
    m = MeagreSet(
        [
            Variety([hpoly({(1, 0): 1})]),
            Variety([hpoly({(0, 1): 1}), hpoly({(1, 0): 1, (0, 1): 1})]),
        ]
    )
    cert = nonvanishing_certificate(m, (2, 0))
    assert cert[0] == {"variety": 0, "generator": 0, "value": "2"}
    assert cert[1] == {"variety": 1, "generator": 1, "value": "2"}
    with pytest.raises(CertificateError):
        nonvanishing_certificate(m, (0, 5))


# ----------------------------------------------------------------------
# span criterion in the abelian case


def test_abelian_properness_matches_coefficient_span():
    a3 = make_builtin("abelian", dim=3)
    coeff_vectors = [
        (Fraction(1), Fraction(0), Fraction(2)),
        (Fraction(0), Fraction(1), Fraction(-1)),
    ]
    coords = []
    for k in range(3):
        coords.append(
            MultiPoly(
                ("t",),
                {(1,): coeff_vectors[0][k], (2,): coeff_vectors[1][k]},
            )
        )
    phi = PolyMap(a3, ("t",), coords)
    functionals = [
        (1, 0, 0),
        (0, 0, 1),
        (2, -1, -1),
        (1, 1, Fraction(-1, 2)),
        (0, 0, 0),
    ]
    for ell in functionals:
        pairing_nonzero = any(
            sum(Fraction(l) * c for l, c in zip(ell, vec)) != 0
            for vec in coeff_vectors
        )
        assert is_proper(vanishing_variety(phi, ell)) == pairing_nonzero
