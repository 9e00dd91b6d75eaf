"""Coefficient varieties of parametrized maps and certified generic sampling.

A parametrized map into the group vanishes under a linear functional exactly
when every coefficient of the time variable vanishes, so "the functional is
degenerate at parameter h" is a polynomial condition on h.  This module
extracts those conditions as varieties, collects finitely many of them into
a meagre set, and samples rational points certified to avoid all of them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import CertificateError
from .multipoly import MultiPoly, as_fraction
from .poly_maps import PolyMap

Point = Union[Sequence, Mapping]

# draws before `generic_sample` gives up; the bound doubles after each miss
GENERIC_ATTEMPTS = 64


def t_coefficients(p: MultiPoly, time_var: str = "t") -> List[MultiPoly]:
    """Coefficients of the powers of the time variable, constant term first.

    The result always has length degree+1; gaps are filled with the zero
    polynomial in the remaining variables.  A polynomial without the time
    variable is its own constant coefficient.
    """
    if time_var not in p.vars:
        return [p]
    return [p.coefficient_of(time_var, d) for d in range(p.degree_in(time_var) + 1)]


def _ordered_union(seqs: Iterable[Sequence[str]]) -> Tuple[str, ...]:
    out: List[str] = []
    for seq in seqs:
        for name in seq:
            if name not in out:
                out.append(name)
    return tuple(out)


def _point_mapping(point: Point, names: Sequence[str]) -> Mapping:
    if isinstance(point, Mapping):
        return point
    if len(point) != len(names):
        raise ValueError(f"point arity {len(point)} != {len(names)} parameters")
    return dict(zip(names, point))


class Variety:
    """Common zero set of finitely many polynomials in the parameter variables."""

    __slots__ = ("generators",)

    def __init__(self, generators: Sequence[MultiPoly]):
        self.generators: Tuple[MultiPoly, ...] = tuple(generators)

    @property
    def params(self) -> Tuple[str, ...]:
        return _ordered_union(g.vars for g in self.generators)

    def contains(self, point: Point) -> bool:
        """Exact membership: every generator vanishes at the point."""
        mapping = _point_mapping(point, self.params)
        return all(g.eval(mapping) == 0 for g in self.generators)

    def __repr__(self) -> str:
        return f"Variety([{', '.join(str(g) for g in self.generators)}])"


def is_proper(v: Variety) -> bool:
    """True when the variety is a proper subset, i.e. some generator is nonzero."""
    return any(not g.is_zero() for g in v.generators)


class MeagreSet:
    """Finite union of proper varieties, the computable stand-in for a countable one."""

    __slots__ = ("varieties",)

    def __init__(self, varieties: Sequence[Variety] = ()):
        vs = tuple(varieties)
        for v in vs:
            if not is_proper(v):
                raise ValueError("every variety in a meagre set must be proper")
        self.varieties: Tuple[Variety, ...] = vs

    @property
    def params(self) -> Tuple[str, ...]:
        return _ordered_union(v.params for v in self.varieties)

    def __repr__(self) -> str:
        return f"MeagreSet({list(self.varieties)!r})"


def vanishing_variety(phi: PolyMap, ell: Sequence[Union[int, str, Fraction]]) -> Variety:
    """Parameter locus where the functional kills the map for every time value.

    The functional is a rational coordinate vector in the algebra basis; it is
    applied to the exponential coordinates and the resulting polynomial is
    split into time coefficients, which become the generators.
    """
    if len(ell) != phi.algebra.dim:
        raise ValueError(f"functional has {len(ell)} entries for a {phi.algebra.dim}-dim algebra")
    combo = MultiPoly.zero(phi.vars)
    for coord, weight in zip(phi.coords, ell):
        weight = as_fraction(weight)
        if weight:
            combo = combo + coord * weight
    return Variety(t_coefficients(combo, phi.time_var))


def membership(m: MeagreSet, point: Point) -> bool:
    """True when some variety of the union contains the point."""
    if not m.varieties:
        return False
    mapping = _point_mapping(point, m.params)
    return any(v.contains(mapping) for v in m.varieties)


def nonvanishing_certificate(m: MeagreSet, point: Point) -> List[dict]:
    """One nonvanishing generator per variety, with its exact value at the point.

    Raises when the point lies on some variety, so a successful return is an
    exact proof that the point avoids the whole union.
    """
    mapping = _point_mapping(point, m.params)
    witnesses = []
    for i, v in enumerate(m.varieties):
        for j, g in enumerate(v.generators):
            value = g.eval(mapping)
            if value != 0:
                witnesses.append({"variety": i, "generator": j, "value": str(value)})
                break
        else:
            raise CertificateError(f"point lies on variety {i} of the meagre set")
    return witnesses


def generic_sample(
    m: MeagreSet,
    seed: int = 0,
    params: Sequence[str] | None = None,
) -> Tuple[Fraction, ...]:
    """Random rational point certified to avoid every variety of the union.

    Draws integer points from [-B, B]^r with B doubling after each miss, so
    all arithmetic stays exact.  Deterministic for a fixed seed.  The
    certificate is re-checked before returning.
    """
    names = tuple(params) if params is not None else m.params
    rng = random.Random(seed)
    bound = 1
    for _ in range(GENERIC_ATTEMPTS):
        point = {name: Fraction(rng.randint(-bound, bound)) for name in names}
        if not membership(m, point):
            nonvanishing_certificate(m, point)
            return tuple(point[name] for name in names)
        bound *= 2
    raise CertificateError(
        f"no generic point found in {GENERIC_ATTEMPTS} attempts; "
        "an improper variety may have slipped through"
    )


def meagre_set_to_json_dict(m: MeagreSet) -> dict:
    return {
        "params": list(m.params),
        "varieties": [[str(g) for g in v.generators] for v in m.varieties],
    }
