"""Polynomial maps R x R^r -> G in exponential coordinates.

A PolyMap stores one exact polynomial per basis coordinate of the algebra;
the map itself is exp of that vector.  The first variable is the time
variable; the `domain` tuple records which variables are inputs of the map
(differencing shifts those), while later-added shift variables act as
parameters.  Products and inverses go through the truncated BCH formula
with polynomial coefficients, so every operation here stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

from .lie_core import GroupElement, LieAlgebraSpec, bch_coords
from .multipoly import MultiPoly, as_fraction

AffineValue = Union[int, float, str, Fraction, Tuple]


class PolyMap:
    """Map into the group, given by exponential-coordinate polynomials."""

    __slots__ = ("algebra", "vars", "coords", "domain")

    def __init__(
        self,
        algebra: LieAlgebraSpec,
        variables: Sequence[str],
        coords: Sequence[MultiPoly],
        domain: Sequence[str] | None = None,
    ):
        self.algebra = algebra
        self.vars: Tuple[str, ...] = tuple(variables)
        if not self.vars:
            raise ValueError("a PolyMap needs at least the time variable")
        names = set(self.vars)
        if len(names) != len(self.vars):
            raise ValueError("duplicate variable names")
        if len(coords) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} coordinate polynomials, got {len(coords)}")
        fixed = []
        for c in coords:
            if not isinstance(c, MultiPoly):
                c = MultiPoly.const(self.vars, c)
            elif c.vars != self.vars:
                c = c.with_vars(self.vars)
            fixed.append(c)
        self.coords: Tuple[MultiPoly, ...] = tuple(fixed)
        if domain is None:
            domain = self.vars
        self.domain: Tuple[str, ...] = tuple(domain)
        if not names.issuperset(self.domain):
            raise ValueError("domain variables must be among the map variables")

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def constant_identity(cls, algebra: LieAlgebraSpec, variables: Sequence[str]) -> "PolyMap":
        zero = MultiPoly.zero(tuple(variables))
        return cls(algebra, variables, [zero] * algebra.dim)

    @classmethod
    def build(
        cls,
        algebra: LieAlgebraSpec,
        variables: Sequence[str],
        entries: Mapping[Union[str, int], MultiPoly],
    ) -> "PolyMap":
        """Map exp(sum entries[label] * e_label); omitted coordinates are 0."""
        variables = tuple(variables)
        coords = [MultiPoly.zero(variables) for _ in range(algebra.dim)]
        for key, poly in entries.items():
            idx = key if isinstance(key, int) else algebra.basis_index(key)
            if not isinstance(poly, MultiPoly):
                poly = MultiPoly.const(variables, poly)
            coords[idx] = coords[idx] + poly.with_vars(variables)
        return cls(algebra, variables, coords)

    # ------------------------------------------------------------------
    # predicates

    @property
    def time_var(self) -> str:
        return self.vars[0]

    def is_constant_identity(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def is_constant_on_domain(self) -> bool:
        return not any(c.depends_on(self.domain) for c in self.coords)

    def fixes_time_origin(self) -> bool:
        """True when every coordinate vanishes identically at time 0."""
        t_index = 0
        return all(all(exp[t_index] > 0 for exp in c.terms) for c in self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.vars == other.vars
            and self.coords == other.coords
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(f"{l}: {c}" for l, c in zip(self.algebra.labels, self.coords) if not c.is_zero())
        return f"PolyMap({self.vars}; {body or 'e'})"

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, point: Union[Sequence, Mapping]) -> GroupElement:
        """Exact substitution of a rational point into every coordinate."""
        return GroupElement(self.algebra, tuple(c.eval(point) for c in self.coords))


def check_time_origin(phi: PolyMap, member: int) -> None:
    """Refuse a family member that is not the identity at time 0, naming
    the first coordinate that is not 0 there and its value."""
    for label, coord in zip(phi.algebra.labels, phi.coords):
        origin = coord.coefficient_of(phi.time_var, 0)
        if not origin.is_zero():
            raise ValueError(
                f"family member {member}: coordinate {label!r} is {origin} at {phi.time_var}=0, not the identity"
            )


def _check_compatible(phi: PolyMap, psi: PolyMap) -> None:
    if phi.algebra != psi.algebra:
        raise ValueError("maps target different algebras")
    if phi.vars != psi.vars:
        raise ValueError(f"variable mismatch: {phi.vars} vs {psi.vars}")


def pointwise_product(phi: PolyMap, psi: PolyMap) -> PolyMap:
    """x -> phi(x) * psi(x), computed by BCH with polynomial coefficients."""
    _check_compatible(phi, psi)
    zero = MultiPoly.zero(phi.vars)
    coords = bch_coords(phi.algebra, phi.coords, psi.coords, zero=zero)
    return PolyMap(phi.algebra, phi.vars, coords, domain=phi.domain)


def pointwise_inverse(phi: PolyMap) -> PolyMap:
    """x -> phi(x)^{-1}; negation in exponential coordinates."""
    return PolyMap(phi.algebra, phi.vars, [-c for c in phi.coords], domain=phi.domain)


def _as_affine(value: AffineValue) -> Tuple[Fraction, Dict[str, Fraction]]:
    if isinstance(value, tuple):
        const, linear = value
        return as_fraction(const), {str(n): as_fraction(c) for n, c in linear.items()}
    return as_fraction(value), {}


def substitute(
    phi: PolyMap,
    assignment: Mapping[str, AffineValue],
    new_variables: Sequence[str] | None = None,
    new_domain: Sequence[str] | None = None,
) -> PolyMap:
    """Affine change of variables.

    Assignment values are rational constants, read by `as_fraction` (so the
    string "1/2" is the number 1/2), or pairs (const, {var: coeff}).
    `new_variables` must extend phi's variables; by default it appends the
    new names the images introduce, in order of first appearance.  Every
    variable keeps its place, a substituted one with degree 0 unless its
    image names it.
    """
    affine = {v: _as_affine(expr) for v, expr in assignment.items()}
    for v in affine:
        if v not in phi.vars:
            raise ValueError(f"unknown variable {v!r}")

    if new_variables is None:
        images = (name for _, linear in affine.values() for name in linear)
        new_variables = dict.fromkeys((*phi.vars, *images))
    new_variables = tuple(new_variables)

    if new_domain is None:
        # a substituted variable stays in the domain only when its image
        # still involves it (shifts like t -> t + k), not when it is pinned
        new_domain = tuple(v for v in phi.domain if v not in affine or v in affine[v][1])

    coords = [c.substitute(new_variables, affine) for c in phi.coords]
    return PolyMap(phi.algebra, new_variables, coords, domain=new_domain)


def _fresh_shift_names(phi: PolyMap) -> Dict[str, str]:
    n = 1
    while any(f"{v}_d{n}" in phi.vars for v in phi.domain):
        n += 1
    return {v: f"{v}_d{n}" for v in phi.domain}


def difference(phi: PolyMap) -> PolyMap:
    """The map g -> phi(g - h) * phi(g)^{-1} over the domain variables.

    The shift h is symbolic: the fresh shift variables join the result as
    parameters, leaving the domain unchanged.
    """
    names = _fresh_shift_names(phi)
    new_vars = phi.vars + tuple(names[v] for v in phi.domain)
    assignment = {
        v: (Fraction(0), {v: Fraction(1), names[v]: Fraction(-1)}) for v in phi.domain
    }
    shifted = substitute(phi, assignment, new_variables=new_vars, new_domain=phi.domain)
    base = PolyMap(
        phi.algebra,
        new_vars,
        [c.with_vars(new_vars) for c in phi.coords],
        domain=phi.domain,
    )
    return pointwise_product(shifted, pointwise_inverse(base))


def polynomial_degree(phi: PolyMap) -> int:
    """Least d such that d symbolic differences leave a map constant on the
    domain variables (equivalently, d+1 differences give the identity)."""
    max_total = max((c.total_degree_in(phi.domain) for c in phi.coords), default=0)
    max_iterations = phi.algebra.step * (max_total + 1) + 2
    current = phi
    for d in range(max_iterations + 1):
        if current.is_constant_on_domain():
            return d
        current = difference(current)
    raise RuntimeError(f"differencing did not terminate within {max_iterations} iterations")


# ----------------------------------------------------------------------
# leading-term analysis


@dataclass(frozen=True)
class LeadingTerm:
    """Class, time degree, and t^d coefficient vector on the layer-c basis."""

    internal_class: int
    leading_degree: int
    coefficient: Tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        if all(c.is_zero() for c in self.coefficient):
            raise ValueError("leading coefficient vector is identically zero")


def internal_class(phi: PolyMap) -> int:
    """Greatest c such that every coordinate on layers below c vanishes."""
    if phi.is_constant_identity():
        raise ValueError("the constant identity map has no internal class")
    layers = phi.algebra.layers
    c = phi.algebra.step
    for i, poly in enumerate(phi.coords):
        if not poly.is_zero():
            c = min(c, layers[i])
    return c


def leading_term(phi: PolyMap) -> LeadingTerm:
    """Projection of phi to the layer-c quotient, keeping the top t power."""
    c = internal_class(phi)
    t = phi.time_var
    indices = [i for i, l in enumerate(phi.algebra.layers) if l == c]
    degree = max(phi.coords[i].degree_in(t) for i in indices)
    coefficient = tuple(phi.coords[i].coefficient_of(t, degree) for i in indices)
    return LeadingTerm(c, degree, coefficient)


def lt_equivalent(phi: PolyMap, psi: PolyMap) -> bool:
    """Same internal class and identical leading term."""
    _check_compatible(phi, psi)
    return leading_term(phi) == leading_term(psi)


# ----------------------------------------------------------------------
# serialization


def polymap_to_json_dict(phi: PolyMap) -> dict:
    """The map's variables, coordinates and domain; its algebra is stored once by the caller."""
    data: dict = {
        "vars": list(phi.vars),
        "coords": [c.to_terms() for c in phi.coords],
    }
    if phi.domain != phi.vars:
        data["domain"] = list(phi.domain)
    return data
