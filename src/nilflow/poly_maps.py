"""Polynomial maps R x R^r -> G in exponential coordinates.

A PolyMap stores one exact polynomial per basis coordinate of the algebra;
the map itself is exp of that vector.  The first variable is the time
variable; the `domain` tuple records which variables are inputs of the map
(differencing shifts those), while later-added shift variables act as
parameters.  Maps are composed in one way, by the truncated BCH formula
on coordinate vectors with polynomial coefficients (`bch_coords`), so every
operation stays exact: `difference` here, PET's derived members and the
translated flows of an invariance tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Tuple, Union

from .lie_core import GroupElement, LieAlgebraSpec, bch_coords
from .multipoly import MultiPoly


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
        for c in coords:
            if not isinstance(c, MultiPoly) or c.vars != self.vars:
                raise ValueError(f"coordinate {c!r} is not a polynomial in {self.vars}")
        self.coords: Tuple[MultiPoly, ...] = tuple(coords)
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
        entries: Mapping[Union[str, int], Union[MultiPoly, int, Fraction]],
        domain: Sequence[str] | None = None,
    ) -> "PolyMap":
        """Map exp(sum entries[key] * e_key), keyed by basis label or index;
        omitted coordinates are 0.  The one constructor that takes constants:
        an entry is a rational or a polynomial over a prefix of `variables`."""
        variables = tuple(variables)
        coords = [MultiPoly.zero(variables) for _ in range(algebra.dim)]
        for key, poly in entries.items():
            idx = key if isinstance(key, int) else algebra.basis_index(key)
            if not isinstance(poly, MultiPoly):
                poly = MultiPoly.const(variables, poly)
            coords[idx] = coords[idx] + poly.with_vars(variables)
        return cls(algebra, variables, coords, domain=domain)

    # ------------------------------------------------------------------
    # predicates

    @property
    def time_var(self) -> str:
        return self.vars[0]

    def is_constant_identity(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def is_constant_on_domain(self) -> bool:
        return not any(c.depends_on(self.domain) for c in self.coords)

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


def _fresh_shift_names(phi: PolyMap) -> Tuple[str, ...]:
    n = 1
    while any(f"{v}_d{n}" in phi.vars for v in phi.domain):
        n += 1
    return tuple(f"{v}_d{n}" for v in phi.domain)


def difference(phi: PolyMap) -> PolyMap:
    """The map g -> phi(g - h) * phi(g)^{-1} over the domain variables.

    The shift h is symbolic: the fresh shift variables join the result as
    parameters, leaving the domain unchanged.
    """
    new_vars, coords = phi.vars, phi.coords
    for v, h in zip(phi.domain, _fresh_shift_names(phi)):
        new_vars += (h,)
        coords = [c.shift(new_vars, v, sign=-1) for c in coords]
    inv_base = [-c.with_vars(new_vars) for c in phi.coords]
    coords = bch_coords(phi.algebra, coords, inv_base, zero=MultiPoly.zero(new_vars))
    return PolyMap(phi.algebra, new_vars, coords, domain=phi.domain)


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
    """Class, time degree, and t^d coefficient vector on the layer-c basis.

    Equal leading terms are leading-term equivalent maps; the hash agrees,
    so a leading term keys its class."""

    internal_class: int
    leading_degree: int
    coefficient: Tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        if all(c.is_zero() for c in self.coefficient):
            raise ValueError("leading coefficient vector is identically zero")

    def __hash__(self) -> int:
        # Fractions are normalised, so equal terms give equal integer
        # triples, which hash without a Fraction's modular inverse.
        coeff = tuple(
            frozenset((exp, coef.numerator, coef.denominator) for exp, coef in c.terms.items())
            for c in self.coefficient
        )
        return hash((self.internal_class, self.leading_degree, coeff))


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
