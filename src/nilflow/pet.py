"""Weights, the PET ordering on families of polynomial maps, and the
certified descent trace.

A family is an ordered tuple of maps sharing algebra and variables, each
fixing the identity at time zero.  Members are compared through their
leading terms: the weight of a map is the pair (internal class, leading
degree), ordered by class descending then degree ascending, and a family is
summarized by its class sizes per weight: the number of members in each
leading-term equivalence class, listed under the class's weight.  The
trace repeatedly replaces a family by its derived family at a pivot and
certifies that each step strictly descends.

The order and the derivation have one implementation, on members with
multiplicities: the trace keeps each level as distinct maps with their
multiplicities, and `family_precedes` and `derived_family` run the same
code on a family whose members each count once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import CertificateError, ConfigError, TruncationError
from .lie_core import LieAlgebraSpec, algebra_to_json_dict, bch_coords
from .multipoly import MultiPoly
from .poly_maps import (
    LeadingTerm,
    PolyMap,
    _check_compatible,
    check_time_origin,
    leading_term,
    polymap_to_json_dict,
)

# Cap on one PET level's size: coordinate terms summed over its members.
# The descents in the test pools and the benchmark peak at 192.  A family
# with a long descent can instead double in size each level and exhaust
# memory long before max_depth stops it.
MAX_LEVEL_TERMS = 10_000

# Levels `pet_trace` derives before it raises TruncationError, by default.
MAX_DEPTH = 128


@dataclass(frozen=True, order=False)
class Weight:
    internal_class: int
    leading_degree: int

    def to_json(self) -> list:
        return [self.internal_class, self.leading_degree]


def _weight_of(lt: LeadingTerm) -> Weight:
    return Weight(lt.internal_class, lt.leading_degree)


def _descending_key(w: Weight) -> Tuple[int, int]:
    # sort so the latest weight in the order comes first
    return (w.internal_class, -w.leading_degree)


def weight_less(w1: Weight, w2: Weight) -> bool:
    """w1 comes strictly earlier: deeper class first, then lower degree."""
    return _descending_key(w1) > _descending_key(w2)


# A level's classes summarized for the order: each weight's class sizes,
# members counted with multiplicity.
Sizes = Dict[Weight, List[int]]


def _counts(sizes: Sizes) -> Dict[Weight, int]:
    """The weight assignment: classes per weight, latest weight first."""
    return {w: len(sizes[w]) for w in sorted(sizes, key=_descending_key)}


def _assignment_witness(f: Mapping[Weight, int], g: Mapping[Weight, int]) -> Weight | None:
    """The weight where f's class count drops below g's, later ones agreeing."""
    for w in sorted(f.keys() | g.keys(), key=_descending_key):
        if f.get(w, 0) != g.get(w, 0):
            return w if f.get(w, 0) < g.get(w, 0) else None
    return None


# ----------------------------------------------------------------------
# families


class PolyFamily:
    """Ordered tuple of maps sharing algebra and variables, e at time 0."""

    __slots__ = ("maps",)

    def __init__(self, maps: Iterable[PolyMap]):
        maps = tuple(maps)
        for phi in maps[1:]:
            _check_compatible(maps[0], phi)
        for n, phi in enumerate(maps):
            check_time_origin(phi, n)
        self.maps = maps

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, i: int) -> PolyMap:
        return self.maps[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyFamily):
            return NotImplemented
        return self.maps == other.maps

    __hash__ = None  # type: ignore[assignment]


# A member's leading term, taken once per family or trace level, is its
# class key and carries its weight; the constant identity, which belongs to
# no class, has None.
LeadingTerms = Sequence[LeadingTerm | None]


def _leading_info(maps: Iterable[PolyMap]) -> List[LeadingTerm | None]:
    return [None if phi.is_constant_identity() else leading_term(phi) for phi in maps]


def _member_partition(lts: LeadingTerms) -> List[List[int]]:
    """Indices of nonconstant members grouped into leading-term classes, in
    order of first occurrence."""
    groups: Dict[LeadingTerm, List[int]] = {}
    for i, lt in enumerate(lts):
        if lt is not None:
            groups.setdefault(lt, []).append(i)
    return list(groups.values())


def _classify(lts: LeadingTerms, mults: Sequence[int]) -> Tuple[List[List[int]], List[int], Sizes]:
    """Leading-term classes, their cardinalities under mults, and their Sizes."""
    classes = _member_partition(lts)
    cardinalities = [sum(mults[i] for i in group) for group in classes]
    sizes: Sizes = {}
    for group, n in zip(classes, cardinalities):
        sizes.setdefault(_weight_of(lts[group[0]]), []).append(n)
    return classes, cardinalities, sizes


def _pivot_index(lts: LeadingTerms) -> int:
    """Index of the earliest nonconstant member of minimal weight."""
    best = None
    for i, lt in enumerate(lts):
        if lt is not None and (best is None or weight_less(_weight_of(lt), _weight_of(lts[best]))):
            best = i
    if best is None:
        raise ValueError("an all-constant family has no pivot")
    return best


def _sorted_matching(f_sizes: Sequence[int], g_sizes: Sequence[int]) -> Tuple[bool, bool]:
    """(some size-respecting bijection f -> g, some strict one), without a search.

    Such a bijection exists exactly when the descending-sorted vectors
    compare componentwise, and it can be strict somewhere exactly when the
    totals differ.  The exhaustive search is the test suite's oracle.
    """
    if len(f_sizes) != len(g_sizes):
        return False, False
    fs = sorted(f_sizes, reverse=True)
    gs = sorted(g_sizes, reverse=True)
    valid = all(a <= b for a, b in zip(fs, gs))
    return valid, valid and sum(fs) < sum(gs)


def _descent_certificate(derived: Sizes, current: Sizes) -> dict | None:
    """Why derived strictly precedes current in the order, or None if it
    does not: assignment descent, or equal assignments with a
    weight-preserving class matching that shrinks somewhere."""
    f, g = _counts(derived), _counts(current)
    witness = _assignment_witness(f, g)
    if witness is not None:
        return {
            "kind": "weight_descent",
            "weight": witness.to_json(),
            "before": g.get(witness, 0),
            "after": f.get(witness, 0),
        }
    if f != g:
        return None
    per_weight = []
    shrinks = False
    for w in g:
        valid, strict = _sorted_matching(derived[w], current[w])
        if not valid:
            return None
        shrinks = shrinks or strict
        per_weight.append(w.to_json() + [sorted(derived[w]), sorted(current[w])])
    return {"kind": "class_size_descent", "per_weight": per_weight} if shrinks else None


def family_precedes(f_family: PolyFamily, g_family: PolyFamily) -> bool:
    """The order of `_descent_certificate`, every member counted once."""
    f, g = (_classify(_leading_info(fam), [1] * len(fam))[2] for fam in (f_family, g_family))
    return _descent_certificate(f, g) is not None


def pivot(family: PolyFamily) -> int:
    """Index of the earliest member of minimal weight.

    Indices are zero-based positions in the family tuple.
    """
    return _pivot_index(_leading_info(family))


def _fresh_shift_name(variables: Tuple[str, ...]) -> str:
    """k, or the first of k1, k2, ... that is not a variable yet."""
    n, name = 1, "k"
    while name in variables:
        name = f"k{n}"
        n += 1
    return name


def derived_family(family: PolyFamily, i: int) -> PolyFamily:
    """The 2k-1 maps obtained by differencing the family against member i.

    A fresh shift variable is appended to the variable list; first come the
    quotient maps for j != i, then the shifted quotients for every j.
    """
    if not 0 <= i < len(family):
        raise ValueError(f"pivot index {i} out of range for family of size {len(family)}")
    return PolyFamily(phi for phi, _ in _derive_members([(phi, 1) for phi in family], i))


# ----------------------------------------------------------------------
# trace
#
# Derived families repeat maps (the shifted quotient of a degree-one member
# equals its plain quotient, for one), and repetition compounds at every
# level.  The trace therefore stores each level as distinct maps paired with
# multiplicities; cardinality bookkeeping is unchanged because classes count
# members, not distinct maps.

Members = Tuple[Tuple[PolyMap, int], ...]


def _coords_key(phi: PolyMap):
    # Fractions are normalised, so integer pairs compare exactly as the
    # coefficients do, and hash without a Fraction's modular inverse.
    return tuple(
        tuple(sorted((exp, coef.numerator, coef.denominator) for exp, coef in c.terms.items()))
        for c in phi.coords
    )


def _merge_members(pairs: Iterable[Tuple[PolyMap, int]]) -> List[Tuple[PolyMap, int]]:
    """Combine repeats, keeping first-occurrence order."""
    index: Dict[object, int] = {}
    out: List[List[object]] = []
    for phi, mult in pairs:
        if mult == 0:
            continue
        key = _coords_key(phi)
        if key in index:
            out[index[key]][1] += mult
        else:
            index[key] = len(out)
            out.append([phi, mult])
    return [(phi, mult) for phi, mult in out]


def _derive_members(members: Sequence[Tuple[PolyMap, int]], p: int) -> List[Tuple[PolyMap, int]]:
    """One derivation step on a multiset level, pivoting at entry p.

    A fresh shift variable k is appended to the variables, and each member
    is built by BCH on coordinate vectors.  Order matches the tuple
    definition: quotients phi * pivot^-1 for members other than the pivot,
    then shifted quotients phi(k)^-1 * phi(t + k) * pivot^-1 for every
    member.  Sibling copies of the pivot map quotient to the identity.
    Repeats are not merged.

    A member whose every term has t-degree 1 is a one-parameter subgroup
    phi(t) = exp(tX), with X free of t and of k, in any nilpotent algebra.
    Then phi(k)^-1 * phi(t + k) = exp(-kX) exp((t + k)X) = phi(t): every
    bracket of parallel vectors cancels exactly.  Its shifted quotient is
    therefore its quotient, and the pivot's is the identity; both are reused
    rather than built again by two more BCH products.

    Domains, as the certificates record them: a quotient, and the identity,
    takes every variable; a shifted quotient takes its member's domain
    without t.
    """
    base = members[p][0]
    alg, t = base.algebra, base.time_var
    new_vars = base.vars + (_fresh_shift_name(base.vars),)
    zero = MultiPoly.zero(new_vars)
    inv_pivot = [-c.with_vars(new_vars) for c in base.coords]
    produced: List[Tuple[PolyMap, int]] = []
    quotients: List[List[MultiPoly]] = []
    for i, (phi, mult) in enumerate(members):
        if i == p:
            quotient = [zero] * alg.dim
            if mult > 1:
                produced.append((PolyMap.constant_identity(alg, new_vars), mult - 1))
        else:
            quotient = bch_coords(alg, [c.with_vars(new_vars) for c in phi.coords], inv_pivot, zero)
            produced.append((PolyMap(alg, new_vars, quotient), mult))
        quotients.append(quotient)
    for (phi, mult), quotient in zip(members, quotients):
        if not all(exp[0] == 1 for c in phi.coords for exp in c.terms):
            at_k = [-c.shift(new_vars, t, keep=False) for c in phi.coords]
            head = bch_coords(alg, at_k, [c.shift(new_vars, t) for c in phi.coords], zero)
            quotient = bch_coords(alg, head, inv_pivot, zero)
        domain = [v for v in phi.domain if v != t]
        produced.append((PolyMap(alg, new_vars, quotient, domain=domain), mult))
    for n, (phi, _) in enumerate(produced):
        check_time_origin(phi, n)
    return produced


@dataclass(frozen=True)
class PETStep:
    family: Members
    dropped: int
    classes: Tuple[Tuple[int, ...], ...]
    class_cardinalities: Tuple[int, ...]
    assignment: Dict[Weight, int]
    pivot_index: int
    pivot_member: int
    derived: Members
    certificate: dict


@dataclass(frozen=True)
class PETTrace:
    steps: Tuple[PETStep, ...]
    final_family: Members
    final_dropped: int

    @property
    def depth(self) -> int:
        return len(self.steps)


def pet_trace(family: PolyFamily, max_depth: int = MAX_DEPTH) -> PETTrace:
    """Run the induction: drop constants, derive at a pivot, certify, repeat.

    Stops when at most one member remains.  A depth overrun, or a level
    about to be derived that holds more than MAX_LEVEL_TERMS coordinate
    terms, raises TruncationError; a failed descent check raises
    CertificateError.  Leading terms are taken once per member per level.
    A negative `max_depth` is refused with ConfigError.
    """
    if max_depth < 0:
        raise ConfigError(f"max_depth must be nonnegative, got {max_depth}")
    steps: List[PETStep] = []
    current = _merge_members((phi, 1) for phi in family)
    lts = _leading_info(phi for phi, _ in current)
    for _ in range(max_depth + 1):
        active = [member for member, lt in zip(current, lts) if lt is not None]
        dropped = sum(mult for (_, mult), lt in zip(current, lts) if lt is None)
        if sum(mult for _, mult in active) <= 1:
            return PETTrace(tuple(steps), tuple(active), dropped)
        terms = sum(len(c.terms) for phi, _ in active for c in phi.coords)
        if terms > MAX_LEVEL_TERMS:
            raise TruncationError(
                f"PET family at depth {len(steps)} has {terms} coordinate terms, "
                f"over the cap of {MAX_LEVEL_TERMS}"
            )
        lts = [lt for lt in lts if lt is not None]
        p = _pivot_index(lts)
        derived = _merge_members(_derive_members(active, p))
        derived_lts = _leading_info(phi for phi, _ in derived)
        classes, cardinalities, sizes = _classify(lts, [mult for _, mult in active])
        _, _, derived_sizes = _classify(derived_lts, [mult for _, mult in derived])
        certificate = _descent_certificate(derived_sizes, sizes)
        if certificate is None:
            raise CertificateError(
                f"derived family does not precede its parent at depth {len(steps)}"
            )
        steps.append(
            PETStep(
                family=tuple(active),
                dropped=dropped,
                classes=tuple(tuple(c) for c in classes),
                class_cardinalities=tuple(cardinalities),
                assignment=_counts(sizes),
                pivot_index=p,
                pivot_member=sum(mult for _, mult in active[:p]),
                derived=tuple(derived),
                certificate=certificate,
            )
        )
        current, lts = derived, derived_lts
    raise TruncationError(f"PET induction exceeded max depth {max_depth}")


class MemberDoc(dict):
    """A member's certificate entry, built once per member: the `derived` of
    a step and the `family` or `final_family` after it share the object."""

    __slots__ = ()


def trace_to_json_dict(trace: PETTrace, algebra: LieAlgebraSpec) -> dict:
    """Certificate document of a trace of a family in `algebra`: one record
    per step plus the final family."""
    docs: Dict[int, MemberDoc] = {}

    def members_to_json(members: Members) -> list:
        for member in members:
            if id(member) not in docs:
                phi, mult = member
                docs[id(member)] = MemberDoc(multiplicity=mult, map=polymap_to_json_dict(phi))
        return [docs[id(member)] for member in members]

    steps = []
    for step in trace.steps:
        steps.append(
            {
                "family": members_to_json(step.family),
                "dropped": step.dropped,
                "classes": [list(c) for c in step.classes],
                "class_cardinalities": list(step.class_cardinalities),
                "assignment": [w.to_json() + [n] for w, n in step.assignment.items()],
                "pivot": step.pivot_index,
                "pivot_member": step.pivot_member,
                "derived": members_to_json(step.derived),
                "certificate": step.certificate,
            }
        )
    return {
        "algebra": algebra_to_json_dict(algebra),
        "depth": trace.depth,
        "steps": steps,
        "final_family": members_to_json(trace.final_family),
        "final_dropped": trace.final_dropped,
    }
