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
from .poly_maps import (
    PolyMap,
    check_time_origin,
    leading_term,
    pointwise_inverse,
    pointwise_product,
    polymap_to_json_dict,
)
from .lie_core import algebra_to_json_dict

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


def weight(phi: PolyMap) -> Weight:
    """(class, leading degree) of a nonconstant map."""
    lt = leading_term(phi)
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
        if maps:
            first = maps[0]
            for phi in maps[1:]:
                if phi.algebra != first.algebra:
                    raise ValueError("family members target different algebras")
                if phi.vars != first.vars:
                    raise ValueError("family members use different variables")
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


def _lt_class_key(phi: PolyMap):
    lt = leading_term(phi)
    coeff = tuple(tuple(sorted(p.terms.items())) for p in lt.coefficient)
    return (lt.internal_class, lt.leading_degree, coeff)


# A member's leading-term summary, computed once per family or trace level:
# its class key and its weight, or None for the constant identity, which
# belongs to no class.
LTInfo = tuple[object, Weight]


def _leading_info(maps: Iterable[PolyMap]) -> List[LTInfo | None]:
    out: List[LTInfo | None] = []
    for phi in maps:
        if phi.is_constant_identity():
            out.append(None)
        else:
            key = _lt_class_key(phi)
            out.append((key, Weight(key[0], key[1])))
    return out


def _member_partition(infos: Sequence[LTInfo | None]) -> List[List[int]]:
    """Indices of nonconstant members grouped into leading-term classes, in
    order of first occurrence."""
    groups: Dict[object, List[int]] = {}
    for i, info in enumerate(infos):
        if info is not None:
            groups.setdefault(info[0], []).append(i)
    return list(groups.values())


def _classify(
    infos: Sequence[LTInfo | None], mults: Sequence[int]
) -> Tuple[List[List[int]], List[int], Sizes]:
    """Leading-term classes, their cardinalities under mults, and their Sizes."""
    classes = _member_partition(infos)
    cardinalities = [sum(mults[i] for i in group) for group in classes]
    sizes: Sizes = {}
    for group, n in zip(classes, cardinalities):
        sizes.setdefault(infos[group[0]][1], []).append(n)
    return classes, cardinalities, sizes


def _pivot_index(infos: Sequence[LTInfo | None]) -> int:
    """Index of the earliest nonconstant member of minimal weight."""
    best = None
    for i, info in enumerate(infos):
        if info is not None and (best is None or weight_less(info[1], infos[best][1])):
            best = i
    if best is None:
        raise ValueError("an all-constant family has no pivot")
    return best


def lt_partition(family: PolyFamily) -> List[List[int]]:
    """Indices of nonconstant members grouped into leading-term classes."""
    return _member_partition(_leading_info(family))


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


def weight_assignment(family: PolyFamily) -> Dict[Weight, int]:
    """Number of leading-term classes at each weight; constants are skipped."""
    return _counts(_classify(_leading_info(family), [1] * len(family))[2])


def family_precedes(f_family: PolyFamily, g_family: PolyFamily) -> bool:
    """The order of `_descent_certificate`, every member counted once."""
    f, g = (_classify(_leading_info(fam), [1] * len(fam))[2] for fam in (f_family, g_family))
    return _descent_certificate(f, g) is not None


def pivot(family: PolyFamily) -> int:
    """Index of the earliest member of minimal weight.

    Indices are zero-based positions in the family tuple.
    """
    return _pivot_index(_leading_info(family))


def _differencing_tools(base_vars: Tuple[str, ...]):
    """Fresh shift variable k plus the three maps used by derivation: the
    extension to k, and phi(k) and phi(t + k) for the time variable t."""
    n = 1
    k_name = "k"
    while k_name in base_vars:
        k_name = f"k{n}"
        n += 1
    new_vars = base_vars + (k_name,)
    t_name = base_vars[0]

    def extended(phi: PolyMap) -> PolyMap:
        return PolyMap(phi.algebra, new_vars, [c.with_vars(new_vars) for c in phi.coords])

    # the domains the certificates record: t -> k drops t, t -> t + k keeps it
    def at_k(phi: PolyMap) -> PolyMap:
        coords = [c.shift(new_vars, t_name, keep=False) for c in phi.coords]
        return PolyMap(phi.algebra, new_vars, coords, domain=[v for v in phi.domain if v != t_name])

    def shifted(phi: PolyMap) -> PolyMap:
        coords = [c.shift(new_vars, t_name) for c in phi.coords]
        return PolyMap(phi.algebra, new_vars, coords, domain=phi.domain)

    return new_vars, extended, at_k, shifted


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
    return tuple(tuple(sorted(c.terms.items())) for c in phi.coords)


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

    Order matches the tuple definition: quotients for members other than the
    pivot, then shifted quotients for every member.  Sibling copies of the
    pivot map quotient to the identity.  Repeats are not merged.
    """
    base = members[p][0]
    new_vars, extended, at_k, shifted = _differencing_tools(base.vars)
    inv_pivot = pointwise_inverse(extended(base))
    produced: List[Tuple[PolyMap, int]] = []
    for i, (phi, mult) in enumerate(members):
        if i == p:
            if mult > 1:
                produced.append((PolyMap.constant_identity(base.algebra, new_vars), mult - 1))
        else:
            produced.append((pointwise_product(extended(phi), inv_pivot), mult))
    for phi, mult in members:
        head = pointwise_product(pointwise_inverse(at_k(phi)), shifted(phi))
        produced.append((pointwise_product(head, inv_pivot), mult))
    for phi, _ in produced:
        if not phi.fixes_time_origin():
            raise RuntimeError("derived member lost the time-origin normalization")
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
    infos = _leading_info(phi for phi, _ in current)
    for _ in range(max_depth + 1):
        active = [member for member, info in zip(current, infos) if info is not None]
        dropped = sum(mult for (_, mult), info in zip(current, infos) if info is None)
        if sum(mult for _, mult in active) <= 1:
            return PETTrace(tuple(steps), tuple(active), dropped)
        terms = sum(len(c.terms) for phi, _ in active for c in phi.coords)
        if terms > MAX_LEVEL_TERMS:
            raise TruncationError(
                f"PET family at depth {len(steps)} has {terms} coordinate terms, "
                f"over the cap of {MAX_LEVEL_TERMS}"
            )
        infos = [info for info in infos if info is not None]
        p = _pivot_index(infos)
        derived = _merge_members(_derive_members(active, p))
        derived_infos = _leading_info(phi for phi, _ in derived)
        classes, cardinalities, sizes = _classify(infos, [mult for _, mult in active])
        _, _, derived_sizes = _classify(derived_infos, [mult for _, mult in derived])
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
        current, infos = derived, derived_infos
    raise TruncationError(f"PET induction exceeded max depth {max_depth}")


class MemberDoc(dict):
    """A member's certificate entry, built once per member: the `derived` of
    a step and the `family` or `final_family` after it share the object."""

    __slots__ = ()


def trace_to_json_dict(trace: PETTrace) -> dict:
    """Certificate document: one record per step plus the final family."""
    algebra = None
    if trace.final_family:
        algebra = trace.final_family[0][0].algebra
    elif trace.steps:
        algebra = trace.steps[0].family[0][0].algebra
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
        "algebra": algebra_to_json_dict(algebra) if algebra is not None else None,
        "depth": trace.depth,
        "steps": steps,
        "final_family": members_to_json(trace.final_family),
        "final_dropped": trace.final_dropped,
    }
