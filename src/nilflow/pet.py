"""Weights, the PET ordering on families of polynomial maps, and the
certified descent trace.

A family is an ordered tuple of maps sharing algebra and variables, each
fixing the identity at time zero.  Members are compared through their
leading terms: the weight of a map is the pair (internal class, leading
degree), ordered by class descending then degree ascending, and a family is
summarized by counting leading-term equivalence classes per weight.  The
trace repeatedly replaces a family by its derived family at a pivot and
certifies that each step strictly descends.

The order and the derivation have one implementation, on members with
multiplicities: the trace keeps each level as distinct maps with their
multiplicities, and `family_precedes` and `derived_family` run the same
code on a family whose members each count once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import CertificateError, TruncationError
from .poly_maps import (
    PolyMap,
    check_time_origin,
    leading_term,
    pointwise_inverse,
    pointwise_product,
    polymap_to_json_dict,
    substitute,
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


class WeightAssignment:
    """Counts of leading-term classes per weight; finitely supported."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[Weight, int]):
        self._counts: Dict[Weight, int] = {
            w: int(n) for w, n in counts.items() if n != 0
        }
        if any(n < 0 for n in self._counts.values()):
            raise ValueError("class counts must be positive")

    def get(self, w: Weight) -> int:
        return self._counts.get(w, 0)

    def support(self) -> List[Weight]:
        return sorted(self._counts, key=_descending_key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightAssignment):
            return NotImplemented
        return self._counts == other._counts

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(
            f"({w.internal_class},{w.leading_degree}): {n}"
            for w, n in sorted(self._counts.items(), key=lambda kv: _descending_key(kv[0]))
        )
        return "WeightAssignment({" + body + "})"

    def to_json(self) -> list:
        return [
            [w.internal_class, w.leading_degree, self._counts[w]]
            for w in self.support()
        ]


def assignment_less(f: WeightAssignment, g: WeightAssignment) -> bool:
    return _assignment_witness(f, g) is not None


def _assignment_witness(f: WeightAssignment, g: WeightAssignment) -> Weight | None:
    """The weight at which f drops below g, all later weights agreeing."""
    weights = sorted(set(f.support()) | set(g.support()), key=_descending_key)
    for w in weights:
        if f.get(w) != g.get(w):
            return w if f.get(w) < g.get(w) else None
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


# A family's classes summarized for the order: the weight assignment and
# the class cardinalities per weight.
Summary = tuple[WeightAssignment, dict[Weight, list[int]]]


def _classify(infos: Sequence[LTInfo | None], mults: Sequence[int]) -> Tuple[List[List[int]], Summary]:
    """Leading-term classes and their summary; mults are member multiplicities."""
    classes = _member_partition(infos)
    counts: Dict[Weight, int] = {}
    sizes: Dict[Weight, List[int]] = {}
    for group in classes:
        w = infos[group[0]][1]
        counts[w] = counts.get(w, 0) + 1
        sizes.setdefault(w, []).append(sum(mults[i] for i in group))
    return classes, (WeightAssignment(counts), sizes)


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


def _members_precede(f: Summary, g: Summary) -> bool:
    """The strict order on summaries, whose class sizes count multiplicities."""
    (f_assignment, f_sizes), (g_assignment, g_sizes) = f, g
    if _assignment_witness(f_assignment, g_assignment) is not None:
        return True
    if f_assignment != g_assignment:
        return False
    any_strict = False
    for w in f_assignment.support():
        valid, strict = _sorted_matching(f_sizes[w], g_sizes[w])
        if not valid:
            return False
        any_strict = any_strict or strict
    return any_strict


def _family_summary(family: PolyFamily) -> Summary:
    """The summary of a family, every member counted once."""
    return _classify(_leading_info(family), [1] * len(family))[1]


def weight_assignment(family: PolyFamily) -> WeightAssignment:
    """Number of leading-term classes at each weight; constants are skipped."""
    return _family_summary(family)[0]


def family_precedes(f_family: PolyFamily, g_family: PolyFamily) -> bool:
    """Strict order on families: assignment descent, or equal assignments
    with a weight-preserving class matching that shrinks somewhere."""
    return _members_precede(_family_summary(f_family), _family_summary(g_family))


def pivot(family: PolyFamily) -> int:
    """Index of the earliest member of minimal weight.

    Indices are zero-based positions in the family tuple.
    """
    return _pivot_index(_leading_info(family))


def _differencing_tools(base_vars: Tuple[str, ...]):
    """Fresh shift variable plus the three substitutions used by derivation."""
    n = 1
    k_name = "k"
    while k_name in base_vars:
        k_name = f"k{n}"
        n += 1
    new_vars = base_vars + (k_name,)
    t_name = base_vars[0]

    def extended(phi: PolyMap) -> PolyMap:
        return PolyMap(phi.algebra, new_vars, [c.with_vars(new_vars) for c in phi.coords])

    def at_k(phi: PolyMap) -> PolyMap:
        return substitute(
            phi, {t_name: (Fraction(0), {k_name: Fraction(1)})}, new_variables=new_vars
        )

    def shifted(phi: PolyMap) -> PolyMap:
        return substitute(
            phi,
            {t_name: (Fraction(0), {t_name: Fraction(1), k_name: Fraction(1)})},
            new_variables=new_vars,
        )

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
    assignment: WeightAssignment
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


def _descent_certificate(derived: Summary, current: Summary) -> dict:
    (f, f_sizes), (g, g_sizes) = derived, current
    witness = _assignment_witness(f, g)
    if witness is not None:
        return {
            "kind": "weight_descent",
            "weight": witness.to_json(),
            "before": g.get(witness),
            "after": f.get(witness),
        }
    per_weight = []
    for w in g.support():
        per_weight.append(
            [w.internal_class, w.leading_degree, sorted(f_sizes[w]), sorted(g_sizes[w])]
        )
    return {"kind": "class_size_descent", "per_weight": per_weight}


def pet_trace(family: PolyFamily, max_depth: int = MAX_DEPTH) -> PETTrace:
    """Run the induction: drop constants, derive at a pivot, certify, repeat.

    Stops when at most one member remains.  A depth overrun, or a level
    about to be derived that holds more than MAX_LEVEL_TERMS coordinate
    terms, raises TruncationError; a failed descent check raises
    CertificateError.  Leading terms are taken once per member per level.
    A negative `max_depth` is refused with ValueError.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
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
        classes, summary = _classify(infos, [mult for _, mult in active])
        _, derived_summary = _classify(derived_infos, [mult for _, mult in derived])
        if not _members_precede(derived_summary, summary):
            raise CertificateError(
                f"derived family does not precede its parent at depth {len(steps)}"
            )
        steps.append(
            PETStep(
                family=tuple(active),
                dropped=dropped,
                classes=tuple(tuple(c) for c in classes),
                class_cardinalities=tuple(
                    sum(active[i][1] for i in group) for group in classes
                ),
                assignment=summary[0],
                pivot_index=p,
                pivot_member=sum(mult for _, mult in active[:p]),
                derived=tuple(derived),
                certificate=_descent_certificate(derived_summary, summary),
            )
        )
        current, infos = derived, derived_infos
    raise TruncationError(f"PET induction exceeded max depth {max_depth}")


def _members_to_json(members: Members) -> list:
    return [
        {"multiplicity": mult, "map": polymap_to_json_dict(phi)}
        for phi, mult in members
    ]


def trace_to_json_dict(trace: PETTrace) -> dict:
    """Certificate document: one record per step plus the final family."""
    algebra = None
    if trace.final_family:
        algebra = trace.final_family[0][0].algebra
    elif trace.steps:
        algebra = trace.steps[0].family[0][0].algebra
    steps = []
    for step in trace.steps:
        steps.append(
            {
                "family": _members_to_json(step.family),
                "dropped": step.dropped,
                "classes": [list(c) for c in step.classes],
                "class_cardinalities": list(step.class_cardinalities),
                "assignment": step.assignment.to_json(),
                "pivot": step.pivot_index,
                "pivot_member": step.pivot_member,
                "derived": _members_to_json(step.derived),
                "certificate": step.certificate,
            }
        )
    return {
        "algebra": algebra_to_json_dict(algebra) if algebra is not None else None,
        "depth": trace.depth,
        "steps": steps,
        "final_family": _members_to_json(trace.final_family),
        "final_dropped": trace.final_dropped,
    }
