"""Weight bookkeeping, the family order, and the certified descent trace."""

import itertools
import random

import pytest

from nilflow.errors import TruncationError
from nilflow.lie_core import make_builtin
from nilflow.multipoly import MultiPoly
from nilflow.pet import (
    PETTrace,
    PolyFamily,
    Weight,
    WeightAssignment,
    _descending_key,
    _descent_certificate,
    _members_precede,
    _sorted_matching,
    assignment_less,
    derived_family,
    family_precedes,
    lt_partition,
    pet_trace,
    pivot,
    trace_to_json_dict,
    weight,
    weight_assignment,
    weight_less,
)
from nilflow.poly_maps import PolyMap, lt_equivalent
from oracles import weight_matching

H3 = make_builtin("heisenberg", dim=3)
A2 = make_builtin("abelian", dim=2)


def tpow(n, variables=("t",)):
    return MultiPoly.variable(tuple(variables), "t") ** n


def h3_map(**entries):
    return PolyMap.build(H3, ("t",), entries)


def a2_map(e1=0, e2=0):
    entries = {}
    if e1 != 0:
        entries["e1"] = e1
    if e2 != 0:
        entries["e2"] = e2
    return PolyMap.build(A2, ("t",), entries)


# ----------------------------------------------------------------------
# weights


def test_weight_order_examples():
    assert weight_less(Weight(2, 5), Weight(1, 1))
    assert weight_less(Weight(1, 1), Weight(1, 2))
    assert not weight_less(Weight(1, 2), Weight(1, 2))
    assert not weight_less(Weight(1, 1), Weight(2, 5))


def test_weight_less_is_the_sort_key_order():
    """weight_less(w1, w2) exactly when sorting by the key puts w2 first."""
    weights = [Weight(c, d) for c in range(1, 4) for d in range(1, 5)]
    order = sorted(weights, key=_descending_key)
    for w1, w2 in itertools.product(weights, repeat=2):
        assert weight_less(w1, w2) == (order.index(w1) > order.index(w2))
        deeper = w1.internal_class > w2.internal_class
        lower = w1.internal_class == w2.internal_class and w1.leading_degree < w2.leading_degree
        assert weight_less(w1, w2) == (deeper or lower)


def test_weight_of_map():
    assert weight(h3_map(x1=tpow(2))) == Weight(1, 2)
    assert weight(h3_map(z=tpow(1))) == Weight(2, 1)


def test_weight_assignment_examples():
    fam = PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=tpow(2))])
    wa = weight_assignment(fam)
    assert wa.to_json() == [[1, 2, 1], [1, 1, 1]]
    same = PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=tpow(1))])
    assert weight_assignment(same).to_json() == [[1, 1, 1]]
    assert weight_assignment(PolyFamily([])).to_json() == []


def test_assignment_comparison_scans_from_the_top():
    f = weight_assignment(PolyFamily([h3_map(x1=tpow(1))]))
    g = weight_assignment(PolyFamily([h3_map(x1=tpow(2))]))
    assert assignment_less(f, g)
    assert not assignment_less(g, f)
    assert not assignment_less(f, f)


def test_family_requires_time_origin_normalization():
    bad = PolyMap.build(H3, ("t",), {"x1": MultiPoly.const(("t",), 1)})
    with pytest.raises(ValueError):
        PolyFamily([bad])


# ----------------------------------------------------------------------
# partition and order


def test_lt_partition_groups_equivalent_members():
    fam = PolyFamily(
        [h3_map(x1=tpow(1)), h3_map(x1=tpow(1), z=tpow(1)), h3_map(x1=2 * tpow(1))]
    )
    parts = lt_partition(fam)
    assert parts == [[0, 1], [2]]


def test_family_precedes_examples():
    single_low = PolyFamily([h3_map(x1=tpow(1))])
    single_high = PolyFamily([h3_map(x1=tpow(2))])
    assert family_precedes(single_low, single_high)
    assert not family_precedes(single_high, single_low)
    assert not family_precedes(single_low, single_low)


def test_subfamily_precedes_full_family():
    pool = [
        h3_map(x1=tpow(1)),
        h3_map(x1=tpow(2)),
        h3_map(y1=tpow(1)),
        h3_map(z=tpow(1)),
        h3_map(x1=tpow(1), z=tpow(2)),
    ]
    for size in (2, 3):
        for combo in itertools.combinations(pool, size):
            fam = PolyFamily(combo)
            tail = PolyFamily(combo[1:])
            assert family_precedes(tail, fam)


def test_class_size_clause():
    one = PolyFamily([h3_map(x1=tpow(1))])
    two = PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=tpow(1))])
    assert family_precedes(one, two)
    assert not family_precedes(two, one)


def test_class_size_descent_certificate():
    """Equal assignments, one class shrinking from 3 members to 2."""
    w = Weight(2, 1)
    derived = (WeightAssignment({w: 1}), {w: [2]})
    current = (WeightAssignment({w: 1}), {w: [3]})
    cert = _descent_certificate(derived, current)
    assert cert == {"kind": "class_size_descent", "per_weight": [[2, 1, [2], [3]]]}
    assert _members_precede(derived, current)
    assert not _members_precede(current, derived)


def test_family_precedes_is_strict_partial_order():
    maps = [
        a2_map(e1=tpow(1)),
        a2_map(e1=2 * tpow(1)),
        a2_map(e2=tpow(2)),
        a2_map(e1=tpow(3)),
        a2_map(e1=tpow(1), e2=tpow(2)),
    ]
    families = [PolyFamily(c) for n in (1, 2) for c in itertools.combinations(maps, n)]
    for f in families:
        assert not family_precedes(f, f)
    for f, g, h in itertools.product(families, repeat=3):
        if family_precedes(f, g) and family_precedes(g, h):
            assert family_precedes(f, h)


def test_sorted_matching_agrees_with_the_exhaustive_search():
    rng = random.Random(6)
    for _ in range(3000):
        n = rng.randint(0, 6)
        m = n if rng.random() < 0.8 else rng.randint(0, 6)
        f_sizes = [rng.randint(1, 4) for _ in range(n)]
        g_sizes = [rng.randint(1, 4) for _ in range(m)]
        assert _sorted_matching(f_sizes, g_sizes) == weight_matching(f_sizes, g_sizes)


# ----------------------------------------------------------------------
# pivot and derivation


def test_pivot_prefers_minimal_weight_then_lowest_index():
    fam = PolyFamily([h3_map(x1=tpow(2)), h3_map(x1=tpow(1))])
    assert pivot(fam) == 1
    fam2 = PolyFamily([h3_map(z=tpow(1)), h3_map(x1=tpow(1))])
    assert pivot(fam2) == 0
    assert pivot(PolyFamily([h3_map(x1=tpow(1))])) == 0
    with pytest.raises(ValueError):
        pivot(PolyFamily([PolyMap.constant_identity(H3, ("t",))]))


def test_derived_singleton_cancels():
    fam = PolyFamily([h3_map(x1=tpow(1))])
    derived = derived_family(fam, 0)
    assert len(derived) == 1
    assert derived[0].is_constant_identity()


def test_derived_family_contains_quotient():
    fam = PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=2 * tpow(1))])
    derived = derived_family(fam, 0)
    assert len(derived) == 3
    assert derived[0].vars == ("t", "k")
    t = MultiPoly.variable(("t", "k"), "t")
    assert derived[0].coords[0] == t
    assert derived[0].coords[1].is_zero()


def test_derived_second_kind_keeps_leading_term():
    fam = PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=tpow(2))])
    derived = derived_family(fam, 0)
    # members: j=1 first kind, j=0 second kind (identity), j=1 second kind
    first_kind = derived[0]
    second_kind = derived[2]
    t = MultiPoly.variable(("t", "k"), "t")
    k = MultiPoly.variable(("t", "k"), "k")
    assert second_kind.coords[0] == t ** 2 + 2 * t * k - t
    assert lt_equivalent(first_kind, second_kind)
    assert derived[1].is_constant_identity()


def test_derived_family_index_validation():
    fam = PolyFamily([h3_map(x1=tpow(1))])
    with pytest.raises(ValueError):
        derived_family(fam, 1)


def test_derived_members_stay_normalized():
    fam = PolyFamily([h3_map(x1=tpow(2), z=tpow(3)), h3_map(y1=tpow(1))])
    for phi in derived_family(fam, pivot(fam)):
        assert phi.fixes_time_origin()


def test_descent_lemma_on_generated_families():
    rng = random.Random(13)
    pool = [
        h3_map(x1=tpow(1)),
        h3_map(x1=tpow(2)),
        h3_map(y1=tpow(1)),
        h3_map(y1=tpow(2), z=tpow(1)),
        h3_map(z=tpow(2)),
        h3_map(x1=2 * tpow(1)),
    ]
    for _ in range(12):
        members = rng.sample(pool, rng.randint(1, 3))
        fam = PolyFamily(members)
        derived = derived_family(fam, pivot(fam))
        assert family_precedes(derived, fam)


def test_lt_equivalence_is_an_equivalence_relation():
    pool = [
        h3_map(x1=tpow(1)),
        h3_map(x1=tpow(1), z=tpow(2)),
        h3_map(x1=2 * tpow(1)),
        h3_map(y1=tpow(1)),
    ]
    for phi in pool:
        assert lt_equivalent(phi, phi)
    for phi, psi in itertools.product(pool, repeat=2):
        assert lt_equivalent(phi, psi) == lt_equivalent(psi, phi)
    for phi, psi, chi in itertools.product(pool, repeat=3):
        if lt_equivalent(phi, psi) and lt_equivalent(psi, chi):
            assert lt_equivalent(phi, chi)


# ----------------------------------------------------------------------
# trace


def members_total(members):
    return sum(mult for _, mult in members)


def as_family(members):
    """Flatten a multiset level back into an ordered family."""
    return PolyFamily([phi for phi, mult in members for _ in range(mult)])


def test_trace_immediate_base_case():
    trace = pet_trace(PolyFamily([h3_map(x1=tpow(1))]))
    assert trace.depth == 0
    assert members_total(trace.final_family) == 1


def test_trace_two_member_family():
    fam = PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=2 * tpow(1))])
    trace = pet_trace(fam)
    assert trace.depth >= 1
    first = trace.steps[0]
    assert first.pivot_index == 0
    assert first.pivot_member == 0
    assert first.certificate == {
        "kind": "weight_descent",
        "weight": [1, 1],
        "before": 2,
        "after": 1,
    }


def test_trace_merges_repeated_members():
    phi = h3_map(x1=tpow(1))
    trace = pet_trace(PolyFamily([phi, phi]))
    assert trace.depth == 1
    step = trace.steps[0]
    assert len(step.family) == 1
    assert step.family[0][1] == 2
    assert step.class_cardinalities == (2,)
    assert members_total(trace.final_family) == 0


def test_trace_three_member_family_terminates_with_certificates():
    fam = PolyFamily(
        [h3_map(x1=tpow(1)), h3_map(y1=tpow(1)), h3_map(x1=tpow(1), y1=tpow(1))]
    )
    trace = pet_trace(fam, max_depth=40)
    assert members_total(trace.final_family) <= 1
    assert trace.depth >= 3
    for step in trace.steps:
        assert step.certificate["kind"] in ("weight_descent", "class_size_descent")
        assert family_precedes(as_family(step.derived), as_family(step.family))


def test_trace_descends_through_layers():
    fam = PolyFamily([h3_map(z=tpow(2)), h3_map(x1=tpow(1))])
    trace = pet_trace(fam, max_depth=40)
    assert members_total(trace.final_family) <= 1
    assert trace.steps[0].pivot_index == 0
    weights = [step.certificate for step in trace.steps]
    assert all(c["kind"] in ("weight_descent", "class_size_descent") for c in weights)


def test_trace_drops_constant_members():
    fam = PolyFamily([PolyMap.constant_identity(H3, ("t",)), h3_map(x1=tpow(1))])
    trace = pet_trace(fam)
    assert trace.depth == 0
    assert trace.final_dropped == 1


def test_trace_depth_cap():
    fam = PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=2 * tpow(1))])
    with pytest.raises(TruncationError):
        pet_trace(fam, max_depth=0)


def test_trace_refuses_negative_depth():
    # refused before any work, even for a family that is already done
    for fam in (PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=2 * tpow(1))]), PolyFamily([h3_map(x1=tpow(1))])):
        with pytest.raises(ValueError, match="max_depth"):
            pet_trace(fam, max_depth=-1)


def test_trace_json_document():
    fam = PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=2 * tpow(1))])
    trace = pet_trace(fam)
    doc = trace_to_json_dict(trace)
    assert doc["depth"] == trace.depth
    assert doc["algebra"]["labels"] == ["x1", "y1", "z"]
    step = doc["steps"][0]
    assert set(step) == {
        "family",
        "dropped",
        "classes",
        "class_cardinalities",
        "assignment",
        "pivot",
        "pivot_member",
        "derived",
        "certificate",
    }
    assert step["assignment"] == [[1, 1, 2]]
    assert step["family"][0]["multiplicity"] == 1
