"""Weight bookkeeping, the family order, and the certified descent trace."""

import itertools
import random
from fractions import Fraction

import pytest

from nilflow.errors import TruncationError
from nilflow.lie_core import make_builtin
from nilflow.multipoly import MultiPoly
from nilflow.pet import (
    PETTrace,
    PolyFamily,
    Weight,
    _assignment_witness,
    _descending_key,
    _derive_members,
    _descent_certificate,
    _merge_members,
    _sorted_matching,
    derived_family,
    family_precedes,
    pet_trace,
    pivot,
    trace_to_json_dict,
    weight_less,
)
from nilflow.poly_maps import (
    LeadingTerm,
    PolyMap,
    check_time_origin,
    internal_class,
    leading_term,
    lt_equivalent,
)
from oracles import (
    derive_members_by_bch,
    lt_partition,
    pointwise_inverse,
    pointwise_product,
    weight,
    weight_assignment,
    weight_matching,
)

H3 = make_builtin("heisenberg", dim=3)
A2 = make_builtin("abelian", dim=2)
U4 = make_builtin("strictly_upper_triangular", n=4)


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
    # latest weight first, the order of the certificate's "assignment"
    assert list(weight_assignment(fam).items()) == [(Weight(1, 2), 1), (Weight(1, 1), 1)]
    same = PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=tpow(1))])
    assert weight_assignment(same) == {Weight(1, 1): 1}
    assert weight_assignment(PolyFamily([])) == {}


def test_assignment_comparison_scans_from_the_top():
    f = weight_assignment(PolyFamily([h3_map(x1=tpow(1))]))
    g = weight_assignment(PolyFamily([h3_map(x1=tpow(2))]))
    assert _assignment_witness(f, g) is not None
    assert _assignment_witness(g, f) is None
    assert _assignment_witness(f, f) is None


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
    derived = {w: [2]}
    current = {w: [3]}
    cert = _descent_certificate(derived, current)
    assert cert == {"kind": "class_size_descent", "per_weight": [[2, 1, [2], [3]]]}
    assert _descent_certificate(current, derived) is None
    assert _descent_certificate(current, current) is None


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
    for n, phi in enumerate(derived_family(fam, pivot(fam))):
        check_time_origin(phi, n)


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


def _random_member(rng, alg, variables, layers_from=1):
    """A map fixing e at time 0, on the layers from `layers_from` up, with
    few and small coefficients so that leading terms often coincide."""
    coords = []
    for layer in alg.layers:
        terms = {}
        if layer >= layers_from:
            for _ in range(rng.randint(0, 2)):
                exp = (rng.randint(1, 2),) + tuple(rng.randint(0, 1) for _ in variables[1:])
                terms[exp] = Fraction(rng.choice([1, 2]))
        coords.append(MultiPoly(variables, terms))
    return PolyMap(alg, variables, coords)


def test_leading_terms_key_their_classes():
    """Equal leading terms hash equal, and the classes of `lt_partition`
    are exactly those of `lt_equivalent`."""
    # equal, though the coefficient dicts were filled in different orders
    a = MultiPoly(("h",), {(1,): 1, (0,): 2})
    b = MultiPoly(("h",), {(0,): 2, (1,): 1})
    assert list(a.terms) != list(b.terms)
    assert LeadingTerm(1, 2, (a, b)) == LeadingTerm(1, 2, (b, a))
    assert hash(LeadingTerm(1, 2, (a, b))) == hash(LeadingTerm(1, 2, (b, a)))
    rng = random.Random(20261020)
    for alg in (H3, U4):
        for _ in range(40):
            variables = ("t",) + ("h",) * rng.randint(0, 1)
            members = [_random_member(rng, alg, variables) for _ in range(rng.randint(1, 4))]
            # an equivalent, unequal member: times a map on deeper layers only
            phi = rng.choice(members)
            if not phi.is_constant_identity() and internal_class(phi) < alg.step:
                deeper = _random_member(rng, alg, variables, internal_class(phi) + 1)
                members.append(pointwise_product(phi, deeper))
            fam = PolyFamily(members)
            parts = lt_partition(fam)
            label = {i: n for n, part in enumerate(parts) for i in part}
            assert sorted(label) == [i for i, phi in enumerate(fam) if not phi.is_constant_identity()]
            for i, j in itertools.product(label, repeat=2):
                assert lt_equivalent(fam[i], fam[j]) == (label[i] == label[j])
                if label[i] == label[j]:
                    assert hash(leading_term(fam[i])) == hash(leading_term(fam[j]))


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
    doc = trace_to_json_dict(trace, H3)
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
    # a member that one step derives and the next keeps is one object
    doc = trace_to_json_dict(pet_trace(PolyFamily([h3_map(x1=tpow(1)), h3_map(x1=tpow(2))])), H3)
    steps = doc["steps"]
    assert len(steps) >= 2
    for step, kept in zip(steps, [s["family"] for s in steps[1:]] + [doc["final_family"]]):
        assert all(any(m is d for d in step["derived"]) for m in kept)


def _composed_derivation(members, p):
    """A derived level as a composition of maps: phi(k) and phi(t + k) by
    `MultiPoly.substitute` per coordinate, then pointwise inverses and
    products.  A product keeps its first factor's domain, and t -> k drops t
    from it."""
    base = members[p][0]
    k = next(name for name in ("k", "k1", "k2", "k3") if name not in base.vars)
    new_vars = base.vars + (k,)

    def extended(phi):
        return PolyMap(H3, new_vars, [c.with_vars(new_vars) for c in phi.coords])

    def image(phi, linear, domain):
        return PolyMap(H3, new_vars, [c.substitute(new_vars, {"t": (0, linear)}) for c in phi.coords], domain=domain)

    inv_pivot = pointwise_inverse(extended(base))
    out = []
    for i, (phi, mult) in enumerate(members):
        if i != p:
            out.append((pointwise_product(extended(phi), inv_pivot), mult))
        elif mult > 1:
            out.append((PolyMap.constant_identity(H3, new_vars), mult - 1))
    for phi, mult in members:
        at_k = image(phi, {k: 1}, [v for v in phi.domain if v != "t"])
        shifted = image(phi, {"t": 1, k: 1}, phi.domain)
        out.append((pointwise_product(pointwise_product(pointwise_inverse(at_k), shifted), inv_pivot), mult))
    return out


def test_differencing_shifts_equal_substitution_with_domains():
    rng = random.Random(20261019)
    for n in range(60):
        # k and k1 among the variables move the fresh shift name on
        variables = ("t",) + tuple(rng.sample(["h0", "h1", "k", "h2", "k1", "h3"], rng.randint(0, 5)))
        members = []
        for _ in range(rng.randint(1, 3)):
            coords = [
                MultiPoly(
                    variables,
                    {
                        (rng.randint(1, 4),) + tuple(rng.randint(0, 2) for _ in variables[1:]):
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(rng.randint(0, 4))
                    },
                )
                for _ in range(3)
            ]
            domain = rng.sample(variables, rng.randint(0, len(variables)))
            members.append((PolyMap(H3, variables, coords, domain=domain), rng.randint(1, 2)))
        p = rng.randrange(len(members))
        if n % 4 == 0:
            # a pivot of multiplicity 2 leaves one identity for its sibling copy
            members[p] = (members[p][0], 2)
        got = _derive_members(members, p)
        want = _composed_derivation(members, p)
        assert len(got) == len(want)
        for (phi, mult), (psi, want_mult) in zip(got, want):
            assert mult == want_mult
            assert phi.vars == psi.vars
            assert phi.domain == psi.domain
            assert [c.terms for c in phi.coords] == [c.terms for c in psi.coords]


def _member_of_t_degree(rng, alg, variables, degree):
    """A member fixing e at time 0 whose terms have t-degree 1 to `degree`,
    with a term t^degree in one coordinate."""
    coords = []
    for _ in range(alg.dim):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exp = (rng.randint(1, degree),) + tuple(rng.randint(0, 1) for _ in variables[1:])
            terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        coords.append(MultiPoly(variables, terms))
    c = rng.randrange(alg.dim)
    top = MultiPoly(variables, {(degree,) + (0,) * (len(variables) - 1): rng.choice([-3, 1, 2])})
    coords[c] = coords[c] + top
    return PolyMap(alg, variables, coords, domain=rng.sample(variables, rng.randint(0, len(variables))))


@pytest.mark.parametrize(
    "kind, params",
    [
        ("heisenberg", {"dim": 3}),
        ("heisenberg", {"dim": 5}),
        ("strictly_upper_triangular", {"n": 4}),
        ("free_nilpotent", {"generators": 2, "step": 3}),
        ("abelian", {"dim": 2}),
    ],
)
def test_derivation_matches_the_bch_oracle(kind, params):
    """Shifted quotients reused for members linear in t agree, entry by
    entry, with the ones built by two shifts and two BCH products."""
    alg = make_builtin(kind, **params)
    rng = random.Random(f"{kind}-{sorted(params.items())}")
    linear = 0
    for n in range(8):
        variables = ("t",) + tuple(rng.sample(["h0", "k", "h1"], rng.randint(0, 2)))
        degrees = [1 if m % 2 == n % 2 else rng.choice([2, 2, 3]) for m in range(rng.randint(2, 4))]
        members = [(_member_of_t_degree(rng, alg, variables, d), rng.randint(1, 3)) for d in degrees]
        if n % 3 == 0:
            members.append((PolyMap.constant_identity(alg, variables), 1))
        p = rng.randrange(len(members))
        if n % 2 == 0:
            # further copies of the pivot, and a sibling equal to it
            members[p] = (members[p][0], rng.randint(2, 3))
            members.append((members[p][0], 1))
        linear += degrees.count(1)
        got = _derive_members(members, p)
        want = derive_members_by_bch(members, p)
        assert len(got) == len(want) == 2 * len(members) - (members[p][1] == 1)
        for (phi, mult), (psi, want_mult) in zip(got, want):
            assert mult == want_mult
            assert phi.vars == psi.vars
            assert phi.domain == psi.domain
            assert [c.terms for c in phi.coords] == [c.terms for c in psi.coords]
    assert linear >= 8


def test_merge_keys_compare_coefficients_exactly():
    """Equal Fractions built in different ways merge; one differing
    coefficient keeps two maps apart."""
    half = PolyMap(H3, ("t",), [MultiPoly(("t",), {(1,): Fraction(2, 4)}), MultiPoly(("t",), {(2,): 3}), MultiPoly(("t",))])
    same = PolyMap(H3, ("t",), [MultiPoly(("t",), {(1,): "1/2"}), MultiPoly(("t",), {(2,): Fraction(6, 2)}), MultiPoly(("t",))])
    other = PolyMap(H3, ("t",), [MultiPoly(("t",), {(1,): "1/2"}), MultiPoly(("t",), {(2,): "3/2"}), MultiPoly(("t",))])
    merged = _merge_members([(half, 1), (other, 2), (same, 3)])
    assert merged == [(half, 4), (other, 2)]
    assert merged[0][0] is half
