import copy
import json
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from designbench import novelty
from designbench.domains import (
    DescribedDomain,
    DomainUnion,
    IntervalDomain,
    SetDomain,
    TypeDomain,
    domain_from_dict,
    same_scalar,
)
from designbench.funcstruct import SchemaError
from designbench.novelty import (
    DesignCategory,
    DesignInstance,
    DesignVariable,
    KnowledgeBase,
    NoveltyReport,
)
from conftest import load_fixture_bytes
import oracles


@pytest.fixture
def helicopter_kb():
    return novelty.parse_knowledge_base(load_fixture_bytes("helicopter.kb.json"))


@pytest.fixture
def quadrocopter(helicopter_kb):
    return novelty.parse_design_instance(load_fixture_bytes("quadrocopter.design.json"))


@pytest.fixture
def signal_kb():
    return novelty.parse_knowledge_base(load_fixture_bytes("signal_transmission.kb.json"))


@pytest.fixture
def radio():
    return novelty.parse_design_instance(load_fixture_bytes("radio.design.json"))


class TestSetDomainMembers:
    @pytest.mark.parametrize("member,index", [([1, 2], 1), ({"a": 1}, 1), ([], 0)])
    def test_non_scalar_member_rejected(self, member, index):
        payload = [7, member] if index else [member, 7]
        with pytest.raises(SchemaError) as err:
            domain_from_dict({"set": payload}, "$.x")
        assert str(err.value) == f"$.x.set[{index}]: set members must be scalars"

    def test_knowledge_base_locates_member(self):
        kb = {"variables": [{"name": "rotor_count", "subfunction": "apply lift",
                             "domain": {"set": [1, [1, 2], {"a": 1}]}}]}
        with pytest.raises(SchemaError) as err:
            novelty.parse_knowledge_base(json.dumps(kb))
        assert str(err.value) == "$.variables[0].domain.set[1]: set members must be scalars"

    def test_every_scalar_kind_accepted(self):
        domain = domain_from_dict({"set": [None, True, 0, 1.5, "x"]}, "$")
        assert domain == SetDomain((None, True, 0, 1.5, "x"))

    @pytest.mark.parametrize("members, value, contained", [
        ((0, 1), True, False), ((0, 1), False, False), ((True,), 1, False),
        ((False,), 0, False), ((True, 2), True, True), ((1,), 1.0, True),
        ((1.0,), 1, True), ((0.0,), -0.0, True), ((-0.0,), 0, True),
        ((1,), "1", False), ((None,), None, True), ((None,), False, False),
        ((1,), [1], False),
    ])
    def test_membership_keeps_booleans_apart_and_numbers_equal(self, members, value, contained):
        assert SetDomain(members).contains(value) is contained
        # the scan the keyed lookup replaces
        assert any(same_scalar(m, value) for m in members) is contained

    def test_nan_is_in_no_set(self):
        nan = float("nan")
        assert not SetDomain((nan, 1.0)).contains(nan)
        assert not SetDomain((1.0,)).contains(nan)

    def test_copies_hold_no_keys_until_first_lookup(self):
        domain = SetDomain((1, True, "x"))
        assert domain.contains(True)
        assert "_keys" in vars(domain)
        for twin in (pickle.loads(pickle.dumps(domain)), copy.copy(domain),
                     copy.deepcopy(domain)):
            assert vars(twin) == {"values": domain.values}
            assert twin.contains(True) and twin.contains(1.0) and not twin.contains(0)


class TestDomainForms:
    def test_knowledge_base_parses_every_form(self):
        kb = novelty.parse_knowledge_base(json.dumps({"variables": [
            {"name": "count", "domain": {"set": [2, None, True]}},
            {"name": "span", "domain": {"interval": [0, 2.5]}},
            {"name": "flag", "domain": {"type": "bool"}},
            {"name": "fit", "domain": {"description": "fits the housing"}},
            {"name": "mixed", "domain": {"any_of": [
                {"type": "str"}, {"any_of": [{"interval": [1, 2]}, {"set": ["x"]}]}]}},
        ]}))
        assert [v.domain for v in kb.variables] == [
            SetDomain((2, None, True)),
            IntervalDomain(0, 2.5),
            TypeDomain("bool"),
            DescribedDomain("fits the housing"),
            DomainUnion((TypeDomain("str"),
                         DomainUnion((IntervalDomain(1, 2), SetDomain(("x",)))))),
        ]

    @pytest.mark.parametrize("domain, message", [
        ({"type": "complex"}, "$.x.type: unknown type 'complex'"),
        ({"type": ["int"]}, "$.x.type: unknown type ['int']"),
        ({"type": {"int": 1}}, "$.x.type: unknown type {'int': 1}"),
        ({"description": 3}, "$.x.description: expected a string"),
        ({"set": []}, "$.x.set: 'set' must not be empty"),
        ({"set": {"1": 1}}, "$.x.set: expected an array"),
        ({"any_of": []}, "$.x.any_of: 'any_of' must not be empty"),
        ({"any_of": {"set": [1]}}, "$.x.any_of: expected an array"),
        ({"any_of": [{"set": [1]}, {"type": "x"}]}, "$.x.any_of[1].type: unknown type 'x'"),
        ({"range": [0, 1]}, "$.x: unknown domain form 'range'"),
        ({"set": [1], "type": "int"}, "$.x: domain must be a one-key object"),
    ], ids=["unknown-type", "type-array", "type-object", "description-number",
            "set-empty", "set-object", "any-of-empty", "any-of-object", "any-of-nested", "unknown-form", "two-keys"])
    def test_malformed_form_is_a_located_schema_error(self, domain, message):
        with pytest.raises(SchemaError) as err:
            domain_from_dict(domain, "$.x")
        assert str(err.value) == message

    def test_widening_keeps_each_form_and_orders_set_members(self):
        assert TypeDomain("int").widen(3) == TypeDomain("int")
        assert TypeDomain("int").widen(True) == \
            DomainUnion((TypeDomain("int"), SetDomain((True,))))
        assert DescribedDomain("any").widen(None) == DescribedDomain("any")
        union = DomainUnion((TypeDomain("str"), SetDomain((1.5,))))
        assert union.widen("x") is union
        # members sort as None, booleans, numbers, strings
        assert union.widen(None).widen(False) == \
            DomainUnion((TypeDomain("str"), SetDomain((None, False, 1.5))))
        assert DomainUnion((IntervalDomain(0, 1),)).widen("x") == \
            DomainUnion((IntervalDomain(0, 1), SetDomain(("x",))))


def innovation(kb, design):
    return novelty.assess(kb, design, feasible=True).innovation


def creativity(kb, design):
    return novelty.assess(kb, design, feasible=True).creativity


def domains_by_name(kb):
    return {v.name: v.domain for v in kb.variables}


class TestInnovationIndex:
    def test_quadrocopter_breaks_both_constraints(self, helicopter_kb, quadrocopter):
        assert innovation(helicopter_kb, quadrocopter) == 1

    def test_all_values_expected(self, helicopter_kb):
        d = DesignInstance.from_mapping({"lift_device_count": 1, "torque_counter_count": 1})
        assert innovation(helicopter_kb, d) == 0

    def test_one_of_four_unexpected(self):
        kb = KnowledgeBase(tuple(
            DesignVariable(f"x{i}", SetDomain((0,))) for i in range(4)
        ))
        d = DesignInstance.from_mapping({"x0": 0, "x1": 0, "x2": 0, "x3": 5})
        assert innovation(kb, d) == Fraction(1, 4)


class TestCreativityIndex:
    def test_radio_medium_is_new(self, signal_kb, radio):
        assert creativity(signal_kb, radio) == Fraction(1, 3)

    def test_all_names_known(self, signal_kb):
        d = DesignInstance.from_mapping({"wire_gauge": 1.0, "lamp_power": 50})
        assert creativity(signal_kb, d) == 0

    def test_all_names_new(self, signal_kb):
        d = DesignInstance.from_mapping({"alpha": 1, "beta": 2})
        assert creativity(signal_kb, d) == 1


class TestAssess:
    def test_quadrocopter_is_innovative(self, helicopter_kb, quadrocopter):
        report = novelty.assess(helicopter_kb, quadrocopter)
        assert report.category is DesignCategory.INNOVATIVE
        assert report.innovation == 1
        assert report.creativity == 0
        assert set(report.unexpected) == {"lift_device_count", "torque_counter_count"}

    def test_radio_is_creative(self, signal_kb, radio):
        report = novelty.assess(signal_kb, radio)
        assert report.category is DesignCategory.CREATIVE
        assert report.creativity == Fraction(1, 3)
        assert report.new == ("medium",)

    def test_infeasible_is_not_valuable(self, helicopter_kb, quadrocopter):
        report = novelty.assess(helicopter_kb, quadrocopter, feasible=False)
        assert report.category is DesignCategory.NOT_VALUABLE

    def test_verdict_required(self, helicopter_kb):
        d = DesignInstance.from_mapping({"lift_device_count": 1})
        with pytest.raises(ValueError):
            novelty.assess(helicopter_kb, d)

    def test_new_names_never_count_as_unexpected(self, signal_kb, radio):
        report = novelty.assess(signal_kb, radio)
        assert not set(report.new) & set(report.unexpected)
        assert report.innovation == 0


class TestAbsorb:
    def test_absorbed_quadrocopter_becomes_routine(self, helicopter_kb, quadrocopter):
        grown = novelty.absorb(helicopter_kb, quadrocopter)
        report = novelty.assess(grown, quadrocopter, feasible=True)
        assert report.category is DesignCategory.ROUTINE
        assert report.innovation == 0 and report.creativity == 0

    def test_absorbing_routine_design_changes_nothing(self, helicopter_kb):
        d = DesignInstance.from_mapping({"lift_device_count": 1})
        assert novelty.absorb(helicopter_kb, d) == helicopter_kb

    def test_absorbing_radio_adds_medium(self, signal_kb, radio):
        grown = novelty.absorb(signal_kb, radio)
        assert domains_by_name(grown)["medium"].contains("radio_wave")

    def test_interval_widens_to_cover_value(self, signal_kb):
        d = DesignInstance.from_mapping({"wire_gauge": 9.0})
        grown = novelty.absorb(signal_kb, d)
        assert domains_by_name(grown)["wire_gauge"] == IntervalDomain(0.1, 9.0)

    def test_non_numeric_value_joins_interval_domain(self, signal_kb):
        d = DesignInstance.from_mapping({"wire_gauge": "superconducting tape"})
        grown = novelty.absorb(signal_kb, d)
        wire_gauge = domains_by_name(grown)["wire_gauge"]
        assert wire_gauge.contains("superconducting tape")
        assert wire_gauge.contains(1.0)


class TestNameIndex:
    def test_duplicate_names_are_rejected(self):
        with pytest.raises(ValueError) as err:
            KnowledgeBase((DesignVariable("a", SetDomain((1,))),
                           DesignVariable("a", SetDomain((2,)))))
        assert str(err.value) == "variable names must be unique within a knowledge base"

    def test_a_base_with_its_index_built_equals_a_fresh_one(self, signal_kb):
        assert "_by_name" in vars(signal_kb)
        fresh = KnowledgeBase(signal_kb.variables)
        assert fresh == signal_kb and hash(fresh) == hash(signal_kb)

    def test_copies_keep_working_lookups(self, signal_kb, radio):
        report, grown = novelty.assess(signal_kb, radio), novelty.absorb(signal_kb, radio)
        for twin in (pickle.loads(pickle.dumps(signal_kb)), copy.copy(signal_kb),
                     copy.deepcopy(signal_kb)):
            assert twin == signal_kb
            assert novelty.assess(twin, radio) == report
            assert novelty.absorb(twin, radio) == grown

    def test_copies_hold_no_index_until_first_lookup(self, signal_kb, radio):
        assert "_by_name" in vars(signal_kb)
        for twin in (pickle.loads(pickle.dumps(signal_kb)), copy.copy(signal_kb),
                     copy.deepcopy(signal_kb)):
            assert vars(twin) == {"variables": signal_kb.variables}
            assert novelty.assess(twin, radio) == novelty.assess(signal_kb, radio)
            assert vars(twin)["_by_name"] == signal_kb._by_name


# ---------------------------------------------------------------------------
# Property tests

# 1, 1.0 and True are equal in Python; a domain holds True apart from 1
scalar = st.one_of(
    st.none(),
    st.integers(-10, 10),
    st.floats(-10, 10, allow_nan=False),
    st.text(max_size=6),
    st.booleans(),
    st.sampled_from([1, 1.0, True]),
)

domains = st.recursive(
    st.one_of(
        st.lists(scalar, min_size=1, max_size=4).map(lambda xs: SetDomain(tuple(xs))),
        st.tuples(st.integers(-5, 5), st.integers(0, 5)).map(
            lambda pair: IntervalDomain(pair[0], pair[0] + pair[1])
        ),
        st.sampled_from(["bool", "int", "float", "str"]).map(TypeDomain),
        st.text(max_size=6).map(DescribedDomain),
    ),
    lambda parts: st.lists(parts, min_size=1, max_size=3).map(
        lambda ps: DomainUnion(tuple(ps))),
    max_leaves=6,
)

# few names, so that a design mostly assigns variables the knowledge base
# has, and absorbing it widens their domains
names = st.text(alphabet="abc", min_size=1, max_size=2)

kbs = st.dictionaries(names, st.tuples(domains, st.sampled_from([None, "lift"])), max_size=5).map(
    lambda d: KnowledgeBase(tuple(DesignVariable(n, *var) for n, var in d.items()))
)

instances = st.dictionaries(names, scalar, min_size=1, max_size=6).map(
    DesignInstance.from_mapping)


@given(kbs, instances)
def test_indices_bounded_and_disjoint(kb, design):
    report = novelty.assess(kb, design, feasible=True)
    assert 0 <= report.innovation <= 1
    assert 0 <= report.creativity <= 1
    assert report.innovation + report.creativity <= 1
    assert not set(report.unexpected) & set(report.new)


@given(kbs, instances)
def test_absorption_idempotence(kb, design):
    report = novelty.assess(novelty.absorb(kb, design), design, feasible=True)
    assert report.category is DesignCategory.ROUTINE


@given(kbs, instances)
def test_indices_ignore_assignment_order(kb, design):
    flipped = DesignInstance(tuple(reversed(design.assignments)), design.feasible)
    report = novelty.assess(kb, design, feasible=True)
    report_flipped = novelty.assess(kb, flipped, feasible=True)
    assert report.innovation == report_flipped.innovation
    assert report.creativity == report_flipped.creativity


@given(kbs, instances, st.booleans())
def test_exactly_one_category(kb, design, feasible):
    report = novelty.assess(kb, design, feasible=feasible)
    if not feasible:
        assert report.category is DesignCategory.NOT_VALUABLE
    elif report.creativity > 0:
        assert report.category is DesignCategory.CREATIVE
    elif report.innovation > 0:
        assert report.category is DesignCategory.INNOVATIVE
    else:
        assert report.category is DesignCategory.ROUTINE


@given(kbs, instances, st.booleans())
def test_assess_and_absorb_equal_their_definitions(kb, design, feasible):
    # repr, because == does not tell 1, 1.0 and True apart, nor a tuple
    # of names from a list
    report = novelty.assess(kb, design, feasible=feasible)
    expected = oracles.assess(kb, design, feasible)
    for field in fields(NoveltyReport):
        assert repr(getattr(report, field.name)) == repr(getattr(expected, field.name)), field
    assert repr(novelty.absorb(kb, design)) == repr(oracles.absorb(kb, design))
