"""Acceptance suite: one test per exit criterion, each printed as a
single PASS/FAIL line with its runtime.  Values are exact rationals
unless stated otherwise; every criterion also enforces its time budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from designbench import casebase as cb
from designbench import classify
from designbench import funcstruct as fs
from designbench import grammar as gr
from designbench import novelty
from designbench import synth
from designbench.domains import IntervalDomain, SetDomain
from designbench.novelty import DesignCategory, DesignInstance, DesignVariable, KnowledgeBase

from conftest import load_fixture_bytes, random_structure, relabel_structure
from oracles import chain_sat, enumerate_designs


@contextmanager
def criterion(number: int, title: str, limit_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < limit_seconds, \
        f"criterion {number} exceeded its {limit_seconds}s budget ({elapsed:.1f}s)"
    print(f"criterion {number} ({title}): PASS [{elapsed:.2f}s]")


def test_criterion_1_interdependency_exactness():
    with criterion(1, "interdependency index exactness", 1.0):
        subtractor = fs.parse_structure(load_fixture_bytes("full_subtractor.fs.json"))
        assert fs.interdependency_index(subtractor) == Fraction(5, 7)

        winder = fs.parse_structure(load_fixture_bytes("coil_winder.fs.json"))
        assert len(winder.vertices) == 28
        assert sum(1 for v in winder.vertices if fs.degree(winder, v.id) > 2) == 12
        assert fs.interdependency_index(winder) == Fraction(3, 7)

        bridge = fs.parse_structure(load_fixture_bytes("bridge.fs.json"))
        assert fs.interdependency_index(bridge) == Fraction(1)

        rope = fs.parse_structure(load_fixture_bytes("rope.fs.json"))
        assert fs.interdependency_index(rope) == Fraction(0)


def test_criterion_2_circuit_synthesis():
    with criterion(2, "circuit synthesis at desk scale", 60.0):
        requirement = synth.parse_requirement(load_fixture_bytes("subtractor.req.json"))

        circuit = synth.synthesize_topology(requirement, 7)
        assert circuit is not None
        assert len(circuit.gates) <= 7
        for in_bits, out_bits in requirement.rows:
            assert synth.evaluate(circuit, in_bits) == out_bits

        standard = synth.parse_topology(load_fixture_bytes("subtractor.topo.json"))
        fixed = synth.synthesize_assignment(standard, requirement)
        assert fixed is not None
        structure = synth.to_function_structure(fixed, requirement.outputs)
        assert fs.interdependency_index(structure) == Fraction(5, 7)


def test_criterion_3_synthesis_oracle_equivalence():
    with criterion(3, "SAT/UNSAT equivalence with brute-force enumerator", 60.0):
        for max_gates in (1, 2, 3):
            for table in range(16):
                rows = tuple(
                    (((r >> 1) & 1, r & 1), ((table >> r) & 1,)) for r in range(4)
                )
                requirement = synth.Requirement(("a", "b"), ("y",), rows)
                target = requirement.target_vectors()[0]
                verdict = synth.synthesize_topology(requirement, max_gates) is not None
                assert verdict == chain_sat(2, target, max_gates), \
                    f"table {table:04b}, max_gates {max_gates}"


def test_criterion_4_grammar_determinism_and_validity():
    with criterion(4, "grammar generation vs derivation enumerator", 10.0):
        shaft = gr.parse_grammar(load_fixture_bytes("shaft.grammar.json"))

        result = gr.generate(shaft, 3, 10_000)
        oracle = enumerate_designs(shaft, 3)
        assert sorted(g.canonical for g in result.designs) == \
            sorted(gr.canonical_form(d) for d in oracle)

        for entry in result.designs:
            assert not shaft.vocabulary.check_design(entry.design)

        def as_bytes(run: gr.GenerationResult) -> bytes:
            return json.dumps(
                [
                    {"canonical": g.canonical.decode("utf-8"),
                     "design": gr.design_to_dict(g.design),
                     "derivation": [s.rule for s in g.derivation.steps]}
                    for g in run.designs
                ],
                sort_keys=True,
            ).encode("utf-8")

        assert as_bytes(gr.generate(shaft, 3, 10_000)) == \
            as_bytes(gr.generate(shaft, 3, 10_000))


def test_criterion_5_novelty_metrics():
    with criterion(5, "innovation and creativity fixtures", 1.0):
        helicopter = novelty.parse_knowledge_base(load_fixture_bytes("helicopter.kb.json"))
        quadrocopter = novelty.parse_design_instance(
            load_fixture_bytes("quadrocopter.design.json"))
        report = novelty.assess(helicopter, quadrocopter)
        assert report.innovation == Fraction(1)
        assert report.category is DesignCategory.INNOVATIVE

        signal = novelty.parse_knowledge_base(
            load_fixture_bytes("signal_transmission.kb.json"))
        radio = novelty.parse_design_instance(load_fixture_bytes("radio.design.json"))
        report = novelty.assess(signal, radio)
        assert report.creativity == Fraction(1, 3)
        assert report.category is DesignCategory.CREATIVE

        for kb, design in ((helicopter, quadrocopter), (signal, radio)):
            grown = novelty.absorb(kb, design)
            assert novelty.assess(grown, design, feasible=True).category \
                is DesignCategory.ROUTINE


def test_criterion_6_cbr_properties():
    with criterion(6, "similarity properties and retrieval oracle", 5.0):
        spec = cb.SimilaritySpec()
        rng = random.Random(2024)
        for _ in range(100):
            a, b = random_structure(rng), random_structure(rng)
            assert cb.structure_similarity(spec, a, a) == 1
            assert cb.structure_similarity(spec, b, b) == 1
            assert cb.structure_similarity(spec, a, b) == \
                cb.structure_similarity(spec, b, a)

        base = cb.parse_case_base(load_fixture_bytes("winder_cases.cases.json"))
        winder = fs.parse_structure(load_fixture_bytes("coil_winder.fs.json"))

        def oracle_score(query, case_problem) -> Fraction:
            def jaccard(x: Counter, y: Counter) -> Fraction:
                union = sum((x | y).values())
                return Fraction(1) if union == 0 else Fraction(sum((x & y).values()), union)

            functions = jaccard(Counter(v.label for v in query.vertices),
                                Counter(v.label for v in case_problem.vertices))
            flows = jaccard(Counter(f.label for f in query.flows),
                            Counter(f.label for f in case_problem.flows))
            gap = abs(fs.interdependency_index(query)
                      - fs.interdependency_index(case_problem))
            return (spec.function_weight * functions + spec.flow_weight * flows
                    + spec.structure_weight * (1 - gap))

        expected = sorted(
            ((c.id, oracle_score(winder, c.problem)) for c in base.cases),
            key=lambda pair: (-pair[1], pair[0]),
        )
        assert cb.retrieve(base, spec, winder, len(base)).ranked == tuple(expected)


def test_criterion_7_classification_gap():
    with criterion(7, "no method reaches creative profiles", 1.0):
        matrix = classify.default_matrix()
        for decomposable, category in product(
            (True, False),
            (DesignCategory.ROUTINE, DesignCategory.INNOVATIVE, DesignCategory.CREATIVE),
        ):
            profile = classify.ProblemProfile(
                decomposable, Fraction(1, 2) if decomposable else None, category
            )
            report = classify.recommend(profile, matrix)
            assert len(report.entries) == 3
            if category is DesignCategory.CREATIVE:
                assert report.applicable() == ()


def test_criterion_8_invariant_suite():
    with criterion(8, "randomised invariants", 30.0):
        # PI bounds and relabelling invariance on 500 random DAGs
        rng = random.Random(77)
        for _ in range(500):
            structure = random_structure(rng)
            pi = fs.interdependency_index(structure)
            assert 0 <= pi <= 1
            assert pi == fs.interdependency_index(relabel_structure(rng, structure))

        # I + C <= 1 on randomised KB/design pairs
        scalar = st.one_of(st.integers(-9, 9), st.text(max_size=4), st.booleans())
        domains = st.one_of(
            st.lists(scalar, min_size=1, max_size=3).map(lambda xs: SetDomain(tuple(xs))),
            st.tuples(st.integers(-5, 5), st.integers(0, 5)).map(
                lambda p: IntervalDomain(p[0], p[0] + p[1])
            ),
        )
        kbs = st.dictionaries(st.text(min_size=1, max_size=3), domains, max_size=4).map(
            lambda d: KnowledgeBase(tuple(DesignVariable(n, dom) for n, dom in d.items()))
        )
        instances = st.dictionaries(st.text(min_size=1, max_size=3), scalar,
                                    min_size=1, max_size=5).map(DesignInstance.from_mapping)

        @settings(max_examples=200, deadline=None)
        @given(kbs, instances)
        def bounded(kb, design):
            report = novelty.assess(kb, design, feasible=True)
            assert 0 <= report.innovation + report.creativity <= 1

        bounded()

        # every fixture rule application leaves no dangling edge
        for name in ("shaft.grammar.json", "gearbox.grammar.json"):
            grammar = gr.parse_grammar(load_fixture_bytes(name))
            designs = [g.design for g in gr.generate(grammar, 2, 200).designs]
            applications = 0
            for design in designs:
                for rule in grammar.rules:
                    for match in gr.find_matches(rule, design):
                        rewritten = gr.apply(rule, design, match, grammar.vocabulary)
                        node_ids = {n.id for n in rewritten.nodes}
                        for edge in rewritten.edges:
                            assert edge.source in node_ids
                            assert edge.target in node_ids
                        applications += 1
            assert applications > 0
