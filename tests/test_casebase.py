import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from designbench import casebase as cb
from designbench import funcstruct as fs
from conftest import load_fixture_bytes, random_structure
import oracles

# Hand-evaluated winder-vs-fishing-reel similarity under default weights:
#   function labels: 3 shared of 28 + 7       -> 3/32
#   flow labels:     5 shared of 38 + 9 - 5   -> 5/42
#   PI gap:          |3/7 - 1/7|              -> 1 - 2/7 = 5/7
#   1/2 * 3/32 + 3/10 * 5/42 + 1/5 * 5/7 = 101/448
WINDER_REEL_SIMILARITY = Fraction(101, 448)


@pytest.fixture(scope="module")
def base():
    return cb.parse_case_base(load_fixture_bytes("winder_cases.cases.json"))


@pytest.fixture(scope="module")
def winder():
    return fs.parse_structure(load_fixture_bytes("coil_winder.fs.json"))


@pytest.fixture(scope="module")
def spec():
    return cb.SimilaritySpec()


def tiny_structure(labels, flow_label):
    """A linear chain with the given vertex labels (PI = 0)."""
    vertices = tuple(fs.FunctionVertex(f"v{i}", lab) for i, lab in enumerate(labels))
    terminals = (fs.BoundaryTerminal("i", "input", flow_label),
                 fs.BoundaryTerminal("o", "output", flow_label))
    flows = [fs.Flow("i", "v0", flow_label)]
    flows += [fs.Flow(f"v{i}", f"v{i+1}", flow_label) for i in range(len(labels) - 1)]
    flows.append(fs.Flow(f"v{len(labels)-1}", "o", flow_label))
    return fs.FunctionStructure(vertices, terminals, tuple(flows))


class TestSimilarity:
    def test_identical_structures_score_one(self, spec, winder):
        case = cb.Case("self", winder, cb.Solution("itself"))
        assert cb.similarity(spec, winder, case) == 1

    def test_disjoint_labels_and_full_pi_gap_score_zero(self, spec):
        # chain: PI 0, labels {alpha}; single busy vertex: PI 1, labels {omega}
        query = tiny_structure(["alpha"], "water")
        busy = fs.FunctionStructure(
            (fs.FunctionVertex("z", "omega"),),
            (fs.BoundaryTerminal("i1", "input", "oil"),
             fs.BoundaryTerminal("i2", "input", "gas"),
             fs.BoundaryTerminal("o1", "output", "smoke")),
            (fs.Flow("i1", "z", "oil"), fs.Flow("i2", "z", "gas"),
             fs.Flow("z", "o1", "smoke")),
        )
        assert cb.similarity(spec, query, cb.Case("busy", busy, cb.Solution(""))) == 0

    def test_winder_vs_fishing_reel_regression_value(self, spec, base, winder):
        reel = base.case("fishing_reel")
        assert oracles.structure_similarity(spec, winder, reel.problem) == WINDER_REEL_SIMILARITY
        assert cb.similarity(spec, winder, reel) == WINDER_REEL_SIMILARITY

    def test_similarity_matches_oracle_on_fixture_base(self, spec, base, winder):
        for case in base.cases:
            assert cb.similarity(spec, winder, case) == \
                oracles.structure_similarity(spec, winder, case.problem)

    def test_symmetry_and_bounds_on_random_pairs(self, spec):
        rng = random.Random(21)
        for _ in range(40):
            a, b = random_structure(rng), random_structure(rng)
            ab = cb.structure_similarity(spec, a, b)
            assert ab == cb.structure_similarity(spec, b, a)
            assert 0 <= ab <= 1
            assert cb.structure_similarity(spec, a, a) == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            cb.SimilaritySpec(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))

    def test_float_weights_rejected(self):
        with pytest.raises(ValueError, match="integers or Fractions"):
            cb.SimilaritySpec(0.5, 0.3, 0.2)

    def test_bool_weight_rejected(self):
        with pytest.raises(ValueError, match="integers or Fractions"):
            cb.SimilaritySpec(True, Fraction(0), Fraction(0))

    def test_integer_weights_accepted(self):
        assert cb.SimilaritySpec(1, 0, 0) == cb.SimilaritySpec(Fraction(1), Fraction(0),
                                                                Fraction(0))

    def test_simspec_fixture_parses_exactly(self):
        spec = cb.parse_similarity_spec(load_fixture_bytes("default.simspec.json"))
        assert spec == cb.SimilaritySpec(Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))


class TestRetrieve:
    def test_query_itself_ranks_first_with_one(self, spec, base, winder):
        grown = cb.retain(base, cb.Case("the_query", winder, cb.Solution("as is")))
        result = cb.retrieve(grown, spec, winder, 1)
        assert result.ranked[0] == ("the_query", Fraction(1))

    def test_k_larger_than_base_ranks_everything(self, spec, base, winder):
        result = cb.retrieve(base, spec, winder, 99)
        assert len(result.ranked) == len(base)

    def test_ranking_matches_brute_force_sort(self, spec, base, winder):
        scores = [(c.id, oracles.structure_similarity(spec, winder, c.problem))
                  for c in base.cases]
        scores.sort(key=lambda pair: (-pair[1], pair[0]))
        assert cb.retrieve(base, spec, winder, len(base)).ranked == tuple(scores)

    def test_scores_non_increasing(self, spec, base, winder):
        ranked = cb.retrieve(base, spec, winder, len(base)).ranked
        assert all(a[1] >= b[1] for a, b in zip(ranked, ranked[1:]))

    def test_empty_base_rejected(self, spec, winder):
        with pytest.raises(cb.EmptyCaseBaseError):
            cb.retrieve(cb.CaseBase(), spec, winder, 1)

    def test_k_below_one_rejected(self, spec, base, winder):
        with pytest.raises(ValueError):
            cb.retrieve(base, spec, winder, 0)

    def test_ties_break_by_case_id(self, spec):
        query = tiny_structure(["alpha"], "water")
        twin = tiny_structure(["alpha"], "water")
        base = cb.CaseBase((cb.Case("zeta", twin, cb.Solution("")),
                            cb.Case("beta", twin, cb.Solution(""))))
        ranked = cb.retrieve(base, spec, query, 2).ranked
        assert [cid for cid, _ in ranked] == ["beta", "zeta"]


class TestReuse:
    def test_identical_case_with_full_component_cover_has_no_gaps(self):
        query = tiny_structure(["wind wire", "guide wire"], "wire")
        case = cb.Case(
            "same", query,
            cb.Solution("complete", (cb.Component("winder head", "wind wire"),
                                     cb.Component("guide arm", "guide wire"))),
        )
        draft = cb.reuse(case, query)
        assert draft.gaps == ()
        assert all(m.subfunction is not None for m in draft.mappings)

    def test_no_shared_labels_leaves_all_gaps(self, base):
        query = tiny_structure(["paint hull", "dry hull"], "paint")
        draft = cb.reuse(base.case("clock"), query)
        assert set(draft.gaps) == {"paint hull", "dry hull"}
        assert all(m.subfunction is None for m in draft.mappings)

    def test_wind_wire_maps_to_reel_winding_component(self, base, winder):
        draft = cb.reuse(base.case("fishing_reel"), winder)
        mapping = {m.component.name: m.subfunction for m in draft.mappings}
        assert mapping["rotating spool"] == "wind wire"
        assert mapping["crank handle"] == "convert human energy"
        assert "wind wire" not in draft.gaps

    def test_mapping_is_one_to_one(self, base, winder):
        draft = cb.reuse(base.case("fishing_reel"), winder)
        assigned = [m.subfunction for m in draft.mappings if m.subfunction]
        assert len(assigned) == len(set(assigned))


class TestRevise:
    def test_empty_requirements_keep_draft(self, base, winder):
        draft = cb.reuse(base.case("fishing_reel"), winder)
        revised = cb.revise(draft, [])
        assert revised.checks == ()
        assert revised.open_tasks == ()
        assert revised.draft == draft

    def test_missing_bobbin_clamp_opens_task(self, base, winder):
        draft = cb.reuse(base.case("fishing_reel"), winder)
        revised = cb.revise(draft, [cb.Requirement("secure the bobbin",
                                                   cb.has_component("bobbin clamp"))])
        assert revised.open_tasks == ("secure the bobbin",)

    def test_two_of_three_requirements_satisfiable(self, base, winder):
        draft = cb.reuse(base.case("fishing_reel"), winder)
        revised = cb.revise(draft, [
            cb.Requirement("has a crank", cb.has_component("crank")),
            cb.Requirement("can wind", cb.serves_function("wind wire")),
            cb.Requirement("has a bobbin clamp", cb.has_component("bobbin clamp")),
        ])
        assert [c.satisfied for c in revised.checks] == [True, True, False]
        assert revised.open_tasks == ("has a bobbin clamp",)

    def test_min_components_predicate(self):
        big_enough = cb.min_components(2)
        assert big_enough((cb.Component("a"), cb.Component("b")))
        assert not big_enough((cb.Component("a"),))


class TestIdIndex:
    def test_an_unknown_id_is_a_key_error_of_that_id(self, base):
        with pytest.raises(KeyError) as err:
            base.case("no_such_case")
        assert err.value.args == ("no_such_case",)

    def test_duplicate_ids_are_rejected(self, base):
        with pytest.raises(cb.DuplicateCaseError) as err:
            cb.CaseBase((*base.cases, base.cases[0]))
        assert str(err.value) == "case ids must be unique"

    def test_a_base_with_its_index_built_equals_a_fresh_one(self, base):
        assert base.case("clock").id == "clock"
        assert "_by_id" in vars(base)
        assert cb.CaseBase(base.cases) == base

    def test_copies_keep_working_lookups(self, base, winder):
        for twin in (pickle.loads(pickle.dumps(base)), copy.copy(base), copy.deepcopy(base)):
            assert twin == base
            assert [twin.case(c.id) for c in base.cases] == list(base.cases)
            with pytest.raises(cb.DuplicateCaseError):
                cb.retain(twin, cb.Case("clock", winder, cb.Solution("")))

    def test_copies_hold_no_index_until_first_lookup(self, base):
        assert "_by_id" in vars(base)
        for twin in (pickle.loads(pickle.dumps(base)), copy.copy(base), copy.deepcopy(base)):
            assert vars(twin) == {"cases": base.cases}
            assert twin.case("clock") == base.case("clock")
            assert vars(twin)["_by_id"] == base._by_id


class TestRetain:
    def test_retain_then_retrieve_scores_one(self, spec, base):
        query = tiny_structure(["cool drink"], "drink")
        case = cb.Case("cooler", query, cb.Solution("a cooler"))
        grown = cb.retain(base, case)
        result = cb.retrieve(grown, spec, query, 1)
        assert result.ranked[0] == ("cooler", Fraction(1))

    def test_retain_into_empty_base(self, winder):
        base = cb.retain(cb.CaseBase(), cb.Case("only", winder, cb.Solution("")))
        assert len(base) == 1

    def test_duplicate_id_rejected(self, base, winder):
        with pytest.raises(cb.DuplicateCaseError):
            cb.retain(base, cb.Case("clock", winder, cb.Solution("")))

    def test_retain_preserves_unrelated_rankings(self, spec, base, winder):
        before = cb.retrieve(base, spec, winder, 2).ranked
        unrelated = tiny_structure(["stack chairs"], "chairs")
        grown = cb.retain(base, cb.Case("chair_stacker", unrelated, cb.Solution("")))
        after = cb.retrieve(grown, spec, winder, 2).ranked
        assert before == after

    def test_invalid_case_problem_rejected_at_parse(self):
        import json
        doc = [{
            "id": "broken",
            "problem": {
                "kind": "structure",
                "vertices": [{"id": "a", "label": "x"}, {"id": "b", "label": "y"}],
                "terminals": [],
                "flows": [
                    {"source": "a", "target": "b", "label": "m"},
                    {"source": "b", "target": "a", "label": "m"},
                ],
            },
            "solution": {"description": "", "components": []},
        }]
        with pytest.raises(fs.SchemaError) as err:
            cb.parse_case_base(json.dumps(doc).encode())
        assert "cycle" in str(err.value)

    @pytest.mark.parametrize("serves", [None, 3, ["wind line"]],
                             ids=["null", "number", "array"])
    def test_non_string_serves_rejected_at_parse(self, serves):
        import json
        doc = json.loads(load_fixture_bytes("winder_cases.cases.json"))
        doc[0]["solution"]["components"][1]["serves"] = serves
        with pytest.raises(fs.SchemaError) as err:
            cb.parse_case_base(json.dumps(doc).encode())
        assert str(err.value) == \
            "$[0].solution.components[1].serves: 'serves' must be a string"

    def test_missing_serves_reads_as_empty_label(self):
        import json
        doc = json.loads(load_fixture_bytes("winder_cases.cases.json"))
        del doc[0]["solution"]["components"][1]["serves"]
        case = cb.parse_case_base(json.dumps(doc).encode()).cases[0]
        assert case.solution.components[1].serves == ""

    def test_directly_built_cyclic_case_still_fails_retrieval(self, spec, base, winder):
        s = tiny_structure(["wind", "clamp"], "wire")
        cyclic = fs.FunctionStructure(
            s.vertices, s.terminals, s.flows + (fs.Flow("v1", "v0", "wire"),))
        grown = cb.retain(base, cb.Case("loop", cyclic, cb.Solution("")))
        for _ in range(2):  # caching must never skip the check
            with pytest.raises(fs.InvalidStructureError):
                cb.retrieve(grown, spec, winder, 1)
            with pytest.raises(fs.InvalidStructureError):
                cb.retrieve(base, spec, cyclic, 1)

    def test_repeated_retrieval_over_grown_base_matches_oracle(self, spec, base):
        rng = random.Random(31)
        grown, queries = base, []
        for i in range(40):
            if queries and rng.random() < 0.3:
                query = rng.choice(queries)
            else:
                query = random_structure(rng)
                queries.append(query)
            for _ in range(2):
                expected = sorted(
                    ((c.id, oracles.structure_similarity(spec, query, c.problem))
                     for c in grown.cases),
                    key=lambda pair: (-pair[1], pair[0]))
                assert cb.retrieve(grown, spec, query, len(grown)).ranked == tuple(expected)
            grown = cb.retain(grown, cb.Case(f"query-{i}", query, cb.Solution("")))

    def test_retain_never_lowers_best_score(self, spec, base, winder):
        best_before = cb.retrieve(base, spec, winder, 1).ranked[0][1]
        grown = cb.retain(base, cb.Case("noise", tiny_structure(["x"], "y"),
                                        cb.Solution("")))
        best_after = cb.retrieve(grown, spec, winder, 1).ranked[0][1]
        assert best_after >= best_before


# ---------------------------------------------------------------------------
# The integer kernel, top-k selection and tokenise-once reuse against the
# oracles' term-by-term formulas

WEIGHT_SPECS = [
    cb.SimilaritySpec(),
    cb.SimilaritySpec(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    cb.SimilaritySpec(Fraction(1), Fraction(0), Fraction(0)),
    cb.SimilaritySpec(Fraction(0), Fraction(0), Fraction(1)),
    cb.SimilaritySpec(Fraction(7, 11), Fraction(3, 11), Fraction(1, 11)),
]


def with_parallel_flows(rng, structure):
    """The structure with some flows doubled (still valid, PI may rise)."""
    extra = tuple(f for f in structure.flows if rng.random() < 0.3)
    return fs.FunctionStructure(structure.vertices, structure.terminals,
                                structure.flows + extra)


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("spec", WEIGHT_SPECS, ids=str)
    def test_scores_equal_term_by_term_oracle(self, spec):
        rng = random.Random(53)
        pool = [random_structure(rng, max_vertices=rng.choice((3, 12)))
                for _ in range(30)]
        pool += [with_parallel_flows(rng, s) for s in pool[:10]]
        for _ in range(300):
            a, b = rng.choice(pool), rng.choice(pool)
            score = cb.structure_similarity(spec, a, b)
            expected = oracles.structure_similarity(spec, a, b)
            assert type(score) is Fraction and score == expected
            assert str(score) == str(expected)

    def test_top_k_is_prefix_of_brute_force_sort_with_ties(self, spec):
        rng = random.Random(59)
        shapes = [random_structure(rng) for _ in range(4)]
        ids = [f"case-{i:02d}" for i in range(24)]
        rng.shuffle(ids)
        base = cb.CaseBase(tuple(cb.Case(cid, shapes[i % len(shapes)], cb.Solution(""))
                                 for i, cid in enumerate(ids)))
        for query in shapes + [random_structure(rng) for _ in range(4)]:
            expected = sorted(
                ((c.id, oracles.structure_similarity(spec, query, c.problem))
                 for c in base.cases),
                key=lambda pair: (-pair[1], pair[0]))
            for k in (1, 2, 3, len(base)):
                assert cb.retrieve(base, spec, query, k).ranked == tuple(expected[:k])

    def test_reuse_equals_oracle_on_overlapping_words(self):
        rng = random.Random(61)
        words = ["wind", "wire", "guide", "spool", "clamp", "drive", "line", "coil"]

        def phrase():
            if rng.random() < 0.1:
                return rng.choice(["", "--", "?!"])  # no words at all
            return " ".join(rng.sample(words, rng.randint(1, 3))).title()

        for _ in range(200):
            shape = random_structure(rng)
            query = fs.FunctionStructure(
                tuple(fs.FunctionVertex(v.id, phrase()) for v in shape.vertices),
                shape.terminals, shape.flows)
            components = tuple(
                cb.Component(f"{phrase()} {i}", rng.choice(["", "", phrase()]))
                for i in range(rng.randint(0, 5)))
            case = cb.Case("c", shape, cb.Solution("d", components))
            draft = cb.reuse(case, query)
            expected = oracles.reuse(case, query)
            assert draft == expected
            assert [str(m.affinity) for m in draft.mappings] == \
                [str(m.affinity) for m in expected.mappings]


# ---------------------------------------------------------------------------
# Ranking by integer scores against the oracle's sort of every case by
# (-score, id)

K_CHOICES = {"1": lambda n: 1, "2": lambda n: 2, "3": lambda n: 3,
             "N-1": lambda n: max(1, n - 1), "N": lambda n: n,
             "N+7": lambda n: n + 7, "10**9": lambda n: 10 ** 9}


def shuffled_base(rng, shapes, size):
    """``size`` cases over the given shapes (so scores tie), with ids in a
    shuffled order that shares prefixes and mixes in non-ASCII text."""
    prefixes = ["c", "case-", "C", "z", "\u00e9"]
    ids = [rng.choice(prefixes) + str(i) for i in range(size)]
    rng.shuffle(ids)
    return cb.CaseBase(tuple(cb.Case(cid, rng.choice(shapes), cb.Solution("")) for cid in ids))


def outcome(run):
    try:
        result = run()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return result.ranked, [str(score) for _, score in result.ranked]


class TestRetrieveAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(WEIGHT_SPECS),
           st.integers(1, 24), st.integers(1, 4), st.sampled_from(sorted(K_CHOICES)))
    def test_ranking_and_score_text_equal_the_oracle(self, rng, spec, size, shape_count,
                                                      k_name):
        shapes = [random_structure(rng, max_vertices=rng.choice((3, 8)))
                  for _ in range(shape_count)]
        base = shuffled_base(rng, shapes, size)
        query = rng.choice(shapes + [random_structure(rng)])
        k = K_CHOICES[k_name](size)
        ranked = cb.retrieve(base, spec, query, k).ranked
        expected = oracles.retrieve(base, spec, query, k).ranked
        assert ranked == expected
        assert [str(score) for _, score in ranked] == [str(score) for _, score in expected]
        assert all(type(score) is Fraction for _, score in ranked)

    def test_large_base_half_retrieved(self, spec):
        rng = random.Random(67)
        shapes = [random_structure(rng) for _ in range(40)]
        base = shuffled_base(rng, shapes, 3000)
        for query in (shapes[0], random_structure(rng)):
            ranked = outcome(lambda: cb.retrieve(base, spec, query, 1500))
            assert len(ranked[0]) == 1500
            assert ranked == outcome(lambda: oracles.retrieve(base, spec, query, 1500))

    def test_errors_are_raised_in_the_same_order(self, spec, base, winder):
        s = tiny_structure(["wind", "clamp"], "wire")
        cyclic = fs.FunctionStructure(s.vertices, s.terminals,
                                      s.flows + (fs.Flow("v1", "v0", "wire"),))
        unknown = fs.FunctionStructure(s.vertices, s.terminals,
                                       s.flows + (fs.Flow("v1", "nowhere", "wire"),))
        bad = [cb.Case("loop", cyclic, cb.Solution("")),
               cb.Case("lost", unknown, cb.Solution(""))]
        cases = list(base.cases)
        bases = [
            cb.CaseBase(),
            base,
            cb.CaseBase((bad[0], *cases)),
            cb.CaseBase((*cases[:2], bad[1], *cases[2:])),
            cb.CaseBase((*cases, bad[0])),
            cb.CaseBase((*cases[:1], bad[1], *cases[1:], bad[0])),
        ]
        seen = set()
        for case_base in bases:
            for query in (winder, cyclic, unknown):
                for k in (-1, 0, 1, 2, len(case_base), 10 ** 9):
                    got = outcome(lambda: cb.retrieve(case_base, spec, query, k))
                    assert got == outcome(lambda: oracles.retrieve(case_base, spec, query, k))
                    seen.add(got[0] if isinstance(got[0], type) else "ranked")
        assert seen == {ValueError, cb.EmptyCaseBaseError, fs.InvalidStructureError, "ranked"}

    def test_serves_function_equals_the_affinity_predicate(self):
        rng = random.Random(71)
        words = ["wind", "wire", "guide", "spool", "Clamp", "line", "coil", "", "--", "?!"]

        def phrase():
            return " ".join(rng.sample(words, rng.randint(0, 3)))

        for _ in range(400):
            label = phrase()
            components = tuple(cb.Component(f"part {i}", phrase())
                               for i in range(rng.randint(0, 4)))
            expected = any(oracles.label_affinity(c.serves, label) > 0 for c in components)
            assert cb.serves_function(label)(components) is expected
