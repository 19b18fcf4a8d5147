import copy
import dataclasses
import importlib.util
import json
import pickle
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from designbench import casebase as cb
from designbench import funcstruct as fs
from designbench import jsonio, synth
from conftest import FIXTURES, load_fixture_bytes, random_structure, relabel_structure
from oracles import check_structure, flow_scan_degrees, flow_scan_pi


def chain(n: int) -> fs.FunctionStructure:
    vertices = tuple(fs.FunctionVertex(f"v{i}", f"step {i}") for i in range(n))
    terminals = (
        fs.BoundaryTerminal("in0", "input", "material"),
        fs.BoundaryTerminal("out0", "output", "material"),
    )
    flows = [fs.Flow("in0", "v0", "material")]
    flows += [fs.Flow(f"v{i}", f"v{i+1}", "material") for i in range(n - 1)]
    flows.append(fs.Flow(f"v{n-1}", "out0", "material"))
    return fs.FunctionStructure(vertices, terminals, tuple(flows))


class TestValidate:
    def test_two_vertex_chain_is_valid(self):
        assert fs.validate(chain(2)).ok

    def test_two_cycle_reported(self):
        s = chain(2)
        cyclic = fs.FunctionStructure(
            s.vertices, s.terminals, s.flows + (fs.Flow("v1", "v0", "material"),)
        )
        assert "cycle" in {v.code for v in fs.validate(cyclic).violations}

    def test_vertex_without_output_path_reported(self):
        s = chain(2)
        dangling = fs.FunctionStructure(
            s.vertices + (fs.FunctionVertex("v9", "dead end"),),
            s.terminals,
            s.flows + (fs.Flow("v0", "v9", "material"),),
        )
        assert "off-path-vertex" in {v.code for v in fs.validate(dangling).violations}

    def test_terminal_to_terminal_flow_reported(self):
        s = chain(1)
        bad = fs.FunctionStructure(
            s.vertices, s.terminals, s.flows + (fs.Flow("in0", "out0", "material"),)
        )
        assert "terminal-terminal-flow" in {v.code for v in fs.validate(bad).violations}

    def test_duplicate_ids_reported(self):
        s = fs.FunctionStructure(
            (fs.FunctionVertex("v0", "a"), fs.FunctionVertex("v0", "b")),
            (), (),
        )
        assert "duplicate-id" in {v.code for v in fs.validate(s).violations}

    def test_input_terminal_with_inflow_reported(self):
        s = chain(1)
        bad = fs.FunctionStructure(
            s.vertices, s.terminals, s.flows + (fs.Flow("v0", "in0", "material"),)
        )
        assert "input-terminal-inflow" in {v.code for v in fs.validate(bad).violations}


def _load_bench_gen():
    """``bench/gen.py`` (the benchmark's seeded generators), loaded by path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hostile_structure(rng: random.Random) -> fs.FunctionStructure:
    """A random structure, mostly invalid: ids drawn from a small pool, so
    they repeat within and across vertices and terminals; terminal kinds
    that include ``None``, ``1`` and ``"weird"``; empty labels; flows
    between any two names of the pool or unknown names, self-loops and
    parallel flows included."""
    pool = [f"n{k}" for k in range(rng.randint(1, 8))]
    vertices = tuple(fs.FunctionVertex(rng.choice(pool), rng.choice(("", "x", "y")))
                     for _ in range(rng.randint(0, 6)))
    terminals = tuple(
        fs.BoundaryTerminal(rng.choice(pool),
                            rng.choice(("input", "output", "input", "output", None, 1, "weird")),
                            rng.choice(("", "e")))
        for _ in range(rng.randint(0, 4))
    )
    names = pool + ["ghost", "other"]
    flows = tuple(fs.Flow(rng.choice(names), rng.choice(names), rng.choice(("", "m", "s")))
                  for _ in range(rng.randint(0, 12)))
    return fs.FunctionStructure(vertices, terminals, flows)


class TestValidateAgainstOracle:
    """``validate`` gives the report of the oracle's invariants, one
    comprehension each: the same violations, messages and order."""

    @staticmethod
    def same(s: fs.FunctionStructure) -> fs.ValidationReport:
        report = fs.validate(s)
        assert report == check_structure(s)
        return report

    def test_random_hostile_structures(self):
        rng = random.Random(1203)
        seen: set[str] = set()
        for _ in range(5000):
            seen |= {v.code for v in self.same(hostile_structure(rng)).violations}
        assert seen == {"duplicate-id", "bad-terminal-kind", "empty-label", "no-vertices",
                        "unknown-endpoint", "terminal-terminal-flow", "input-terminal-inflow",
                        "output-terminal-outflow", "cycle", "off-path-vertex"}

    def test_id_both_vertex_and_terminal(self):
        # "x" is a vertex and an output terminal; the later terminal "x"
        # (an input) sets the kind its flows are checked against.
        s = fs.FunctionStructure(
            (fs.FunctionVertex("x", "a"), fs.FunctionVertex("y", "b"), fs.FunctionVertex("y", "c")),
            (fs.BoundaryTerminal("x", "output", "e"), fs.BoundaryTerminal("i", "input", "e"),
             fs.BoundaryTerminal("x", "input", "e")),
            (fs.Flow("i", "x", "e"), fs.Flow("x", "y", "e"), fs.Flow("y", "x", "e")),
        )
        assert [(v.code, v.message) for v in self.same(s).violations] == [
            ("duplicate-id", "duplicate id 'y'"),
            ("duplicate-id", "duplicate id 'x'"),
            ("duplicate-id", "duplicate id 'x'"),
            ("terminal-terminal-flow", "flows[0] connects two terminals ('i' -> 'x')"),
            ("input-terminal-inflow", "flows[0] enters input terminal 'x'"),
            ("input-terminal-inflow", "flows[2] enters input terminal 'x'"),
            ("cycle", "flows between function vertices form a cycle"),
        ]

    @pytest.mark.parametrize("kind", [None, 1, "weird"])
    def test_terminal_of_unknown_kind_is_still_a_terminal(self, kind):
        s = fs.FunctionStructure(
            (fs.FunctionVertex("v", "a"),),
            (fs.BoundaryTerminal("i", "input", "e"), fs.BoundaryTerminal("t", kind, "e"),
             fs.BoundaryTerminal("o", "output", "e")),
            (fs.Flow("i", "v", "e"), fs.Flow("v", "o", "e"), fs.Flow("t", "o", "e"),
             fs.Flow("i", "t", "e"), fs.Flow("v", "t", "e")),
        )
        assert [(v.code, v.message) for v in self.same(s).violations] == [
            ("bad-terminal-kind", f"terminal 't' has kind {kind!r}"),
            ("terminal-terminal-flow", "flows[2] connects two terminals ('t' -> 'o')"),
            ("terminal-terminal-flow", "flows[3] connects two terminals ('i' -> 't')"),
        ]

    def test_unknown_endpoint_named_by_several_flows(self):
        s = fs.FunctionStructure(
            chain(2).vertices, chain(2).terminals,
            chain(2).flows + (fs.Flow("v0", "ghost", "m"), fs.Flow("ghost", "ghost", "m"),
                              fs.Flow("ghost", "v1", "m")),
        )
        assert [v.message for v in self.same(s).violations] == [
            "flows[3] references 'ghost'",
            "flows[4] references 'ghost'",
            "flows[4] references 'ghost'",
            "flows[5] references 'ghost'",
        ]

    def test_self_loops_parallel_and_terminal_flows(self):
        s = chain(3)
        looped = fs.FunctionStructure(
            s.vertices, s.terminals,
            s.flows + (fs.Flow("v1", "v1", "m"), fs.Flow("v0", "v1", "m"),
                       fs.Flow("in0", "out0", "m"), fs.Flow("out0", "in0", "m")),
        )
        assert {v.code for v in self.same(looped).violations} == {
            "cycle", "terminal-terminal-flow", "input-terminal-inflow", "output-terminal-outflow"}
        parallel = fs.FunctionStructure(s.vertices, s.terminals, s.flows + s.flows)
        assert self.same(parallel).ok

    def test_empty_labels_and_no_vertices(self):
        s = fs.FunctionStructure(
            (), (fs.BoundaryTerminal("i", "input", ""), fs.BoundaryTerminal("o", "output", "e")),
            (fs.Flow("i", "o", ""),),
        )
        assert [v.message for v in self.same(s).violations] == [
            "terminal 'i' has empty label",
            "structure has no function vertices",
            "flows[0] connects two terminals ('i' -> 'o')",
            "flows[0] has empty label",
        ]
        assert {v.code for v in self.same(fs.FunctionStructure(())).violations} == {"no-vertices"}

    def test_bench_size_shapes(self):
        gen = _load_bench_gen()
        rng = random.Random(0)
        for size, shape in ((800, "chain"), (1200, "dag"), (1600, "chain"), (2000, "chain")):
            doc = gen.chain(rng, size) if shape == "chain" else gen.random_dag(rng, size, window=8)
            s = fs.problem_from_dict(doc)
            assert self.same(s).ok
            # A reversed copy of a vertex-to-vertex flow closes a cycle; a
            # vertex with no way out is off path.
            inner = next(f for f in s.flows if f.source in s.degrees and f.target in s.degrees)
            broken = fs.FunctionStructure(
                s.vertices + (fs.FunctionVertex("dead", "x"),), s.terminals,
                s.flows + (fs.Flow(inner.target, inner.source, "m"),
                           fs.Flow(s.vertices[1].id, "dead", "m")),
            )
            assert {v.code for v in self.same(broken).violations} == {"cycle", "off-path-vertex"}

    def test_long_ring_has_one_cycle_and_no_recursion(self):
        s = chain(20_000)
        ring = fs.FunctionStructure(s.vertices, s.terminals,
                                    s.flows + (fs.Flow("v19999", "v0", "material"),))
        assert self.same(ring).violations == (
            fs.Violation("cycle", "flows between function vertices form a cycle"),
        )


def parsable_document(rng: random.Random) -> dict:
    """A random ``.fs.json`` document the parser accepts, mostly an invalid
    structure: ids are unique and terminal kinds valid, but flows join any
    two names, an unknown one included, so self-loops, parallel flows,
    terminal-to-terminal flows, cycles and off-path vertices all occur."""
    vertices = [{"id": f"v{k}", "label": rng.choice(("", "x", "y"))}
                for k in range(rng.randint(0, 6))]
    terminals = [{"id": f"t{k}", "kind": rng.choice((fs.INPUT, fs.OUTPUT)),
                  "label": rng.choice(("", "e"))} for k in range(rng.randint(0, 4))]
    names = [v["id"] for v in vertices] + [t["id"] for t in terminals] + ["ghost"]
    flows = [{"source": rng.choice(names), "target": rng.choice(names),
              "label": rng.choice(("", "m"))} for _ in range(rng.randint(0, 12))]
    return {"kind": "structure", "vertices": vertices, "terminals": terminals, "flows": flows}


class TestParsedHandoff:
    """The parser numbers a structure's ids and hands that table to the
    check: report, degrees and PI equal those of the same fields built in
    code, which the check numbers itself."""

    @staticmethod
    def same(data: bytes, first: str) -> fs.ValidationReport:
        parsed = fs.parse_structure(data)
        built = fs.FunctionStructure(
            tuple(fs.FunctionVertex(v.id, v.label) for v in parsed.vertices),
            tuple(fs.BoundaryTerminal(t.id, t.kind, t.label) for t in parsed.terminals),
            tuple(fs.Flow(f.source, f.target, f.label) for f in parsed.flows),
        )
        degrees = parsed.degrees if first == "degrees" else None
        report = fs.validate(parsed)
        assert "_ids" not in vars(parsed)  # the check took the table over
        assert report == fs.validate(built) == check_structure(built)
        assert list(parsed.degrees.items()) == list(built.degrees.items())
        assert dict(parsed.degrees) == flow_scan_degrees(built)
        assert degrees is None or degrees is parsed.degrees
        if report.ok:
            pi = fs.interdependency_index(parsed)
            assert pi == fs.interdependency_index(built) == flow_scan_pi(built)
        else:
            for s in (parsed, built):
                with pytest.raises(fs.InvalidStructureError) as err:
                    fs.interdependency_index(s)
                assert err.value.report == report
        return report

    @pytest.mark.parametrize("first", ["validate", "degrees"])
    def test_seeded_random_documents(self, first):
        rng = random.Random(5501)
        codes: set[str] = set()
        valid = 0
        for _ in range(1500):
            codes |= {v.code for v in self.same(
                json.dumps(parsable_document(rng)).encode(), first).violations}
        for _ in range(150):
            doc = fs.problem_to_dict(random_structure(rng))
            valid += self.same(json.dumps(doc).encode(), first).ok
        assert valid == 150
        assert codes == {"empty-label", "no-vertices", "unknown-endpoint",
                         "terminal-terminal-flow", "input-terminal-inflow",
                         "output-terminal-outflow", "cycle", "off-path-vertex"}

    @pytest.mark.parametrize("name", sorted(
        path.name for path in FIXTURES.glob("*.fs.json")
        if json.loads(path.read_bytes())["kind"] == "structure"))
    @pytest.mark.parametrize("first", ["validate", "degrees"])
    def test_fixture_structures(self, name, first):
        assert self.same(load_fixture_bytes(name), first).ok


class TestRecords:
    """Records read from a document are the records the constructors build."""

    DOC = {
        "kind": "structure",
        "vertices": [{"id": "a", "label": "wind wire"}],
        "terminals": [{"id": "i", "kind": "input", "label": "wire"},
                      {"id": "o", "kind": "output", "label": "wire"}],
        "flows": [{"source": "i", "target": "a", "label": "wire"},
                  {"source": "a", "target": "o", "label": "wire"}],
    }

    def pairs(self):
        parsed = fs.problem_from_dict(self.DOC)
        built = fs.FunctionStructure(
            (fs.FunctionVertex("a", "wind wire"),),
            (fs.BoundaryTerminal("i", "input", "wire"), fs.BoundaryTerminal("o", "output", "wire")),
            (fs.Flow("i", "a", "wire"), fs.Flow("a", "o", "wire")),
        )
        assert parsed == built and hash(parsed) == hash(built)
        return list(zip((*parsed.vertices, *parsed.terminals, *parsed.flows),
                        (*built.vertices, *built.terminals, *built.flows)))

    def test_equal_hash_repr_and_fields(self):
        for parsed, built in self.pairs():
            assert type(parsed) is type(built)
            assert parsed == built and hash(parsed) == hash(built)
            assert repr(parsed) == repr(built)
            slots = type(built).__slots__
            assert [getattr(parsed, name) for name in slots] == [
                getattr(built, name) for name in slots]
            assert not hasattr(parsed, "__dict__") and not hasattr(built, "__dict__")
            assert dataclasses.astuple(parsed) == dataclasses.astuple(built)

    def test_pickle_and_deepcopy(self):
        for parsed, built in self.pairs():
            for twin in (pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed), copy.copy(parsed)):
                assert type(twin) is type(built)
                assert twin == built and hash(twin) == hash(built)

    def test_frozen(self):
        for parsed, _ in self.pairs():
            field = dataclasses.fields(parsed)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(parsed, field, "changed")
            with pytest.raises(dataclasses.FrozenInstanceError):
                del parsed.label

    def test_records_of_different_types_never_equal(self):
        parsed = fs.problem_from_dict({
            "kind": "structure",
            "vertices": [{"id": "a", "label": "b"}],
            "terminals": [{"id": "t", "kind": "input", "label": "b"}],
            "flows": [{"source": "t", "target": "input", "label": "b"}],
        })
        vertex, terminal, flow = parsed.vertices[0], parsed.terminals[0], parsed.flows[0]
        assert flow != terminal and terminal != flow
        assert flow != ("t", "input", "b") and vertex != ("a", "b")
        assert vertex != fs.Flow("a", "b", "")
        assert len({flow, terminal, vertex}) == 3


_MEMOISED = [
    (lambda: fs.parse_structure(load_fixture_bytes("coil_winder.fs.json")),
     ("degrees", "function_labels", "flow_labels", "_report", "_pi")),
]
# a topology resolves its wiring while it is checked, so it memoises nothing
_RESOLVED = [
    (lambda: synth.parse_topology(load_fixture_bytes("subtractor.topo.json")),
     ("_sources", "_outputs")),
]


class TestDegree:
    def test_coffee_brew_vertex(self):
        # two flows in (boiled water, coffee powder), one out (coffee)
        problem = fs.parse_structure(load_fixture_bytes("coffee_maker.fs.json"))
        assert fs.degree(problem, "brew") == 3

    def test_linear_chain_vertex(self):
        assert fs.degree(chain(3), "v1") == 2

    def test_subtractor_first_xor_fans_out(self):
        problem = fs.parse_structure(load_fixture_bytes("full_subtractor.fs.json"))
        assert fs.degree(problem, "xor1") == 4

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            fs.degree(chain(1), "nope")
        with pytest.raises(KeyError):  # a terminal is not a function vertex
            fs.degree(chain(1), "in0")

    def test_degree_matches_flow_scan(self):
        rng = random.Random(7)
        for _ in range(25):
            s = random_structure(rng)
            counts = flow_scan_degrees(s)
            for v in s.vertices:
                assert fs.degree(s, v.id) == counts[v.id]

    def test_degrees_of_an_invalid_structure_are_pinned(self):
        s = fs.FunctionStructure(
            (fs.FunctionVertex("a", "x"), fs.FunctionVertex("b", "y"),
             fs.FunctionVertex("a", "z")),  # a repeated vertex id
            (fs.BoundaryTerminal("b", "input", "e"),  # a terminal reusing a vertex id
             fs.BoundaryTerminal("i", "input", "e")),
            (fs.Flow("i", "a", "e"), fs.Flow("a", "a", "e"),  # a self-loop
             fs.Flow("a", "b", "e"), fs.Flow("a", "b", "e"),  # parallel flows
             fs.Flow("b", "ghost", "e"), fs.Flow("ghost", "a", "e")),  # an unknown end
        )
        assert list(s.degrees.items()) == [("a", 6), ("b", 3)]
        assert dict(s.degrees) == flow_scan_degrees(s)
        assert (fs.degree(s, "a"), fs.degree(s, "b")) == (6, 3)
        with pytest.raises(KeyError):
            fs.degree(s, "ghost")
        assert not fs.validate(s).ok

    @pytest.mark.parametrize("first", ["degrees", "validate"])
    def test_degrees_equal_the_flow_scan_on_hostile_structures(self, first):
        # repeated vertex ids, terminal/vertex id clashes, unknown
        # endpoints, self-loops and parallel flows, read before or after
        # the report
        rng = random.Random(4417)
        for _ in range(3000):
            s = hostile_structure(rng)
            if first == "validate":
                fs.validate(s)
            expected = flow_scan_degrees(s)
            assert list(s.degrees.items()) == list(expected.items())
            for vertex_id, count in expected.items():
                assert fs.degree(s, vertex_id) == count

    def test_parallel_flows_each_count(self):
        s = chain(2)
        doubled = fs.FunctionStructure(
            s.vertices, s.terminals, s.flows + (fs.Flow("v0", "v1", "signal"),)
        )
        assert fs.degree(doubled, "v0") == 3

    def test_degree_table_is_read_only(self):
        s = chain(3)
        assert dict(s.degrees) == {"v0": 2, "v1": 2, "v2": 2}
        with pytest.raises(TypeError):
            s.degrees["v0"] = 5  # type: ignore[index]
        assert fs.degree(s, "v0") == 2

    @pytest.mark.parametrize("load, memo", _MEMOISED + _RESOLVED,
                             ids=["structure", "topology"])
    def test_structure_with_cached_values_pickles_and_copies(self, load, memo):
        value = load()
        before = {name: getattr(value, name) for name in memo}
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value
            assert {name: getattr(twin, name) for name in memo} == before

    @pytest.mark.parametrize("load, memo", _MEMOISED, ids=["structure"])
    def test_each_memoised_value_is_computed_once(self, monkeypatch, load, memo):
        calls, cls = [], type(load())
        for name in memo:
            descriptor = vars(cls)[name]
            assert isinstance(descriptor, jsonio.cached)

            def counted(instance, func=descriptor.func, name=name):
                calls.append(name)
                return func(instance)
            monkeypatch.setattr(descriptor, "func", counted)
        value = load()
        for name in memo:
            assert getattr(value, name) is getattr(value, name)
        assert sorted(calls) == sorted(memo)


class TestInterdependencyIndex:
    def test_full_subtractor(self):
        problem = fs.parse_structure(load_fixture_bytes("full_subtractor.fs.json"))
        assert fs.interdependency_index(problem) == Fraction(5, 7)

    def test_coil_winder(self):
        problem = fs.parse_structure(load_fixture_bytes("coil_winder.fs.json"))
        assert isinstance(problem, fs.FunctionStructure)
        assert len(problem.vertices) == 28
        busy = [v.id for v in problem.vertices if fs.degree(problem, v.id) > 2]
        assert len(busy) == 12
        assert fs.interdependency_index(problem) == Fraction(3, 7)

    def test_bridge_black_box(self):
        problem = fs.parse_structure(load_fixture_bytes("bridge.fs.json"))
        assert fs.interdependency_index(problem) == 1

    def test_rope_black_box(self):
        problem = fs.parse_structure(load_fixture_bytes("rope.fs.json"))
        assert fs.interdependency_index(problem) == 0

    def test_degree_exactly_two_does_not_count(self):
        assert fs.interdependency_index(chain(4)) == 0

    def test_invalid_structure_rejected(self):
        s = chain(2)
        cyclic = fs.FunctionStructure(
            s.vertices, s.terminals, s.flows + (fs.Flow("v1", "v0", "material"),)
        )
        for _ in range(2):  # a failed check is never cached as a value
            with pytest.raises(fs.InvalidStructureError):
                fs.interdependency_index(cyclic)

    def test_relabeling_and_flow_order_invariance(self):
        rng = random.Random(13)
        for _ in range(50):
            s = random_structure(rng)
            assert fs.interdependency_index(s) == fs.interdependency_index(
                relabel_structure(rng, s)
            )

    def test_splicing_linear_vertex_never_raises_pi(self):
        rng = random.Random(99)
        for _ in range(25):
            s = random_structure(rng)
            flow = s.flows[rng.randrange(len(s.flows))]
            rest = tuple(f for f in s.flows if f is not flow)
            spliced = fs.FunctionStructure(
                s.vertices + (fs.FunctionVertex("mid", "pass through"),),
                s.terminals,
                rest + (
                    fs.Flow(flow.source, "mid", flow.label),
                    fs.Flow("mid", flow.target, flow.label),
                ),
            )
            assert fs.validate(spliced).ok
            assert fs.interdependency_index(spliced) <= fs.interdependency_index(s)

    def test_matches_flow_scan_oracle(self):
        rng = random.Random(2201)
        parallel = terminal = 0
        for _ in range(200):
            base = random_structure(rng, max_vertices=16)
            flows = list(base.flows)
            for _ in range(rng.randint(0, 4)):
                f = rng.choice(base.flows)
                flows.append(fs.Flow(f.source, f.target, rng.choice(("material", "signal"))))
            rng.shuffle(flows)
            s = fs.FunctionStructure(base.vertices, base.terminals, tuple(flows))
            parallel += len(flows) - len({(f.source, f.target) for f in flows})
            ends = {t.id for t in base.terminals}
            terminal += sum(1 for f in flows if f.source in ends or f.target in ends)
            expected = flow_scan_pi(s)
            assert fs.interdependency_index(s) == expected
            assert fs.interdependency_index(s) == expected  # cached value
        assert parallel > 100 and terminal > 400

    def test_long_chain_is_linear_time(self):
        # 20,000 vertices, every fourth fed by an extra input terminal:
        # those reach degree three, so PI = 1/4.  A per-vertex flow scan
        # would take tens of seconds here.
        n = 20_000
        s = chain(n)
        extra = tuple(fs.BoundaryTerminal(f"side{i}", "input", "signal")
                      for i in range(0, n, 4))
        side = fs.FunctionStructure(
            s.vertices, s.terminals + extra,
            s.flows + tuple(fs.Flow(t.id, f"v{i}", "signal")
                            for t, i in zip(extra, range(0, n, 4))),
        )
        start = time.perf_counter()
        assert fs.interdependency_index(side) == Fraction(1, 4)
        assert time.perf_counter() - start < 2.0

    def test_all_busy_structure_reaches_one(self):
        # one vertex with two inputs and one output
        s = fs.FunctionStructure(
            (fs.FunctionVertex("v", "combine"),),
            (
                fs.BoundaryTerminal("i1", "input", "a"),
                fs.BoundaryTerminal("i2", "input", "b"),
                fs.BoundaryTerminal("o1", "output", "c"),
            ),
            (
                fs.Flow("i1", "v", "a"),
                fs.Flow("i2", "v", "b"),
                fs.Flow("v", "o1", "c"),
            ),
        )
        assert fs.interdependency_index(s) == 1


class TestJsonRoundTrip:
    def test_subtractor_fixture_parses(self):
        problem = fs.parse_structure(load_fixture_bytes("full_subtractor.fs.json"))
        assert isinstance(problem, fs.FunctionStructure)
        assert len(problem.vertices) == 7

    def test_empty_document(self):
        with pytest.raises(fs.SchemaError):
            fs.parse_structure(b"")

    def test_not_json(self):
        with pytest.raises(fs.SchemaError):
            fs.parse_structure(b"not json {")

    def test_duplicate_id_locates_offender(self):
        doc = (
            b'{"kind":"structure","vertices":[{"id":"a","label":"x"},'
            b'{"id":"a","label":"y"}],"terminals":[],"flows":[]}'
        )
        with pytest.raises(fs.SchemaError) as err:
            fs.parse_structure(doc)
        assert "vertices[1]" in str(err.value)

    def test_round_trip_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            s = random_structure(rng)
            assert fs.parse_structure(fs.serialize_structure(s)) == s

    def test_blackbox_round_trip(self):
        box = fs.BlackBox("hold load", ("force",), ("force", "heat"))
        assert fs.parse_structure(fs.serialize_structure(box)) == box

    def test_serialization_is_deterministic(self):
        data = load_fixture_bytes("coil_winder.fs.json")
        problem = fs.parse_structure(data)
        assert fs.serialize_structure(problem) == fs.serialize_structure(problem)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(), max_size=4), st.lists(st.text(), max_size=4), st.text())
    @example(["caf\u00e9 \U0001f600", "\x00\x1f"], ["\"q\" \\ \u00e4", "\u2028"], "\t\\\"")
    def test_bytes_equal_indented_json_dumps(self, ids, labels, label):
        # the bytes ``synth --fs-out`` writes, whatever text the ids and
        # labels hold
        pairs = list(zip(ids, labels))
        structure = fs.FunctionStructure(
            tuple(fs.FunctionVertex(vid, text) for vid, text in pairs),
            (fs.BoundaryTerminal(label, fs.INPUT, label),),
            tuple(fs.Flow(label, vid, text) for vid, text in pairs),
        )
        for problem in (structure, fs.BlackBox(label, tuple(ids), tuple(labels))):
            text = json.dumps(fs.problem_to_dict(problem), indent=2, sort_keys=True)
            assert fs.serialize_structure(problem) == (text + "\n").encode()


# ---------------------------------------------------------------------------
# Ingress error messages, pinned verbatim (computed with the eager-location
# parser that preceded the lazy one).

_DROP = object()


def _valid_doc(kind: str) -> dict:
    if kind == "blackbox":
        return {"kind": "blackbox", "label": "hold load",
                "inputs": ["force"], "outputs": ["force", "heat"]}
    return {
        "kind": "structure",
        "vertices": [{"id": "a", "label": "wind wire"}, {"id": "b", "label": "guide wire"}],
        "terminals": [{"id": "i", "kind": "input", "label": "wire"},
                      {"id": "o", "kind": "output", "label": "wire"}],
        "flows": [{"source": "i", "target": "a", "label": "wire"},
                  {"source": "a", "target": "b", "label": "wire"},
                  {"source": "b", "target": "o", "label": "wire"}],
    }


def broken(*edits, kind: str = "structure") -> dict:
    """A valid document with each ``(path, value)`` edit applied in turn;
    the value ``_DROP`` deletes the key."""
    doc = _valid_doc(kind)
    for path, value in edits:
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
    return doc


# (name, document, str(SchemaError) from parse_structure, str(SchemaError)
# with the document as the second case's problem in a .cases.json)
MALFORMED = [
    ('not an object', [],
     '$: expected an object',
     '$[1].problem: expected an object'),
    ('unknown kind', broken((("kind",), "graph")),
     "$.kind: kind must be 'structure' or 'blackbox'",
     "$[1].problem.kind: kind must be 'structure' or 'blackbox'"),
    ('vertices not an array', broken((("vertices",), {})),
     '$.vertices: expected an array',
     '$[1].problem.vertices: expected an array'),
    ('terminals missing', broken((("terminals",), _DROP)),
     '$.terminals: expected an array',
     '$[1].problem.terminals: expected an array'),
    ('flows a string', broken((("flows",), "i->a")),
     '$.flows: expected an array',
     '$[1].problem.flows: expected an array'),
    ('vertex not an object', broken((("vertices", 1), "b")),
     '$.vertices[1]: expected an object',
     '$[1].problem.vertices[1]: expected an object'),
    ('vertex id an int', broken((("vertices", 1, "id"), 7)),
     '$.vertices[1].id: expected a string',
     '$[1].problem.vertices[1].id: expected a string'),
    ('vertex label null', broken((("vertices", 0, "label"), None)),
     '$.vertices[0].label: expected a string',
     '$[1].problem.vertices[0].label: expected a string'),
    ('vertex id and label both bad', broken((("vertices", 1, "id"), 7), (("vertices", 1, "label"), 8)),
     '$.vertices[1].id: expected a string',
     '$[1].problem.vertices[1].id: expected a string'),
    ('two vertices share an id', broken((("vertices", 1, "id"), "a")),
     "$.vertices[1].id: duplicate id 'a'",
     "$[1].problem.vertices[1].id: duplicate id 'a'"),
    ('duplicate id before bad label', broken((("vertices", 1, "id"), "a"), (("vertices", 1, "label"), [])),
     "$.vertices[1].id: duplicate id 'a'",
     "$[1].problem.vertices[1].id: duplicate id 'a'"),
    ('terminal not an object', broken((("terminals", 0), ["i", "input"])),
     '$.terminals[0]: expected an object',
     '$[1].problem.terminals[0]: expected an object'),
    ('terminal id a bool', broken((("terminals", 0, "id"), True)),
     '$.terminals[0].id: expected a string',
     '$[1].problem.terminals[0].id: expected a string'),
    ('terminal shares a vertex id', broken((("terminals", 1, "id"), "b")),
     "$.terminals[1].id: duplicate id 'b'",
     "$[1].problem.terminals[1].id: duplicate id 'b'"),
    ('terminal kind an int', broken((("terminals", 0, "kind"), 1)),
     '$.terminals[0].kind: expected a string',
     '$[1].problem.terminals[0].kind: expected a string'),
    ('terminal kind unknown', broken((("terminals", 1, "kind"), "sink")),
     "$.terminals[1].kind: kind must be 'input' or 'output'",
     "$[1].problem.terminals[1].kind: kind must be 'input' or 'output'"),
    ('bad kind before bad label', broken((("terminals", 1, "kind"), "sink"), (("terminals", 1, "label"), 3)),
     "$.terminals[1].kind: kind must be 'input' or 'output'",
     "$[1].problem.terminals[1].kind: kind must be 'input' or 'output'"),
    ('terminal label missing', broken((("terminals", 0, "label"), _DROP)),
     '$.terminals[0].label: expected a string',
     '$[1].problem.terminals[0].label: expected a string'),
    ('flow not an object', broken((("flows", 2), None)),
     '$.flows[2]: expected an object',
     '$[1].problem.flows[2]: expected an object'),
    ('flow source an int', broken((("flows", 0, "source"), 0)),
     '$.flows[0].source: expected a string',
     '$[1].problem.flows[0].source: expected a string'),
    ('flow target a list', broken((("flows", 1, "target"), ["b"])),
     '$.flows[1].target: expected a string',
     '$[1].problem.flows[1].target: expected a string'),
    ('flow label an object', broken((("flows", 2, "label"), {})),
     '$.flows[2].label: expected a string',
     '$[1].problem.flows[2].label: expected a string'),
    ('bad vertex before bad flow', broken((("vertices", 0, "id"), 1.5), (("flows", 0, "label"), None)),
     '$.vertices[0].id: expected a string',
     '$[1].problem.vertices[0].id: expected a string'),
    ('black box label an int', broken((("label",), 5), kind="blackbox"),
     '$.label: expected a string',
     '$[1].problem.label: expected a string'),
    ('black box inputs not an array', broken((("inputs",), "force"), kind="blackbox"),
     '$.inputs: expected an array',
     '$[1].problem.inputs: expected an array'),
    ('black box outputs missing', broken((("outputs",), _DROP), kind="blackbox"),
     '$.outputs: expected an array',
     '$[1].problem.outputs: expected an array'),
    ('black box output not a string', broken((("outputs", 1), 2), kind="blackbox"),
     '$.outputs[1]: expected a string',
     '$[1].problem.outputs[1]: expected a string'),
]


class TestIngressErrors:
    @pytest.mark.parametrize("name,doc,message,nested", MALFORMED,
                             ids=[row[0] for row in MALFORMED])
    def test_structure_message_is_pinned(self, name, doc, message, nested):
        with pytest.raises(fs.SchemaError) as err:
            fs.parse_structure(json.dumps(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize("name,doc,message,nested", MALFORMED,
                             ids=[row[0] for row in MALFORMED])
    def test_nested_case_message_is_pinned(self, name, doc, message, nested):
        cases = [
            {"id": "c0", "problem": _valid_doc("structure"),
             "solution": {"description": "ok", "components": []}},
            {"id": "c1", "problem": doc, "solution": {"description": "bad", "components": []}},
        ]
        with pytest.raises(fs.SchemaError) as err:
            cb.parse_case_base(json.dumps(cases))
        assert str(err.value) == nested

    def test_valid_documents_parse(self):
        for kind in ("structure", "blackbox"):
            problem = fs.problem_from_dict(_valid_doc(kind))
            assert fs.problem_to_dict(problem) == _valid_doc(kind)
