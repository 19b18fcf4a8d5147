import copy
import hashlib
import json
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from designbench import funcstruct as fs
from designbench import jsonio, synth
from designbench.synth import GateSlot, GateType, Requirement, Topology
from conftest import load_fixture_bytes
from oracles import (
    _enumerate_slot_sequences,
    _search_assignment,
    chain_sat,
    enumerate_then_assign,
    fan_in,
    fewest_gates,
    first_assignment,
    gate_with_new,
    input_vectors,
    pair_sat,
    reachable_sat,
    target_vectors,
)


def _circuit_bytes(circuit):
    """The circuit's indented JSON and a newline: the bytes each pin hashes."""
    return (jsonio.dumps(synth.circuit_to_dict(circuit)) + "\n").encode()


def subtraction_oracle(a, b, bin_):
    """Arithmetic semantics of a 1-bit full subtraction a - b - bin."""
    value = a - b - bin_
    return (value % 2, 1 if value < 0 else 0)


@pytest.fixture(scope="module")
def subtractor_req():
    return synth.parse_requirement(load_fixture_bytes("subtractor.req.json"))


@pytest.fixture(scope="module")
def subtractor_topology():
    return synth.parse_topology(load_fixture_bytes("subtractor.topo.json"))


@pytest.fixture(scope="module")
def subtractor_circuit(subtractor_topology, subtractor_req):
    circuit = synth.synthesize_assignment(subtractor_topology, subtractor_req)
    assert circuit is not None
    return circuit


class TestEvaluate:
    def test_all_zero_row(self, subtractor_circuit):
        assert synth.evaluate(subtractor_circuit, (0, 0, 0)) == (0, 0)

    def test_single_minuend(self, subtractor_circuit):
        assert synth.evaluate(subtractor_circuit, (1, 0, 0)) == subtraction_oracle(1, 0, 0)
        assert synth.evaluate(subtractor_circuit, (1, 0, 0)) == (1, 0)

    def test_borrow_generated(self, subtractor_circuit):
        assert synth.evaluate(subtractor_circuit, (0, 1, 0)) == subtraction_oracle(0, 1, 0)
        assert synth.evaluate(subtractor_circuit, (0, 1, 0)) == (1, 1)

    def test_every_row_matches_arithmetic(self, subtractor_circuit, subtractor_req):
        for (a, b, borrow_in), expected in subtractor_req.rows:
            assert expected == subtraction_oracle(a, b, borrow_in)
            assert synth.evaluate(subtractor_circuit, (a, b, borrow_in)) == expected

    def test_width_mismatch_rejected(self, subtractor_circuit):
        with pytest.raises(ValueError):
            synth.evaluate(subtractor_circuit, (0, 1))

    @pytest.mark.parametrize("bits", [(True, 0, 1), (1.0, 0, 1), (0, 2, 1), (0, "1", 1)])
    def test_non_bits_rejected(self, subtractor_circuit, bits):
        # True == 1 and 1.0 == 1 in Python; a float used to reach the XOR
        # gate and fail there with a TypeError
        with pytest.raises(ValueError, match="input bits must be 0 or 1"):
            synth.evaluate(subtractor_circuit, bits)


    def test_wiring_is_resolved_from_the_refs(self, subtractor_topology):
        topo = subtractor_topology
        n = len(topo.inputs)
        expected = [tuple(n + int(ref[1:]) if ref.startswith("s") and ref[1:].isdigit()
                          else topo.inputs.index(ref) for ref in slot.refs)
                    for slot in topo.slots]
        assert topo._sources[:3] == ((0, 1), (n, 2), (0,))
        assert list(topo._sources) == expected
        assert topo._outputs == (1, 6)

    def test_each_ref_is_resolved_once(self, monkeypatch):
        calls = []
        resolve = Topology._resolve

        def counted(self, ref, slot_index):
            calls.append(ref)
            return resolve(self, ref, slot_index)
        monkeypatch.setattr(Topology, "_resolve", counted)
        topo = synth.parse_topology(load_fixture_bytes("subtractor.topo.json"))
        refs = [ref for slot in topo.slots for ref in slot.refs]
        assert calls == refs
        wiring = topo._sources
        for twin in (pickle.loads(pickle.dumps(topo)), copy.copy(topo), copy.deepcopy(topo)):
            assert twin == topo and twin._sources == wiring
        assert calls == refs


class TestSynthesizeAssignment:
    def test_standard_subtractor_assignment(self, subtractor_circuit):
        names = [g.name for g in subtractor_circuit.gates]
        assert names == ["XOR", "XOR", "NOT", "AND", "NOT", "AND", "OR"]

    def test_single_unary_slot_realises_not(self):
        topo = Topology(("x",), (GateSlot(1, ("x",)),), ("s0",))
        req = Requirement.from_function(("x",), ("y",), lambda x: (1 - x,))
        circuit = synth.synthesize_assignment(topo, req)
        assert circuit is not None
        assert circuit.gates == (GateType.NOT,)

    def test_unary_slot_cannot_depend_on_two_inputs(self):
        topo = Topology(("a", "b"), (GateSlot(1, ("a",)),), ("s0",))
        req = Requirement.from_function(("a", "b"), ("y",), lambda a, b: (a ^ b,))
        assert synth.synthesize_assignment(topo, req) is None

    def test_arity_mismatch_rejected(self, subtractor_topology):
        req = Requirement.from_function(("a", "b"), ("y",), lambda a, b: (a & b,))
        with pytest.raises(ValueError):
            synth.synthesize_assignment(subtractor_topology, req)

    def test_assignment_is_lexicographically_first(self):
        # both IDENTITY and anything later would do for a pass-through slot;
        # IDENTITY must win
        topo = Topology(("x",), (GateSlot(1, ("x",)),), ("s0",))
        req = Requirement.from_function(("x",), ("y",), lambda x: (x,))
        circuit = synth.synthesize_assignment(topo, req)
        assert circuit.gates == (GateType.IDENTITY,)

    @pytest.mark.parametrize("inputs, ref", [(("B", "A"), "A"), (("X", "Y"), "X")],
                             ids=["swapped", "renamed"])
    def test_topology_inputs_must_be_the_requirements(self, inputs, ref):
        # y = A: matched by position, the swapped topology would read B (UNSAT)
        # and the renamed one would give IDENTITY(X)
        topo = Topology(inputs, (GateSlot(1, (ref,)),), ("s0",))
        req = Requirement.from_function(("A", "B"), ("y",), lambda a, b: (a,))
        with pytest.raises(ValueError, match=re.escape(
                f"topology inputs are {list(inputs)}, requirement inputs are ['A', 'B']")):
            synth.synthesize_assignment(topo, req)


@st.composite
def _assignment_cases(draw):
    """``(inputs, sources, outputs, vectors)``: 1-3 inputs, 1-6 slots, each
    reading inputs or earlier slots by internal index (inputs first), up to
    two outputs that may share a slot or name one a later slot reads, then
    one on each slot no other slot reads, and per output its packed column:
    what random gates on the wiring compute, or random bits (mostly UNSAT)."""
    n = draw(st.integers(1, 3))
    sources = []
    for j in range(draw(st.integers(1, 6))):
        sources.append(tuple(draw(st.lists(st.integers(0, n + j - 1), min_size=1, max_size=2))))
    outputs = draw(st.lists(st.integers(0, len(sources) - 1), max_size=2))
    read = {r - n for refs in sources for r in refs}
    outputs += [j for j in range(len(sources)) if j not in read and j not in outputs]
    full = (1 << 2 ** n) - 1
    if draw(st.booleans()):
        values = [sum(1 << r for r in range(2 ** n) if r >> (n - 1 - i) & 1) for i in range(n)]
        for refs in sources:
            a, b = values[refs[0]], values[refs[-1]]
            values.append(draw(st.sampled_from(
                (a, a ^ full) if len(refs) == 1 else (a & b, a | b, a ^ b))))
        vectors = [values[n + j] for j in outputs]
    else:
        vectors = draw(st.lists(st.integers(0, full), min_size=len(outputs),
                                max_size=len(outputs)))
    return "abc"[:n], sources, outputs, vectors


class TestAssignmentAgainstOracles:
    @settings(max_examples=400, deadline=None)
    @given(_assignment_cases())
    # two outputs on one slot, SAT and UNSAT; an output that a later slot
    # reads, named first and second, SAT, and UNSAT
    @example(("ab", [(0, 1)], [0, 0], [0b1000, 0b1000]))
    @example(("ab", [(0, 1)], [0, 0], [0b1000, 0b1110]))
    @example(("ab", [(0,), (2, 1)], [0, 1], [0b0011, 0b0010]))
    @example(("ab", [(0,), (2, 1)], [1, 0], [0b1011, 0b0011]))
    @example(("ab", [(0,), (2, 1)], [1, 0], [0b1000, 0b0011]))
    def test_equals_the_backtracker_and_the_first_fitting_product(self, case):
        names, sources, outputs, vectors = case
        n = len(names)
        gate_slots = tuple(GateSlot(len(refs), tuple(names[r] if r < n else f"s{r - n}"
                                                     for r in refs)) for refs in sources)
        topo = Topology(tuple(names), gate_slots, tuple(f"s{j}" for j in outputs))
        req = _table(vectors, n)
        circuit = synth.synthesize_assignment(topo, req)
        got = None if circuit is None else list(circuit.gates)
        checked = {}
        for j, t in zip(outputs, vectors):
            checked.setdefault(j, []).append(t)
        assert got == _search_assignment(sources, input_vectors(req), checked,
                                         (1 << 2 ** n) - 1)
        brute = first_assignment(topo, req)
        assert got == (None if brute is None else list(brute.gates))


class TestSynthesizeTopology:
    def test_and_needs_one_gate(self):
        req = Requirement.from_function(("a", "b"), ("y",), lambda a, b: (a & b,))
        circuit = synth.synthesize_topology(req, 1)
        assert circuit is not None
        assert len(circuit.gates) == 1
        assert circuit.gates[0] is GateType.AND

    def test_a_high_gate_bound_costs_nothing_past_the_answer(self):
        # the slot choices grow to the gate count walked, not to max_gates:
        # built up to 120 gates they took a 37 MB peak
        req = synth.parse_requirement(load_fixture_bytes("and_gate.req.json"))
        tracemalloc.start()
        try:
            circuit = synth.synthesize_topology(req, 120)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert circuit.gates == (GateType.AND,)
        assert peak < 2_000_000
        assert synth.synthesize_topology(req, 10**6) == circuit

    def test_three_input_parity_unsat_with_one_gate(self):
        req = Requirement.from_function(("a", "b", "c"), ("y",),
                                        lambda a, b, c: (a ^ b ^ c,))
        assert synth.synthesize_topology(req, 1) is None

    def test_full_subtractor_within_seven_gates(self, subtractor_req):
        circuit = synth.synthesize_topology(subtractor_req, 7)
        assert circuit is not None
        assert len(circuit.gates) <= 7
        for in_bits, out_bits in subtractor_req.rows:
            assert synth.evaluate(circuit, in_bits) == out_bits

    def test_subtractor_needs_five_gates(self, subtractor_req):
        # regression: four gates exhaust UNSAT, five suffice
        assert synth.synthesize_topology(subtractor_req, 4) is None
        circuit = synth.synthesize_topology(subtractor_req, 5)
        assert circuit is not None and len(circuit.gates) == 5

    def test_deterministic_result(self):
        req = Requirement.from_function(("a", "b"), ("y",),
                                        lambda a, b: (1 - (a | b),))
        first = synth.synthesize_topology(req, 3)
        second = synth.synthesize_topology(req, 3)
        assert first == second

    def test_verdicts_match_chain_oracle_for_two_inputs(self):
        # all 16 single-output tables over two inputs, bounds 1..3
        for max_gates in (1, 2, 3):
            for table in range(16):
                rows = tuple(
                    (((r >> 1) & 1, r & 1), ((table >> r) & 1,)) for r in range(4)
                )
                req = Requirement(("a", "b"), ("y",), rows)
                target = req.target_vectors()[0]
                got = synth.synthesize_topology(req, max_gates)
                assert (got is not None) == chain_sat(2, target, max_gates), \
                    f"table {table:04b} at max_gates={max_gates}"
                if got is not None:
                    assert len(got.gates) <= max_gates

    def test_verdicts_match_chain_oracle_for_three_inputs_sampled(self):
        import random
        rng = random.Random(5)
        tables = [rng.randrange(256) for _ in range(12)]
        for table in tables:
            rows = tuple(
                (((r >> 2) & 1, (r >> 1) & 1, r & 1), ((table >> r) & 1,))
                for r in range(8)
            )
            req = Requirement(("a", "b", "c"), ("y",), rows)
            target = req.target_vectors()[0]
            got = synth.synthesize_topology(req, 3)
            assert (got is not None) == chain_sat(3, target, 3), f"table {table:08b}"

    def test_verdicts_match_set_oracle_up_to_five_gates(self):
        # includes tables whose minimal realisation takes all five gates,
        # so both the UNSAT-at-4 and SAT-at-5 directions are exercised
        import random
        rng = random.Random(11)
        tables = {23, 41, 151} | {rng.randrange(256) for _ in range(6)}
        for table in sorted(tables):
            rows = tuple(
                (((r >> 2) & 1, (r >> 1) & 1, r & 1), ((table >> r) & 1,))
                for r in range(8)
            )
            req = Requirement(("a", "b", "c"), ("y",), rows)
            target = req.target_vectors()[0]
            for max_gates in (4, 5):
                got = synth.synthesize_topology(req, max_gates)
                assert (got is not None) == reachable_sat(3, target, max_gates), \
                    f"table {table:08b} at max_gates={max_gates}"

    def test_two_output_verdicts_match_pair_oracle(self):
        import random
        rng = random.Random(17)
        sampled = [(rng.randrange(16), rng.randrange(16)) for _ in range(24)]
        sampled += [(6, 8), (6, 6), (9, 1), (15, 0)]
        for t1, t2 in sampled:
            rows = tuple(
                (((r >> 1) & 1, r & 1), ((t1 >> r) & 1, (t2 >> r) & 1))
                for r in range(4)
            )
            req = Requirement(("a", "b"), ("y1", "y2"), rows)
            got = synth.synthesize_topology(req, 3) is not None
            assert got == pair_sat(2, (t1, t2), 3), f"targets ({t1:04b}, {t2:04b})"

    def test_bound_below_one_rejected(self, subtractor_req):
        with pytest.raises(ValueError):
            synth.synthesize_topology(subtractor_req, 0)


def _three_input_table(table):
    rows = tuple(
        (((r >> 2) & 1, (r >> 1) & 1, r & 1), ((table >> r) & 1,)) for r in range(8)
    )
    return Requirement(("a", "b", "c"), ("y",), rows)


@pytest.fixture(scope="module")
def level_bounds():
    """The level-by-level oracle bound of every one-output three-input
    table at max_gates 1-5 (no level reaches its cap)."""
    input_vecs = _three_input_table(0).input_vectors()
    return {(table, k): fewest_gates(input_vecs, [table], 255, k)
            for table in range(256) for k in range(1, 6)}


@pytest.fixture(scope="module")
def pair_bounds():
    """The level-by-level oracle bound of 300 seeded three-input pairs at
    max_gates 1-5, keyed by (targets, max_gates)."""
    input_vecs = _three_input_table(0).input_vectors()
    return {(pair, k): fewest_gates(input_vecs, pair, 255, k)
            for pair in _random_pairs(7, 300) for k in range(1, 6)}


class TestFewestGates:
    # packed input columns: a = 0b1100 and b = 0b1010 on two inputs
    TWO_INPUTS = Requirement.from_function(("a", "b"), ("y",), lambda a, b: (a,)).input_vectors()

    def test_equals_set_oracle_minimum_on_every_three_input_table(self):
        input_vecs = _three_input_table(0).input_vectors()
        for table in range(256):
            for max_gates in (1, 2, 3, 4):
                smallest = next((k for k in range(1, max_gates + 1)
                                 if reachable_sat(3, table, k)), None)
                assert synth._fewest_gates(input_vecs, [table], 255, max_gates) == smallest, \
                    f"table {table:08b} at max_gates={max_gates}"

    def test_agrees_with_pair_oracle_on_two_input_pairs(self):
        for t1 in range(16):
            for t2 in range(16):
                for max_gates in (1, 2, 3):
                    smallest = next((k for k in range(1, max_gates + 1)
                                     if pair_sat(2, (t1, t2), k)), None)
                    got = synth._fewest_gates(self.TWO_INPUTS, [t1, t2], 15, max_gates)
                    assert got == smallest, \
                        f"targets ({t1:04b}, {t2:04b}) at max_gates={max_gates}"

    @pytest.mark.parametrize("targets, fewest", [
        ((0b1100,), 1),          # equals input a: one IDENTITY slot
        ((0b1100, 0b1010), 2),   # both inputs
        ((0b1100, 0b0011), 2),   # a and NOT a
        ((6, 6), 1),             # equal targets share one XOR slot
        ((0,), 1),               # a XOR a
        ((15,), 2),              # NOT (a XOR a)
        ((0, 15), 2),
    ])
    def test_edge_cases(self, targets, fewest):
        assert synth._fewest_gates(self.TWO_INPUTS, targets, 15, 3) == fewest
        if fewest > 1:
            assert synth._fewest_gates(self.TWO_INPUTS, targets, 15, fewest - 1) is None
        pair = (targets[0], targets[-1])
        assert pair_sat(2, pair, fewest) and not pair_sat(2, pair, fewest - 1)

    def test_equals_level_oracle_on_every_three_input_table(self, level_bounds):
        input_vecs = _three_input_table(0).input_vectors()
        for (table, max_gates), expected in level_bounds.items():
            assert synth._fewest_gates(input_vecs, [table], 255, max_gates) == expected, \
                f"table {table:08b} at max_gates={max_gates}"

    def test_equals_level_oracle_on_two_input_pairs(self):
        for t1 in range(16):
            for t2 in range(16):
                for max_gates in (1, 2, 3, 4):
                    assert synth._fewest_gates(self.TWO_INPUTS, [t1, t2], 15, max_gates) == \
                        fewest_gates(self.TWO_INPUTS, [t1, t2], 15, max_gates), \
                        f"targets ({t1:04b}, {t2:04b}) at max_gates={max_gates}"

    def test_equals_level_oracle_on_random_three_input_pairs(self, pair_bounds):
        input_vecs = _three_input_table(0).input_vectors()
        for (pair, max_gates), expected in pair_bounds.items():
            assert synth._fewest_gates(input_vecs, pair, 255, max_gates) == expected, \
                f"targets {pair} at max_gates={max_gates}"

    def test_capped_levels_give_a_lower_bound_and_the_same_circuits(
            self, monkeypatch, level_bounds, pair_bounds):
        input_vecs = _three_input_table(0).input_vectors()
        exact = {((table,), k): fewest for (table, k), fewest in level_bounds.items()}
        exact.update(pair_bounds)
        # one table each needing 3 gates, 4 gates and more than 4
        tables = [next(t for t in range(256) if level_bounds[t, 4] == size)
                  for size in (3, 4, None)]
        uncapped = [synth.synthesize_topology(_three_input_table(t), 4) for t in tables]
        monkeypatch.setattr(synth, "_BOUND_STATES", 20)
        for (targets, max_gates), fewest in exact.items():
            got = synth._fewest_gates(input_vecs, targets, 255, max_gates)
            if fewest is None:
                assert got is None or got <= max_gates
            else:
                assert got is not None and got <= fewest
        assert [synth.synthesize_topology(_three_input_table(t), 4) for t in tables] == uncapped

    @pytest.mark.parametrize("table", [17611, 8271])
    def test_four_input_tables_beyond_five_gates_are_exact(self, table):
        # Both need more than 5 gates.  The level-by-level bound outgrew
        # _BOUND_STATES on the level it built last and returned a capped 5,
        # so the topology walk had to exhaust 5 gates.
        req = _table([table], 4)
        assert synth._fewest_gates(req.input_vectors(), [table], 0xFFFF, 5) is None
        assert fewest_gates(req.input_vectors(), [table], 0xFFFF, 5) == 5
        assert synth.synthesize_topology(req, 5) is None

    def test_subtractor_needs_exactly_five(self, subtractor_req):
        args = (subtractor_req.input_vectors(), subtractor_req.target_vectors(), 255)
        assert synth._fewest_gates(*args, 4) is None
        assert synth._fewest_gates(*args, 7) == 5

    def test_topology_search_output_is_pinned(self, subtractor_req):
        # sha256 over every one-output three-input table at four gates
        # and the subtractor at five, as produced before the bound existed
        digest = hashlib.sha256()
        for table in range(256):
            circuit = synth.synthesize_topology(_three_input_table(table), 4)
            digest.update(b"UNSAT\n" if circuit is None else _circuit_bytes(circuit))
        circuit = synth.synthesize_topology(subtractor_req, 5)
        digest.update(_circuit_bytes(circuit))
        assert digest.hexdigest() == \
            "8adf22f6d341c96781a438155acbb94208da751d469064d64912bdc501a98a95"


@st.composite
def _one_gate_cases(draw):
    """A target, new values and signals over 2-4 inputs.  Values are often
    the target's supersets or subsets, so AND and OR are reached; ``new``
    is sometimes ``signals`` itself, as in the bound's first test."""
    n = draw(st.integers(2, 4))
    full = (1 << 2 ** n) - 1
    target = draw(st.integers(0, full))
    values = st.integers(0, full).flatmap(
        lambda x: st.sampled_from((x, x | target, x & target, x ^ full)))
    signals = draw(st.frozensets(values, max_size=6))
    new = signals if draw(st.booleans()) else draw(st.sets(values, max_size=10))
    return target, new, signals, full


class TestOneGateTest:
    @settings(max_examples=1000, deadline=None)
    @given(_one_gate_cases())
    def test_equals_the_any_version(self, case):
        assert synth._gate_with_new(*case) == gate_with_new(*case)

    def test_equals_the_any_version_on_every_three_input_child(self):
        # every target against the inputs and one more value, with the
        # new values one gate over them, and with new equal to signals
        inputs = frozenset(_three_input_table(0).input_vectors())
        verdicts = set()
        for extra in range(256):
            signals = inputs | {extra}
            made = {a ^ 255 for a in signals} | {0}
            made.update(op for a in signals for b in signals for op in (a & b, a | b, a ^ b))
            for new in (made - signals, signals):
                for target in range(256):
                    got = synth._gate_with_new(target, new, signals, 255)
                    assert got == gate_with_new(target, new, signals, 255), \
                        f"target {target:08b}, extra {extra:08b}"
                    verdicts.add(got)
        assert verdicts == {True, False}


@st.composite
def _shuffled_tables(draw):
    """A complete truth table over 1-4 inputs and 1-3 outputs, its rows in
    any order."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    outs = draw(st.lists(st.tuples(*[st.integers(0, 1)] * m),
                         min_size=2 ** n, max_size=2 ** n))
    rows = [(tuple((r >> (n - 1 - i)) & 1 for i in range(n)), out)
            for r, out in enumerate(outs)]
    return Requirement(tuple("abcd"[:n]), tuple(f"y{j}" for j in range(m)),
                       tuple(draw(st.permutations(rows))))


class TestPackedColumns:
    @settings(max_examples=300, deadline=None)
    @given(_shuffled_tables())
    def test_equal_the_per_row_columns(self, req):
        assert req.input_vectors() == input_vectors(req)
        assert req.target_vectors() == target_vectors(req)

    def test_each_call_returns_its_own_list(self, subtractor_req):
        expected = input_vectors(subtractor_req), target_vectors(subtractor_req)
        subtractor_req.input_vectors().clear()
        subtractor_req.target_vectors().clear()
        assert (subtractor_req.input_vectors(), subtractor_req.target_vectors()) == expected


def _table(vectors, n=3):
    """Truth table over ``n`` inputs whose output j is ``vectors[j]``
    packed by row (row r has input i equal to bit n-1-i of r)."""
    rows = tuple(
        (tuple((r >> (n - 1 - i)) & 1 for i in range(n)),
         tuple((v >> r) & 1 for v in vectors))
        for r in range(2 ** n)
    )
    return Requirement(tuple("abcd"[:n]), tuple(f"y{j}" for j in range(len(vectors))), rows)


def _random_pairs(seed, count):
    rng = random.Random(seed)
    return [(rng.randrange(256), rng.randrange(256)) for _ in range(count)]


# constants, the three inputs and their complements, every ordered pair of
# them, plus equal targets that need a gate
_A, _B, _C = 0xF0, 0xCC, 0xAA
_SPECIAL = (0, 255, _A, _B, _C, _A ^ 255, _B ^ 255, _C ^ 255)
EDGE_PAIRS = [(x, y) for x in _SPECIAL for y in _SPECIAL] + \
    [(t, t) for t in (0x96, 0x17, 0xE8, 0x69)]


def _digest(circuits):
    digest = hashlib.sha256()
    for circuit in circuits:
        digest.update(b"UNSAT\n" if circuit is None else _circuit_bytes(circuit))
    return digest.hexdigest()


class TestWalkAgainstOracle:
    """The fused walk returns the enumerate-then-assign search's circuit."""

    def test_one_fan_in_pass_holds_the_input_closure_and_the_slot_cover(self):
        for n in (1, 2, 3):
            for gate_count in (1, 2, 3):
                for slots in _enumerate_slot_sequences(n, gate_count):
                    assert synth._fan_in(n, slots) == fan_in(n, slots)

    def test_every_one_output_table_at_bounds_one_to_four(self):
        for table in range(256):
            req = _table([table])
            for max_gates in (1, 2, 3, 4):
                assert synth.synthesize_topology(req, max_gates) == \
                    enumerate_then_assign(req, max_gates), \
                    f"table {table:08b} at max_gates={max_gates}"

    @pytest.mark.parametrize("pairs", [_random_pairs(19, 24), EDGE_PAIRS],
                             ids=["random", "edge"])
    def test_two_output_pairs_at_bounds_one_to_four(self, pairs):
        for pair in pairs:
            req = _table(pair)
            for max_gates in (1, 2, 3, 4):
                assert synth.synthesize_topology(req, max_gates) == \
                    enumerate_then_assign(req, max_gates), \
                    f"targets {pair} at max_gates={max_gates}"

    def test_three_output_tables_at_bounds_four_and_five(self):
        # each table is three slots of a random circuit of four or five
        # gates, each gate giving a new value; three outputs give the most
        # choices of output slots, g ** 3 at g gates.  Of these 20 tables
        # 19 are SAT at bound 4 and all 20 at bound 5, one of them with
        # five gates, and some have several matching choices of slots
        rng = random.Random(2)
        solved = {4: 0, 5: 0}
        for _ in range(20):
            values = [_A, _B, _C]
            size = rng.choice((4, 5))
            while len(values) < 3 + size:
                a, b = rng.sample(values, 2)
                v = rng.choice((a ^ 255, a & b, a | b, a ^ b))
                if v not in values:
                    values.append(v)
            vectors = tuple(rng.sample(values[3:], 3))
            req = _table(vectors)
            for max_gates in (4, 5):
                circuit = synth.synthesize_topology(req, max_gates)
                assert circuit == enumerate_then_assign(req, max_gates), \
                    f"targets {vectors} at max_gates={max_gates}"
                solved[max_gates] += circuit is not None
        assert solved == {4: 19, 5: 20}

    def test_random_pairs_at_five_gates_are_pinned(self):
        # sha256 of the enumerate-then-assign outputs, which took 33 s on a
        # 2-vCPU Intel Xeon host; 9 of the 24 pairs need all five gates
        got = _digest(synth.synthesize_topology(_table(pair), 5)
                      for pair in _random_pairs(29, 24))
        assert got == "21315171a8495237dc5544e6068a362e3cec2535eea870b492ef0da3f6d0d506"

    def test_capped_bound_still_equals_oracle(self, monkeypatch):
        monkeypatch.setattr(synth, "_BOUND_STATES", 20)
        cases = [((table,), 4) for table in range(0, 256, 7)]
        cases += [(pair, max_gates) for pair in _random_pairs(19, 24)[:2] + EDGE_PAIRS[::7]
                  for max_gates in (1, 2, 3, 4)]
        for vectors, max_gates in cases:
            req = _table(vectors)
            assert synth.synthesize_topology(req, max_gates) == \
                enumerate_then_assign(req, max_gates), \
                f"targets {vectors} at max_gates={max_gates}"

    @pytest.mark.parametrize("vectors, n, max_gates, size, sha256", [
        ((231, 97), 3, 6, 6, "14b3bc15c9541da11d3ffe62ea4b37d4cdbce43e73fb2084d630122af73c7ac6"),
        ((228, 155), 3, 6, 6, "ceabe76bfd5ccfb14f9f10e3aadf53913294972144c9eb11c1f9976e5290075f"),
        ((15455,), 4, 5, 5, "6fc6b8cca0255c828e3c3bb24d8d85772915a893c341d63e7212d088b0c61169"),
    ], ids=["231-97", "228-155", "4-input-15455"])
    def test_large_searches_are_pinned(self, vectors, n, max_gates, size, sha256):
        # outputs of the enumerate-then-assign search, which took 27 s,
        # 212 s and 0.9 s on a 2-vCPU Intel Xeon host
        circuit = synth.synthesize_topology(_table(vectors, n), max_gates)
        assert len(circuit.gates) == size
        assert hashlib.sha256(_circuit_bytes(circuit)).hexdigest() == sha256


class TestToFunctionStructure:
    def test_standard_topology_reproduces_famous_pi(self, subtractor_circuit):
        from fractions import Fraction
        structure = synth.to_function_structure(subtractor_circuit, ("D", "Bout"))
        assert fs.validate(structure).ok
        assert fs.interdependency_index(structure) == Fraction(5, 7)

    def test_single_gate_has_pi_one(self):
        topo = Topology(("a", "b"), (GateSlot(2, ("a", "b")),), ("s0",))
        circuit = synth.Circuit(topo, (GateType.AND,))
        structure = synth.to_function_structure(circuit, ("y",))
        assert fs.interdependency_index(structure) == 1
        with pytest.raises(ValueError, match="one name per primary output"):
            synth.to_function_structure(circuit, ("y", "z"))

    def test_not_chain_has_pi_zero(self):
        topo = Topology(("a",), (GateSlot(1, ("a",)), GateSlot(1, ("s0",))), ("s1",))
        circuit = synth.Circuit(topo, (GateType.NOT, GateType.NOT))
        structure = synth.to_function_structure(circuit, ("y",))
        assert fs.interdependency_index(structure) == 0

    def test_conversion_always_validates(self, subtractor_req):
        circuit = synth.synthesize_topology(subtractor_req, 5)
        structure = synth.to_function_structure(circuit, subtractor_req.outputs)
        assert fs.validate(structure).ok


class TestStructuralInvariants:
    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            Topology(("a",), (GateSlot(1, ("s1",)), GateSlot(1, ("a",))), ("s1",))

    def test_unreachable_slot_rejected(self):
        with pytest.raises(ValueError, match=r"^slots unreachable from any output: \[0\]$"):
            Topology(("a", "b"),
                     (GateSlot(2, ("a", "b")), GateSlot(1, ("a",))),
                     ("s1",))

    def test_unreachable_slots_are_listed_in_ascending_order(self):
        # s3 reads s1 only; s0 and s2 feed nothing an output reads
        with pytest.raises(ValueError,
                           match=r"^slots unreachable from any output: \[0, 2\]$"):
            Topology(("a", "b"),
                     (GateSlot(1, ("a",)), GateSlot(2, ("a", "b")), GateSlot(1, ("s0",)),
                      GateSlot(1, ("s1",))),
                     ("s3",))

    def test_incomplete_truth_table_rejected(self):
        with pytest.raises(ValueError):
            Requirement(("a",), ("y",), (((0,), (0,)),))

    def test_duplicate_row_rejected(self):
        with pytest.raises(ValueError):
            Requirement(("a",), ("y",), (((0,), (0,)), ((0,), (1,))))

    @pytest.mark.parametrize("one", [True, 1.0, 2], ids=["bool", "float", "two"])
    @pytest.mark.parametrize("side", ["in", "out"])
    def test_bits_must_be_int_zero_or_one(self, one, side):
        zero = not one if isinstance(one, bool) else 0
        rows = [[(0,), (0,)], [(1,), (1,)]]
        rows[1][side == "out"] = (one,)
        rows[0][side == "out"] = (zero,)
        with pytest.raises(ValueError, match=r"rows must contain bits \(0 or 1\)"):
            Requirement(("a",), ("y",), tuple(map(tuple, rows)))

    @pytest.mark.parametrize("inputs, outputs, message", [
        (("a", "a"), ("y",), "primary input names must be unique"),
        (("s0", "b"), ("y",), "illegal primary input name 's0'"),
        (("", "b"), ("y",), "illegal primary input name ''"),
        (("a", "b"), ("y", "y"), "primary output names must be unique"),
        (("a", "b"), ("s1",), "illegal primary output name 's1'"),
    ])
    def test_requirement_names_follow_the_topology_rule(self, inputs, outputs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Requirement.from_function(inputs, outputs, lambda a, b: (a & b,) * len(outputs))

    @pytest.mark.parametrize("ref", ["s00", "s01", "s0\n", "s\u0660", "s\uff10", "s+0", " s0"],
                             ids=["zero-padded", "leading-zero", "newline", "arabic-indic",
                                  "fullwidth", "plus", "space"])
    def test_slot_refs_are_s_and_ascii_digits_without_leading_zeros(self, ref):
        # "^s(\d+)$" used to read s00, s01, s0 plus a newline and the
        # Unicode digits as slots 0, 1, 0 and 0; the sign and the space never
        quoted = re.escape(repr(ref))
        with pytest.raises(ValueError, match=f"^slot 1: unknown ref {quoted}$"):
            Topology(("a",), (GateSlot(1, ("a",)), GateSlot(1, (ref,))), ("s1",))
        with pytest.raises(ValueError, match=f"^output must reference a gate slot, got {quoted}$"):
            Topology(("a",), (GateSlot(1, ("a",)),), (ref,))

    @pytest.mark.parametrize("name", ["s0", "s00", "s0\n", "s\u0660", "s12"])
    def test_names_that_read_as_slot_refs_stay_illegal(self, name):
        with pytest.raises(ValueError, match="^illegal primary input name "):
            Topology((name,), (GateSlot(1, (name,)),), ("s0",))
        with pytest.raises(ValueError, match="^illegal primary output name "):
            Requirement.from_function(("a",), (name,), lambda a: (a,))

    @pytest.mark.parametrize("key, doc", [
        ("outputs", {"inputs": ["a"], "slots": [{"from": ["a"]}], "outputs": [5]}),
        ("inputs", {"inputs": [1], "slots": [{"from": ["s0"]}], "outputs": ["s0"]}),
    ])
    def test_topology_names_must_be_strings(self, key, doc):
        with pytest.raises(jsonio.SchemaError) as info:
            synth.parse_topology(json.dumps(doc))
        assert str(info.value) == f"$.{key}[0]: expected a string"
        assert info.value.location == f"$.{key}[0]"

    @pytest.mark.parametrize("arity", [True, 2.0], ids=["bool", "float"])
    def test_arity_must_be_int(self, arity):
        with pytest.raises(ValueError, match="arity must be 1 or 2"):
            Topology(("a", "b"), (GateSlot(arity, ("a", "b")),), ("s0",))

    def test_requirement_fixture_round_trips(self, subtractor_req):
        doc = {
            "inputs": list(subtractor_req.inputs),
            "outputs": list(subtractor_req.outputs),
            "rows": [{"in": list(i), "out": list(o)} for i, o in subtractor_req.rows],
        }
        assert synth.parse_requirement(json.dumps(doc)) == subtractor_req
