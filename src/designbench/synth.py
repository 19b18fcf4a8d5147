"""Exact synthesis of small Boolean circuits against truth tables.

Two search problems are solved at desk scale:

* gate assignment: given a fixed topology (slots with wired inputs) and
  a complete truth table, find gate types making the circuit match the
  table on every row, or report UNSAT;
* topology generation: additionally search over canonical topologies by
  increasing gate count and return the first satisfiable circuit.

Truth vectors are packed into integers, one bit per row; a requirement
packs its input and target columns once, in one pass over its rows.
Topology generation first bounds the number of gates the table needs
from below, breadth first over sets of computed truth vectors (Knuth's
minimum-cost computation, TAOCP 4A 7.1.2), testing each set as it is
made and never storing the last level.  Whether one gate reading a new
value makes a target is a lookup for NOT, a pass over the signals for XOR
that also collects the target's supersets and subsets, and, only if there
are any, a pass over the new values for AND and OR.  The bound is the
exact fewest number of gates while every stored level stays within
``_BOUND_STATES`` sets; once one outgrows it, the count proven so far is
returned, which is only a lower bound.  A table that needs more than
the allowed gates is UNSAT without enumerating a topology; otherwise the
search starts at the bound, since no smaller count can succeed.

Topologies and gate assignments are then searched together, in one
depth-first walk over canonical slot sequences that shares each slot
prefix's computed values between every topology extending it, and the
same bound drops a prefix whose remaining slots cannot produce the
targets it lacks.  On a fixed topology a loop assigns the slots in
order, checks an output slot as it gets its gate, and skips a state whose
slot and live values have failed before.  Both searches give a slot its
gates through one step.  Every returned circuit is re-verified row by
row through the scalar evaluator before it is handed back.  UNSAT is a
value (``None``), not an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, combinations_with_replacement, product
from typing import Collection, Optional, Sequence

from .funcstruct import BoundaryTerminal, Flow, FunctionStructure, FunctionVertex
from .jsonio import SchemaError, cached, expect, field, load_document, located

#: A slot ref: "s" and the slot's index in ASCII digits, without leading zeros.
_SLOT_REF = re.compile(r"s(0|[1-9][0-9]*)", re.ASCII)
#: What a primary name must not match, so no name reads as a slot ref.
_REF_LIKE = re.compile(r"^s(\d+)$")


class GateType(Enum):
    IDENTITY = "IDENTITY"
    NOT = "NOT"
    AND = "AND"
    OR = "OR"
    XOR = "XOR"

    @property
    def arity(self) -> int:
        return 1 if self in (GateType.IDENTITY, GateType.NOT) else 2


#: Candidate order for the lexicographically-first assignment.
GATE_ORDER = (GateType.IDENTITY, GateType.NOT, GateType.AND, GateType.OR, GateType.XOR)
_UNARY = tuple(g for g in GATE_ORDER if g.arity == 1)
_BINARY = tuple(g for g in GATE_ORDER if g.arity == 2)


def _check_names(names: Sequence[str], kind: str) -> None:
    """Primary input and output names are distinct, non-empty and never
    look like a slot ref, so every name is one signal and one terminal."""
    if len(set(names)) != len(names):
        raise ValueError(f"primary {kind} names must be unique")
    for name in names:
        if not name or _REF_LIKE.match(name):
            raise ValueError(f"illegal primary {kind} name {name!r}")


def _are_bits(values: Sequence[object]) -> bool:
    # True == 1 and 1.0 == 1 in Python, but neither is a bit
    return all(type(b) is int and b in (0, 1) for b in values)


@dataclass(frozen=True)
class GateSlot:
    arity: int
    refs: tuple[str, ...]  # primary input names or earlier slot refs ("s0", ...)


@dataclass(frozen=True)
class Topology:
    inputs: tuple[str, ...]
    slots: tuple[GateSlot, ...]
    outputs: tuple[str, ...]  # slot refs

    def __post_init__(self):
        _check_names(self.inputs, "input")
        if not self.slots:
            raise ValueError("a topology needs at least one gate slot")
        sources = []
        for j, slot in enumerate(self.slots):
            # True == 1 and 1.0 == 1 in Python, but neither is an arity
            if type(slot.arity) is not int or slot.arity not in (1, 2) \
                    or len(slot.refs) != slot.arity:
                raise ValueError(f"slot {j}: arity must be 1 or 2 and match the wiring")
            sources.append(tuple([self._resolve(ref, j) for ref in slot.refs]))
        if not self.outputs:
            raise ValueError("a topology needs at least one primary output")
        outputs = []
        for ref in self.outputs:
            match = _SLOT_REF.fullmatch(ref)
            if not match or int(match.group(1)) >= len(self.slots):
                raise ValueError(f"output must reference a gate slot, got {ref!r}")
            outputs.append(int(match.group(1)))
        # each slot's sources as internal indices, and each output's slot
        # index, resolved once, here
        self.__dict__.update(_sources=tuple(sources), _outputs=tuple(outputs))
        fan_in, reached = _fan_in(len(self.inputs), sources), 0
        for j in outputs:
            reached |= fan_in[j] >> len(self.inputs)
        unreachable = [j for j in range(len(self.slots)) if not reached >> j & 1]
        if unreachable:
            raise ValueError(f"slots unreachable from any output: {unreachable}")

    def _resolve(self, ref: str, slot_index: int) -> int:
        """Internal source index: inputs first, then slots."""
        match = _SLOT_REF.fullmatch(ref)
        if match:
            j = int(match.group(1))
            if j >= slot_index:
                raise ValueError(
                    f"slot {slot_index}: ref {ref!r} must point to an earlier slot"
                )
            return len(self.inputs) + j
        if ref in self.inputs:
            return self.inputs.index(ref)
        raise ValueError(f"slot {slot_index}: unknown ref {ref!r}")


@dataclass(frozen=True)
class Requirement:
    """A complete truth table: every input row with its expected outputs."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        n, m = len(self.inputs), len(self.outputs)
        if n < 1 or m < 1:
            raise ValueError("a requirement needs inputs and outputs")
        _check_names(self.inputs, "input")
        _check_names(self.outputs, "output")
        if len(self.rows) != 2 ** n:
            raise ValueError(f"expected {2 ** n} rows, got {len(self.rows)}")
        seen = set()
        for in_bits, out_bits in self.rows:
            if len(in_bits) != n or len(out_bits) != m:
                raise ValueError("row width does not match the declared names")
            if not _are_bits((*in_bits, *out_bits)):
                raise ValueError("rows must contain bits (0 or 1)")
            if in_bits in seen:
                raise ValueError(f"duplicate row for inputs {in_bits}")
            seen.add(in_bits)

    @classmethod
    def from_function(cls, inputs: Sequence[str], outputs: Sequence[str],
                      fn) -> "Requirement":
        n = len(inputs)
        rows = []
        for r in range(2 ** n):
            in_bits = tuple((r >> (n - 1 - i)) & 1 for i in range(n))
            rows.append((in_bits, tuple(fn(*in_bits))))
        return cls(tuple(inputs), tuple(outputs), tuple(rows))

    @cached
    def _columns(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The packed input and target columns: bit ``r`` of each is its
        value on the row whose input bits spell ``r`` in binary."""
        n = len(self.inputs)
        columns = [0] * (n + len(self.outputs))
        for in_bits, out_bits in self.rows:
            r = 0
            for bit in in_bits:
                r = r << 1 | bit
            row = 1 << r
            for i, bit in enumerate(in_bits + out_bits):
                if bit:
                    columns[i] |= row
        return tuple(columns[:n]), tuple(columns[n:])

    def input_vectors(self) -> list[int]:
        """Per input, the packed column of its value over all rows."""
        return list(self._columns[0])

    def target_vectors(self) -> list[int]:
        return list(self._columns[1])

    def supports(self) -> list[frozenset[int]]:
        """Per output, the inputs it truly depends on: input ``i`` is one
        iff the column differs from itself with input ``i`` flipped."""
        n = len(self.inputs)
        full = (1 << 2 ** n) - 1
        inputs, targets = self._columns
        return [frozenset(i for i, x in enumerate(inputs)
                          if (t & x) >> (1 << (n - 1 - i)) != t & (full ^ x)) for t in targets]


@dataclass(frozen=True)
class Circuit:
    topology: Topology
    gates: tuple[GateType, ...]

    def __post_init__(self):
        if len(self.gates) != len(self.topology.slots):
            raise ValueError("one gate per slot required")
        for j, (gate, slot) in enumerate(zip(self.gates, self.topology.slots)):
            if gate.arity != slot.arity:
                raise ValueError(f"slot {j}: gate {gate.name} does not fit arity {slot.arity}")


def _gate_value(gate: GateType, operands: Sequence[int]) -> int:
    if gate is GateType.IDENTITY:
        return operands[0]
    if gate is GateType.NOT:
        return 1 - operands[0]
    if gate is GateType.AND:
        return operands[0] & operands[1]
    if gate is GateType.OR:
        return operands[0] | operands[1]
    return operands[0] ^ operands[1]


def evaluate(circuit: Circuit, bits: Sequence[int]) -> tuple[int, ...]:
    """Topological evaluation of one input row."""
    topo = circuit.topology
    if len(bits) != len(topo.inputs):
        raise ValueError(
            f"expected {len(topo.inputs)} input bits, got {len(bits)}"
        )
    if not _are_bits(bits):
        raise ValueError("input bits must be 0 or 1")
    values = list(bits)
    for gate, sources in zip(circuit.gates, topo._sources):
        values.append(_gate_value(gate, [values[s] for s in sources]))
    n = len(topo.inputs)
    return tuple(values[n + j] for j in topo._outputs)


def _assign_slot(reached: Sequence[tuple[tuple[int, ...], tuple[GateType, ...]]],
                 refs: tuple[int, ...], input_vecs: tuple[int, ...], full: int,
                 keep) -> list[tuple[tuple[int, ...], tuple[GateType, ...]]]:
    """The children of the states of ``reached`` (slot values and their gates)
    when the next slot, reading ``refs``, takes each gate of ``GATE_ORDER``:
    those whose values no earlier child has and ``keep`` accepts, in order."""
    seen: set[tuple[int, ...]] = set()
    grown = []
    unary = len(refs) == 1
    candidates = _UNARY if unary else _BINARY
    first, second = refs[0], refs[-1]
    for values, gates in reached:
        signals = input_vecs + values
        a, b = signals[first], signals[second]
        vecs = (a, a ^ full) if unary else (a & b, a | b, a ^ b)  # per gate of candidates
        for gate, vec in zip(candidates, vecs):
            longer = values + (vec,)
            if longer in seen:
                continue
            seen.add(longer)
            if keep(longer):
                grown.append((longer, gates + (gate,)))
    return grown


def _verify(circuit: Circuit, requirement: Requirement) -> None:
    # Mandatory post-check through the scalar evaluator; a failure here
    # means a bug in the vectorised search, not a property of the input.
    for in_bits, out_bits in requirement.rows:
        got = evaluate(circuit, in_bits)
        if got != out_bits:
            raise RuntimeError(
                f"synthesised circuit fails verification on row {in_bits}: "
                f"expected {out_bits}, got {got}"
            )


def synthesize_assignment(topology: Topology,
                          requirement: Requirement) -> Optional[Circuit]:
    """Problem 1: fill a fixed topology's slots with gates so the circuit
    realises the table, or return ``None`` (UNSAT).  The topology names
    the requirement's inputs, in its order.

    The search goes depth first along the slots and stops at its first
    success, expanding a state by ``_assign_slot`` with the slot's output
    check as ``keep``.  Whether a state completes depends only on its slot
    and its live values, those of earlier slots that a later slot reads.
    A child is pushed only if no state pushed before it had both.  That
    state precedes it in gate order and is searched to the end first: the
    search stops there, or it fails and so would the child.  So the first
    success is the lexicographically-first assignment."""
    if len(topology.inputs) != len(requirement.inputs):
        raise ValueError(
            f"topology has {len(topology.inputs)} inputs, "
            f"requirement has {len(requirement.inputs)}"
        )
    if topology.inputs != requirement.inputs:
        raise ValueError(f"topology inputs are {list(topology.inputs)}, "
                         f"requirement inputs are {list(requirement.inputs)}")
    if len(topology.outputs) != len(requirement.outputs):
        raise ValueError(
            f"topology has {len(topology.outputs)} outputs, "
            f"requirement has {len(requirement.outputs)}"
        )
    n, sources = len(topology.inputs), topology._sources
    full = (1 << 2 ** n) - 1
    input_vecs = tuple(requirement.input_vectors())
    wanted: list[set[int]] = [set() for _ in sources]
    for slot, target in zip(topology._outputs, requirement.target_vectors()):
        wanted[slot].add(target)
    last_reader = {r - n: k for k, refs in enumerate(sources) for r in refs if r >= n}
    # per slot: its targets all equal its value; the slots up to it that later slots read
    keeps, live, reads = [], [], ()
    for j, targets in enumerate(wanted):
        keeps.append(lambda values, targets=targets: targets <= {values[-1]})
        reads = tuple(i for i in (*reads, j) if last_reader.get(i, j) > j)
        live.append(reads)
    seen: set[tuple[int, ...]] = set()
    stack = [((), ())]
    while stack:
        state = stack.pop()
        j = len(state[1])
        if j == len(sources):
            circuit = Circuit(topology, state[1])
            _verify(circuit, requirement)
            return circuit
        fresh = []
        for child in _assign_slot([state], sources[j], input_vecs, full, keeps[j]):
            key = (j, *map(child[0].__getitem__, live[j]))
            if key not in seen:
                seen.add(key)
                fresh.append(child)
        stack += reversed(fresh)
    return None


# ---------------------------------------------------------------------------
# Problem 2: canonical topology enumeration

def _ref_choices(n_sources: int) -> list[tuple[int, tuple[int, ...]]]:
    """(arity, refs) choices over ``n_sources`` sources, in canonical order.

    Binary gates in the vocabulary are all commutative, so refs are
    unordered (sorted, repeats allowed).
    """
    return [(1, (a,)) for a in range(n_sources)] + \
        [(2, refs) for refs in combinations_with_replacement(range(n_sources), 2)]


def _fan_in(n_inputs: int, slots: list[tuple[int, ...]]) -> list[int]:
    """Per slot, bitmask of its transitive fan-in, itself included: input
    ``i`` is bit ``i`` and slot ``j`` is bit ``n_inputs + j``."""
    out: list[int] = []
    for j, refs in enumerate(slots):
        mask = 1 << (n_inputs + j)
        for r in refs:
            mask |= (1 << r) if r < n_inputs else out[r - n_inputs]
        out.append(mask)
    return out


def _slot_sequence_to_topology(input_names: tuple[str, ...],
                               slots: list[tuple[int, ...]],
                               output_slots: tuple[int, ...]) -> Topology:
    n = len(input_names)

    def ref_name(source: int) -> str:
        return input_names[source] if source < n else f"s{source - n}"

    gate_slots = tuple(
        GateSlot(len(refs), tuple(ref_name(r) for r in refs)) for refs in slots
    )
    return Topology(input_names, gate_slots, tuple(f"s{j}" for j in output_slots))


def _gate_with_new(target: int, new: Collection[int], signals: Collection[int],
                   full: int) -> bool:
    """Whether a gate reading a value ``v`` of ``new`` computes ``target``:
    NOT ``v``, or ``v`` XOR a signal, AND a superset or OR a subset.  With
    ``new`` equal to ``signals``, whether any gate over them does.  A pass
    over ``signals`` tests XOR and keeps each superset's extra bits and each
    subset; a pass over ``new`` then finds an AND as disjoint extra bits if
    there are supersets, and another an OR as a covering union if subsets."""
    if target ^ full in new:
        return True
    extras, parts = [], []
    for s in signals:
        if s ^ target in new:
            return True
        if s & target == target:
            extras.append(s ^ target)
        if s | target == target:
            parts.append(s)
    if extras:
        for v in new:
            if v & target == target:
                extra = v ^ target
                for e in extras:
                    if not extra & e:
                        return True
    if parts:
        for v in new:
            if v | target == target:
                for s in parts:
                    if v | s == target:
                        return True
    return False


#: Slot-value sets ``_fewest_gates`` stores in one level (tens of MB).  A
#: stored level that outgrows it ends the bound early with the count
#: proven so far; the last level is never stored, so never capped.  The
#: topology walk takes over, and the capped bound still drops hopeless
#: prefixes.  Three-input single-output tables stay well below it.
_BOUND_STATES = 100_000


def _fewest_gates(input_vecs: Sequence[int], targets: Sequence[int], full: int,
                  max_gates: int) -> Optional[int]:
    """Smallest gate count, up to ``max_gates``, of a circuit whose slots
    carry every target vector; ``None`` if more gates are needed.  If a
    stored level outgrows ``_BOUND_STATES``, the count proven so far is
    returned instead: still a lower bound, no longer exact.

    This is the minimum-cost computation over sets of computed functions
    (Knuth, TAOCP 4A, 7.1.2), searched breadth first over *sets* of slot
    values, one level per gate count.  A minimum circuit never holds a
    slot whose vector equals an earlier signal, unless that slot is an
    output carrying a target equal to a primary input that no earlier
    slot holds: otherwise rewiring the slot's consumers (and outputs) to
    the earlier signal would drop a gate.  So the gates worth counting
    each add a vector that is not yet a signal, except for the one
    IDENTITY slot per input-valued target.  Such a slot is never a useful
    operand (its value is already an input), so those targets cost one
    gate each and the search runs on the rest with the remaining gates.
    Every slot-value set a minimum circuit passes through is therefore
    visited, and every visited set comes from a real circuit, so the
    count is exact.

    One pass per level computes a state's one-gate values once and tests
    each child as its value ``v`` is made.  No stored state finishes with
    one more gate (the root is tested first, later states as children),
    so a child lacking only ``t`` does iff that gate reads ``v``, or ``v``
    was the other missing target and ``t`` is new too.  Only levels to be
    expanded are stored, without states lacking more targets than gates.
    """
    inputs = frozenset(input_vecs)
    wanted = frozenset(targets)
    held = len(wanted & inputs)
    wanted -= inputs
    budget = max_gates - held
    if len(wanted) > budget:
        return None
    if not wanted:
        return held
    if len(wanted) == 1 and _gate_with_new(next(iter(wanted)), inputs, inputs, full):
        return held + 1
    frontier: set[frozenset[int]] = {frozenset()}
    for size in range(budget - 1):  # children of size + 1 values finish at size + 2
        left = budget - size - 1
        grown: set[frozenset[int]] = set()
        for state in frontier:
            signals = inputs | state
            missing = wanted - state
            new = {a ^ full for a in signals}
            new.add(0)  # a XOR a
            add = new.add
            for a, b in combinations(signals, 2):
                add(a & b)
                add(a | b)
                add(a ^ b)
            new -= signals
            if len(missing) <= 2:
                # children lacking only t: any new value, or the other target
                for t in missing:
                    rest = missing - {t}
                    if rest <= new and (t in new or _gate_with_new(t, rest or new, signals, full)):
                        return held + size + 2
            if left > 1:
                children = new if len(missing) <= left else new & missing
                grown.update({state | {v} for v in children})
                if len(grown) > _BOUND_STATES:
                    return held + size + 2
        frontier = grown
    return None


def synthesize_topology(requirement: Requirement,
                        max_gates: int) -> Optional[Circuit]:
    """Problem 2: search canonical topologies by increasing gate count and
    return the first circuit (with its lexicographically-first gate
    assignment) that realises the table; ``None`` if the bound is hit.

    The fewest-gates count (``_fewest_gates``) is computed first.  If it
    exceeds ``max_gates`` the answer is UNSAT without enumerating any
    topology; otherwise the search starts at that count.  It returns only
    verified circuits, so no count below a lower bound can succeed, and
    skipping those counts returns the same first circuit.

    At each count one depth-first walk visits the canonical slot
    sequences (slots sorted by (depth, arity, refs); every abstract
    topology has at least one such labelling, so the walk is complete but
    may repeat a structure) and assigns gates on the way down.  A prefix
    carries the distinct tuples of slot values its assignments reach,
    each with the lexicographically-first assignment reaching it, in
    that order.  At a full sequence, every choice of output slots that
    spans the needed inputs and covers every slot takes the first tuple
    whose output slots carry the targets.  The result is the circuit the
    plain enumerate-then-assign search returns, for two reasons:

    * a slot's value depends only on the values before it, so extending
      each kept tuple in order, gate by gate, and keeping the first
      assignment per new tuple yields the lexicographically-first
      assignment of every reachable tuple, and the first matching tuple
      carries the first matching assignment;
    * a tuple is dropped only when ``_fewest_gates`` finds that the
      remaining slots cannot carry the targets no slot holds yet.  That
      count is a lower bound even when ``_BOUND_STATES`` caps a level,
      so only tuples without any completion are dropped."""
    if max_gates < 1:
        raise ValueError("max_gates must be at least 1")
    n = len(requirement.inputs)
    full = (1 << 2 ** n) - 1
    input_vecs = tuple(requirement.input_vectors())
    targets = requirement.target_vectors()
    fewest = _fewest_gates(input_vecs, targets, full, max_gates)
    if fewest is None:
        return None
    support_masks = [
        sum(1 << i for i in support) for support in requirement.supports()
    ]
    completable: dict[tuple[frozenset[int], int], bool] = {}
    wanted = frozenset(targets)

    def can_complete(values: tuple[int, ...], left: int) -> bool:
        if not left:
            return wanted.issubset(values)
        key = (frozenset(values), left)
        verdict = completable.get(key)
        if verdict is None:
            missing = [t for t in targets if t not in key[0]]
            verdict = _fewest_gates(input_vecs + values, missing, full, left) is not None
            completable[key] = verdict
        return verdict

    slots: list[tuple[int, ...]] = []
    depths = [0] * n  # per source, inputs first
    choices: list[list[tuple[int, tuple[int, ...]]]] = []  # per slot, up to the gate count

    def finish(reached) -> Optional[Circuit]:
        gate_count = len(slots)
        fan_in = _fan_in(n, slots)
        # Per output position, slots whose fan-in spans the needed inputs.
        candidates = [
            [j for j in range(gate_count) if fan_in[j] & support == support]
            for support in support_masks
        ]
        if any(not c for c in candidates):
            return None
        all_slots_mask = (1 << gate_count) - 1
        for output_slots in product(*candidates):
            covered = 0
            for j in output_slots:
                covered |= fan_in[j]
            if covered >> n != all_slots_mask:
                continue
            for values, gates in reached:
                if all(values[j] == t for j, t in zip(output_slots, targets)):
                    topology = _slot_sequence_to_topology(
                        requirement.inputs, slots, output_slots
                    )
                    circuit = Circuit(topology, gates)
                    _verify(circuit, requirement)
                    return circuit
        return None

    def walk(prev_key, reached, gate_count: int) -> Optional[Circuit]:
        j = len(slots)
        if j == gate_count:
            return finish(reached)
        for arity, refs in choices[j]:
            depth = 1 + max(depths[refs[0]], depths[refs[-1]])
            key = (depth, arity, refs)
            if key < prev_key:
                continue
            grown = _assign_slot(reached, refs, input_vecs, full,
                                 lambda values: can_complete(values, gate_count - j - 1))
            if not grown:
                continue
            slots.append(refs)
            depths.append(depth)
            circuit = walk(key, grown, gate_count)
            slots.pop()
            depths.pop()
            if circuit is not None:
                return circuit
        return None

    try:
        for gate_count in range(fewest, max_gates + 1):
            while len(choices) < gate_count:
                choices.append(_ref_choices(n + len(choices)))
            circuit = walk((0, 0, ()), [((), ())], gate_count)
            if circuit is not None:
                return circuit
    finally:
        del walk  # walk reaches itself through its closure: break that cycle
    return None


# ---------------------------------------------------------------------------
# Bridge to function structures

def to_function_structure(circuit: Circuit, output_names: Sequence[str]) -> FunctionStructure:
    """One function vertex per gate, one flow per wire, terminals at the
    boundary; the result is ready for interdependency scoring.  Output
    ``j`` is named ``output_names[j]``, as in a requirement's ``outputs``."""
    topo = circuit.topology
    n = len(topo.inputs)
    if len(output_names) != len(topo.outputs):
        raise ValueError("one name per primary output required")

    def signal(source: int) -> str:
        return topo.inputs[source] if source < n else f"s{source - n}"

    vertices = tuple(
        FunctionVertex(id=f"s{j}", label=gate.name)
        for j, gate in enumerate(circuit.gates)
    )
    terminals = [
        BoundaryTerminal(id=f"in_{name}", kind="input", label=name)
        for name in topo.inputs
    ]
    flows = []
    for j, sources in enumerate(topo._sources):
        for src in sources:
            origin = f"in_{signal(src)}" if src < n else f"s{src - n}"
            flows.append(Flow(source=origin, target=f"s{j}", label=signal(src)))
    for name, slot in zip(output_names, topo._outputs):
        terminals.append(BoundaryTerminal(id=f"out_{name}", kind="output", label=name))
        flows.append(Flow(source=f"s{slot}", target=f"out_{name}", label=name))
    return FunctionStructure(vertices, tuple(terminals), tuple(flows))


# ---------------------------------------------------------------------------
# JSON formats (.req.json / .topo.json / circuit output)

def parse_requirement(data: bytes | str) -> Requirement:
    doc = expect(load_document(data), dict, "$")
    inputs, outputs, raw_rows = (field(doc, key, list, "$")
                                 for key in ("inputs", "outputs", "rows"))
    for key, kind in (("inputs", "input"), ("outputs", "output")):
        for i, name in enumerate(doc[key]):
            expect(name, str, f"$.{key}[{i}]")
        located(f"$.{key}", _check_names, doc[key], kind)
    rows = []
    for i, row in enumerate(raw_rows):
        loc = f"$.rows[{i}]"
        bits_in = field(expect(row, dict, loc), "in", list, loc)
        bits_out = field(row, "out", list, loc)
        if not _are_bits((*bits_in, *bits_out)):
            raise SchemaError("rows must contain bits (0 or 1)", loc)
        rows.append((tuple(bits_in), tuple(bits_out)))
    return located("$", Requirement, tuple(inputs), tuple(outputs), tuple(rows))


def parse_topology(data: bytes | str) -> Topology:
    doc = expect(load_document(data), dict, "$")
    inputs, raw_slots, outputs = (field(doc, key, list, "$")
                                  for key in ("inputs", "slots", "outputs"))
    for key in ("inputs", "outputs"):
        for i, name in enumerate(doc[key]):
            expect(name, str, f"$.{key}[{i}]")
    slots = []
    for i, slot in enumerate(raw_slots):
        loc = f"$.slots[{i}]"
        refs = field(expect(slot, dict, loc), "from", list, loc)
        for j, ref in enumerate(refs):
            expect(ref, str, f"{loc}.from[{j}]")
        slots.append(GateSlot(field(slot, "arity", int, loc, len(refs)), tuple(refs)))
    return located("$", Topology, tuple(inputs), tuple(slots), tuple(outputs))


def circuit_to_dict(circuit: Circuit) -> dict:
    topo = circuit.topology
    return {
        "inputs": list(topo.inputs),
        "slots": [
            {"arity": slot.arity, "from": list(slot.refs), "gate": gate.name}
            for slot, gate in zip(topo.slots, circuit.gates)
        ],
        "outputs": list(topo.outputs),
    }
