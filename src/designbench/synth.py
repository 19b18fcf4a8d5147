"""Exact synthesis of small Boolean circuits against truth tables.

Two search problems are solved at desk scale:

* gate assignment: given a fixed topology (slots with wired inputs) and
  a complete truth table, find gate types making the circuit match the
  table on every row, or report UNSAT;
* topology generation: additionally search over canonical topologies by
  increasing gate count and return the first satisfiable circuit.

Truth vectors are packed into integers, one bit per row.  Topology
generation first computes the exact fewest number of gates the table
needs, breadth first over sets of computed truth vectors (Knuth's
minimum-cost computation, TAOCP 4A 7.1.2), testing each set as it is
made and never storing the last level.  A count above the bound is UNSAT
without enumerating a topology; otherwise the search starts at that
count, since no smaller one can succeed.

Topologies and gate assignments are then searched together, in one
depth-first walk over canonical slot sequences that shares each slot
prefix's computed values between every topology extending it, and the
same bound drops a prefix whose remaining slots cannot produce the
targets it lacks.  Gate assignment on a fixed topology stays plain
backtracking, with any slot wired to a primary output checked the moment
it is assigned.  Every returned circuit is re-verified row by row
through the scalar evaluator before it is handed back.  UNSAT is a value
(``None``), not an error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations, product
from typing import Collection, Optional, Sequence

from .funcstruct import BoundaryTerminal, Flow, FunctionStructure, FunctionVertex
from .jsonio import SchemaError, load_document

_SLOT_REF = re.compile(r"^s(\d+)$")


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
        if not name or _SLOT_REF.match(name):
            raise ValueError(f"illegal primary {kind} name {name!r}")


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
        for j, slot in enumerate(self.slots):
            # True == 1 and 1.0 == 1 in Python, but neither is an arity
            if type(slot.arity) is not int or slot.arity not in (1, 2) \
                    or len(slot.refs) != slot.arity:
                raise ValueError(f"slot {j}: arity must be 1 or 2 and match the wiring")
            for ref in slot.refs:
                self._resolve(ref, j)
        if not self.outputs:
            raise ValueError("a topology needs at least one primary output")
        for ref in self.outputs:
            match = _SLOT_REF.match(ref)
            if not match or int(match.group(1)) >= len(self.slots):
                raise ValueError(f"output must reference a gate slot, got {ref!r}")
        unreachable = set(range(len(self.slots))) - self._reachable_slots()
        if unreachable:
            raise ValueError(f"slots unreachable from any output: {sorted(unreachable)}")

    def _resolve(self, ref: str, slot_index: int) -> int:
        """Internal source index: inputs first, then slots."""
        match = _SLOT_REF.match(ref)
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

    @cached_property
    def _sources(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self._resolve(ref, j) for ref in slot.refs)
                     for j, slot in enumerate(self.slots))

    @cached_property
    def _outputs(self) -> tuple[int, ...]:
        return tuple(int(_SLOT_REF.match(ref).group(1)) for ref in self.outputs)

    def source_indices(self) -> list[tuple[int, ...]]:
        return list(self._sources)

    def output_slots(self) -> tuple[int, ...]:
        return self._outputs

    def _reachable_slots(self) -> set[int]:
        n = len(self.inputs)
        seen: set[int] = set()
        stack = list(self.output_slots())
        sources = self.source_indices()
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            for src in sources[j]:
                if src >= n:
                    stack.append(src - n)
        return seen


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
            # True == 1 and 1.0 == 1 in Python, but neither is a bit
            if not all(type(b) is int and b in (0, 1) for b in (*in_bits, *out_bits)):
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

    def _row_index(self, in_bits: tuple[int, ...]) -> int:
        n = len(self.inputs)
        return sum(bit << (n - 1 - i) for i, bit in enumerate(in_bits))

    def input_vectors(self) -> list[int]:
        """Per input, the packed column of its value over all rows."""
        vecs = [0] * len(self.inputs)
        for in_bits, _ in self.rows:
            r = self._row_index(in_bits)
            for i, bit in enumerate(in_bits):
                vecs[i] |= bit << r
        return vecs

    def target_vectors(self) -> list[int]:
        vecs = [0] * len(self.outputs)
        for in_bits, out_bits in self.rows:
            r = self._row_index(in_bits)
            for j, bit in enumerate(out_bits):
                vecs[j] |= bit << r
        return vecs

    def supports(self) -> list[frozenset[int]]:
        """Per output, the set of inputs the table truly depends on."""
        n = len(self.inputs)
        targets = self.target_vectors()
        out = []
        for t in targets:
            support = set()
            for i in range(n):
                flip = 1 << (n - 1 - i)
                if any(((t >> r) & 1) != ((t >> (r ^ flip)) & 1) for r in range(2 ** n)):
                    support.add(i)
            out.append(frozenset(support))
        return out


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
    # True == 1 and 1.0 == 1 in Python, but neither is a bit
    if not all(type(b) is int and b in (0, 1) for b in bits):
        raise ValueError("input bits must be 0 or 1")
    values = list(bits)
    for gate, sources in zip(circuit.gates, topo._sources):
        values.append(_gate_value(gate, [values[s] for s in sources]))
    n = len(topo.inputs)
    return tuple(values[n + j] for j in topo._outputs)


def _gate_vector(gate: GateType, operands: Sequence[int], full: int) -> int:
    if gate is GateType.IDENTITY:
        return operands[0]
    if gate is GateType.NOT:
        return operands[0] ^ full
    if gate is GateType.AND:
        return operands[0] & operands[1]
    if gate is GateType.OR:
        return operands[0] | operands[1]
    return operands[0] ^ operands[1]


def _search_assignment(slot_sources: list[tuple[int, ...]], input_vecs: list[int],
                       checked: dict[int, list[int]], full: int) -> Optional[list[GateType]]:
    """Lexicographically-first gate assignment; slots wired to an output
    are compared against their target vector as soon as they get a gate."""
    gate_count = len(slot_sources)
    n = len(input_vecs)
    values = input_vecs + [0] * gate_count
    assignment: list[GateType] = [GateType.IDENTITY] * gate_count

    def backtrack(j: int) -> bool:
        if j == gate_count:
            return True
        sources = slot_sources[j]
        operands = [values[s] for s in sources]
        candidates = _UNARY if len(sources) == 1 else _BINARY
        targets = checked.get(j)
        for gate in candidates:
            vec = _gate_vector(gate, operands, full)
            if targets is not None and any(vec != t for t in targets):
                continue
            values[n + j] = vec
            assignment[j] = gate
            if backtrack(j + 1):
                return True
        return False

    return list(assignment) if backtrack(0) else None


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
    realises the table, or return ``None`` (UNSAT)."""
    if len(topology.inputs) != len(requirement.inputs):
        raise ValueError(
            f"topology has {len(topology.inputs)} inputs, "
            f"requirement has {len(requirement.inputs)}"
        )
    if len(topology.outputs) != len(requirement.outputs):
        raise ValueError(
            f"topology has {len(topology.outputs)} outputs, "
            f"requirement has {len(requirement.outputs)}"
        )
    full = (1 << 2 ** len(topology.inputs)) - 1
    targets = requirement.target_vectors()
    checked: dict[int, list[int]] = {}
    for position, slot in enumerate(topology.output_slots()):
        checked.setdefault(slot, []).append(targets[position])

    gates = _search_assignment(topology.source_indices(), requirement.input_vectors(),
                               checked, full)
    if gates is None:
        return None
    circuit = Circuit(topology, tuple(gates))
    _verify(circuit, requirement)
    return circuit


# ---------------------------------------------------------------------------
# Problem 2: canonical topology enumeration

def _ref_choices(n_sources: int) -> list[tuple[int, tuple[int, ...]]]:
    """(arity, refs) choices over ``n_sources`` sources, in canonical order.

    Binary gates in the vocabulary are all commutative, so refs are
    unordered (sorted, repeats allowed).
    """
    choices: list[tuple[int, tuple[int, ...]]] = []
    for a in range(n_sources):
        choices.append((1, (a,)))
    for a in range(n_sources):
        for b in range(a, n_sources):
            choices.append((2, (a, b)))
    return choices


def _closures(n_inputs: int, slots: list[tuple[int, ...]]) -> list[int]:
    """Per slot, bitmask of primary inputs in its transitive fan-in."""
    out: list[int] = []
    for refs in slots:
        mask = 0
        for r in refs:
            mask |= (1 << r) if r < n_inputs else out[r - n_inputs]
        out.append(mask)
    return out


def _backward_cover(n_inputs: int, slots: list[tuple[int, ...]]) -> list[int]:
    """Per slot, bitmask of slots in its transitive fan-in (itself included)."""
    out: list[int] = []
    for j, refs in enumerate(slots):
        mask = 1 << j
        for r in refs:
            if r >= n_inputs:
                mask |= out[r - n_inputs]
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


def _gate_with_new(target: int, new: Collection[int], signals: frozenset[int],
                   full: int) -> bool:
    """Whether a gate reading a value ``v`` of ``new`` computes ``target``:
    NOT ``v``, or ``v`` XOR a signal, AND a superset or OR a subset.  With
    ``new`` equal to ``signals``, whether any gate over them does."""
    if target ^ full in new or any(s ^ target in new for s in signals):
        return True
    return any(v & s == target for v in new if v & target == target for s in signals) \
        or any(v | s == target for v in new if v | target == target for s in signals)


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
                grown.update(state | {v} for v in (new if len(missing) <= left else new & missing))
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
    m = len(requirement.outputs)
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

    def can_complete(values: tuple[int, ...], left: int) -> bool:
        key = (frozenset(values), left)
        verdict = completable.get(key)
        if verdict is None:
            missing = [t for t in targets if t not in key[0]]
            verdict = _fewest_gates(input_vecs + values, missing, full, left) is not None
            completable[key] = verdict
        return verdict

    def extend(reached: list[tuple[tuple[int, ...], tuple[GateType, ...]]],
               refs: tuple[int, ...], left: int):
        seen: set[tuple[int, ...]] = set()
        grown = []
        candidates = _UNARY if len(refs) == 1 else _BINARY
        for values, gates in reached:
            signals = input_vecs + values
            operands = [signals[r] for r in refs]
            for gate in candidates:
                longer = values + (_gate_vector(gate, operands, full),)
                if longer in seen:
                    continue
                seen.add(longer)
                if can_complete(longer, left):
                    grown.append((longer, gates + (gate,)))
        return grown

    slots: list[tuple[int, ...]] = []
    depths: list[int] = []

    def finish(reached) -> Optional[Circuit]:
        gate_count = len(slots)
        closures = _closures(n, slots)
        cover = _backward_cover(n, slots)
        # Per output position, slots whose fan-in spans the needed inputs.
        candidates = [
            [j for j in range(gate_count) if closures[j] & support_masks[p] == support_masks[p]]
            for p in range(m)
        ]
        if any(not c for c in candidates):
            return None
        all_slots_mask = (1 << gate_count) - 1
        for output_slots in product(*candidates):
            covered = 0
            for j in output_slots:
                covered |= cover[j]
            if covered != all_slots_mask:
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
        for arity, refs in _ref_choices(n + j):
            depth = 1 + max(0 if r < n else depths[r - n] for r in refs)
            key = (depth, arity, refs)
            if key < prev_key:
                continue
            grown = extend(reached, refs, gate_count - j - 1)
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

    for gate_count in range(fewest, max_gates + 1):
        circuit = walk((0, 0, ()), [((), ())], gate_count)
        if circuit is not None:
            return circuit
    return None


# ---------------------------------------------------------------------------
# Bridge to function structures

def to_function_structure(circuit: Circuit,
                          output_names: Optional[Sequence[str]] = None) -> FunctionStructure:
    """One function vertex per gate, one flow per wire, terminals at the
    boundary; the result is ready for interdependency scoring."""
    topo = circuit.topology
    n = len(topo.inputs)
    if output_names is None:
        output_names = [f"out{j}" for j in range(len(topo.outputs))]
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
    for j, sources in enumerate(topo.source_indices()):
        for src in sources:
            origin = f"in_{signal(src)}" if src < n else f"s{src - n}"
            flows.append(Flow(source=origin, target=f"s{j}", label=signal(src)))
    for name, slot in zip(output_names, topo.output_slots()):
        terminals.append(BoundaryTerminal(id=f"out_{name}", kind="output", label=name))
        flows.append(Flow(source=f"s{slot}", target=f"out_{name}", label=name))
    return FunctionStructure(vertices, tuple(terminals), tuple(flows))


# ---------------------------------------------------------------------------
# JSON formats (.req.json / .topo.json / circuit output)

def requirement_from_dict(doc: object, location: str = "$") -> Requirement:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", location)
    for key in ("inputs", "outputs", "rows"):
        if not isinstance(doc.get(key), list):
            raise SchemaError(f"'{key}' must be an array", f"{location}.{key}")
    for key, kind in (("inputs", "input"), ("outputs", "output")):
        if not all(isinstance(x, str) for x in doc[key]):
            raise SchemaError(f"'{key}' must contain strings", f"{location}.{key}")
        try:
            _check_names(doc[key], kind)
        except ValueError as exc:
            raise SchemaError(str(exc), f"{location}.{key}") from exc
    rows = []
    for i, row in enumerate(doc["rows"]):
        loc = f"{location}.rows[{i}]"
        if not isinstance(row, dict) or not isinstance(row.get("in"), list) \
                or not isinstance(row.get("out"), list):
            raise SchemaError("row needs 'in' and 'out' bit arrays", loc)
        # JSON true/false are not bits, although True == 1 in Python
        if not all(type(b) is int and b in (0, 1) for b in (*row["in"], *row["out"])):
            raise SchemaError("rows must contain bits (0 or 1)", loc)
        rows.append((tuple(row["in"]), tuple(row["out"])))
    try:
        return Requirement(tuple(doc["inputs"]), tuple(doc["outputs"]), tuple(rows))
    except ValueError as exc:
        raise SchemaError(str(exc), location) from exc


def parse_requirement(data: bytes | str) -> Requirement:
    return requirement_from_dict(load_document(data))


def topology_from_dict(doc: object, location: str = "$") -> Topology:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", location)
    for key in ("inputs", "slots", "outputs"):
        if not isinstance(doc.get(key), list):
            raise SchemaError(f"'{key}' must be an array", f"{location}.{key}")
    slots = []
    for i, slot in enumerate(doc["slots"]):
        loc = f"{location}.slots[{i}]"
        if not isinstance(slot, dict) or not isinstance(slot.get("from"), list):
            raise SchemaError("slot needs a 'from' array", loc)
        refs = slot["from"]
        if not all(isinstance(r, str) for r in refs):
            raise SchemaError("'from' must contain refs (strings)", f"{loc}.from")
        arity = slot.get("arity", len(refs))
        if type(arity) is not int:
            raise SchemaError("'arity' must be an integer", f"{loc}.arity")
        slots.append(GateSlot(arity, tuple(refs)))
    try:
        return Topology(tuple(doc["inputs"]), tuple(slots), tuple(doc["outputs"]))
    except (ValueError, TypeError) as exc:
        raise SchemaError(str(exc), location) from exc


def parse_topology(data: bytes | str) -> Topology:
    return topology_from_dict(load_document(data))


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


def serialize_circuit(circuit: Circuit) -> bytes:
    return (json.dumps(circuit_to_dict(circuit), indent=2, sort_keys=True) + "\n").encode("utf-8")
