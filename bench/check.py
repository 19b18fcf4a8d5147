"""Independent references the benchmark checks the program's outputs against.

None of this calls the program: PI comes from a one-pass degree count,
novelty from a mirror of the knowledge base, circuits from a five-gate
evaluator and an exhaustive search over signal sets, and design
distinctness from a colour-refinement invariant backed by an exact
isomorphism test.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------------------
# Function structures


def pi_of(doc: dict) -> Fraction:
    """Interdependency index of a valid .fs.json structure document."""
    degree = Counter()
    for flow in doc["flows"]:
        degree[flow["source"]] += 1
        degree[flow["target"]] += 1
    vertices = doc["vertices"]
    return Fraction(sum(1 for v in vertices if degree[v["id"]] > 2), len(vertices))


# ---------------------------------------------------------------------------
# Novelty: a mirror of the knowledge base for the domain forms the
# generators use (finite sets and numeric intervals).


class KnowledgeMirror:
    def __init__(self, kb_doc: dict):
        self.domains: dict[str, tuple] = {}
        for var in kb_doc["variables"]:
            dom = var["domain"]
            if "interval" in dom:
                self.domains[var["name"]] = ("interval", *dom["interval"])
            else:
                self.domains[var["name"]] = ("set", frozenset(dom["set"]))

    def _contains(self, name: str, value) -> bool:
        dom = self.domains[name]
        if dom[0] == "interval":
            return dom[1] <= value <= dom[2]
        return value in dom[1]

    def assess(self, assignments: dict) -> dict:
        unexpected = [n for n, v in assignments.items()
                      if n in self.domains and not self._contains(n, v)]
        new = [n for n in assignments if n not in self.domains]
        size = len(assignments)
        category = "creative" if new else "innovative" if unexpected else "routine"
        return {"innovation": str(Fraction(len(unexpected), size)),
                "creativity": str(Fraction(len(new), size)),
                "category": category, "unexpected": unexpected, "new": new}

    def absorb(self, assignments: dict) -> None:
        for name, value in assignments.items():
            dom = self.domains.get(name)
            if dom is None:
                self.domains[name] = ("set", frozenset([value]))
            elif dom[0] == "interval":
                self.domains[name] = ("interval", min(dom[1], value), max(dom[2], value))
            else:
                self.domains[name] = ("set", dom[1] | {value})


#: Methods the default capability matrix marks applicable, per novelty.
APPLICABLE = {
    "routine": ["grammar_based", "functional_synthesis", "analogy_based"],
    "innovative": ["grammar_based", "functional_synthesis"],
    "creative": [],
}


# ---------------------------------------------------------------------------
# Circuits

_GATES = {
    "IDENTITY": lambda a: a,
    "NOT": lambda a: 1 - a,
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
}


def evaluate_circuit(circuit: dict, bits: list[int]) -> list[int]:
    """Evaluate a circuit document (inputs, slots with gates, outputs)."""
    values = dict(zip(circuit["inputs"], bits))
    for j, slot in enumerate(circuit["slots"]):
        values[f"s{j}"] = _GATES[slot["gate"]](*(values[r] for r in slot["from"]))
    return [values[ref] for ref in circuit["outputs"]]


def circuit_pi(circuit: dict) -> Fraction:
    """PI of a circuit seen as a function structure: a gate's degree is
    its fan-in plus every consumer slot and primary output it feeds."""
    degree = Counter()
    for j, slot in enumerate(circuit["slots"]):
        degree[f"s{j}"] += len(slot["from"])
        for ref in slot["from"]:
            degree[ref] += 1
    for ref in circuit["outputs"]:
        degree[ref] += 1
    slots = len(circuit["slots"])
    return Fraction(sum(1 for j in range(slots) if degree[f"s{j}"] > 2), slots)


def circuit_problems(circuit: dict, table: dict) -> list[str]:
    problems = []
    for row in table["rows"]:
        got = evaluate_circuit(circuit, row["in"])
        if got != row["out"]:
            problems.append(f"row {row['in']}: expected {row['out']}, got {got}")
    return problems


def assignment_exists(topology: dict, table: dict) -> bool:
    """Brute force over every gate choice for a fixed topology."""
    choices = [("IDENTITY", "NOT") if len(s["from"]) == 1 else ("AND", "OR", "XOR")
               for s in topology["slots"]]
    for gates in product(*choices):
        circuit = dict(topology, slots=[dict(s, gate=g)
                                        for s, g in zip(topology["slots"], gates)])
        if not circuit_problems(circuit, table):
            return True
    return False


def min_gate_tables(n_inputs: int, max_gates: int) -> tuple[dict, dict]:
    """Fewest gates realising each truth vector, and each unordered pair
    of distinct vectors as two slot outputs, up to ``max_gates``.

    Breadth-first over the set of signals computed so far; a gate whose
    value is already available is never worth keeping inside a minimum
    circuit, so only new values extend a state.  Vectors use the
    program's packing (bit r is the value on row r).
    """
    rows = 1 << n_inputs
    full = (1 << rows) - 1
    inputs = [sum(((r >> (n_inputs - 1 - i)) & 1) << r for r in range(rows))
              for i in range(n_inputs)]
    single: dict[int, int] = {}
    pair: dict[tuple[int, int], int] = {}
    frontier = [(frozenset(inputs), ())]
    seen = set()
    for depth in range(1, max_gates + 1):
        grown = []
        for state, slots in frontier:
            signals = sorted(state)
            made = set()
            for i, a in enumerate(signals):
                made.update((a, a ^ full))
                for b in signals[i:]:
                    made.update((a & b, a | b, a ^ b))
            for v in made:
                single.setdefault(v, depth)
                if v in state:
                    continue
                for w in slots:
                    pair.setdefault((min(v, w), max(v, w)), depth)
                bigger = state | {v}
                if depth < max_gates and bigger not in seen:
                    seen.add(bigger)
                    grown.append((bigger, slots + (v,)))
        frontier = grown
    return single, pair


# ---------------------------------------------------------------------------
# Generated designs


def _refined_colours(design: dict) -> list:
    nodes = design["nodes"]
    index = {n["id"]: i for i, n in enumerate(nodes)}
    colours = [json.dumps([n["label"], n["attrs"]], sort_keys=True) for n in nodes]
    out_adj = [[] for _ in nodes]
    in_adj = [[] for _ in nodes]
    for e in design["edges"]:
        out_adj[index[e["source"]]].append((e["label"], index[e["target"]]))
        in_adj[index[e["target"]]].append((e["label"], index[e["source"]]))
    for _ in range(len(nodes)):
        refined = [
            hashlib.sha1(repr((
                colours[i],
                sorted((lbl, colours[j]) for lbl, j in out_adj[i]),
                sorted((lbl, colours[j]) for lbl, j in in_adj[i]),
            )).encode()).hexdigest()
            for i in range(len(nodes))
        ]
        if len(set(refined)) == len(set(colours)):
            break
        colours = refined
    return colours


def _isomorphic(a: dict, b: dict, colours_a: list, colours_b: list) -> bool:
    """Exact test: backtrack over colour-preserving bijections, checking
    edge multiplicities between already-mapped nodes."""
    ids_a = [n["id"] for n in a["nodes"]]
    ids_b = [n["id"] for n in b["nodes"]]
    edges_a = Counter((e["source"], e["target"], e["label"]) for e in a["edges"])
    edges_b = Counter((e["source"], e["target"], e["label"]) for e in b["edges"])
    between_a: dict = {}
    for (s, t, lbl), k in edges_a.items():
        between_a.setdefault(s, []).append((t, lbl, k, True))
        between_a.setdefault(t, []).append((s, lbl, k, False))
    colour_of_b = dict(zip(ids_b, colours_b))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(u: str, v: str) -> bool:
        for other, lbl, k, outgoing in between_a.get(u, ()):
            if other == u:
                if edges_b.get((v, v, lbl), 0) != k:
                    return False
            elif other in mapping:
                w = mapping[other]
                key = (v, w, lbl) if outgoing else (w, v, lbl)
                if edges_b.get(key, 0) != k:
                    return False
        return True

    def extend(i: int) -> bool:
        if i == len(ids_a):
            return True
        u = ids_a[i]
        for v in ids_b:
            if v in used or colour_of_b[v] != colours_a[i] or not consistent(u, v):
                continue
            mapping[u] = v
            used.add(v)
            if extend(i + 1):
                return True
            del mapping[u]
            used.discard(v)
        return False

    return extend(0)


def duplicate_designs(designs: list[dict]) -> list[tuple[int, int]]:
    """Index pairs of isomorphic designs (empty when all are distinct)."""
    buckets: dict[tuple, list[tuple[int, list]]] = {}
    for i, design in enumerate(designs):
        colours = _refined_colours(design)
        key = (tuple(sorted(Counter(colours).items())), len(design["edges"]))
        buckets.setdefault(key, []).append((i, colours))
    found = []
    for members in buckets.values():
        for x, (i, ci) in enumerate(members):
            for j, cj in members[x + 1:]:
                if _isomorphic(designs[i], designs[j], ci, cj):
                    found.append((i, j))
    return found
