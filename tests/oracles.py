"""Reference oracles the engines are checked against.

Each oracle follows from the definition of what it checks, unless its
entry says otherwise, and states the order of its output, since that
order is part of the byte-identical output:

* ``brute_force_isomorphic``: some bijection keeps node labels,
  attributes and edge multiplicities, tried exhaustively.
* ``canonical_form``: the least certificate over every leaf of an
  individualisation search that never prunes; ``component_walk_form``:
  the certificate along the first search path once the refined colouring
  is component-discrete, else ``None``.  No shorter definition fixes the
  certificate bytes, so both follow the library's encoding.
* ``enumerate_designs``: every design within ``max_depth`` applications
  of ``find_matches`` and ``apply`` below, deduplicated by
  ``brute_force_isomorphic``, in order of discovery.
* ``find_matches``: every injective label- and predicate-respecting node
  map, times every choice of distinct edges per LHS edge, where LHS edges
  sharing a triple take ascending indices.  Order: node maps by the
  design positions of their images, LHS node by LHS node; then edge
  choices by the indices each triple picks, triples in order of their
  first LHS edge.
* ``apply``: the rule's rewrite on plain dicts, after the stale-match
  checks (in ``_stale``'s order) and the dangling-edge check; new nodes
  take the first ``n<k>`` ids no kept node has.  Order: kept nodes in
  design order, then new nodes in RHS order; unmatched edges in design
  order, then RHS edges.
* ``generate_full_check``: the breadth-first closure of those two from
  the axiom, every child checked against the whole vocabulary and
  deduplicated by canonical form, until ``max_designs`` are known.
  Discovery goes parent, rule, match; the result is sorted by certificate.
* ``chain_sat``, ``reachable_sat`` and ``pair_sat``: whether some gate
  chain computes a vector (or two at once), by enumerating the chains or
  the sets of vectors they compute.
* ``input_vectors``, ``target_vectors`` and ``supports``: a table's
  columns packed row by row, and the inputs each output depends on,
  which only ``enumerate_then_assign`` reads.
* ``fan_in``: per slot, every source a chain of refs leads back to.
* ``first_assignment``: the first choice of one gate per slot, slots
  taken in order and gates in ``GATE_ORDER``, whose circuit gives every
  row of the table.
* ``enumerate_then_assign``, ``fewest_gates`` and ``gate_with_new``: not
  definitions but the search whose first circuit the library's walk must
  return, with its level-by-level bound and one-gate test; they stay
  until the capped bound has a reference of its own.  The gate
  assignment it runs, ``_search_assignment``, is plain backtracking over
  the slots, and the second reference for ``synthesize_assignment``.
* ``flow_scan_pi`` and ``flow_scan_degrees``: the paper's share of
  subfunctions with degree above two, and every vertex's degree, by
  scanning the flows.
* ``check_structure``: each invariant as its own comprehension.  Order:
  duplicate vertex ids; per terminal a repeated id, a bad kind, an empty
  label; no vertices; per flow an unknown source, an unknown target, two
  terminal ends, an input terminal entered, an output terminal left, an
  empty label; one cycle; the vertices on no input-to-output path.
* ``structure_similarity``: each spec term from its formula, over label
  multisets and ``flow_scan_pi``.  ``reuse``: each component takes the
  query label of highest word-overlap affinity that no better pair has
  taken, pairs ranked by (-affinity, component name, label).
  ``retrieve``: every case scored in base order, sorted by (-score, id),
  the first ``k`` kept.
* ``assess``: a name is known or new, never both, and a known name is
  unexpected when its value is outside its variable's domain; I and C are
  the unexpected and new shares of the design's size, and the category the
  first of not valuable, creative, innovative, routine that holds.  Order:
  both name lists in assignment order.  ``absorb``: each assignment widens
  its variable in place, and a new name is appended with the value as its
  singleton domain.  Order: the base's variables, then the new names in
  assignment order.
"""

import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from itertools import count, permutations, product
from typing import Collection, Iterator, Optional, Sequence

from designbench import grammar as gr
from designbench.casebase import (
    Case,
    CaseBase,
    ComponentMapping,
    DraftSolution,
    EmptyCaseBaseError,
    RetrievalResult,
    SimilaritySpec,
)
from designbench.domains import SetDomain
from designbench.funcstruct import (
    INPUT,
    OUTPUT,
    FunctionStructure,
    InvalidStructureError,
    ValidationReport,
    Violation,
)
from designbench.novelty import (
    DesignCategory,
    DesignInstance,
    DesignVariable,
    KnowledgeBase,
    NoveltyReport,
)
from designbench.synth import (
    GATE_ORDER,
    Circuit,
    GateType,
    Requirement,
    Topology,
    _ref_choices,
    _slot_sequence_to_topology,
    _verify,
    evaluate,
)


# ---------------------------------------------------------------------------
# Graph isomorphism by exhaustive bijection

def _node_key(node: gr.GraphNode):
    return (node.label, node.attrs)


def brute_force_isomorphic(a: gr.Design, b: gr.Design) -> bool:
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    if Counter(map(_node_key, a.nodes)) != Counter(map(_node_key, b.nodes)):
        return False
    b_edges = Counter((e.source, e.target, e.label) for e in b.edges)

    groups: dict = {}
    for node in b.nodes:
        groups.setdefault(_node_key(node), []).append(node.id)
    a_grouped: dict = {}
    for node in a.nodes:
        a_grouped.setdefault(_node_key(node), []).append(node.id)

    keys = sorted(groups, key=repr)
    per_key_perms = [permutations(groups[key]) for key in keys]
    for combo in product(*per_key_perms):
        mapping = {}
        for key, perm in zip(keys, combo):
            mapping.update(zip(a_grouped[key], perm))
        mapped = Counter(
            (mapping[e.source], mapping[e.target], e.label) for e in a.edges
        )
        if mapped == b_edges:
            return True
    return False


# ---------------------------------------------------------------------------
# Canonical form by an unpruned individualisation search: it branches on
# every vertex of the target cell, so its certificate is the least over
# all leaves.  Factorial in the number of interchangeable nodes; use on
# small designs only.

def _attr_colour(node: gr.GraphNode) -> str:
    return json.dumps([node.label, [[k, v] for k, v in node.attrs]], sort_keys=True)


def _refine(n: int, colours: list, out_adj: list[list[tuple[str, int]]],
            in_adj: list[list[tuple[str, int]]]) -> list[int]:
    """Colour refinement; returns stable integer colours (value-ranked)."""
    current = colours
    while True:
        signatures = []
        for i in range(n):
            out_sig = tuple(sorted((lbl, current[j]) for lbl, j in out_adj[i]))
            in_sig = tuple(sorted((lbl, current[j]) for lbl, j in in_adj[i]))
            signatures.append((current[i], out_sig, in_sig))
        ranks = {sig: r for r, sig in enumerate(sorted(set(signatures)))}
        renumbered = [ranks[sig] for sig in signatures]
        if renumbered == current:
            return renumbered
        current = renumbered


def canonical_form(design: gr.Design) -> bytes:
    """A byte string equal for two designs iff they are isomorphic
    (respecting node labels, attributes, edge labels and multiplicity)."""
    nodes = design.nodes
    n = len(nodes)
    index = {node.id: i for i, node in enumerate(nodes)}
    out_adj: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    in_adj: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    for edge in design.edges:
        out_adj[index[edge.source]].append((edge.label, index[edge.target]))
        in_adj[index[edge.target]].append((edge.label, index[edge.source]))

    initial_keys = [_attr_colour(node) for node in nodes]
    ranks = {key: r for r, key in enumerate(sorted(set(initial_keys)))}
    colours = _refine(n, [ranks[k] for k in initial_keys], out_adj, in_adj)

    def certificate(order: list[int]) -> bytes:
        position = {v: p for p, v in enumerate(order)}
        node_part = [json.loads(initial_keys[v]) for v in order]
        edge_part = sorted(
            [position[index[e.source]], position[index[e.target]], e.label]
            for e in design.edges
        )
        return json.dumps({"nodes": node_part, "edges": edge_part},
                          sort_keys=True).encode("utf-8")

    best: Optional[bytes] = None

    def search(colouring: list[int]) -> None:
        nonlocal best
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colouring):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            order = sorted(range(n), key=lambda v: colouring[v])
            cert = certificate(order)
            if best is None or cert < best:
                best = cert
            return
        for v in target:
            branched = [(c, 1) for c in colouring]
            branched[v] = (colouring[v], 0)
            ranks_b = {key: r for r, key in enumerate(sorted(set(branched)))}
            search(_refine(n, [ranks_b[key] for key in branched], out_adj, in_adj))

    search(colours)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Component-discrete certificates along the first search path: the first
# vertex of the first non-singleton cell is individualised and the
# colouring refined until no edge joins two non-singleton vertices.
# Polynomial, so it checks large designs too.

def component_walk_form(design: gr.Design) -> Optional[bytes]:
    nodes = design.nodes
    n = len(nodes)
    index = dict(zip(map(gr._ID, nodes), range(n)))
    labels = sorted(set(map(gr._LABEL, design.edges)))
    label_rank = dict(zip(labels, range(0, n * len(labels), max(n, 1))))
    label_text = dict(zip(label_rank.values(), map(gr._json_text, labels)))
    edges = [(index[e.source], index[e.target], label_rank[e.label]) for e in design.edges]
    keys = list(map(gr._COLOUR_KEY, nodes))
    distinct = sorted(set(keys))
    colours, count = gr._refine(list(map(dict(zip(distinct, range(n))).__getitem__, keys)),
                                len(distinct), edges)
    size = gr._cell_sizes(colours, count)
    forest = list(range(n))
    joined = [(s, t) for s, t, _ in edges if size[colours[s]] > 1 and size[colours[t]] > 1]
    for s, t in joined:
        gr._union(forest, s, t)
    placed = {(gr._find(forest, v), c) for v, c in enumerate(colours) if size[c] > 1}
    if len(placed) != sum(k for k in size if k > 1):
        return None
    colouring = colours
    while joined:
        cell = next(c for c, k in enumerate(size) if k > 1)
        branched = [c + 1 if c >= cell else c for c in colouring]
        branched[colouring.index(cell)] = cell
        colouring, count = gr._refine(branched, count + 1, edges)
        size = gr._cell_sizes(colouring, count)
        joined = [(s, t) for s, t in joined
                  if size[colouring[s]] > 1 and size[colouring[t]] > 1]
    order = sorted(range(n), key=colouring.__getitem__)
    return gr._certificate(order, edges, label_text, keys)


# ---------------------------------------------------------------------------
# Derivation enumeration without canonical forms

def enumerate_designs(grammar: gr.Grammar, max_depth: int) -> list[gr.Design]:
    """Every design reachable within ``max_depth`` rule applications,
    deduplicated by brute-force isomorphism."""
    found: list[gr.Design] = [grammar.axiom]

    def record(design: gr.Design) -> bool:
        for existing in found:
            if brute_force_isomorphic(design, existing):
                return False
        found.append(design)
        return True

    def expand(design: gr.Design, depth: int) -> None:
        if depth == max_depth:
            return
        for rule in grammar.rules:
            for match in find_matches(rule, design):
                try:
                    child = apply(rule, design, match, grammar.vocabulary)
                except gr.DanglingEdgeError:
                    continue
                record(child)
                expand(child, depth + 1)

    expand(grammar.axiom, 0)
    return found


# ---------------------------------------------------------------------------
# Matching: every injective node map, times every choice of edges

def _fits(pattern: gr.PatternNode, node: gr.GraphNode) -> bool:
    """Whether ``node`` has the pattern's label and meets its predicates."""
    attrs = dict(node.attrs)
    return node.label == pattern.label and all(
        p.attr in attrs and p.holds(attrs[p.attr]) for p in pattern.predicates)


def find_matches(rule: gr.Rule, design: gr.Design) -> list[gr.Match]:
    """Every embedding of the rule's LHS in ``design``, in the order the
    module docstring states."""
    triples = [(e.source, e.target, e.label) for e in rule.lhs.edges]
    # LHS edge positions triple by triple, triples by their first position
    order = sorted(range(len(triples)), key=lambda p: (triples.index(triples[p]), p))
    twins = [(p, q) for p, q in zip(order, order[1:]) if triples[p] == triples[q]]
    matches = []
    for image in product(*[[n.id for n in design.nodes if _fits(p, n)]
                           for p in rule.lhs.nodes]):
        if len(set(image)) < len(image):
            continue
        to = dict(zip([p.id for p in rule.lhs.nodes], image))
        edges = [[i for i, e in enumerate(design.edges)
                  if (e.source, e.target, e.label) == (to[s], to[t], label)]
                 for s, t, label in triples]
        choices = [c for c in product(*edges) if all(c[p] < c[q] for p, q in twins)]
        choices.sort(key=lambda c: [c[p] for p in order])
        matches += [gr.Match(tuple(to.items()), c) for c in choices]
    return matches


# ---------------------------------------------------------------------------
# Rewriting: the rule's meaning on plain dicts

def _stale(rule: gr.Rule, design: gr.Design, match: gr.Match) -> Optional[str]:
    """Why ``match`` is no embedding of the rule's LHS in ``design``: the
    first of these it breaks, in this order; ``None`` if it is one.  It
    names each LHS node once and maps exactly the LHS nodes, injectively,
    onto present nodes that fit their patterns, and the LHS edges onto as
    many distinct present edges, each joining the images of its ends
    with its label."""
    to = dict(match.nodes)
    nodes = {n.id: n for n in design.nodes}
    if len(to) < len(match.nodes):
        return "match names an LHS node twice"
    if to.keys() != {p.id for p in rule.lhs.nodes}:
        return "match does not cover the rule's LHS nodes"
    if len(set(to.values())) < len(to):
        return "match is not injective"
    for p in rule.lhs.nodes:
        if to[p.id] not in nodes:
            return f"matched node {to[p.id]!r} is gone"
        if not _fits(p, nodes[to[p.id]]):
            return f"node {to[p.id]!r} no longer satisfies the pattern"
    if len(match.edges) != len(rule.lhs.edges):
        return "match does not cover the rule's LHS edges"
    if len(set(match.edges)) < len(match.edges):
        return "match reuses a design edge"
    for e, i in zip(rule.lhs.edges, match.edges):
        if not 0 <= i < len(design.edges):
            return f"matched edge index {i} is gone"
        if design.edges[i] != gr.GraphEdge(to[e.source], to[e.target], e.label):
            return f"edge {i} no longer matches the pattern"
    return None


def _as_it_was(old: gr.GraphNode, new: gr.GraphNode, rhs: gr.RhsNode) -> bool:
    """Whether the rewrite leaves the anchored node ``old`` as it was: same
    label and attribute items in order, and the RHS node writes none of
    them or every value is a scalar of the type and JSON text it had."""
    return (new.label, new.attrs) == (old.label, old.attrs) and (not rhs.attrs or all(
        type(a) is type(b) and type(a) in (str, int, float, bool, type(None))
        and json.dumps(a) == json.dumps(b) for (_, a), (_, b) in zip(new.attrs, old.attrs)))


def apply(rule: gr.Rule, design: gr.Design, match: gr.Match,
          vocab: Optional[gr.Vocabulary] = None) -> gr.Design:
    """The rewrite of ``design`` by ``rule`` at ``match``.

    Raises ``StaleMatchError`` with ``_stale``'s reason, then
    ``DanglingEdgeError`` for the first unmatched edge at a matched node
    no anchor keeps.  An anchored node takes its RHS node's label and its
    own attributes updated by the RHS ones; a new node takes the RHS
    node's; a copied attribute is read from the parent.  Only an anchored
    node the rewrite changes is a new object (see ``_as_it_was``), besides
    the new nodes.  Given ``vocab``, a result outside it raises
    ``VocabularyError``.
    """
    reason = _stale(rule, design, match)
    if reason:
        raise gr.StaleMatchError(reason)
    to, anchors = dict(match.nodes), dict(rule.anchors)
    removed = {to[p.id] for p in rule.lhs.nodes if p.id not in anchors}
    edges = [e for i, e in enumerate(design.edges) if i not in match.edges]
    for e in edges:
        if e.source in removed or e.target in removed:
            raise gr.DanglingEdgeError(
                f"edge {e.source!r}->{e.target!r} ({e.label!r}) would dangle")
    values = {n.id: dict(n.attrs) for n in design.nodes}
    kept = {n.id: n for n in design.nodes if n.id not in removed}
    placed = {rhs: to[lhs] for lhs, rhs in anchors.items()}  # rhs id -> design id
    new = [n for n in rule.rhs.nodes if n.id not in placed]
    placed.update(zip([n.id for n in new], (f"n{k}" for k in count() if f"n{k}" not in kept)))

    def write(rhs: gr.RhsNode, attrs: dict) -> gr.GraphNode:
        for attr, expr in rhs.attrs:
            attrs[attr] = values[to[expr.node]][expr.attr] \
                if isinstance(expr, gr.CopyAttr) else expr
        return gr.GraphNode(placed[rhs.id], rhs.label, tuple(sorted(attrs.items())))

    for rhs in rule.rhs.nodes:
        if rhs.id in anchors.values():
            node = write(rhs, dict(values[placed[rhs.id]]))
            if not _as_it_was(kept[node.id], node, rhs):
                kept[node.id] = node
    result = gr.Design(
        (*kept.values(), *[write(rhs, {}) for rhs in new]),
        (*edges, *[gr.GraphEdge(placed[e.source], placed[e.target], e.label)
                   for e in rule.rhs.edges]))
    if vocab is not None:
        vocab.require_valid(result, f"result of rule {rule.name!r}")
    return result


# ---------------------------------------------------------------------------
# Generation: the breadth-first closure, every child checked in full

def generate_full_check(grammar: gr.Grammar, max_depth: int,
                        max_designs: int) -> gr.GenerationResult:
    """``gr.generate`` by its definition (see the module docstring)."""
    if max_depth < 1 or max_designs < 1:
        raise ValueError("generation limits must be positive")
    axiom = gr.GeneratedDesign(grammar.axiom, gr.Derivation(),
                               gr.canonical_form(grammar.axiom), 0)
    seen = {axiom.canonical: axiom}
    frontier, depth = [axiom], 0
    while frontier and depth < max_depth and len(seen) < max_designs:
        parents, frontier, depth = frontier, [], depth + 1
        steps = ((parent, rule, match) for parent, rule in product(parents, grammar.rules)
                 for match in find_matches(rule, parent.design))
        for parent, rule, match in steps:
            try:
                child = apply(rule, parent.design, match, grammar.vocabulary)
            except gr.DanglingEdgeError:
                continue
            key = gr.canonical_form(child)
            if key in seen:
                continue
            derivation = gr.Derivation(
                (*parent.derivation.steps, gr.DerivationStep(rule.name, match)))
            seen[key] = gr.GeneratedDesign(child, derivation, key, depth)
            frontier.append(seen[key])
            if len(seen) == max_designs:
                break
    return gr.GenerationResult(tuple(sorted(seen.values(), key=lambda g: g.canonical)))


# ---------------------------------------------------------------------------
# Circuit chains enumerated the pedestrian way

def _chain_outputs(n_inputs: int, max_gates: int) -> set[int]:
    """Truth vectors computable at the last slot of any chain of at most
    ``max_gates`` gates over the five gate types."""
    rows = 2 ** n_inputs
    full = (1 << rows) - 1
    inputs = []
    for i in range(n_inputs):
        vec = 0
        for r in range(rows):
            if (r >> (n_inputs - 1 - i)) & 1:
                vec |= 1 << r
        inputs.append(vec)

    achievable: set[int] = set()

    def grow(values: list[int], remaining: int) -> None:
        if remaining == 0:
            return
        for a in values:
            for vec in (a, a ^ full):  # IDENTITY, NOT
                achievable.add(vec)
                grow(values + [vec], remaining - 1)
        for a in values:
            for b in values:
                for vec in (a & b, a | b, a ^ b):  # AND, OR, XOR
                    achievable.add(vec)
                    grow(values + [vec], remaining - 1)

    grow(list(inputs), max_gates)
    return achievable


_CHAIN_CACHE: dict = {}


def chain_sat(n_inputs: int, target_vector: int, max_gates: int) -> bool:
    key = (n_inputs, max_gates)
    if key not in _CHAIN_CACHE:
        _CHAIN_CACHE[key] = _chain_outputs(n_inputs, max_gates)
    return target_vector in _CHAIN_CACHE[key]


# ---------------------------------------------------------------------------
# Reachable-vector-set search (deduplicates states, so it scales one
# gate further than the raw chain enumeration)

def _reachable_vectors(n_inputs: int, max_gates: int) -> set[int]:
    rows = 2 ** n_inputs
    full = (1 << rows) - 1
    inputs = frozenset(
        sum(1 << r for r in range(rows) if (r >> (n_inputs - 1 - i)) & 1)
        for i in range(n_inputs)
    )
    frontier = {inputs}
    achievable: set[int] = set()
    for _ in range(max_gates):
        grown = set()
        for state in frontier:
            values = sorted(state)
            for a in values:
                for vec in (a, a ^ full):
                    achievable.add(vec)
                    grown.add(state | {vec})
            for i, a in enumerate(values):
                for b in values[i:]:
                    for vec in (a & b, a | b, a ^ b):
                        achievable.add(vec)
                        grown.add(state | {vec})
        frontier = grown
    return achievable


_REACHABLE_CACHE: dict = {}


def reachable_sat(n_inputs: int, target_vector: int, max_gates: int) -> bool:
    key = (n_inputs, max_gates)
    if key not in _REACHABLE_CACHE:
        _REACHABLE_CACHE[key] = _reachable_vectors(n_inputs, max_gates)
    return target_vector in _REACHABLE_CACHE[key]


# ---------------------------------------------------------------------------
# Two-output chains: every ordered, non-canonical chain, collecting the
# pairs of vectors any two slots can carry simultaneously

def _achievable_pairs(n_inputs: int, max_gates: int) -> set[tuple[int, int]]:
    rows = 2 ** n_inputs
    full = (1 << rows) - 1
    inputs = [
        sum(1 << r for r in range(rows) if (r >> (n_inputs - 1 - i)) & 1)
        for i in range(n_inputs)
    ]
    pairs: set = set()

    def extend(values: list[int], remaining: int) -> None:
        slot_vals = values[n_inputs:]
        for v1 in slot_vals:
            for v2 in slot_vals:
                pairs.add((v1, v2))
        if remaining == 0:
            return
        for a in values:
            extend(values + [a], remaining - 1)
            extend(values + [a ^ full], remaining - 1)
        for a in values:
            for b in values:
                extend(values + [a & b], remaining - 1)
                extend(values + [a | b], remaining - 1)
                extend(values + [a ^ b], remaining - 1)

    extend(list(inputs), max_gates)
    return pairs


_PAIR_CACHE: dict = {}


def pair_sat(n_inputs: int, targets: tuple[int, int], max_gates: int) -> bool:
    key = (n_inputs, max_gates)
    if key not in _PAIR_CACHE:
        _PAIR_CACHE[key] = _achievable_pairs(n_inputs, max_gates)
    return targets in _PAIR_CACHE[key]


# ---------------------------------------------------------------------------
# Truth-table columns, packed row by row

def _row_index(requirement: Requirement, in_bits: tuple[int, ...]) -> int:
    n = len(requirement.inputs)
    return sum(bit << (n - 1 - i) for i, bit in enumerate(in_bits))


def input_vectors(requirement: Requirement) -> list[int]:
    """Per input, the packed column of its value over all rows."""
    vecs = [0] * len(requirement.inputs)
    for in_bits, _ in requirement.rows:
        r = _row_index(requirement, in_bits)
        for i, bit in enumerate(in_bits):
            vecs[i] |= bit << r
    return vecs


def target_vectors(requirement: Requirement) -> list[int]:
    vecs = [0] * len(requirement.outputs)
    for in_bits, out_bits in requirement.rows:
        r = _row_index(requirement, in_bits)
        for j, bit in enumerate(out_bits):
            vecs[j] |= bit << r
    return vecs


def supports(requirement: Requirement) -> list[frozenset[int]]:
    """Per output, the set of inputs the table truly depends on."""
    n = len(requirement.inputs)
    targets = target_vectors(requirement)
    out = []
    for t in targets:
        support = set()
        for i in range(n):
            flip = 1 << (n - 1 - i)
            if any(((t >> r) & 1) != ((t >> (r ^ flip)) & 1) for r in range(2 ** n)):
                support.add(i)
        out.append(frozenset(support))
    return out


# ---------------------------------------------------------------------------
# Gate assignment on a fixed topology: every choice of gates, and plain
# backtracking over them

def first_assignment(topology: Topology, requirement: Requirement) -> Optional[Circuit]:
    """The circuit of the first gate choice, in ``itertools.product`` order
    over the slots' fitting gates in ``GATE_ORDER``, that gives every row;
    ``None`` if none does."""
    per_slot = [[g for g in GATE_ORDER if g.arity == slot.arity] for slot in topology.slots]
    for gates in product(*per_slot):
        circuit = Circuit(topology, gates)
        if all(evaluate(circuit, in_bits) == out_bits for in_bits, out_bits in requirement.rows):
            return circuit
    return None


_UNARY = tuple(g for g in GATE_ORDER if g.arity == 1)
_BINARY = tuple(g for g in GATE_ORDER if g.arity == 2)


def _gate_vectors(a: int, b: int, unary: bool, full: int) -> tuple[int, ...]:
    """Per gate of ``_UNARY`` on ``a``, or of ``_BINARY`` on ``a`` and ``b``,
    its output vector."""
    return (a, a ^ full) if unary else (a & b, a | b, a ^ b)


def _search_assignment(slot_sources: Sequence[tuple[int, ...]], input_vecs: list[int],
                       checked: dict[int, list[int]], full: int) -> Optional[list[GateType]]:
    """Lexicographically-first gate assignment; slots wired to an output
    are compared against their target vector as soon as they get a gate."""
    values = input_vecs + [0] * len(slot_sources)
    assignment: list[GateType] = [GateType.IDENTITY] * len(slot_sources)
    found = _backtrack(slot_sources, 0, len(input_vecs), values, assignment, checked, full)
    return assignment if found else None


def _backtrack(slot_sources: Sequence[tuple[int, ...]], j: int, n: int, values: list[int],
               assignment: list[GateType], checked: dict[int, list[int]], full: int) -> bool:
    """Give slots ``j`` onwards their first fitting gates, the signal
    values of the ``n`` inputs and of slots before ``j`` in ``values``."""
    if j == len(slot_sources):
        return True
    sources = slot_sources[j]
    unary = len(sources) == 1
    vecs = _gate_vectors(values[sources[0]], values[sources[-1]], unary, full)
    targets = checked.get(j)
    for gate, vec in zip(_UNARY if unary else _BINARY, vecs):
        if targets is not None and any(vec != t for t in targets):
            continue
        values[n + j] = vec
        assignment[j] = gate
        if _backtrack(slot_sources, j + 1, n, values, assignment, checked, full):
            return True
    return False


# ---------------------------------------------------------------------------
# Topology search by enumerate-then-assign: every canonical slot sequence
# at a gate count, then a backtracking gate assignment for every choice of
# output slots

def _enumerate_slot_sequences(n_inputs: int,
                              gate_count: int) -> Iterator[list[tuple[int, ...]]]:
    """Canonical slot sequences: per slot the tuple of source indices.

    Slots are kept sorted by (depth, arity, refs); every abstract
    topology has at least one such labelling, so the enumeration is
    complete but may repeat a structure (1065 sequences cover 1020
    distinct DAGs at 3 inputs and 3 gates, 14,805 cover 13,401 at 4).
    """
    slots: list[tuple[int, ...]] = []
    depths: list[int] = []

    def depth_of(source: int) -> int:
        return 0 if source < n_inputs else depths[source - n_inputs]

    def rec(prev_key) -> Iterator[list[tuple[int, ...]]]:
        j = len(slots)
        if j == gate_count:
            yield slots
            return
        for arity, refs in _ref_choices(n_inputs + j):
            depth = 1 + max(depth_of(r) for r in refs)
            key = (depth, arity, refs)
            if key < prev_key:
                continue
            slots.append(refs)
            depths.append(depth)
            yield from rec(key)
            slots.pop()
            depths.pop()

    yield from rec((0, 0, ()))


def fan_in(n_inputs: int, slots: list[tuple[int, ...]]) -> list[int]:
    """Per slot, the bitmask of every source a chain of refs leads back to
    from it, itself included (input ``i`` is bit ``i`` and slot ``j`` bit
    ``n_inputs + j``), by walking the refs."""
    out = []
    for j in range(len(slots)):
        mask, todo = 0, [n_inputs + j]
        while todo:
            source = todo.pop()
            if not mask >> source & 1:
                mask |= 1 << source
                if source >= n_inputs:
                    todo += slots[source - n_inputs]
        out.append(mask)
    return out


def enumerate_then_assign(requirement: Requirement,
                          max_gates: int) -> Optional[Circuit]:
    """The first circuit ``synth.synthesize_topology`` must return."""
    if max_gates < 1:
        raise ValueError("max_gates must be at least 1")
    n = len(requirement.inputs)
    m = len(requirement.outputs)
    full = (1 << 2 ** n) - 1
    input_vecs = input_vectors(requirement)
    targets = target_vectors(requirement)
    fewest = fewest_gates(input_vecs, targets, full, max_gates)
    if fewest is None:
        return None
    support_masks = [
        sum(1 << i for i in support) for support in supports(requirement)
    ]

    for gate_count in range(fewest, max_gates + 1):
        all_slots_mask = (1 << gate_count) - 1
        for slots in _enumerate_slot_sequences(n, gate_count):
            masks = fan_in(n, slots)
            # Per output position, slots whose fan-in spans the needed inputs.
            candidates = [
                [j for j in range(gate_count) if masks[j] & support_masks[p] == support_masks[p]]
                for p in range(m)
            ]
            if any(not c for c in candidates):
                continue
            # Enumeration refs already use the inputs-then-slots index space.
            slot_sources = [tuple(refs) for refs in slots]
            for output_slots in product(*candidates):
                covered = 0
                for j in output_slots:
                    covered |= masks[j] >> n
                if covered != all_slots_mask:
                    continue
                checked: dict[int, list[int]] = {}
                for position, j in enumerate(output_slots):
                    checked.setdefault(j, []).append(targets[position])
                gates = _search_assignment(slot_sources, input_vecs, checked, full)
                if gates is None:
                    continue
                topology = _slot_sequence_to_topology(
                    requirement.inputs, slots, output_slots
                )
                circuit = Circuit(topology, tuple(gates))
                _verify(circuit, requirement)
                return circuit
    return None


# ---------------------------------------------------------------------------
# Fewest gates by whole levels

def gate_with_new(target: int, new: Collection[int], signals: frozenset[int],
                  full: int) -> bool:
    """Whether a gate reading a value ``v`` of ``new`` computes ``target``:
    NOT ``v``, or ``v`` XOR a signal, AND a superset or OR a subset.  With
    ``new`` equal to ``signals``, whether any gate over them does."""
    if target ^ full in new or any(s ^ target in new for s in signals):
        return True
    return any(v & s == target for v in new if v & target == target for s in signals) \
        or any(v | s == target for v in new if v | target == target for s in signals)


def _one_gate_makes(target: int, signals: frozenset[int], full: int) -> bool:
    """Whether a single gate over ``signals`` computes ``target``, which is
    not itself a signal (so IDENTITY cannot)."""
    if target ^ full in signals:  # NOT
        return True
    supersets, subsets = [], []
    for a in signals:
        if a ^ target in signals:  # XOR
            return True
        if a & target == target:
            supersets.append(a)
        if a | target == target:
            subsets.append(a)
    # AND of two supersets, OR of two subsets; AND or OR of one signal
    # with itself gives that signal back, never the target
    return any(a & b == target for i, a in enumerate(supersets) for b in supersets[i + 1:]) \
        or any(a | b == target for i, a in enumerate(subsets) for b in subsets[i + 1:])


#: Slot-value sets ``fewest_gates`` keeps in one level (tens of MB).  A
#: level that outgrows it ends the bound early with the count proven so
#: far; the topology walk takes over from there, and the same capped
#: bound still drops its hopeless prefixes.  Three-input single-output
#: tables stay well below it at any count.
_BOUND_STATES = 100_000


def fewest_gates(input_vecs: Sequence[int], targets: Sequence[int], full: int,
                 max_gates: int) -> Optional[int]:
    """Smallest gate count, up to ``max_gates``, of a circuit whose slots
    carry every target vector; ``None`` if more gates are needed.  If a
    level outgrows ``_BOUND_STATES``, the count proven so far is returned
    instead: still a lower bound, no longer exact.

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

    Before a level is expanded, each of its states is checked for
    whether one more gate finishes it, and states missing more targets
    than gates remain are dropped.
    """
    inputs = frozenset(input_vecs)
    wanted = frozenset(targets)
    held = len(wanted & inputs)
    wanted -= inputs
    budget = max_gates - held
    if budget < 0:
        return None
    if not wanted:
        return held
    frontier: set[frozenset[int]] = {frozenset()}
    for gate_count in range(1, budget + 1):
        for state in frontier:
            missing = wanted - state
            if len(missing) == 1 and _one_gate_makes(next(iter(missing)),
                                                     inputs | state, full):
                return held + gate_count
        left = budget - gate_count
        if left == 0:
            break
        grown: set[frozenset[int]] = set()
        for state in frontier:
            signals = inputs | state
            short = len(wanted - state)
            values = tuple(signals)
            made = {0}  # a XOR a
            for i, a in enumerate(values):
                made.add(a ^ full)
                for b in values[i + 1:]:
                    made.update((a & b, a | b, a ^ b))
            for v in made - signals:
                if short - (v in wanted) <= left:
                    grown.add(state | {v})
            if len(grown) > _BOUND_STATES:
                return held + gate_count + 1
        frontier = grown
    return None


# ---------------------------------------------------------------------------
# Interdependency index by a direct flow scan

def flow_scan_pi(structure) -> Fraction:
    """Share of function vertices with more than two flow ends, counted by
    scanning every flow for every vertex: O(V*F), for small structures.
    Parallel and terminal flows each count; a valid structure is assumed."""
    busy = sum(
        1 for v in structure.vertices
        if sum((f.source == v.id) + (f.target == v.id) for f in structure.flows) > 2
    )
    return Fraction(busy, len(structure.vertices))


def flow_scan_degrees(structure) -> dict[str, int]:
    """Every function vertex's total degree: the flow ends at it, counted
    by one walk over the flows.  Defined on any structure: a repeated
    vertex id has one entry, a flow end that is no vertex id counts for
    nothing, and a self-loop counts twice."""
    table = {v.id: 0 for v in structure.vertices}
    for f in structure.flows:
        if f.source in table:
            table[f.source] += 1
        if f.target in table:
            table[f.target] += 1
    return table


# ---------------------------------------------------------------------------
# Structure validation: each invariant as its own comprehension

def _reach(seeds: list[str], steps: list[tuple[str, str]]) -> set[str]:
    """The seeds and every name a chain of ``(from, to)`` steps leads to."""
    after: dict[str, list[str]] = {}
    for a, b in steps:
        after.setdefault(a, []).append(b)
    reached, todo = set(seeds), list(seeds)
    while todo:
        for b in after.get(todo.pop(), ()):
            if b not in reached:
                reached.add(b)
                todo.append(b)
    return reached


def check_structure(fs: FunctionStructure) -> ValidationReport:
    """The report of ``funcstruct.validate``, in the order the module
    docstring states.  An id is known if a vertex or terminal has it, a
    repeat if an earlier one does; its kind is its last terminal's."""
    ids = [v.id for v in fs.vertices] + [t.id for t in fs.terminals]
    first = {x: i for i, x in reversed(list(enumerate(ids)))}
    kind = {t.id: t.kind for t in fs.terminals}
    found = [("duplicate-id", f"duplicate id {v.id!r}")
             for i, v in enumerate(fs.vertices) if first[v.id] < i]
    for i, t in enumerate(fs.terminals, len(fs.vertices)):
        found += [(c, m) for bad, c, m in [
            (first[t.id] < i, "duplicate-id", f"duplicate id {t.id!r}"),
            (t.kind not in (INPUT, OUTPUT), "bad-terminal-kind",
             f"terminal {t.id!r} has kind {t.kind!r}"),
            (not t.label, "empty-label", f"terminal {t.id!r} has empty label")] if bad]
    found += [("no-vertices", "structure has no function vertices")] if not fs.vertices else []
    for i, f in enumerate(fs.flows):
        found += [(c, m) for bad, c, m in [
            (f.source not in first, "unknown-endpoint", f"flows[{i}] references {f.source!r}"),
            (f.target not in first, "unknown-endpoint", f"flows[{i}] references {f.target!r}"),
            (f.source in kind and f.target in kind, "terminal-terminal-flow",
             f"flows[{i}] connects two terminals ({f.source!r} -> {f.target!r})"),
            (kind.get(f.target) == INPUT, "input-terminal-inflow",
             f"flows[{i}] enters input terminal {f.target!r}"),
            (kind.get(f.source) == OUTPUT, "output-terminal-outflow",
             f"flows[{i}] leaves output terminal {f.source!r}"),
            (not f.label, "empty-label", f"flows[{i}] has empty label")] if bad]
    # acyclic iff the vertices have a topological order
    before: dict[str, list[str]] = {v.id: [] for v in fs.vertices}
    for f in fs.flows:
        if f.source in before and f.target in before:
            before[f.target].append(f.source)
    try:
        TopologicalSorter(before).prepare()
    except CycleError:
        found.append(("cycle", "flows between function vertices form a cycle"))
    steps = [(f.source, f.target) for f in fs.flows]
    fed = _reach([t.id for t in fs.terminals if t.kind == INPUT], steps)
    drained = _reach([t.id for t in fs.terminals if t.kind == OUTPUT],
                     [(b, a) for a, b in steps])
    found += [("off-path-vertex", f"vertex {v.id!r} is not on any input->output path")
              for v in fs.vertices if v.id not in fed or v.id not in drained]
    return ValidationReport(tuple(Violation(c, m) for c, m in found))


# ---------------------------------------------------------------------------
# Case similarity, reuse and retrieval, each from its formula

def multiset_jaccard(a: Counter, b: Counter) -> Fraction:
    """The sum of the smaller counts over the sum of the larger ones; two
    empty multisets count as equal."""
    union = sum((a | b).values())
    return Fraction(sum((a & b).values()), union) if union else Fraction(1)


@lru_cache(maxsize=256)  # a retrieval scores its query once per case
def _pi(structure: FunctionStructure) -> Fraction:
    """``flow_scan_pi`` of a valid structure; an invalid one raises the
    ``InvalidStructureError`` of its ``check_structure`` report."""
    report = check_structure(structure)
    if report.violations:
        raise InvalidStructureError(report)
    return flow_scan_pi(structure)


def structure_similarity(spec: SimilaritySpec, a: FunctionStructure,
                         b: FunctionStructure) -> Fraction:
    """``function_weight`` times the Jaccard of the function-label
    multisets, plus ``flow_weight`` times that of the flow labels, plus
    ``structure_weight`` times one less the PI gap.  The PI of ``a`` is
    taken first, so an invalid ``a`` is the one that raises."""
    pa, pb = _pi(a), _pi(b)
    return (spec.function_weight * multiset_jaccard(Counter(v.label for v in a.vertices),
                                                    Counter(v.label for v in b.vertices))
            + spec.flow_weight * multiset_jaccard(Counter(f.label for f in a.flows),
                                                  Counter(f.label for f in b.flows))
            + spec.structure_weight * (1 - abs(pa - pb)))


_WORDS = re.compile(r"[a-z0-9]+")


def label_affinity(a: str, b: str) -> Fraction:
    """Jaccard of the two labels' lower-case word sets; two labels without
    words count as equal."""
    ta, tb = (frozenset(_WORDS.findall(text.lower())) for text in (a, b))
    return Fraction(len(ta & tb), len(ta | tb)) if ta or tb else Fraction(1)


def reuse(case: Case, query: FunctionStructure) -> DraftSolution:
    """The case's components, each mapped to the query label it serves
    best: (component, label) pairs of positive affinity, the larger of its
    serves and its name affinity, go by (-affinity, component name,
    label), and a pair is taken when neither its component name nor its
    label is.  Gaps are the labels left over, in order of first use."""
    labels = list(dict.fromkeys(v.label for v in query.vertices))
    components = case.solution.components
    pairs = sorted(
        ((max(label_affinity(c.serves, label), label_affinity(c.name, label)), c.name, label)
         for c in components for label in labels),
        key=lambda pair: (-pair[0], pair[1], pair[2]))
    taken: dict[str, tuple[str, Fraction]] = {}  # component name -> (label, affinity)
    covered: set[str] = set()
    for score, name, label in pairs:
        if score and name not in taken and label not in covered:
            taken[name] = (label, score)
            covered.add(label)
    return DraftSolution(
        case.id, case.solution.description,
        tuple(ComponentMapping(c, *taken.get(c.name, (None, Fraction(0)))) for c in components),
        tuple(label for label in labels if label not in covered))


def retrieve(base: CaseBase, spec: SimilaritySpec, query: FunctionStructure,
             k: int) -> RetrievalResult:
    """The first ``k`` cases once every case, scored in base order, is
    sorted by (-score, id)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not base.cases:
        raise EmptyCaseBaseError("cannot retrieve from an empty case base")
    scored = [(c.id, structure_similarity(spec, query, c.problem)) for c in base.cases]
    return RetrievalResult(tuple(sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:k]))


# ---------------------------------------------------------------------------
# Novelty: innovation and creativity as shares of a design's variables

def assess(kb: KnowledgeBase, design: DesignInstance, feasible: bool) -> NoveltyReport:
    """I and C as shares of the design's size, and the category by
    precedence: not valuable, creative, innovative, routine."""
    known = [v.name for v in kb.variables]
    new = tuple(name for name, _ in design.assignments if name not in known)
    unexpected = tuple(name for name, value in design.assignments if name in known
                       and not kb.variables[known.index(name)].domain.contains(value))
    size = len(design.assignments)
    innovation, creativity = Fraction(len(unexpected), size), Fraction(len(new), size)
    category = next(category for category, holds in (
        (DesignCategory.NOT_VALUABLE, not feasible),
        (DesignCategory.CREATIVE, creativity > 0),
        (DesignCategory.INNOVATIVE, innovation > 0),
        (DesignCategory.ROUTINE, True)) if holds)
    return NoveltyReport(innovation, creativity, category, unexpected, new)


def absorb(kb: KnowledgeBase, design: DesignInstance) -> KnowledgeBase:
    """The base with each assignment, in order, widening its variable in
    place, or appended as a new variable with a singleton domain."""
    variables = list(kb.variables)
    for name, value in design.assignments:
        known = [v.name for v in variables]
        if name in known:
            at = known.index(name)
            var = variables[at]
            variables[at] = DesignVariable(name, var.domain.widen(value), var.subfunction)
        else:
            variables.append(DesignVariable(name, SetDomain((value,))))
    return KnowledgeBase(tuple(variables))
