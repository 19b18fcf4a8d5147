"""Independent brute-force oracles used to cross-check the engines.

These deliberately avoid the library's own algorithms: isomorphism is
decided by trying node bijections, canonical forms are computed by an
individualisation search that never prunes, derivation spaces are
enumerated depth-first without canonical forms, component-discrete
certificates come from the per-level walk along the first search path,
matching scans every
design node for each pattern node and groups edge instances per call,
rewriting derives everything it needs from the rule at every call,
generation checks every
child against the whole vocabulary and skips no repeat, circuit
satisfiability is decided by enumerating every gate chain directly,
topology search is the enumerate-then-assign loop that preceded the fused
walk over truth-table columns packed row by row, the fewest-gates bound is
the level-by-level search that preceded the per-child test, the one-gate
test is the ``any`` over every signal and new value that preceded the
plain loops, the interdependency index is counted by scanning the
flow list once per vertex, structures are validated over string-keyed
sets with a depth-first cycle search, and case similarity and reuse are the
term-by-term ``Fraction`` versions that preceded the integer kernel and
the tokenise-once reuse, and retrieval builds a ``Fraction`` per case and
selects with ``heapq.nsmallest``.
"""

import heapq
import json
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Collection, Iterator, Mapping, Optional, Sequence

from designbench import grammar as gr
from designbench.casebase import (
    Case,
    CaseBase,
    ComponentMapping,
    DraftSolution,
    EmptyCaseBaseError,
    RetrievalResult,
    SimilaritySpec,
    similarity,
)
from designbench.funcstruct import (
    INPUT,
    OUTPUT,
    FunctionStructure,
    ValidationReport,
    Violation,
    interdependency_index,
)
from designbench.synth import (
    Circuit,
    Requirement,
    _ref_choices,
    _search_assignment,
    _slot_sequence_to_topology,
    _verify,
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
# Canonical form by an unpruned individualisation search
#
# The library's canonical form before automorphism pruning, kept verbatim:
# it branches on every vertex of the target cell, so its certificate is
# the minimum over all leaves of the search tree.  Factorial in the number
# of interchangeable nodes; use on small designs only.

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
# Component-discrete certificates by the per-level walk
#
# The library's certificate of a component-discrete colouring before it
# became one sort by (colour, component), kept verbatim: it follows the
# first path of the search, individualising the first vertex of the first
# non-singleton cell and refining, until no edge joins two non-singleton
# vertices.  Polynomial, so it checks large designs too; ``None`` when the
# refined colouring is not component-discrete.

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
            for match in gr.find_matches(rule, design):
                try:
                    child = gr.apply(rule, design, match, grammar.vocabulary)
                except gr.DanglingEdgeError:
                    continue
                record(child)
                expand(child, depth + 1)

    expand(grammar.axiom, 0)
    return found


# ---------------------------------------------------------------------------
# Matching by scanning every node
#
# The library's ``find_matches`` before the per-design label and edge
# indices, kept verbatim: each pattern node scans all design nodes, and
# each call groups the design's edge instances anew.

def _node_matches(pattern: gr.PatternNode, node: gr.GraphNode) -> bool:
    if pattern.label != node.label:
        return False
    attrs = node.attr_map()
    for pred in pattern.predicates:
        if pred.attr not in attrs or not pred.holds(attrs[pred.attr]):
            return False
    return True


def find_matches(rule: gr.Rule, design: gr.Design,
                 vocab: Optional[gr.Vocabulary] = None) -> list[gr.Match]:
    if vocab is not None:
        vocab.require_valid(design, "design")
        problems = gr.check_rule(vocab, rule)
        if problems:
            raise gr.VocabularyError(f"rule {rule.name!r}: " + "; ".join(problems))

    lhs_nodes = rule.lhs.nodes
    lhs_edges = rule.lhs.edges
    matches: list[gr.Match] = []

    # Design edge instances grouped per (source, target, label).
    instances: dict[tuple[str, str, str], list[int]] = {}
    for idx, edge in enumerate(design.edges):
        instances.setdefault((edge.source, edge.target, edge.label), []).append(idx)

    assignment: dict[str, str] = {}
    used: set[str] = set()

    def edge_groups() -> Optional[list[tuple[list[int], list[int]]]]:
        """Group lhs edge positions by mapped design triple; None if short."""
        groups: dict[tuple[str, str, str], list[int]] = {}
        for pos, edge in enumerate(lhs_edges):
            triple = (assignment[edge.source], assignment[edge.target], edge.label)
            groups.setdefault(triple, []).append(pos)
        out = []
        for triple, positions in groups.items():
            avail = instances.get(triple, [])
            if len(avail) < len(positions):
                return None
            out.append((positions, avail))
        out.sort(key=lambda pair: pair[0][0])
        return out

    def count_ok() -> bool:
        needed: dict[tuple[str, str, str], int] = {}
        for edge in lhs_edges:
            if edge.source in assignment and edge.target in assignment:
                triple = (assignment[edge.source], assignment[edge.target], edge.label)
                needed[triple] = needed.get(triple, 0) + 1
        return all(len(instances.get(t, [])) >= k for t, k in needed.items())

    def emit_edge_choices() -> None:
        groups = edge_groups()
        if groups is None:
            return
        per_group = [list(combinations(avail, len(positions))) for positions, avail in groups]
        for picks in product(*per_group):
            slot: dict[int, int] = {}
            for (positions, _), chosen in zip(groups, picks):
                for pos, inst in zip(positions, chosen):
                    slot[pos] = inst
            matches.append(
                gr.Match(
                    nodes=tuple((n.id, assignment[n.id]) for n in lhs_nodes),
                    edges=tuple(slot[i] for i in range(len(lhs_edges))),
                )
            )

    def extend(i: int) -> None:
        if i == len(lhs_nodes):
            emit_edge_choices()
            return
        pattern = lhs_nodes[i]
        for node in design.nodes:
            if node.id in used or not _node_matches(pattern, node):
                continue
            assignment[pattern.id] = node.id
            used.add(node.id)
            if count_ok():
                extend(i + 1)
            used.remove(node.id)
            del assignment[pattern.id]

    extend(0)
    return matches


# ---------------------------------------------------------------------------
# Rewriting that derives everything from the rule at each application
#
# The library's ``apply`` before each rule's anchor map, removed ids, RHS
# index and new-node attributes were computed once per rule, kept
# verbatim with its helpers: every call rebuilds them, rebuilds each
# anchored node's attribute dict, filters copies of the node and edge
# lists, and builds the result through ``Design``'s checking constructor.

def _verify_match(rule: gr.Rule, design: gr.Design, match: gr.Match) -> dict[str, str]:
    """The match's node map, once the match is known to embed."""
    node_map = dict(match.nodes)
    if set(node_map) != {n.id for n in rule.lhs.nodes}:
        raise gr.StaleMatchError("match does not cover the rule's LHS nodes")
    if len(set(node_map.values())) != len(node_map):
        raise gr.StaleMatchError("match is not injective")
    for pattern in rule.lhs.nodes:
        target = node_map[pattern.id]
        node = design._by_id.get(target)
        if node is None:
            raise gr.StaleMatchError(f"matched node {target!r} is gone")
        if not _node_matches(pattern, node):
            raise gr.StaleMatchError(f"node {target!r} no longer satisfies the pattern")
    if len(match.edges) != len(rule.lhs.edges):
        raise gr.StaleMatchError("match does not cover the rule's LHS edges")
    if len(set(match.edges)) != len(match.edges):
        raise gr.StaleMatchError("match reuses a design edge")
    for pattern_edge, idx in zip(rule.lhs.edges, match.edges):
        if not 0 <= idx < len(design.edges):
            raise gr.StaleMatchError(f"matched edge index {idx} is gone")
        actual = design.edges[idx]
        expected = (node_map[pattern_edge.source], node_map[pattern_edge.target],
                    pattern_edge.label)
        if (actual.source, actual.target, actual.label) != expected:
            raise gr.StaleMatchError(f"edge {idx} no longer matches the pattern")
    return node_map


def _fresh_ids(existing: set[str], count: int) -> list[str]:
    out: list[str] = []
    k = 0
    while len(out) < count:
        candidate = f"n{k}"
        if candidate not in existing:
            out.append(candidate)
            existing.add(candidate)
        k += 1
    return out


def _same_attrs(new: tuple, old: tuple) -> bool:
    """``new == old`` in each value's type and JSON text too: ``1``, ``1.0``
    and ``True`` are equal in Python, as are ``0.0`` and ``-0.0``, and
    ``[1]`` and ``[True]``, but none of them in a design."""
    return new == old and all(
        type(a) is type(b) and (type(a) in (str, int, bool, type(None))
                                or type(a) is float and repr(a) == repr(b))
        for (_, a), (_, b) in zip(new, old))


def _eval_expr(expr: gr.AttrExpr, design: gr.Design, node_map: dict[str, str]) -> gr.Scalar:
    if isinstance(expr, gr.CopyAttr):
        return design.node(node_map[expr.node]).get(expr.attr)
    return expr


def apply(rule: gr.Rule, design: gr.Design, match: gr.Match,
          vocab: Optional[gr.Vocabulary] = None) -> gr.Design:
    """Rewrite ``design`` at ``match``.

    Raises :class:`StaleMatchError` if the match no longer embeds, and
    :class:`DanglingEdgeError` if an unmatched edge touches a node the
    rule removes.

    A node the rule does not match is the parent's own object in the
    result, and so is an anchored node the rewrite leaves as it was (same
    label, and each attribute a value of the same type and JSON text);
    every other node of the result is a new object.
    """
    node_map = _verify_match(rule, design, match)
    anchor = dict(rule.anchors)

    removed = {node_map[n.id] for n in rule.lhs.nodes if n.id not in anchor}
    matched_edges = set(match.edges)

    if removed:
        for idx, edge in enumerate(design.edges):
            if idx in matched_edges:
                continue
            if edge.source in removed or edge.target in removed:
                raise gr.DanglingEdgeError(
                    f"edge {edge.source!r}->{edge.target!r} ({edge.label!r}) would dangle"
                )

    rhs_by_id = {n.id: n for n in rule.rhs.nodes}
    # rhs id -> design id; new nodes get the first unused "n<k>" ids
    placed = {rhs: node_map[lhs] for lhs, rhs in anchor.items()}
    new_rhs = [n for n in rule.rhs.nodes if n.id not in placed]
    if new_rhs:
        fresh = _fresh_ids(design._by_id.keys() - removed, len(new_rhs))
        placed.update(zip([n.id for n in new_rhs], fresh))

    # Anchored survivors: attribute updates (and possible relabel) in place.
    updates: dict[str, gr.GraphNode] = {}
    for lhs_id, rhs_id in anchor.items():
        design_id = node_map[lhs_id]
        current = design.node(design_id)
        rhs_node = rhs_by_id[rhs_id]
        attrs = current.attr_map()
        for attr, expr in rhs_node.attrs:
            attrs[attr] = _eval_expr(expr, design, node_map)
        items = tuple(sorted(attrs.items()))
        if rhs_node.label == current.label and _same_attrs(items, current.attrs):
            updates[design_id] = current
        else:
            updates[design_id] = gr.GraphNode(design_id, rhs_node.label, items)

    nodes = [updates.get(node.id, node) for node in design.nodes if node.id not in removed]
    for rhs_node in new_rhs:
        attrs = {attr: _eval_expr(expr, design, node_map) for attr, expr in rhs_node.attrs}
        nodes.append(gr.GraphNode.make(placed[rhs_node.id], rhs_node.label, attrs))
    edges = [edge for idx, edge in enumerate(design.edges) if idx not in matched_edges]
    edges += [gr.GraphEdge(placed[e.source], placed[e.target], e.label) for e in rule.rhs.edges]

    result = gr.Design(tuple(nodes), tuple(edges))
    if vocab is not None:
        vocab.require_valid(result, f"result of rule {rule.name!r}")
    return result


# ---------------------------------------------------------------------------
# Generation with a full vocabulary check of every child
#
# The library's ``generate`` before the delta check and the exact-repeat
# skip, kept verbatim: every child goes through ``apply(..., vocab)`` and
# ``canonical_form``.

def generate_full_check(grammar: gr.Grammar, max_depth: int,
                        max_designs: int) -> gr.GenerationResult:
    if max_depth < 1 or max_designs < 1:
        raise ValueError("generation limits must be positive")

    vocab = grammar.vocabulary
    seen: dict[bytes, gr.GeneratedDesign] = {}
    axiom_entry = gr.GeneratedDesign(grammar.axiom, gr.Derivation(),
                                     gr.canonical_form(grammar.axiom), 0)
    seen[axiom_entry.canonical] = axiom_entry
    frontier = [axiom_entry]

    for depth in range(1, max_depth + 1):
        if len(seen) >= max_designs:
            break
        next_frontier: list[gr.GeneratedDesign] = []
        for entry in frontier:
            for rule in grammar.rules:
                for match in gr.find_matches(rule, entry.design):
                    try:
                        child = gr.apply(rule, entry.design, match, vocab)
                    except gr.DanglingEdgeError:
                        continue
                    key = gr.canonical_form(child)
                    if key in seen:
                        continue
                    child_entry = gr.GeneratedDesign(
                        child,
                        gr.Derivation((*entry.derivation.steps,
                                       gr.DerivationStep(rule.name, match))),
                        key,
                        depth,
                    )
                    seen[key] = child_entry
                    next_frontier.append(child_entry)
                    if len(seen) >= max_designs:
                        break
                if len(seen) >= max_designs:
                    break
            if len(seen) >= max_designs:
                break
        frontier = next_frontier
        if not frontier:
            break

    ordered = tuple(sorted(seen.values(), key=lambda g: g.canonical))
    return gr.GenerationResult(ordered)


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
# Truth-table columns row by row (verbatim from synth.Requirement before it
# packed its columns once)

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
# Topology search by enumerate-then-assign (verbatim from synth before the
# fused walk): every canonical slot sequence at a gate count, then a fresh
# backtracking gate assignment for every choice of output slots

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


def enumerate_then_assign(requirement: Requirement,
                          max_gates: int) -> Optional[Circuit]:
    """``synth.synthesize_topology`` as it was before the fused walk."""
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
            closures = _closures(n, slots)
            cover = _backward_cover(n, slots)
            # Per output position, slots whose fan-in spans the needed inputs.
            candidates = [
                [j for j in range(gate_count) if closures[j] & support_masks[p] == support_masks[p]]
                for p in range(m)
            ]
            if any(not c for c in candidates):
                continue
            # Enumeration refs already use the inputs-then-slots index space.
            slot_sources = [tuple(refs) for refs in slots]
            for output_slots in product(*candidates):
                covered = 0
                for j in output_slots:
                    covered |= cover[j]
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
# Fewest gates by whole levels: the bound that preceded the per-child test

def gate_with_new(target: int, new: Collection[int], signals: frozenset[int],
                  full: int) -> bool:
    """Whether a gate reading a value ``v`` of ``new`` computes ``target``:
    NOT ``v``, or ``v`` XOR a signal, AND a superset or OR a subset.  With
    ``new`` equal to ``signals``, whether any gate over them does.

    Verbatim from ``synth._gate_with_new`` before its plain loops."""
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
    """Every function vertex's total degree by one string-keyed walk over the
    flows (verbatim from ``FunctionStructure.degrees`` before the check
    counted it).  Defined on any structure: a repeated vertex id has one
    entry, a flow end that is no vertex id counts for nothing, and a
    self-loop counts twice."""
    table = {v.id: 0 for v in structure.vertices}
    for f in structure.flows:
        if f.source in table:
            table[f.source] += 1
        if f.target in table:
            table[f.target] += 1
    return table


# ---------------------------------------------------------------------------
# Structure validation (verbatim from funcstruct before the interned
# one-pass check, with the deleted ``vertex_ids()`` written out)

def check_structure(fs: FunctionStructure) -> ValidationReport:
    """The report of ``funcstruct.validate``, by string-keyed sets and maps,
    a per-vertex iterator DFS for the cycle and dict-of-set reachability."""
    out: list[Violation] = []

    seen: set[str] = set()
    for v in fs.vertices:
        if v.id in seen:
            out.append(Violation("duplicate-id", f"duplicate id {v.id!r}"))
        seen.add(v.id)
    for t in fs.terminals:
        if t.id in seen:
            out.append(Violation("duplicate-id", f"duplicate id {t.id!r}"))
        seen.add(t.id)
        if t.kind not in (INPUT, OUTPUT):
            out.append(
                Violation("bad-terminal-kind", f"terminal {t.id!r} has kind {t.kind!r}")
            )
        if not t.label:
            out.append(Violation("empty-label", f"terminal {t.id!r} has empty label"))

    if not fs.vertices:
        out.append(Violation("no-vertices", "structure has no function vertices"))

    vertex_ids = {v.id for v in fs.vertices}
    term_by_id = {t.id: t for t in fs.terminals}

    for i, f in enumerate(fs.flows):
        for endpoint in (f.source, f.target):
            if endpoint not in vertex_ids and endpoint not in term_by_id:
                out.append(
                    Violation("unknown-endpoint", f"flows[{i}] references {endpoint!r}")
                )
        if f.source in term_by_id and f.target in term_by_id:
            out.append(
                Violation(
                    "terminal-terminal-flow",
                    f"flows[{i}] connects two terminals ({f.source!r} -> {f.target!r})",
                )
            )
        if f.target in term_by_id and term_by_id[f.target].kind == INPUT:
            out.append(
                Violation(
                    "input-terminal-inflow",
                    f"flows[{i}] enters input terminal {f.target!r}",
                )
            )
        if f.source in term_by_id and term_by_id[f.source].kind == OUTPUT:
            out.append(
                Violation(
                    "output-terminal-outflow",
                    f"flows[{i}] leaves output terminal {f.source!r}",
                )
            )
        if not f.label:
            out.append(Violation("empty-label", f"flows[{i}] has empty label"))

    # Cycle check on the subgraph induced by function vertices.
    succ: dict[str, list[str]] = {v: [] for v in vertex_ids}
    for f in fs.flows:
        if f.source in vertex_ids and f.target in vertex_ids:
            succ[f.source].append(f.target)
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def has_cycle(start: str) -> bool:
        stack = [(start, iter(succ[start]))]
        state[start] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 0:
                    return True
                if nxt not in state:
                    state[nxt] = 0
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 1
                stack.pop()
        return False

    for v in vertex_ids:
        if v not in state and has_cycle(v):
            out.append(Violation("cycle", "flows between function vertices form a cycle"))
            break

    # Every vertex must lie on some input-terminal -> output-terminal path.
    inputs = {t.id for t in fs.terminals if t.kind == INPUT}
    outputs = {t.id for t in fs.terminals if t.kind == OUTPUT}
    fwd: dict[str, set[str]] = {}
    back: dict[str, set[str]] = {}
    for f in fs.flows:
        fwd.setdefault(f.source, set()).add(f.target)
        back.setdefault(f.target, set()).add(f.source)

    def reachable(seeds: set[str], adjacency: dict[str, set[str]]) -> set[str]:
        seen_r = set(seeds)
        stack = list(seeds)
        while stack:
            for nxt in adjacency.get(stack.pop(), ()):
                if nxt not in seen_r:
                    seen_r.add(nxt)
                    stack.append(nxt)
        return seen_r

    from_inputs = reachable(inputs, fwd)
    to_outputs = reachable(outputs, back)
    for v in fs.vertices:
        if v.id not in from_inputs or v.id not in to_outputs:
            out.append(
                Violation(
                    "off-path-vertex",
                    f"vertex {v.id!r} is not on any input->output path",
                )
            )

    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# Case similarity and reuse, term by term (verbatim from casebase before
# the single-Fraction kernel and the tokenise-once reuse)

def multiset_jaccard(a: Mapping[str, int], b: Mapping[str, int]) -> Fraction:
    """min-over-max multiset Jaccard; two empty multisets count as equal.

    Counts are non-negative, so the sum of maxima is the two totals minus
    the sum of minima, and only shared keys need a lookup.
    """
    if len(a) > len(b):
        a, b = b, a
    overlap = sum(min(n, b[k]) for k, n in a.items() if k in b)
    union = sum(a.values()) + sum(b.values()) - overlap
    if union == 0:
        return Fraction(1)
    return Fraction(overlap, union)


def structure_similarity(spec: SimilaritySpec, a: FunctionStructure,
                         b: FunctionStructure) -> Fraction:
    """Weighted blend of label overlap and interdependency closeness.

    Symmetric, 1 on identical structures, and always within [0, 1].
    Label multisets and indices are read from each structure's cache,
    so scoring a pair costs O(distinct labels) once both are warm.
    """
    functions = multiset_jaccard(a.function_labels, b.function_labels)
    flows = multiset_jaccard(a.flow_labels, b.flow_labels)
    pi_gap = abs(interdependency_index(a) - interdependency_index(b))
    return (
        spec.function_weight * functions
        + spec.flow_weight * flows
        + spec.structure_weight * (1 - pi_gap)
    )


_WORDS = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> frozenset[str]:
    return frozenset(_WORDS.findall(text.lower()))


def label_affinity(a: str, b: str) -> Fraction:
    """Word-overlap Jaccard between two free-text labels."""
    ta, tb = _tokens(a), _tokens(b)
    if not ta and not tb:
        return Fraction(1)
    union = len(ta | tb)
    return Fraction(len(ta & tb), union)


def reuse(case: Case, query: FunctionStructure) -> DraftSolution:
    """Adapt the retrieved case: annotate each component with the query
    subfunction it best serves (greedy, one-to-one); leftover query
    subfunctions become gaps."""
    labels: list[str] = []
    for vertex in query.vertices:
        if vertex.label not in labels:
            labels.append(vertex.label)

    candidates = []
    for comp in case.solution.components:
        for label in labels:
            score = max(label_affinity(comp.serves, label), label_affinity(comp.name, label))
            if score > 0:
                candidates.append((score, comp.name, label, comp))
    candidates.sort(key=lambda item: (-item[0], item[1], item[2]))

    assigned: dict[str, tuple[str, Fraction]] = {}  # component name -> (label, score)
    covered: set[str] = set()
    for score, comp_name, label, _ in candidates:
        if comp_name in assigned or label in covered:
            continue
        assigned[comp_name] = (label, score)
        covered.add(label)

    mappings = []
    for comp in case.solution.components:
        label, score = assigned.get(comp.name, (None, Fraction(0)))
        mappings.append(ComponentMapping(comp, label, score))
    gaps = tuple(label for label in labels if label not in covered)
    return DraftSolution(case.id, case.solution.description, tuple(mappings), gaps)


# ---------------------------------------------------------------------------
# Retrieval through a Fraction per case (verbatim from casebase before it
# ranked the integer scores in a bounded heap)

def retrieve(base: CaseBase, spec: SimilaritySpec, query: FunctionStructure,
             k: int) -> RetrievalResult:
    """Top-k cases by similarity; ties broken by case id."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not base.cases:
        raise EmptyCaseBaseError("cannot retrieve from an empty case base")
    # heapq.nsmallest(k, it, key) is documented as sorted(it, key=key)[:k].
    return RetrievalResult(tuple(heapq.nsmallest(
        k,
        ((case.id, similarity(spec, query, case)) for case in base.cases),
        key=lambda pair: (-pair[1], pair[0]),
    )))
