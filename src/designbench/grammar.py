"""Attributed graph grammars: vocabulary, rewrite rules, bounded generation.

A grammar is a vocabulary (node labels with attribute schemas, edge
labels), an ordered rule list and an axiom design.  Rules rewrite
``lhs -> rhs``: the left side is matched into a design as an injective,
label- and predicate-respecting embedding; anchored nodes survive the
rewrite (with attribute updates) while unanchored matched nodes are
removed.  Every matched edge instance is consumed, so an edge that
should survive between anchored nodes is simply re-added on the right
side; everything the pattern did not touch is left alone.

Edges reaching a removed node from outside the match are a dangling-edge
condition and reject the application instead of being deleted silently;
such violations almost always indicate an authoring error in the rule.

Designs are deduplicated and ordered by :func:`canonical_form`, an exact
isomorphism-respecting certificate: colour refinement plus an
individualisation search whose certificate is the smallest over the
leaves of the search tree.  Without pruning that tree grows
factorially in the number of interchangeable nodes, so the search
skips a branch when an automorphism that fixes every vertex
individualised above it maps it onto a branch already searched
(McKay & Piperno, "Practical graph isomorphism, II", 2014).
Automorphisms come from structural twins, whose transposition
preserves the edge multiset, and from two leaves with equal
certificates.  An automorphism maps the subtree below one branch onto
the subtree below the other with the same leaf certificates, so the
minimum, and with it every certificate byte, is the one the unpruned
search finds.  When each cell of the refined colouring is a single
vertex or one class of twins, every leaf is such an image of the
colour order, so that order's certificate is returned without a
search.  Each level of the search keeps its own orbit partition
(a union-find forest over the twins and the automorphisms that fix the
vertices above it), built when the search enters the level and merged
with each automorphism found below it; it is the partition a rebuild
from scratch would give, so the same branches are skipped.

:func:`generate` does less work per child than rewriting and
certifying it from scratch, with the same output.  A design indexes its
nodes by label and its edges by ``(source, target, label)`` once, for
every rule matched into it.  :func:`apply` keeps each node it leaves
unchanged, anchored ones included, as the parent's own object, and a
child is vocabulary-checked only on its other nodes, because its
parent is valid and nothing else can have changed: a violation still
gets the message of the full check.  A child identical to one built
earlier at the same depth (commuting rewrites from different parents)
is skipped before the check and the canonical form, because its
verdict and certificate are those of the earlier one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from json.encoder import encode_basestring_ascii
from typing import Mapping, Optional, Sequence, Union

from .domains import (
    Domain,
    Scalar,
    domain_from_dict,
    is_number,
    same_scalar,
)
from .jsonio import SchemaError, load_document


class VocabularyError(ValueError):
    pass


class StaleMatchError(ValueError):
    """The design changed since this match was produced."""


class DanglingEdgeError(ValueError):
    """An edge outside the match would lose an endpoint."""


# ---------------------------------------------------------------------------
# Designs

# ``json.dumps(..., sort_keys=True)`` for what ``_json_text`` does not write
_KEY_ENCODER = json.JSONEncoder(sort_keys=True)


def _json_text(value: object) -> str:
    """``json.dumps(value, sort_keys=True)``; a str or an int is written
    without ``JSONEncoder.encode``, which builds a C encoder per call."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    return _KEY_ENCODER.encode(value)


@dataclass(frozen=True)
class GraphNode:
    id: str
    label: str
    attrs: tuple[tuple[str, Scalar], ...] = ()

    @classmethod
    def make(cls, node_id: str, label: str,
             attrs: Optional[Mapping[str, Scalar]] = None) -> "GraphNode":
        items = tuple(sorted((attrs or {}).items()))
        return cls(node_id, label, items)

    @cached_property
    def colour_key(self) -> str:
        """JSON text of the label and attributes: the node's initial colour
        in :func:`canonical_form` and its entry in the certificate."""
        pairs = ", ".join(f"[{_json_text(k)}, {_json_text(v)}]" for k, v in self.attrs)
        return f"[{_json_text(self.label)}, [{pairs}]]"

    def attr_map(self) -> dict[str, Scalar]:
        return dict(self.attrs)

    def get(self, name: str) -> Scalar:
        for key, value in self.attrs:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    label: str


@dataclass(frozen=True)
class Design:
    """An immutable attributed, labelled directed multigraph."""

    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...] = ()

    def __post_init__(self):
        if len({n.id for n in self.nodes}) != len(self.nodes):
            raise ValueError("node ids must be unique")

    @cached_property
    def _by_id(self) -> dict[str, GraphNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def _by_label(self) -> dict[str, list[GraphNode]]:
        """The nodes of each label, in design order."""
        by_label: dict[str, list[GraphNode]] = {}
        for node in self.nodes:
            by_label.setdefault(node.label, []).append(node)
        return by_label

    @cached_property
    def _instances(self) -> dict[tuple[str, str, str], list[int]]:
        """Edge indices per ``(source, target, label)``, ascending."""
        instances: dict[tuple[str, str, str], list[int]] = {}
        for idx, edge in enumerate(self.edges):
            instances.setdefault((edge.source, edge.target, edge.label), []).append(idx)
        return instances

    def node(self, node_id: str) -> GraphNode:
        return self._by_id[node_id]

    def node_ids(self) -> set[str]:
        return {n.id for n in self.nodes}


# ---------------------------------------------------------------------------
# Vocabulary

@dataclass(frozen=True)
class Vocabulary:
    """Node labels with per-attribute domains, plus the legal edge labels."""

    node_labels: tuple[tuple[str, tuple[tuple[str, Domain], ...]], ...]
    edge_labels: tuple[str, ...]

    @classmethod
    def make(cls, node_labels: Mapping[str, Mapping[str, Domain]],
             edge_labels: Sequence[str]) -> "Vocabulary":
        packed = tuple(
            (label, tuple(sorted(schema.items())))
            for label, schema in node_labels.items()
        )
        return cls(packed, tuple(edge_labels))

    @cached_property
    def _schemas(self) -> dict[str, dict[str, Domain]]:
        schemas: dict[str, dict[str, Domain]] = {}
        for name, schema in self.node_labels:
            schemas.setdefault(name, dict(schema))
        return schemas

    def schema_of(self, label: str) -> dict[str, Domain]:
        return dict(self._schemas[label])

    def has_node_label(self, label: str) -> bool:
        return label in self._schemas

    def check_design(self, design: Design) -> list[str]:
        """Conformance problems; empty list means the design is valid."""
        problems = []
        for node in design.nodes:
            schema = self._schemas.get(node.label)
            if schema is None:
                problems.append(f"node {node.id!r}: unknown label {node.label!r}")
                continue
            attrs = node.attr_map()
            for attr, domain in schema.items():
                if attr not in attrs:
                    problems.append(f"node {node.id!r}: missing attribute {attr!r}")
                elif not domain.contains(attrs[attr]):
                    problems.append(
                        f"node {node.id!r}: value {attrs[attr]!r} outside domain of {attr!r}"
                    )
            for attr in attrs:
                if attr not in schema:
                    problems.append(f"node {node.id!r}: undeclared attribute {attr!r}")
        node_ids = design.node_ids()
        for i, edge in enumerate(design.edges):
            if edge.label not in self.edge_labels:
                problems.append(f"edge [{i}]: unknown label {edge.label!r}")
            for endpoint in (edge.source, edge.target):
                if endpoint not in node_ids:
                    problems.append(f"edge [{i}]: unknown endpoint {endpoint!r}")
        return problems

    def require_valid(self, design: Design, context: str) -> None:
        problems = self.check_design(design)
        if problems:
            raise VocabularyError(f"{context}: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# Rules

_PREDICATE_OPS = ("eq", "ne", "lt", "le", "gt", "ge", "in")


@dataclass(frozen=True)
class AttrPredicate:
    attr: str
    op: str  # one of _PREDICATE_OPS
    value: object

    def holds(self, actual: Scalar) -> bool:
        if self.op == "eq":
            return same_scalar(actual, self.value)
        if self.op == "ne":
            return not same_scalar(actual, self.value)
        if self.op == "in":
            return any(same_scalar(actual, v) for v in self.value)  # type: ignore[union-attr]
        if not is_number(actual) or not is_number(self.value):
            return False
        if self.op == "lt":
            return actual < self.value
        if self.op == "le":
            return actual <= self.value
        if self.op == "gt":
            return actual > self.value
        return actual >= self.value


@dataclass(frozen=True)
class PatternNode:
    id: str
    label: str
    predicates: tuple[AttrPredicate, ...] = ()


@dataclass(frozen=True)
class PatternEdge:
    source: str
    target: str
    label: str


@dataclass(frozen=True)
class PatternGraph:
    nodes: tuple[PatternNode, ...]
    edges: tuple[PatternEdge, ...] = ()


@dataclass(frozen=True)
class CopyAttr:
    """Attribute update that copies a value from a matched node."""

    node: str  # lhs pattern node id
    attr: str


AttrExpr = Union[Scalar, CopyAttr]


@dataclass(frozen=True)
class RhsNode:
    id: str
    label: str
    attrs: tuple[tuple[str, AttrExpr], ...] = ()

    @classmethod
    def make(cls, node_id: str, label: str,
             attrs: Optional[Mapping[str, AttrExpr]] = None) -> "RhsNode":
        return cls(node_id, label, tuple(sorted((attrs or {}).items())))


@dataclass(frozen=True)
class RhsGraph:
    nodes: tuple[RhsNode, ...]
    edges: tuple[PatternEdge, ...] = ()


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: PatternGraph
    rhs: RhsGraph
    anchors: tuple[tuple[str, str], ...] = ()  # lhs node id -> rhs node id

    def __post_init__(self):
        lhs_ids = {n.id for n in self.lhs.nodes}
        rhs_ids = {n.id for n in self.rhs.nodes}
        targets = [rhs for _, rhs in self.anchors]
        if len(targets) != len(set(targets)):
            raise ValueError(f"rule {self.name!r}: anchor map must be injective")
        for lhs_id, rhs_id in self.anchors:
            if lhs_id not in lhs_ids:
                raise ValueError(f"rule {self.name!r}: anchor source {lhs_id!r} not in LHS")
            if rhs_id not in rhs_ids:
                raise ValueError(f"rule {self.name!r}: anchor target {rhs_id!r} not in RHS")

    def anchor_map(self) -> dict[str, str]:
        return dict(self.anchors)


@dataclass(frozen=True)
class Match:
    """An embedding of a rule's LHS into a design.

    ``nodes`` maps lhs node ids to design node ids; ``edges`` gives, for
    each lhs edge (in lhs order), the index of the matched design edge.
    """

    nodes: tuple[tuple[str, str], ...]
    edges: tuple[int, ...] = ()

    def node_map(self) -> dict[str, str]:
        return dict(self.nodes)


@dataclass(frozen=True)
class DerivationStep:
    rule: str
    match: Match


@dataclass(frozen=True)
class Derivation:
    steps: tuple[DerivationStep, ...] = ()


@dataclass(frozen=True)
class Grammar:
    vocabulary: Vocabulary
    rules: tuple[Rule, ...]
    axiom: Design

    def __post_init__(self):
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise ValueError("rule names must be unique")
        self.vocabulary.require_valid(self.axiom, "axiom")
        for rule in self.rules:
            problems = check_rule(self.vocabulary, rule)
            if problems:
                raise VocabularyError(f"rule {rule.name!r}: " + "; ".join(problems))

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(f"unknown rule: {name!r}")


def check_rule(vocab: Vocabulary, rule: Rule) -> list[str]:
    """Static vocabulary conformance of a rule (labels, attrs, anchors)."""
    problems = []
    lhs_by_id = {n.id: n for n in rule.lhs.nodes}
    for node in rule.lhs.nodes:
        if not vocab.has_node_label(node.label):
            problems.append(f"LHS node {node.id!r}: unknown label {node.label!r}")
            continue
        schema = vocab.schema_of(node.label)
        for pred in node.predicates:
            if pred.attr not in schema:
                problems.append(f"LHS node {node.id!r}: undeclared attribute {pred.attr!r}")
            if pred.op not in _PREDICATE_OPS:
                problems.append(f"LHS node {node.id!r}: unknown op {pred.op!r}")
    for edge in rule.lhs.edges:
        if edge.label not in vocab.edge_labels:
            problems.append(f"LHS edge: unknown label {edge.label!r}")
        for endpoint in (edge.source, edge.target):
            if endpoint not in lhs_by_id:
                problems.append(f"LHS edge: unknown endpoint {endpoint!r}")

    rhs_ids = {n.id for n in rule.rhs.nodes}
    for node in rule.rhs.nodes:
        if not vocab.has_node_label(node.label):
            problems.append(f"RHS node {node.id!r}: unknown label {node.label!r}")
            continue
        schema = vocab.schema_of(node.label)
        for attr, expr in node.attrs:
            if attr not in schema:
                problems.append(f"RHS node {node.id!r}: undeclared attribute {attr!r}")
            elif isinstance(expr, CopyAttr):
                source = lhs_by_id.get(expr.node)
                if source is None:
                    problems.append(
                        f"RHS node {node.id!r}: copy references unknown LHS node {expr.node!r}"
                    )
                elif vocab.has_node_label(source.label) \
                        and expr.attr not in vocab.schema_of(source.label):
                    problems.append(
                        f"RHS node {node.id!r}: copy references undeclared attribute "
                        f"{expr.attr!r} of LHS node {expr.node!r}"
                    )
            elif not schema[attr].contains(expr):
                problems.append(
                    f"RHS node {node.id!r}: literal {expr!r} outside domain of {attr!r}"
                )
    for edge in rule.rhs.edges:
        if edge.label not in vocab.edge_labels:
            problems.append(f"RHS edge: unknown label {edge.label!r}")
        for endpoint in (edge.source, edge.target):
            if endpoint not in rhs_ids:
                problems.append(f"RHS edge: unknown endpoint {endpoint!r}")

    anchor = rule.anchor_map()
    rhs_by_id = {n.id: n for n in rule.rhs.nodes}
    new_nodes = rhs_ids - set(anchor.values())
    for rhs_id in sorted(new_nodes):
        node = rhs_by_id[rhs_id]
        if vocab.has_node_label(node.label):
            given = {a for a, _ in node.attrs}
            for attr in vocab.schema_of(node.label):
                if attr not in given:
                    problems.append(
                        f"RHS node {rhs_id!r}: new node must set attribute {attr!r}"
                    )
    return problems


# ---------------------------------------------------------------------------
# Matching

def _node_matches(pattern: PatternNode, node: GraphNode) -> bool:
    if pattern.label != node.label:
        return False
    attrs = node.attr_map()
    for pred in pattern.predicates:
        if pred.attr not in attrs or not pred.holds(attrs[pred.attr]):
            return False
    return True


def find_matches(rule: Rule, design: Design,
                 vocab: Optional[Vocabulary] = None) -> list[Match]:
    """All injective embeddings of the rule's LHS, deterministically ordered.

    Matching is injective homomorphism: unrelated context around the
    match is ignored.  Order follows lhs-node assignment order, then
    matched edge indices, so results are stable run to run.  Candidates
    come from the design's index of nodes by label (in design order) and
    edge instances from its index by ``(source, target, label)``, both
    built once per design and shared by every rule matched into it.
    """
    if vocab is not None:
        vocab.require_valid(design, "design")
        problems = check_rule(vocab, rule)
        if problems:
            raise VocabularyError(f"rule {rule.name!r}: " + "; ".join(problems))

    lhs_nodes = rule.lhs.nodes
    lhs_edges = rule.lhs.edges
    matches: list[Match] = []
    instances = design._instances
    by_label = design._by_label
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
        if not lhs_edges:
            matches.append(Match(tuple((n.id, assignment[n.id]) for n in lhs_nodes)))
            return
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
                Match(
                    nodes=tuple((n.id, assignment[n.id]) for n in lhs_nodes),
                    edges=tuple(slot[i] for i in range(len(lhs_edges))),
                )
            )

    def extend(i: int) -> None:
        if i == len(lhs_nodes):
            emit_edge_choices()
            return
        pattern = lhs_nodes[i]
        for node in by_label.get(pattern.label, ()):
            if node.id in used or not _node_matches(pattern, node):
                continue
            assignment[pattern.id] = node.id
            used.add(node.id)
            if not lhs_edges or count_ok():
                extend(i + 1)
            used.remove(node.id)
            del assignment[pattern.id]

    extend(0)
    return matches


def _verify_match(rule: Rule, design: Design, match: Match) -> dict[str, str]:
    """The match's node map, once the match is known to embed."""
    node_map = match.node_map()
    if set(node_map) != {n.id for n in rule.lhs.nodes}:
        raise StaleMatchError("match does not cover the rule's LHS nodes")
    if len(set(node_map.values())) != len(node_map):
        raise StaleMatchError("match is not injective")
    for pattern in rule.lhs.nodes:
        target = node_map[pattern.id]
        node = design._by_id.get(target)
        if node is None:
            raise StaleMatchError(f"matched node {target!r} is gone")
        if not _node_matches(pattern, node):
            raise StaleMatchError(f"node {target!r} no longer satisfies the pattern")
    if len(match.edges) != len(rule.lhs.edges):
        raise StaleMatchError("match does not cover the rule's LHS edges")
    if len(set(match.edges)) != len(match.edges):
        raise StaleMatchError("match reuses a design edge")
    for pattern_edge, idx in zip(rule.lhs.edges, match.edges):
        if not 0 <= idx < len(design.edges):
            raise StaleMatchError(f"matched edge index {idx} is gone")
        actual = design.edges[idx]
        expected = (node_map[pattern_edge.source], node_map[pattern_edge.target],
                    pattern_edge.label)
        if (actual.source, actual.target, actual.label) != expected:
            raise StaleMatchError(f"edge {idx} no longer matches the pattern")
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


def _eval_expr(expr: AttrExpr, design: Design, node_map: dict[str, str]) -> Scalar:
    if isinstance(expr, CopyAttr):
        return design.node(node_map[expr.node]).get(expr.attr)
    return expr


def apply(rule: Rule, design: Design, match: Match,
          vocab: Optional[Vocabulary] = None) -> Design:
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
    anchor = rule.anchor_map()

    removed = {node_map[n.id] for n in rule.lhs.nodes if n.id not in anchor}
    matched_edges = set(match.edges)

    if removed:
        for idx, edge in enumerate(design.edges):
            if idx in matched_edges:
                continue
            if edge.source in removed or edge.target in removed:
                raise DanglingEdgeError(
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
    updates: dict[str, GraphNode] = {}
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
            updates[design_id] = GraphNode(design_id, rhs_node.label, items)

    nodes = [updates.get(node.id, node) for node in design.nodes if node.id not in removed]
    for rhs_node in new_rhs:
        attrs = {attr: _eval_expr(expr, design, node_map) for attr, expr in rhs_node.attrs}
        nodes.append(GraphNode.make(placed[rhs_node.id], rhs_node.label, attrs))
    edges = [edge for idx, edge in enumerate(design.edges) if idx not in matched_edges]
    edges += [GraphEdge(placed[e.source], placed[e.target], e.label) for e in rule.rhs.edges]

    result = Design(tuple(nodes), tuple(edges))
    if vocab is not None:
        vocab.require_valid(result, f"result of rule {rule.name!r}")
    return result


# ---------------------------------------------------------------------------
# Canonical form

def _refine(colours: list[int], count: int, out_adj: list[list[tuple[int, int]]],
            in_adj: list[list[tuple[int, int]]]) -> tuple[list[int], int]:
    """Colour refinement to the coarsest stable colouring and its size.

    ``colours`` are dense ranks ``0..count-1``; adjacency entries are
    ``(label_rank * n, neighbour)``, so ``label_rank * n + colour`` orders
    like the pair ``(label, colour)``.  Each round ranks the signatures
    ``(colour, sorted out-neighbours, sorted in-neighbours)`` by value,
    so colours depend on colour values only, never on vertex order.  A
    vertex alone in its colour is ranked by that colour alone, which
    orders it the same way.  A round that splits no cell changes no
    colour, so refinement stops there or once the colouring is discrete.
    """
    n = len(colours)
    current = colours
    while count < n:
        size = [0] * count
        for c in current:
            size[c] += 1
        signatures = [
            (c,) if size[c] == 1 else
            (c, tuple(sorted([lbl + current[j] for lbl, j in out_adj[v]])),
             tuple(sorted([lbl + current[j] for lbl, j in in_adj[v]])))
            for v, c in enumerate(current)
        ]
        ranks = {sig: r for r, sig in enumerate(sorted(set(signatures)))}
        if len(ranks) == count:
            break
        current = [ranks[sig] for sig in signatures]
        count = len(ranks)
    return current, count


def _twin_classes(colours: list[int], out_adj: list[list[tuple[int, int]]],
                  in_adj: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Classes of structural twins: vertices with one colour whose
    transposition maps the edge multiset onto itself.  Transpositions
    that are automorphisms compose to automorphisms, so the relation is
    an equivalence; only classes of two or more are returned."""
    def swapped(adj: list[tuple[int, int]], u: int, v: int) -> list[tuple[int, int]]:
        return sorted((lbl, v if j == u else u if j == v else j) for lbl, j in adj)

    out_sorted = [sorted(adj) for adj in out_adj]
    in_sorted = [sorted(adj) for adj in in_adj]
    classes: dict[int, list[list[int]]] = {}
    for v, c in enumerate(colours):
        for cls in classes.setdefault(c, []):
            u = cls[0]
            if swapped(out_adj[u], u, v) == out_sorted[v] \
                    and swapped(in_adj[u], u, v) == in_sorted[v]:
                cls.append(v)
                break
        else:
            classes[c].append([v])
    return [cls for group in classes.values() for cls in group if len(cls) > 1]


def canonical_form(design: Design) -> bytes:
    """A byte string equal for two designs iff they are isomorphic
    (respecting node labels, attributes, edge labels and multiplicity).

    The certificate is the JSON text of ``{"edges": [...], "nodes":
    [...]}`` for the vertex order, among the leaves of the search tree,
    whose text is smallest.  Nodes appear as their ``colour_key``, edges
    as ``[source position, target position, label]`` in sorted order.
    """
    nodes = design.nodes
    n = len(nodes)
    index = {node.id: i for i, node in enumerate(nodes)}
    edges = [(index[e.source], index[e.target], e.label) for e in design.edges]
    labels = sorted({label for _, _, label in edges})
    label_rank = {label: r * n for r, label in enumerate(labels)}
    encoded = {label: _json_text(label) for label in labels}
    out_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    in_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, t, label in edges:
        out_adj[s].append((label_rank[label], t))
        in_adj[t].append((label_rank[label], s))

    keys = [node.colour_key for node in nodes]
    key_rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    colours, count = _refine([key_rank[k] for k in keys], len(key_rank), out_adj, in_adj)

    def certificate(order: list[int]) -> bytes:
        position = [0] * n
        for p, v in enumerate(order):
            position[v] = p
        edge_part = sorted((position[s], position[t], label) for s, t, label in edges)
        return "".join((
            '{"edges": [',
            ", ".join(f"[{a}, {b}, {encoded[label]}]" for a, b, label in edge_part),
            '], "nodes": [',
            ", ".join(keys[v] for v in order),
            "]}",
        )).encode("utf-8")

    # When each cell is a single vertex or one class of twins, each
    # permutation inside the cells is an automorphism.  Every leaf puts each
    # cell's vertices on that cell's positions, so it is such an image of
    # the colour order and has its certificate.
    twins = _twin_classes(colours, out_adj, in_adj) if count < n else []
    if count == len(twins) + n - sum(map(len, twins)):
        return certificate(sorted(range(n), key=colours.__getitem__))

    # Individualisation search with automorphism pruning (McKay & Piperno,
    # "Practical graph isomorphism, II", 2014).  ``path`` holds the vertices
    # individualised above the current node; ``finished[i]`` the children of
    # the node at level i whose subtrees are accounted for.  An automorphism
    # that fixes ``path[:i]`` maps the node at level i to itself and the
    # subtree below one child onto the subtree below its image, with equal
    # leaf certificates, so a child in the orbit of a finished child cannot
    # lower the minimum and is skipped.  Automorphisms come from structural
    # twins (their transpositions fix every other vertex) and from pairs of
    # leaves with equal certificates.
    #
    # ``forests[i]`` is a union-find forest whose trees are the orbits,
    # under the twins and the known automorphisms that fix ``path[:i]``,
    # of the node at level i.  It is built when the search enters that
    # node and takes each automorphism found below it at once, so the
    # partition always equals one rebuilt from scratch.
    automorphisms: list[list[int]] = []
    path: list[int] = []
    forests: list[list[int]] = []
    finished: list[list[int]] = []
    first: Optional[tuple[bytes, list[int]]] = None
    best: Optional[tuple[bytes, list[int]]] = None

    def find(forest: list[int], x: int) -> int:
        while forest[x] != x:
            forest[x] = forest[forest[x]]
            x = forest[x]
        return x

    def union(forest: list[int], x: int, y: int) -> None:
        x, y = find(forest, x), find(forest, y)
        if x != y:
            forest[max(x, y)] = min(x, y)

    def merge(forest: list[int], gamma: list[int]) -> None:
        for v, w in enumerate(gamma):
            if v != w:
                union(forest, v, w)

    def enter() -> None:
        """Push the forest and the finished list of the node at level
        ``len(path)``."""
        fixed = set(path)
        forest = list(range(n))
        for cls in twins:
            free = [v for v in cls if v not in fixed]
            for u, v in zip(free, free[1:]):
                union(forest, u, v)
        for gamma in automorphisms:
            if all(gamma[v] == v for v in path):
                merge(forest, gamma)
        forests.append(forest)
        finished.append([])

    def leave() -> None:
        forests.pop()
        finished.pop()

    def redundant(level: int, v: int) -> bool:
        forest = forests[level]
        root = find(forest, v)
        return any(find(forest, w) == root for w in finished[level])

    def leaf(colouring: list[int]) -> Optional[int]:
        """Record a leaf; on an automorphism, the shallowest level whose
        current child it makes redundant."""
        nonlocal first, best
        order = [0] * n
        for v, c in enumerate(colouring):
            order[c] = v
        cert = certificate(order)
        if best is None:
            first = best = (cert, order)
            return None
        for known_cert, known_order in (first, best):
            if cert == known_cert:
                gamma = [0] * n
                for p, v in enumerate(known_order):
                    gamma[v] = order[p]
                automorphisms.append(gamma)
                # gamma fixes path[:level] at each level this loop visits
                for level, v in enumerate(path):
                    merge(forests[level], gamma)
                    if redundant(level, v):
                        return level
                    if gamma[v] != v:
                        break
                return None
        if cert < best[0]:
            best = (cert, order)
        return None

    def search(colouring: list[int], count: int) -> Optional[int]:
        """Explore below a node; returns a shallower level to unwind to."""
        if count == n:
            return leaf(colouring)
        size = [0] * count
        for c in colouring:
            size[c] += 1
        cell = min(c for c in range(count) if size[c] > 1)
        level = len(path)
        enter()
        for v in range(n):
            if colouring[v] != cell or redundant(level, v):
                continue
            branched = [c + 1 if c >= cell else c for c in colouring]
            branched[v] = cell
            path.append(v)
            unwind = search(*_refine(branched, count + 1, out_adj, in_adj))
            path.pop()
            if unwind is not None and unwind < level:
                leave()
                return unwind
            finished[level].append(v)
        leave()
        return None

    search(colours, count)
    assert best is not None
    return best[0]


# ---------------------------------------------------------------------------
# Generation

@dataclass(frozen=True)
class GeneratedDesign:
    design: Design
    derivation: Derivation
    canonical: bytes
    depth: int


@dataclass(frozen=True)
class GenerationResult:
    designs: tuple[GeneratedDesign, ...]

    def __len__(self) -> int:
        return len(self.designs)

    def canonical_forms(self) -> list[bytes]:
        return [g.canonical for g in self.designs]


def generate(grammar: Grammar, max_depth: int, max_designs: int) -> GenerationResult:
    """Breadth-first closure of rule application from the axiom.

    Deduplicated by canonical form; output sorted by canonical form, so
    two runs over equal inputs produce identical sequences.  The axiom
    itself counts against ``max_designs``.

    Every child is vocabulary-checked as :func:`apply` with ``vocab``
    would check it, with the same verdict and message, but only on the
    nodes the rewrite touched: the child's nodes that are not the very
    objects of the parent (compared by identity, since fresh ids may
    reuse a removed node's id; an anchored node that :func:`apply`
    leaves unchanged is the parent's object).  The parent is valid (the axiom is
    checked by :class:`Grammar`, every kept child here), unmatched edges
    keep their labels, the dangling-edge check keeps their endpoints,
    and :func:`check_rule` has checked the right side's edges and
    literals, so an untouched node or edge cannot be at fault.  When a
    touched node is, the whole child goes through
    :meth:`Vocabulary.require_valid`, which raises the message a full
    check gives.

    A child whose node ids, node colours and edge tuple equal those of a
    child built earlier at the same depth (commuting rewrites reached
    from different parents) is skipped before the check and the
    canonical form: it would get the same verdict and the certificate
    already in ``seen``.
    """
    if max_depth < 1 or max_designs < 1:
        raise ValueError("generation limits must be positive")

    vocab = grammar.vocabulary
    seen: dict[bytes, GeneratedDesign] = {}
    axiom_entry = GeneratedDesign(grammar.axiom, Derivation(), canonical_form(grammar.axiom), 0)
    seen[axiom_entry.canonical] = axiom_entry
    frontier = [axiom_entry]

    for depth in range(1, max_depth + 1):
        if len(seen) >= max_designs:
            break
        next_frontier: list[GeneratedDesign] = []
        # children of this depth by ids, colours and edges; ``Design``
        # equality would take 1, 1.0 and True for one value
        built: set[tuple] = set()
        for entry in frontier:
            parent = entry.design
            for rule in grammar.rules:
                for match in find_matches(rule, parent):
                    try:
                        child = apply(rule, parent, match)
                    except DanglingEdgeError:
                        continue
                    exact = (tuple([(n.id, n.colour_key) for n in child.nodes]), child.edges)
                    size = len(built)  # one hash of the key, not two
                    built.add(exact)
                    if len(built) == size:
                        continue
                    touched = [n for n in child.nodes if parent._by_id.get(n.id) is not n]
                    if vocab.check_design(Design(tuple(touched))):
                        vocab.require_valid(child, f"result of rule {rule.name!r}")
                    key = canonical_form(child)
                    if key in seen:
                        continue
                    child_entry = GeneratedDesign(
                        child,
                        Derivation((*entry.derivation.steps, DerivationStep(rule.name, match))),
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
    return GenerationResult(ordered)


def replay(grammar: Grammar, derivation: Derivation) -> Design:
    """Re-run a derivation from the axiom; fresh ids are deterministic,
    so the replayed design equals the generated one exactly."""
    design = grammar.axiom
    for step in derivation.steps:
        design = apply(grammar.rule(step.rule), design, step.match, grammar.vocabulary)
    return design


# ---------------------------------------------------------------------------
# JSON format (.grammar.json) and DOT rendering

def _array(doc: dict, key: str, location: str) -> list:
    """``doc[key]``, an array that may be left out."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{key!r} must be an array", f"{location}.{key}")
    return value


def _design_from_dict(doc: object, location: str) -> Design:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", location)
    nodes = []
    for i, n in enumerate(_array(doc, "nodes", location)):
        loc = f"{location}.nodes[{i}]"
        if not isinstance(n, dict) or not isinstance(n.get("id"), str):
            raise SchemaError("node needs a string 'id'", loc)
        if not isinstance(n.get("label"), str):
            raise SchemaError("node needs a string 'label'", f"{loc}.label")
        attrs = n.get("attrs", {})
        if not isinstance(attrs, dict):
            raise SchemaError("'attrs' must be an object", f"{loc}.attrs")
        nodes.append(GraphNode.make(n["id"], n["label"], attrs))
    edges = [_edge_from_dict(e, f"{location}.edges[{i}]")
             for i, e in enumerate(_array(doc, "edges", location))]
    try:
        return Design(tuple(nodes), tuple(edges))
    except ValueError as exc:
        raise SchemaError(str(exc), location) from exc


def _edge_from_dict(doc: object, location: str) -> GraphEdge:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", location)
    for key in ("source", "target", "label"):
        if not isinstance(doc.get(key), str):
            raise SchemaError(f"edge needs a string {key!r}", f"{location}.{key}")
    return GraphEdge(doc["source"], doc["target"], doc["label"])


def _pattern_from_dict(doc: object, location: str) -> PatternGraph:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", location)
    nodes = []
    for i, n in enumerate(_array(doc, "nodes", location)):
        loc = f"{location}.nodes[{i}]"
        if not isinstance(n, dict) or not isinstance(n.get("id"), str) \
                or not isinstance(n.get("label"), str):
            raise SchemaError("pattern node needs string 'id' and 'label'", loc)
        predicates = []
        for j, p in enumerate(_array(n, "where", loc)):
            ploc = f"{loc}.where[{j}]"
            if not isinstance(p, dict) or not isinstance(p.get("attr"), str):
                raise SchemaError("predicate needs a string 'attr'", ploc)
            op = p.get("op", "eq")
            if op not in _PREDICATE_OPS:
                raise SchemaError(f"unknown op {op!r}", f"{ploc}.op")
            if op == "in" and not isinstance(p.get("value"), list):
                raise SchemaError("op 'in' needs an array 'value'", f"{ploc}.value")
            predicates.append(AttrPredicate(p["attr"], op, p.get("value")))
        nodes.append(PatternNode(n["id"], n["label"], tuple(predicates)))
    edges = [_edge_from_dict(e, f"{location}.edges[{i}]")
             for i, e in enumerate(_array(doc, "edges", location))]
    pattern_edges = tuple(PatternEdge(e.source, e.target, e.label) for e in edges)
    return PatternGraph(tuple(nodes), pattern_edges)


def _rhs_from_dict(doc: object, location: str) -> RhsGraph:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", location)
    nodes = []
    for i, n in enumerate(_array(doc, "nodes", location)):
        loc = f"{location}.nodes[{i}]"
        if not isinstance(n, dict) or not isinstance(n.get("id"), str) \
                or not isinstance(n.get("label"), str):
            raise SchemaError("RHS node needs string 'id' and 'label'", loc)
        attrs: dict[str, AttrExpr] = {}
        raw = n.get("attrs", {})
        if not isinstance(raw, dict):
            raise SchemaError("'attrs' must be an object", f"{loc}.attrs")
        for attr, value in raw.items():
            if isinstance(value, dict):
                copy = value.get("copy")
                if not isinstance(copy, dict) or not isinstance(copy.get("node"), str) \
                        or not isinstance(copy.get("attr"), str):
                    raise SchemaError(
                        "expression must be a scalar or {'copy': {'node', 'attr'}}",
                        f"{loc}.attrs.{attr}",
                    )
                attrs[attr] = CopyAttr(copy["node"], copy["attr"])
            else:
                attrs[attr] = value
        nodes.append(RhsNode.make(n["id"], n["label"], attrs))
    edges = [_edge_from_dict(e, f"{location}.edges[{i}]")
             for i, e in enumerate(_array(doc, "edges", location))]
    pattern_edges = tuple(PatternEdge(e.source, e.target, e.label) for e in edges)
    return RhsGraph(tuple(nodes), pattern_edges)


def grammar_from_dict(doc: object, location: str = "$") -> Grammar:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", location)
    vocab_doc = doc.get("vocabulary")
    if not isinstance(vocab_doc, dict):
        raise SchemaError("expected a 'vocabulary' object", f"{location}.vocabulary")
    raw_labels = vocab_doc.get("node_labels")
    if not isinstance(raw_labels, dict):
        raise SchemaError("'node_labels' must be an object", f"{location}.vocabulary.node_labels")
    node_labels: dict[str, dict[str, Domain]] = {}
    for label, schema in raw_labels.items():
        loc = f"{location}.vocabulary.node_labels.{label}"
        if not isinstance(schema, dict):
            raise SchemaError("attribute schema must be an object", loc)
        node_labels[label] = {
            attr: domain_from_dict(d, f"{loc}.{attr}") for attr, d in schema.items()
        }
    edge_labels = vocab_doc.get("edge_labels", [])
    if not isinstance(edge_labels, list) or not all(isinstance(x, str) for x in edge_labels):
        raise SchemaError("'edge_labels' must be an array of strings",
                          f"{location}.vocabulary.edge_labels")
    vocab = Vocabulary.make(node_labels, edge_labels)

    rules = []
    for i, r in enumerate(_array(doc, "rules", location)):
        loc = f"{location}.rules[{i}]"
        if not isinstance(r, dict) or not isinstance(r.get("name"), str):
            raise SchemaError("rule needs a string 'name'", loc)
        anchors_raw = r.get("anchors", {})
        if not isinstance(anchors_raw, dict):
            raise SchemaError("'anchors' must be an object", f"{loc}.anchors")
        for lhs_id, rhs_id in anchors_raw.items():
            if not isinstance(rhs_id, str):
                raise SchemaError("anchor target must be a string", f"{loc}.anchors.{lhs_id}")
        lhs = _pattern_from_dict(r.get("lhs", {}), f"{loc}.lhs")
        rhs = _rhs_from_dict(r.get("rhs", {}), f"{loc}.rhs")
        try:
            rule = Rule(r["name"], lhs, rhs, tuple(sorted(anchors_raw.items())))
        except ValueError as exc:
            raise SchemaError(str(exc), loc) from exc
        rules.append(rule)

    axiom = _design_from_dict(doc.get("axiom"), f"{location}.axiom")
    try:
        return Grammar(vocab, tuple(rules), axiom)
    except ValueError as exc:
        raise SchemaError(str(exc), location) from exc


def parse_grammar(data: bytes | str) -> Grammar:
    return grammar_from_dict(load_document(data))


def design_to_dict(design: Design) -> dict:
    return {
        "nodes": [
            {"id": n.id, "label": n.label, "attrs": {k: v for k, v in n.attrs}}
            for n in design.nodes
        ],
        "edges": [
            {"source": e.source, "target": e.target, "label": e.label}
            for e in design.edges
        ],
    }


def design_to_dot(design: Design, name: str = "design") -> str:
    lines = [f"digraph {json.dumps(name)} {{"]
    for node in design.nodes:
        attr_text = ", ".join(f"{k}={v!r}" for k, v in node.attrs)
        label = node.label if not attr_text else f"{node.label}\\n{attr_text}"
        lines.append(f"  {json.dumps(node.id)} [label={json.dumps(label)}];")
    for edge in design.edges:
        lines.append(
            f"  {json.dumps(edge.source)} -> {json.dumps(edge.target)}"
            f" [label={json.dumps(edge.label)}];"
        )
    lines.append("}")
    return "\n".join(lines)
