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
factorially in the number of interchangeable nodes.  A design built
from interchangeable parts needs no search: when no connected component
of the vertices in non-singleton cells holds one colour twice, every
branch at every level is equivalent, so the first path down the tree
reaches the certificate every leaf shares (component recursion, as in
Traces and bliss).  Every other design takes the search, which skips a
branch when an automorphism that fixes every vertex individualised
above it maps it onto a branch already searched (McKay & Piperno,
"Practical graph isomorphism, II", 2014).  The automorphisms come from
two leaves with equal certificates.  An automorphism maps the subtree
below one branch onto the subtree below the other with the same leaf
certificates, so the minimum, and with it every certificate byte, is
the one the unpruned search finds.  Each level of the search keeps its
own orbit partition (a union-find forest over the automorphisms that
fix the vertices above it), built when the search enters the level and
merged with each automorphism found below it; it is the partition a
rebuild from scratch would give, so the same branches are skipped.

:func:`generate` does less work per child than rewriting and
certifying it from scratch, with the same output.  A rule derives, once
on first use, everything its matching and rewriting read of it: the
anchor map, the LHS ids and those whose nodes the rewrite removes, the
edge counts each level of the search must find, the RHS node of each
anchor (and whether it leaves its node as it is) and the new RHS nodes,
and, for a new node whose attributes are all literals, its sorted
attributes and colour key.  A design indexes its nodes by label and its
edges by ``(source, target, label)`` once, for every rule matched into
it.  Per child only what depends on the match is built: the node map,
the fresh ids, the anchored nodes the rewrite changes, the new nodes
and edges, and filtered node and edge lists only when the rewrite
removes or changes something in them.  :func:`apply` keeps each node it leaves
unchanged, anchored ones included, as the parent's own object, and a
child is vocabulary-checked only on its other nodes, because its
parent is valid and nothing else can have changed: a violation still
gets the message of the full check.  Steps that commute are taken in
one order only (partial-order reduction, Godefroid 1996): a step that
commutes with the step that made its design, and comes before that
step in the parent's order, is not applied, because the other order
has already reached an isomorphic design (the Local Church-Rosser
theorem; see :func:`generate`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Container, Mapping, Optional, Sequence, Union

from .domains import (
    Domain,
    Scalar,
    domain_from_dict,
    is_number,
    same_scalar,
)
from .jsonio import SchemaError, cached, expect, field, load_document, located


class VocabularyError(ValueError):
    pass


class StaleMatchError(ValueError):
    """The design changed since this match was produced."""


class DanglingEdgeError(ValueError):
    """An edge outside the match would lose an endpoint."""


# A frozen dataclass record is filled field by field, as its ``__init__``
# would fill it, where the cost of calling ``__init__`` shows.
_new, _set = object.__new__, object.__setattr__


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

    @cached
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

    @cached
    def _by_id(self) -> dict[str, GraphNode]:
        return {n.id: n for n in self.nodes}

    @cached
    def _by_label(self) -> dict[str, list[GraphNode]]:
        """The nodes of each label, in design order."""
        by_label: dict[str, list[GraphNode]] = {}
        for node in self.nodes:
            by_label.setdefault(node.label, []).append(node)
        return by_label

    @cached
    def _instances(self) -> dict[tuple[str, str, str], list[int]]:
        """Edge indices per ``(source, target, label)``, ascending."""
        instances: dict[tuple[str, str, str], list[int]] = {}
        for idx, edge in enumerate(self.edges):
            instances.setdefault((edge.source, edge.target, edge.label), []).append(idx)
        return instances

    def node(self, node_id: str) -> GraphNode:
        return self._by_id[node_id]


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

    @cached
    def _schemas(self) -> dict[str, dict[str, Domain]]:
        schemas: dict[str, dict[str, Domain]] = {}
        for name, schema in self.node_labels:
            schemas.setdefault(name, dict(schema))
        return schemas

    def check_design(self, design: Design) -> list[str]:
        """Conformance problems; empty list means the design is valid."""
        problems = self._node_problems(design.nodes)
        node_ids = design._by_id
        for i, edge in enumerate(design.edges):
            if edge.label not in self.edge_labels:
                problems.append(f"edge [{i}]: unknown label {edge.label!r}")
            for endpoint in (edge.source, edge.target):
                if endpoint not in node_ids:
                    problems.append(f"edge [{i}]: unknown endpoint {endpoint!r}")
        return problems

    def _node_problems(self, nodes: Sequence[GraphNode]) -> list[str]:
        """The node half of :meth:`check_design`."""
        problems = []
        for node in nodes:
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
class PatternGraph:
    nodes: tuple[PatternNode, ...]
    edges: tuple[GraphEdge, ...] = ()


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
    edges: tuple[GraphEdge, ...] = ()


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: PatternGraph
    rhs: RhsGraph
    anchors: tuple[tuple[str, str], ...] = ()  # lhs node id -> rhs node id

    def __post_init__(self):
        lhs_ids: set[str] = set()
        rhs_ids: set[str] = set()
        for side, ids, nodes in (("LHS", lhs_ids, self.lhs.nodes),
                                 ("RHS", rhs_ids, self.rhs.nodes)):
            for node in nodes:
                if node.id in ids:
                    raise ValueError(f"rule {self.name!r}: {side} node id {node.id!r} repeats")
                ids.add(node.id)
        targets = [rhs for _, rhs in self.anchors]
        if len(targets) != len(set(targets)):
            raise ValueError(f"rule {self.name!r}: anchor map must be injective")
        for lhs_id, rhs_id in self.anchors:
            if lhs_id not in lhs_ids:
                raise ValueError(f"rule {self.name!r}: anchor source {lhs_id!r} not in LHS")
            if rhs_id not in rhs_ids:
                raise ValueError(f"rule {self.name!r}: anchor target {rhs_id!r} not in RHS")

    # What matching and rewriting read of the rule, derived on first use
    # and kept for every later match and application.

    @cached
    def _anchor(self) -> dict[str, str]:
        return dict(self.anchors)

    @cached
    def _lhs_ids(self) -> frozenset[str]:
        return frozenset(n.id for n in self.lhs.nodes)

    @cached
    def _lhs_order(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.lhs.nodes)

    @cached
    def _lhs_edges(self) -> tuple[tuple[str, str, str], ...]:
        return tuple((e.source, e.target, e.label) for e in self.lhs.edges)

    @cached
    def _search_plan(self) -> tuple[tuple[PatternNode, tuple], ...]:
        """Per LHS node in order: the node, and the LHS edges that join it
        to a node assigned before it (or to itself), as ``((source, target,
        label), count)`` per distinct triple.  Two LHS edges land on one
        design triple iff their own triples are equal, since a match is
        injective, so each level checks only the edge counts it adds."""
        plan = []
        assigned: set[str] = set()
        for node in self.lhs.nodes:
            assigned.add(node.id)
            needed: dict[tuple[str, str, str], int] = {}
            for triple in self._lhs_edges:
                source, target, _ = triple
                if node.id in (source, target) and source in assigned and target in assigned:
                    needed[triple] = needed.get(triple, 0) + 1
            plan.append((node, tuple(needed.items())))
        return tuple(plan)

    @cached
    def _edge_groups(self) -> tuple[tuple[tuple[int, ...], tuple[str, str, str]], ...]:
        """LHS edge positions per distinct triple, in order of first position."""
        groups: dict[tuple[str, str, str], list[int]] = {}
        for pos, triple in enumerate(self._lhs_edges):
            groups.setdefault(triple, []).append(pos)
        return tuple((tuple(positions), triple) for triple, positions in groups.items())

    @cached
    def _removed(self) -> tuple[str, ...]:
        """The LHS node ids no anchor keeps: the rewrite removes their nodes."""
        return tuple(n.id for n in self.lhs.nodes if n.id not in self._anchor)

    @cached
    def _anchored(self) -> tuple[tuple[str, RhsNode, bool], ...]:
        """``(lhs id, rhs node, kept)`` per anchor; ``kept`` when the RHS
        node sets no attribute and has the label its pattern node matched,
        so that the rewrite leaves a matched node in key order as it is."""
        rhs_by_id = {n.id: n for n in self.rhs.nodes}
        lhs_label = {n.id: n.label for n in self.lhs.nodes}
        out = []
        for lhs_id, rhs_id in self._anchor.items():
            rhs_node = rhs_by_id[rhs_id]
            out.append((lhs_id, rhs_node,
                        not rhs_node.attrs and rhs_node.label == lhs_label[lhs_id]))
        return tuple(out)

    @cached
    def _new_nodes(self) -> tuple[tuple[RhsNode, Optional[dict[str, object]]], ...]:
        """The RHS nodes no anchor places, in RHS order, each with the
        fields of the node it makes when every attribute is a literal."""
        out = []
        for rhs_node in self.rhs.nodes:
            if rhs_node.id in self._anchor.values():
                continue
            fields: Optional[dict[str, object]] = None
            if not any(isinstance(expr, CopyAttr) for _, expr in rhs_node.attrs):
                node = GraphNode.make("", rhs_node.label, dict(rhs_node.attrs))
                fields = {"label": node.label, "attrs": node.attrs}
                try:
                    fields["colour_key"] = node.colour_key
                except (TypeError, ValueError):
                    pass  # raised again where a design's key is read
            out.append((rhs_node, fields))
        return tuple(out)

    @cached
    def _new_ids(self) -> tuple[str, ...]:
        return tuple(rhs_node.id for rhs_node, _ in self._new_nodes)

    @cached
    def _rhs_edges(self) -> tuple[tuple[str, str, str], ...]:
        return tuple((e.source, e.target, e.label) for e in self.rhs.edges)

    @cached
    def _footprint(self) -> Optional[tuple[tuple, tuple]]:
        """What a step of the rule reads and what it writes, as keys on LHS
        ids, or ``None`` when it removes a node: ``(node, attr)`` for an
        attribute, ``(node, None)`` for the label, ``(source, target,
        label)`` for an edge.  A step reads each matched node's label, the
        attributes its predicates test and its copies read; it writes the
        attributes it sets on anchored nodes, the labels it changes, the
        edges it consumes (and so reads) and those it adds between
        matched nodes."""
        if self._removed:
            return None
        lhs_of = {rhs_id: lhs_id for lhs_id, rhs_id in self.anchors}
        reads = [(n.id, None) for n in self.lhs.nodes]
        reads += [(n.id, p.attr) for n in self.lhs.nodes for p in n.predicates]
        reads += [(expr.node, expr.attr) for n in self.rhs.nodes for _, expr in n.attrs
                  if isinstance(expr, CopyAttr)]
        writes: list[tuple] = list(self._lhs_edges)
        writes += [(lhs_of[s], lhs_of[t], label) for s, t, label in self._rhs_edges
                   if s in lhs_of and t in lhs_of]
        lhs_label = {n.id: n.label for n in self.lhs.nodes}
        for lhs_id, rhs_node, _ in self._anchored:
            writes += [(lhs_id, attr) for attr, _ in rhs_node.attrs]
            if rhs_node.label != lhs_label[lhs_id]:
                writes.append((lhs_id, None))
        return tuple(reads), tuple(writes)


@dataclass(frozen=True)
class Match:
    """An embedding of a rule's LHS into a design.

    ``nodes`` maps lhs node ids to design node ids; ``edges`` gives, for
    each lhs edge (in lhs order), the index of the matched design edge.
    """

    nodes: tuple[tuple[str, str], ...]
    edges: tuple[int, ...] = ()


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
    schemas = vocab._schemas
    lhs_by_id = {n.id: n for n in rule.lhs.nodes}
    for node in rule.lhs.nodes:
        schema = schemas.get(node.label)
        if schema is None:
            problems.append(f"LHS node {node.id!r}: unknown label {node.label!r}")
            continue
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
        schema = schemas.get(node.label)
        if schema is None:
            problems.append(f"RHS node {node.id!r}: unknown label {node.label!r}")
            continue
        for attr, expr in node.attrs:
            if attr not in schema:
                problems.append(f"RHS node {node.id!r}: undeclared attribute {attr!r}")
            elif isinstance(expr, CopyAttr):
                source = lhs_by_id.get(expr.node)
                if source is None:
                    problems.append(
                        f"RHS node {node.id!r}: copy references unknown LHS node {expr.node!r}"
                    )
                elif source.label in schemas and expr.attr not in schemas[source.label]:
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

    rhs_by_id = {n.id: n for n in rule.rhs.nodes}
    new_nodes = rhs_ids - set(rule._anchor.values())
    for rhs_id in sorted(new_nodes):
        node = rhs_by_id[rhs_id]
        given = {a for a, _ in node.attrs}
        for attr in schemas.get(node.label, ()):
            if attr not in given:
                problems.append(
                    f"RHS node {rhs_id!r}: new node must set attribute {attr!r}"
                )
    return problems


# ---------------------------------------------------------------------------
# Matching

def _satisfies(pattern: PatternNode, node: GraphNode) -> bool:
    """Whether ``node`` meets the pattern's predicates; the caller has
    matched the labels."""
    if not pattern.predicates:
        return True
    attrs = node.attr_map()
    for pred in pattern.predicates:
        if pred.attr not in attrs or not pred.holds(attrs[pred.attr]):
            return False
    return True


def find_matches(rule: Rule, design: Design) -> list[Match]:
    """All injective embeddings of the rule's LHS, deterministically ordered.

    Matching is injective homomorphism: unrelated context around the
    match is ignored.  Order follows lhs-node assignment order, then
    matched edge indices, so results are stable run to run.  Candidates
    come from the design's index of nodes by label (in design order) and
    edge instances from its index by ``(source, target, label)``, both
    built once per design and shared by every rule matched into it.
    Each level of the search checks only the edge counts of the LHS
    edges it completes, from the rule's search plan.  No vocabulary is
    checked here: a :class:`Grammar` checks its rules and axiom once.
    The recursive :func:`_extend` holds no reference to itself, so the
    call's state is freed when it returns.
    """
    lhs_ids = rule._lhs_order
    groups = rule._edge_groups
    matches: list[Match] = []
    instances = design._instances
    assignment: dict[str, str] = {}

    def emit_edge_choices() -> None:
        nodes = tuple([(i, assignment[i]) for i in lhs_ids])
        if not groups:
            matches.append(Match(nodes))
            return
        # every level checked the counts of the groups it completed
        per_group = [list(combinations(instances[assignment[s], assignment[t], label],
                                       len(positions)))
                     for positions, (s, t, label) in groups]
        for picks in product(*per_group):
            slot: dict[int, int] = {}
            for (positions, _), chosen in zip(groups, picks):
                for pos, inst in zip(positions, chosen):
                    slot[pos] = inst
            matches.append(Match(nodes, tuple(slot[i] for i in range(len(slot)))))

    _extend(rule._search_plan, 0, design._by_label, instances, assignment, set(),
            emit_edge_choices)
    return matches


def _extend(plan: tuple, i: int, by_label: dict[str, list[GraphNode]],
            instances: dict[tuple[str, str, str], list[int]], assignment: dict[str, str],
            used: set[str], emit) -> None:
    """Assign LHS nodes ``i`` onwards of ``plan`` on top of ``assignment``
    (whose design nodes are ``used``), calling ``emit`` at each full one."""
    if i == len(plan):
        emit()
        return
    pattern, needed = plan[i]
    for node in by_label.get(pattern.label, ()):
        if node.id in used or not _satisfies(pattern, node):
            continue
        assignment[pattern.id] = node.id
        used.add(node.id)
        for (s, t, label), count in needed:
            if len(instances.get((assignment[s], assignment[t], label), ())) < count:
                break
        else:
            _extend(plan, i + 1, by_label, instances, assignment, used, emit)
        used.remove(node.id)
        del assignment[pattern.id]


def _verify_match(rule: Rule, design: Design, match: Match) -> dict[str, str]:
    """The match's node map, once the match is known to embed."""
    node_map = dict(match.nodes)
    if node_map.keys() != rule._lhs_ids:
        raise StaleMatchError("match does not cover the rule's LHS nodes")
    if len(set(node_map.values())) != len(node_map):
        raise StaleMatchError("match is not injective")
    by_id = design._by_id
    for pattern in rule.lhs.nodes:
        target = node_map[pattern.id]
        node = by_id.get(target)
        if node is None:
            raise StaleMatchError(f"matched node {target!r} is gone")
        if node.label != pattern.label or not _satisfies(pattern, node):
            raise StaleMatchError(f"node {target!r} no longer satisfies the pattern")
    lhs_edges = rule._lhs_edges
    if len(match.edges) != len(lhs_edges):
        raise StaleMatchError("match does not cover the rule's LHS edges")
    if lhs_edges:
        if len(set(match.edges)) != len(match.edges):
            raise StaleMatchError("match reuses a design edge")
        edges = design.edges
        for (source, target, label), idx in zip(lhs_edges, match.edges):
            if not 0 <= idx < len(edges):
                raise StaleMatchError(f"matched edge index {idx} is gone")
            actual = edges[idx]
            if (actual.source, actual.target, actual.label) != \
                    (node_map[source], node_map[target], label):
                raise StaleMatchError(f"edge {idx} no longer matches the pattern")
    return node_map


def _fresh_ids(taken: Container[str], removed: Container[str], count: int) -> list[str]:
    """The first ``count`` ids ``n0``, ``n1``, ... that no node keeps."""
    out: list[str] = []
    k = 0
    while len(out) < count:
        candidate = f"n{k}"
        if candidate not in taken or candidate in removed:
            out.append(candidate)
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
    rule removes.  Given ``vocab``, the result is checked against it and
    a violation raises :class:`VocabularyError`.

    A node the rule does not match is the parent's own object in the
    result, and so is an anchored node the rewrite leaves as it was (same
    label, and each attribute a value of the same type and JSON text);
    every other node of the result is a new object.  The result's node
    ids are unique without a check: kept ids are the parent's, new nodes
    take unused fresh ids, and a :class:`Rule` repeats no RHS id.
    """
    node_map = _verify_match(rule, design, match)
    by_id = design._by_id

    removed = {node_map[lhs_id] for lhs_id in rule._removed} if rule._removed else ()
    matched_edges = set(match.edges) if match.edges else ()

    if removed:
        for idx, edge in enumerate(design.edges):
            if idx in matched_edges:
                continue
            if edge.source in removed or edge.target in removed:
                raise DanglingEdgeError(
                    f"edge {edge.source!r}->{edge.target!r} ({edge.label!r}) would dangle"
                )

    # rhs id -> design id; new nodes get the first unused "n<k>" ids
    anchor = rule._anchor
    placed = dict(zip(anchor.values(), map(node_map.__getitem__, anchor)))
    new_nodes = rule._new_nodes
    if new_nodes:
        placed.update(zip(rule._new_ids, _fresh_ids(by_id, removed, len(new_nodes))))

    # Anchored survivors: attribute updates (and possible relabel) in place.
    updates: dict[str, GraphNode] = {}
    for lhs_id, rhs_node, kept in rule._anchored:
        design_id = node_map[lhs_id]
        current = by_id[design_id]
        attrs = current.attrs
        if kept and (len(attrs) < 2 or all(a < b for (a, _), (b, _) in zip(attrs, attrs[1:]))):
            continue
        values = dict(attrs)
        for attr, expr in rhs_node.attrs:
            values[attr] = _eval_expr(expr, design, node_map)
        items = tuple(sorted(values.items()))
        if rhs_node.label != current.label or not _same_attrs(items, attrs):
            updates[design_id] = GraphNode(design_id, rhs_node.label, items)

    if removed or updates:
        nodes = [updates.get(node.id, node) for node in design.nodes if node.id not in removed]
    else:
        nodes = list(design.nodes)
    for rhs_node, fields in new_nodes:
        if fields is None:
            attrs = {attr: _eval_expr(expr, design, node_map) for attr, expr in rhs_node.attrs}
            nodes.append(GraphNode.make(placed[rhs_node.id], rhs_node.label, attrs))
        else:
            node = _new(GraphNode)
            fill = node.__dict__
            fill["id"] = placed[rhs_node.id]
            fill.update(fields)
            nodes.append(node)
    if matched_edges:
        edges = [edge for idx, edge in enumerate(design.edges) if idx not in matched_edges]
    else:
        edges = list(design.edges)
    for source, target, label in rule._rhs_edges:
        edge = _new(GraphEdge)
        _set(edge, "source", placed[source])
        _set(edge, "target", placed[target])
        _set(edge, "label", label)
        edges.append(edge)

    result = _new(Design)  # ids unique: see the docstring
    _set(result, "nodes", tuple(nodes))
    _set(result, "edges", tuple(edges))
    if vocab is not None:
        vocab.require_valid(result, f"result of rule {rule.name!r}")
    return result


# ---------------------------------------------------------------------------
# Canonical form

def _refine(colours: list[int], count: int,
            edges: list[tuple[int, int, int]]) -> tuple[list[int], int]:
    """Colour refinement to the coarsest stable colouring and its size.

    ``colours`` are dense ranks ``0..count-1``; ``edges`` are ``(source,
    target, label_rank * n)``, so ``label_rank * n + colour`` orders like
    the pair ``(label, colour)``.  Each round ranks the signatures
    ``(colour, sorted out-neighbours, sorted in-neighbours)`` by value,
    so colours depend on colour values only, never on vertex order.  A
    signature is one flat tuple, the two sorted lists split by ``-1``,
    below every entry: it compares as the nested one does.  A vertex
    alone in its colour is ranked by that colour alone, which orders it
    the same way.  A round that splits no cell changes no colour, so
    refinement stops there or once the colouring is discrete.
    """
    n = len(colours)
    current = colours
    while count < n:
        outs: list[list[int]] = [[] for _ in current]
        ins: list[list[int]] = [[] for _ in current]
        for s, t, lbl in edges:
            outs[s].append(lbl + current[t])
            ins[t].append(lbl + current[s])
        size = [0] * count
        for c in current:
            size[c] += 1
        signatures = [(c,) if size[c] == 1 else (c, *sorted(o), -1, *sorted(i))
                      for c, o, i in zip(current, outs, ins)]
        distinct = sorted(set(signatures))
        if len(distinct) == count:
            break
        ranks = dict(zip(distinct, range(len(distinct))))
        current = list(map(ranks.__getitem__, signatures))
        count = len(distinct)
    return current, count


_ID, _LABEL, _COLOUR_KEY = attrgetter("id"), attrgetter("label"), attrgetter("colour_key")


def _certificate(order: list[int], edges: list[tuple[int, int, int]],
                 label_text: dict[int, str], keys: list[str]) -> bytes:
    """The certificate of one vertex order (see :func:`canonical_form`)."""
    position = sorted(range(len(order)), key=order.__getitem__)
    edge_part = sorted([(position[s], position[t], lbl) for s, t, lbl in edges])
    return "".join((
        '{"edges": [',
        ", ".join([f"[{a}, {b}, {label_text[lbl]}]" for a, b, lbl in edge_part]),
        '], "nodes": [',
        ", ".join([keys[v] for v in order]),
        "]}",
    )).encode("utf-8")


def _find(forest: list[int], x: int) -> int:
    while forest[x] != x:
        forest[x] = forest[forest[x]]
        x = forest[x]
    return x


def _union(forest: list[int], x: int, y: int) -> None:
    x, y = _find(forest, x), _find(forest, y)
    if x != y:
        forest[max(x, y)] = min(x, y)


def _cell_sizes(colouring: list[int], count: int) -> list[int]:
    size = [0] * count
    for c in colouring:
        size[c] += 1
    return size


def canonical_form(design: Design) -> bytes:
    """A byte string equal for two designs iff they are isomorphic
    (respecting node labels, attributes, edge labels and multiplicity).

    The certificate is the JSON text of ``{"edges": [...], "nodes":
    [...]}`` for the vertex order, among the leaves of the search tree,
    whose text is smallest.  Nodes appear as their ``colour_key``, edges
    as ``[source position, target position, label]`` in sorted order.

    A refined colouring is *component-discrete* when no component of the
    graph on its non-singleton vertices (edges taken either way) holds
    one colour twice.  Then two vertices of one colour lie in components
    with the same colours, and swapping those components colour by
    colour while fixing every other vertex is an automorphism: a stable
    colouring gives both vertices equal edge counts for each label and
    neighbour colour, and singletons stay fixed.  So each cell is one
    orbit, and every leaf has the first leaf's certificate.  That leaf
    orders every cell by one order of the components, since
    individualising a vertex splits its whole component off the others
    in each cell it meets.  Any other order of the components is the
    image of that one under such swaps, so it has the same certificate:
    the vertices are sorted once by (colour, component root), with no
    search.

    The recursive search holds no reference to itself once it ends, so
    the call's state is freed when it returns.
    """
    nodes = design.nodes
    n = len(nodes)
    index = dict(zip(map(_ID, nodes), range(n)))
    labels = sorted(set(map(_LABEL, design.edges)))
    # each label as its rank times n, and that rank's JSON text
    label_rank = dict(zip(labels, range(0, n * len(labels), max(n, 1))))
    label_text = dict(zip(label_rank.values(), map(_json_text, labels)))
    edges = [(index[e.source], index[e.target], label_rank[e.label]) for e in design.edges]
    keys = list(map(_COLOUR_KEY, nodes))
    distinct = sorted(set(keys))
    colours, count = _refine(list(map(dict(zip(distinct, range(n))).__getitem__, keys)),
                             len(distinct), edges)

    def certificate(order: list[int]) -> bytes:
        return _certificate(order, edges, label_text, keys)

    # A component-discrete colouring (see the docstring) is certified by
    # ordering each cell by the components' roots: each vertex is keyed by
    # its colour and, in a cell of two or more, its component's root, and
    # the colouring is component-discrete iff the keys are distinct.  A
    # discrete colouring is the case without unions.
    size = _cell_sizes(colours, count)
    forest = list(range(n))
    for s, t, _ in edges:
        if size[colours[s]] > 1 and size[colours[t]] > 1:
            _union(forest, s, t)
    key = [c * n + (_find(forest, v) if size[c] > 1 else 0) for v, c in enumerate(colours)]
    if len(set(key)) == n:
        return certificate(sorted(range(n), key=key.__getitem__))

    # Otherwise: individualisation search with automorphism pruning (McKay
    # & Piperno, "Practical graph isomorphism, II", 2014).  ``path`` holds
    # the vertices individualised above the current node; ``finished[i]``
    # the children of the node at level i whose subtrees are accounted for.
    # An automorphism that fixes ``path[:i]`` maps the node at level i to
    # itself and the subtree below one child onto the subtree below its
    # image, with equal leaf certificates, so a child in the orbit of a
    # finished child cannot lower the minimum and is skipped.  The
    # automorphisms come from pairs of leaves with equal certificates.
    #
    # ``forests[i]`` is a union-find forest whose trees are the orbits,
    # under the known automorphisms that fix ``path[:i]``, of the node at
    # level i.  It is built when the search enters that node and takes
    # each automorphism found below it at once, so the partition always
    # equals one rebuilt from scratch.
    automorphisms: list[list[int]] = []
    path: list[int] = []
    forests: list[list[int]] = []
    finished: list[list[int]] = []
    first: Optional[tuple[bytes, list[int]]] = None
    best: Optional[tuple[bytes, list[int]]] = None

    def merge(forest: list[int], gamma: list[int]) -> None:
        for v, w in enumerate(gamma):
            if v != w:
                _union(forest, v, w)

    def enter() -> None:
        """Push the forest and the finished list of the node at level
        ``len(path)``."""
        forest = list(range(n))
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
        root = _find(forest, v)
        return any(_find(forest, w) == root for w in finished[level])

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
        size = _cell_sizes(colouring, count)
        cell = min(c for c in range(count) if size[c] > 1)
        level = len(path)
        enter()
        for v in range(n):
            if colouring[v] != cell or redundant(level, v):
                continue
            branched = [c + 1 if c >= cell else c for c in colouring]
            branched[v] = cell
            path.append(v)
            unwind = search(*_refine(branched, count + 1, edges))
            path.pop()
            if unwind is not None and unwind < level:
                leave()
                return unwind
            finished[level].append(v)
        leave()
        return None

    try:
        search(colours, count)
    finally:
        del search  # search reaches itself through its closure: break that cycle
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
    leaves unchanged is the parent's object), less the new nodes that
    :func:`apply` made from an all-literal RHS node.  The parent is valid
    (the axiom is checked by :class:`Grammar`, every kept child here),
    unmatched edges keep their labels, the dangling-edge check keeps
    their endpoints, and :func:`check_rule` has checked the right side's
    edges and literals, and the label and full attribute set of each new
    node, so an untouched node or edge cannot be at fault.  When a
    touched node is, the whole child goes through
    :meth:`Vocabulary.require_valid`, which raises the message a full
    check gives.

    Steps that commute are applied in one order only (partial-order
    reduction).  Expanding a child ``P``, :func:`generate` reads from its
    derivation the step ``s1`` that made it from ``G``: the rule's
    index, the positions of the matched nodes in LHS order, and what the
    step reads and writes (see :meth:`Rule._footprint`).  A step ``s2``
    of ``P`` is skipped when neither rule removes a node, ``s2`` comes
    before ``s1`` in ``G``'s enumeration (by rule index, then by node
    positions: rules go in order and :func:`find_matches` orders
    matches by positions), and the two commute: ``s2`` matches no node
    ``s1`` made, and neither writes what the other reads or writes.
    Since ``s1`` removes no node and :func:`apply` appends new nodes,
    positions of old nodes in ``P`` are their positions in ``G``.  Then
    ``s2`` applies in ``G``, ``s1`` still applies after it, and ``G =>
    s2 => s1`` is isomorphic to ``P => s2`` (Local Church-Rosser; the
    rewrites touch disjoint state and the results differ only in fresh
    ids and edge order).  ``G => s2`` comes before ``P`` in ``G``'s
    enumeration, so a design ``R`` isomorphic to it was kept before
    ``P`` (itself, the design whose certificate it repeated, or, had it
    been skipped, the one this argument gives) and is expanded before
    ``P``, where ``R``'s image of ``s1`` is applied or skipped by this
    same argument.  By induction over the order of expansion, the
    skipped child's certificate is already in ``seen``, its verdict is
    that of an isomorphic child checked earlier, and the output is
    unchanged.
    """
    if max_depth < 1 or max_designs < 1:
        raise ValueError("generation limits must be positive")

    vocab = grammar.vocabulary
    seen: dict[bytes, GeneratedDesign] = {}
    axiom_entry = GeneratedDesign(grammar.axiom, Derivation(), canonical_form(grammar.axiom), 0)
    seen[axiom_entry.canonical] = axiom_entry
    frontier = [axiom_entry]
    rule_index = {rule.name: index for index, rule in enumerate(grammar.rules)}

    for depth in range(1, max_depth + 1):
        if len(seen) >= max_designs:
            break
        next_frontier: list[GeneratedDesign] = []
        for entry in frontier:
            parent = entry.design
            kept = parent._by_id
            # the step that made this design (the axiom has none), unless
            # its rule removes a node: its order key, where the nodes it
            # made start, and what it reads and writes
            last_index = -1
            if entry.derivation.steps:
                last = entry.derivation.steps[-1]
                last_rule = grammar.rules[rule_index[last.rule]]
                if last_rule._footprint is not None:
                    position = dict(zip(kept, range(len(kept))))
                    last_index = rule_index[last.rule]
                    last_order = (last_index, tuple([position[i] for _, i in last.match.nodes]))
                    made = len(kept) - len(last_rule._new_nodes)
                    node_map = dict(last.match.nodes)
                    last_reads = _keys_on(last_rule._footprint[0], node_map)
                    last_writes = _keys_on(last_rule._footprint[1], node_map)
            for index, rule in enumerate(grammar.rules):
                footprint = rule._footprint
                reducible = footprint is not None and index <= last_index
                for match in find_matches(rule, parent):
                    if reducible:
                        at = tuple([position[node_id] for _, node_id in match.nodes])
                        if (index, at) < last_order and all(p < made for p in at):
                            node_map = dict(match.nodes)
                            reads = _keys_on(footprint[0], node_map)
                            writes = _keys_on(footprint[1], node_map)
                            if last_writes.isdisjoint(reads) and last_writes.isdisjoint(writes) \
                                    and last_reads.isdisjoint(writes):
                                continue
                    try:
                        child = apply(rule, parent, match)
                    except DanglingEdgeError:
                        continue
                    # apply appends the new nodes last, in RHS order
                    new, nodes = rule._new_nodes, child.nodes
                    cut = len(nodes) - len(new)
                    touched = [n for n in nodes[:cut] if kept.get(n.id) is not n]
                    touched += [n for n, (_, fields) in zip(nodes[cut:], new) if fields is None]
                    if touched and vocab._node_problems(touched):
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


def _keys_on(keys: tuple, node_map: dict[str, str]) -> frozenset:
    """Footprint keys on LHS ids (see :meth:`Rule._footprint`) as keys on
    the design nodes ``node_map`` matched."""
    return frozenset([(node_map[k[0]], k[1]) if len(k) == 2
                      else (node_map[k[0]], node_map[k[1]], k[2]) for k in keys])


def replay(grammar: Grammar, derivation: Derivation) -> Design:
    """Re-run a derivation from the axiom; fresh ids are deterministic,
    so the replayed design equals the generated one exactly."""
    design = grammar.axiom
    for step in derivation.steps:
        design = apply(grammar.rule(step.rule), design, step.match, grammar.vocabulary)
    return design


# ---------------------------------------------------------------------------
# JSON format (.grammar.json) and DOT rendering

def _graph(doc: dict, location: str, node) -> tuple[tuple, tuple[GraphEdge, ...]]:
    """The nodes, each object read by ``node(n, loc)``, and the edges of a
    graph object; either array may be left out."""
    nodes = []
    for i, n in enumerate(field(doc, "nodes", list, location, [])):
        loc = f"{location}.nodes[{i}]"
        nodes.append(node(expect(n, dict, loc), loc))
    edges = []
    for i, e in enumerate(field(doc, "edges", list, location, [])):
        loc = f"{location}.edges[{i}]"
        edges.append(GraphEdge(field(expect(e, dict, loc), "source", str, loc),
                               field(e, "target", str, loc), field(e, "label", str, loc)))
    return tuple(nodes), tuple(edges)


def _design_node(n: dict, loc: str) -> GraphNode:
    return GraphNode.make(field(n, "id", str, loc), field(n, "label", str, loc),
                          field(n, "attrs", dict, loc, {}))


def _pattern_node(n: dict, loc: str) -> PatternNode:
    node_id, label = field(n, "id", str, loc), field(n, "label", str, loc)
    predicates = []
    for j, p in enumerate(field(n, "where", list, loc, [])):
        ploc = f"{loc}.where[{j}]"
        attr = field(expect(p, dict, ploc), "attr", str, ploc)
        op = p.get("op", "eq")
        if op not in _PREDICATE_OPS:
            raise SchemaError(f"unknown op {op!r}", f"{ploc}.op")
        if op == "in":
            field(p, "value", list, ploc)
        predicates.append(AttrPredicate(attr, op, p.get("value")))
    return PatternNode(node_id, label, tuple(predicates))


def _rhs_node(n: dict, loc: str) -> RhsNode:
    node_id, label = field(n, "id", str, loc), field(n, "label", str, loc)
    attrs: dict[str, AttrExpr] = {}
    for attr, value in field(n, "attrs", dict, loc, {}).items():
        if isinstance(value, dict):
            copy = value.get("copy")
            if not isinstance(copy, dict) or not isinstance(copy.get("node"), str) \
                    or not isinstance(copy.get("attr"), str):
                raise SchemaError(
                    "expression must be a scalar or {'copy': {'node', 'attr'}}",
                    f"{loc}.attrs.{attr}",
                )
            value = CopyAttr(copy["node"], copy["attr"])
        attrs[attr] = value
    return RhsNode.make(node_id, label, attrs)


def parse_grammar(data: bytes | str) -> Grammar:
    doc = expect(load_document(data), dict, "$")
    vocab_doc = field(doc, "vocabulary", dict, "$")
    node_labels: dict[str, dict[str, Domain]] = {}
    for label, schema in field(vocab_doc, "node_labels", dict, "$.vocabulary").items():
        schema_loc = f"$.vocabulary.node_labels.{label}"
        node_labels[label] = {
            attr: domain_from_dict(d, f"{schema_loc}.{attr}")
            for attr, d in expect(schema, dict, schema_loc).items()
        }
    edge_labels = field(vocab_doc, "edge_labels", list, "$.vocabulary", [])
    for i, edge_label in enumerate(edge_labels):
        expect(edge_label, str, f"$.vocabulary.edge_labels[{i}]")
    vocab = Vocabulary.make(node_labels, edge_labels)

    rules = []
    for i, r in enumerate(field(doc, "rules", list, "$", [])):
        loc = f"$.rules[{i}]"
        name = field(expect(r, dict, loc), "name", str, loc)
        anchors = field(r, "anchors", dict, loc, {})
        for lhs_id, rhs_id in anchors.items():
            expect(rhs_id, str, f"{loc}.anchors.{lhs_id}")
        lhs = PatternGraph(*_graph(field(r, "lhs", dict, loc, {}), f"{loc}.lhs", _pattern_node))
        rhs = RhsGraph(*_graph(field(r, "rhs", dict, loc, {}), f"{loc}.rhs", _rhs_node))
        rules.append(located(loc, Rule, name, lhs, rhs, tuple(sorted(anchors.items()))))

    axiom = _graph(field(doc, "axiom", dict, "$"), "$.axiom", _design_node)
    return located("$", Grammar, vocab, tuple(rules), located("$.axiom", Design, *axiom))


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


def _dot_string(text: str) -> str:
    """A DOT quoted string: a newline in ``text`` becomes the escape ``\\n``,
    which Graphviz shows as a line break, and other characters stay as
    they are, since DOT reads UTF-8 and decodes no ``\\uXXXX``."""
    return json.dumps(text, ensure_ascii=False)


def design_to_dot(design: Design, name: str = "design") -> str:
    lines = [f"digraph {_dot_string(name)} {{"]
    for node in design.nodes:
        attr_text = ", ".join(f"{k}={v!r}" for k, v in node.attrs)
        label = node.label if not attr_text else f"{node.label}\n{attr_text}"
        lines.append(f"  {_dot_string(node.id)} [label={_dot_string(label)}];")
    for edge in design.edges:
        lines.append(
            f"  {_dot_string(edge.source)} -> {_dot_string(edge.target)}"
            f" [label={_dot_string(edge.label)}];"
        )
    lines.append("}")
    return "\n".join(lines)
