"""Function-structure graphs and the interdependency index.

A design problem is held either as a :class:`BlackBox` (nondecomposable:
just labelled input and output flows) or as a :class:`FunctionStructure`
(decomposable: a DAG of subfunction vertices connected by labelled flows,
with boundary terminals for flows crossing the system border).

The interdependency index of a structure is the fraction of function
vertices whose total degree exceeds two.  Flows to and from boundary
terminals count toward a vertex's degree, but terminals themselves are
never counted in the denominator.  All arithmetic is exact
(:class:`fractions.Fraction`).  Ids are numbered once: by the parser
for a structure read from JSON, else by :func:`validate`.  That check
makes one pass over the numbered graph, finding cycles by Kahn's
in-degree count (CACM 1962) and counting the degrees that PI reads; its
report keeps the order of the string-keyed check it replaced
(``check_structure`` in the test oracles).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

from .jsonio import SchemaError, cached, dumps, expect, fields_only, load_document

INPUT = "input"
OUTPUT = "output"


class InvalidStructureError(ValueError):
    """Raised when an operation requires a valid structure but got violations."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(
            "invalid function structure: "
            + "; ".join(v.message for v in report.violations)
        )
        self.report = report


@dataclass(frozen=True, slots=True)
class FunctionVertex:
    """A subfunction, e.g. ``"lead water through coffee powder"``."""

    id: str
    label: str


@dataclass(frozen=True, slots=True)
class BoundaryTerminal:
    """Entry/exit point of a flow crossing the system boundary."""

    id: str
    kind: str  # INPUT or OUTPUT
    label: str  # flow label carried across the boundary


@dataclass(frozen=True, slots=True)
class Flow:
    """A directed, labelled flow between vertices and/or terminals."""

    source: str
    target: str
    label: str


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class FunctionStructure:
    """Immutable attributed DAG of subfunctions, terminals and flows.

    Construction is permissive: semantic invariants (acyclicity, path
    coverage, ...) are checked by :func:`validate`, which reports
    violations as data rather than raising.

    Derived values (validation report, degree table, label multisets,
    interdependency index) are computed on first use and kept on the
    instance.  The structure is frozen, so they cannot go stale, and
    they are freed together with it.
    """

    vertices: tuple[FunctionVertex, ...]
    terminals: tuple[BoundaryTerminal, ...] = ()
    flows: tuple[Flow, ...] = ()

    # the cached read-only mapping proxies cannot be pickled
    __getstate__ = fields_only

    @cached
    def degrees(self) -> Mapping[str, int]:
        """Read-only table of every function vertex's total degree, counted
        and stored here by the O(V+F) check behind :func:`validate`."""
        validate(self)
        return vars(self)["degrees"]

    @cached
    def function_labels(self) -> Mapping[str, int]:
        """Read-only multiset of function-vertex labels (missing labels count 0)."""
        return MappingProxyType(Counter(v.label for v in self.vertices))

    @cached
    def flow_labels(self) -> Mapping[str, int]:
        """Read-only multiset of flow labels (missing labels count 0)."""
        return MappingProxyType(Counter(f.label for f in self.flows))

    @cached
    def _report(self) -> "ValidationReport":
        return _check(self)

    @cached
    def _pi(self) -> Fraction:
        report = validate(self)
        if not report.ok:
            raise InvalidStructureError(report)
        busy = sum(1 for d in self.degrees.values() if d > 2)
        return Fraction(busy, len(self.vertices))


@dataclass(frozen=True)
class BlackBox:
    """A nondecomposed overall function with labelled inputs and outputs."""

    label: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


#: A design problem is exactly one of the two representations.  Choosing
#: BlackBox declares the problem nondecomposable; choosing
#: FunctionStructure declares it decomposable.
DesignProblem = Union[BlackBox, FunctionStructure]


def is_decomposable(problem: DesignProblem) -> bool:
    return isinstance(problem, FunctionStructure)


def validate(fs: FunctionStructure) -> ValidationReport:
    """Check every structural invariant; violations are data, not errors.

    The report and the degree table are computed once per structure, in
    one O(V+F) pass over its numbered ids, and kept on it.
    """
    return fs._report


def _check(fs: FunctionStructure) -> ValidationReport:
    """Every violation of ``fs``, in one pass over an interned graph that
    also fills the ``degrees`` memo: a vertex's successors plus predecessors.

    Ids are numbered once: vertices (``0 .. nv-1``), then terminals, then
    unknown endpoints as flows name them.  A parsed structure (unique ids)
    brings its vertex and terminal numbers from the parser; the check takes
    that table over, so it is not kept twice.  ``kinds`` codes the kind of
    the last terminal with each id (0 none, 1 input, 2 output, 3 other), so
    a ``None`` kind still marks a terminal.  The order is the old check's:
    ids and terminals, each flow's faults in list order, at most one cycle
    (a yes/no fact, so any cycle search agrees), then off-path vertices.
    """
    out: list[Violation] = []
    index = vars(fs).pop("_ids", None)
    nv = len(fs.vertices)  # a parsed structure's vertex ids are unique
    if index is None:
        index = {}
        for v in fs.vertices:
            if v.id in index:
                out.append(Violation("duplicate-id", f"duplicate id {v.id!r}"))
            else:
                index[v.id] = len(index)
        nv = len(index)
    kinds = bytearray(nv + len(fs.terminals))  # 0 past the numbered ids
    inputs, outputs = [], []
    fresh = nv  # the number of the next id not seen before
    for t in fs.terminals:
        num = index.setdefault(t.id, fresh)
        if num == fresh:
            fresh += 1
        else:
            out.append(Violation("duplicate-id", f"duplicate id {t.id!r}"))
        if t.kind == INPUT:
            kinds[num] = 1
            inputs.append(num)
        elif t.kind == OUTPUT:
            kinds[num] = 2
            outputs.append(num)
        else:
            kinds[num] = 3
            out.append(Violation("bad-terminal-kind", f"terminal {t.id!r} has kind {t.kind!r}"))
        if not t.label:
            out.append(Violation("empty-label", f"terminal {t.id!r} has empty label"))

    if not fs.vertices:
        out.append(Violation("no-vertices", "structure has no function vertices"))

    known = len(index)
    indegree = [0] * nv  # within the function vertices
    succ: list[list[int]] = [[] for _ in index]
    pred: list[list[int]] = [[] for _ in index]
    number = index.get
    for i, f in enumerate(fs.flows):
        a, b = number(f.source), number(f.target)
        if a is None or b is None:
            a = index.setdefault(f.source, len(index))
            b = index.setdefault(f.target, len(index))
            grow = len(index) - len(succ)
            succ += [[] for _ in range(grow)]
            pred += [[] for _ in range(grow)]
            kinds += bytes(grow)
        succ[a].append(b)
        pred[b].append(a)
        if a < nv and b < nv:
            indegree[b] += 1
        if a >= known:
            out.append(Violation("unknown-endpoint", f"flows[{i}] references {f.source!r}"))
        if b >= known:
            out.append(Violation("unknown-endpoint", f"flows[{i}] references {f.target!r}"))
        ka, kb = kinds[a], kinds[b]
        if ka or kb:
            if ka and kb:
                out.append(Violation("terminal-terminal-flow", f"flows[{i}] connects two "
                                     f"terminals ({f.source!r} -> {f.target!r})"))
            if kb == 1:
                out.append(Violation("input-terminal-inflow",
                                     f"flows[{i}] enters input terminal {f.target!r}"))
            if ka == 2:
                out.append(Violation("output-terminal-outflow",
                                     f"flows[{i}] leaves output terminal {f.source!r}"))
        if not f.label:
            out.append(Violation("empty-label", f"flows[{i}] has empty label"))

    # Kahn: a cycle keeps some function vertex from reaching in-degree 0.
    ready = [a for a in range(nv) if not indegree[a]]
    removed = 0
    while ready:
        removed += 1
        for b in succ[ready.pop()]:
            if b < nv:
                indegree[b] -= 1
                if not indegree[b]:
                    ready.append(b)
    if removed < nv:
        out.append(Violation("cycle", "flows between function vertices form a cycle"))

    # Every vertex must lie on some input-terminal -> output-terminal path.
    from_inputs = _reachable(inputs, succ)
    to_outputs = _reachable(outputs, pred)
    if 0 in from_inputs[:nv] or 0 in to_outputs[:nv]:
        for v in fs.vertices:
            if not (from_inputs[index[v.id]] and to_outputs[index[v.id]]):
                out.append(Violation("off-path-vertex",
                                     f"vertex {v.id!r} is not on any input->output path"))

    degrees = map(int.__add__, map(len, succ[:nv]), map(len, pred[:nv]))
    vars(fs)["degrees"] = MappingProxyType(dict(zip(index, degrees)))
    return ValidationReport(tuple(out))


def _reachable(seeds: list[int], adjacency: list[list[int]]) -> bytearray:
    """A mark per number: 1 for the seeds and everything they reach."""
    marked = bytearray(len(adjacency))
    stack = list(seeds)
    while stack:
        a = stack.pop()
        if not marked[a]:
            marked[a] = 1
            stack += adjacency[a]
    return marked


def validate_blackbox(box: BlackBox) -> ValidationReport:
    out = []
    if not box.inputs:
        out.append(Violation("no-inputs", "black box has no input flows"))
    if not box.outputs:
        out.append(Violation("no-outputs", "black box has no output flows"))
    for name in (*box.inputs, *box.outputs):
        if not name:
            out.append(Violation("empty-label", "black box has an empty flow label"))
    return ValidationReport(tuple(out))


def degree(fs: FunctionStructure, vertex_id: str) -> int:
    """Total degree: in-degree + out-degree, terminal flows included.

    Parallel flows between the same endpoints each count.  Reads the
    degree table that the check behind :func:`validate` counts, which
    costs O(V+F) on first use and O(1) afterwards.  Raises ``KeyError``
    for an id that is not a function vertex.
    """
    try:
        return fs.degrees[vertex_id]
    except KeyError:
        raise KeyError(f"unknown vertex id: {vertex_id!r}") from None


def interdependency_index(problem: DesignProblem) -> Fraction:
    """Fraction of function vertices with degree strictly greater than two.

    A structure is validated once, in O(V+F), and its index counted from
    the degrees that check kept; the index is kept on the structure, so
    later calls cost O(1).  An invalid structure raises
    :class:`InvalidStructureError` on every call.

    Black boxes: 1 if the box carries more than two boundary flows in
    total, else 0 (the box is a single vertex of that degree).
    """
    if isinstance(problem, BlackBox):
        report = validate_blackbox(problem)
        if not report.ok:
            raise InvalidStructureError(report)
        return Fraction(1) if len(problem.inputs) + len(problem.outputs) > 2 else Fraction(0)

    return problem._pi


# ---------------------------------------------------------------------------
# JSON round-trip (.fs.json)
#
# The parser tests types and duplicate ids inline and formats a location
# only in the branch that raises, where ``expect`` builds a type error, so
# a well-formed document pays no string formatting.  The checks run in
# document order, field by field, and the first failure is the one
# reported.  Its type errors, a field's included, have ``expect``'s form,
# located at the value.

# Each record's slot setters, in field order: the parser fills a record with
# them as its frozen ``__init__`` does, without the cost of calling it.
_SETTERS = {cls: tuple(vars(cls)[f.name].__set__ for f in fields(cls))
            for cls in (FunctionVertex, BoundaryTerminal, Flow)}


def problem_from_dict(doc: object, location: str = "$") -> DesignProblem:
    expect(doc, dict, location)
    kind = doc.get("kind")
    if kind not in ("structure", "blackbox"):
        raise SchemaError("kind must be 'structure' or 'blackbox'", f"{location}.kind")

    if kind == "blackbox":
        label = expect(doc.get("label", ""), str, f"{location}.label")
        for key in ("inputs", "outputs"):
            expect(doc.get(key), list, f"{location}.{key}")
        for key in ("inputs", "outputs"):
            for i, name in enumerate(doc[key]):
                expect(name, str, f"{location}.{key}[{i}]")
        return BlackBox(label, tuple(doc["inputs"]), tuple(doc["outputs"]))

    for key in ("vertices", "terminals", "flows"):
        expect(doc.get(key), list, f"{location}.{key}")

    new = object.__new__
    set_vertex_id, set_vertex_label = _SETTERS[FunctionVertex]
    set_terminal_id, set_terminal_kind, set_terminal_label = _SETTERS[BoundaryTerminal]
    set_source, set_target, set_flow_label = _SETTERS[Flow]
    ids: dict[str, int] = {}  # the check's numbering: vertices, then terminals
    vertices = []
    for i, v in enumerate(doc["vertices"]):
        if not isinstance(v, dict):
            expect(v, dict, f"{location}.vertices[{i}]")
        vid = v.get("id")
        if not isinstance(vid, str):
            expect(vid, str, f"{location}.vertices[{i}].id")
        if vid in ids:
            raise SchemaError(f"duplicate id {vid!r}", f"{location}.vertices[{i}].id")
        ids[vid] = len(ids)
        label = v.get("label")
        if not isinstance(label, str):
            expect(label, str, f"{location}.vertices[{i}].label")
        vertices.append(vertex := new(FunctionVertex))
        set_vertex_id(vertex, vid)
        set_vertex_label(vertex, label)

    terminals = []
    for i, t in enumerate(doc["terminals"]):
        if not isinstance(t, dict):
            expect(t, dict, f"{location}.terminals[{i}]")
        tid = t.get("id")
        if not isinstance(tid, str):
            expect(tid, str, f"{location}.terminals[{i}].id")
        if tid in ids:
            raise SchemaError(f"duplicate id {tid!r}", f"{location}.terminals[{i}].id")
        ids[tid] = len(ids)
        kind_t = t.get("kind")
        if not isinstance(kind_t, str):
            expect(kind_t, str, f"{location}.terminals[{i}].kind")
        if kind_t not in (INPUT, OUTPUT):
            raise SchemaError("kind must be 'input' or 'output'",
                              f"{location}.terminals[{i}].kind")
        label = t.get("label")
        if not isinstance(label, str):
            expect(label, str, f"{location}.terminals[{i}].label")
        terminals.append(terminal := new(BoundaryTerminal))
        set_terminal_id(terminal, tid)
        set_terminal_kind(terminal, kind_t)
        set_terminal_label(terminal, label)

    flows = []
    for i, f in enumerate(doc["flows"]):
        if not isinstance(f, dict):
            expect(f, dict, f"{location}.flows[{i}]")
        source, target, label = f.get("source"), f.get("target"), f.get("label")
        if not isinstance(source, str):
            expect(source, str, f"{location}.flows[{i}].source")
        if not isinstance(target, str):
            expect(target, str, f"{location}.flows[{i}].target")
        if not isinstance(label, str):
            expect(label, str, f"{location}.flows[{i}].label")
        flows.append(flow := new(Flow))
        set_source(flow, source)
        set_target(flow, target)
        set_flow_label(flow, label)

    structure = FunctionStructure(tuple(vertices), tuple(terminals), tuple(flows))
    vars(structure)["_ids"] = ids  # taken over (and dropped) by the first check
    return structure


def problem_to_dict(problem: DesignProblem) -> dict:
    if isinstance(problem, BlackBox):
        return {
            "kind": "blackbox",
            "label": problem.label,
            "inputs": list(problem.inputs),
            "outputs": list(problem.outputs),
        }
    return {
        "kind": "structure",
        "vertices": [{"id": v.id, "label": v.label} for v in problem.vertices],
        "terminals": [
            {"id": t.id, "kind": t.kind, "label": t.label} for t in problem.terminals
        ],
        "flows": [
            {"source": f.source, "target": f.target, "label": f.label}
            for f in problem.flows
        ],
    }


def parse_structure(data: bytes | str) -> DesignProblem:
    """Parse a ``.fs.json`` document.  Raises :class:`SchemaError` with a
    location for malformed documents, schema violations and duplicate ids."""
    return problem_from_dict(load_document(data))


def serialize_structure(problem: DesignProblem) -> bytes:
    """Serialize deterministically; ``parse_structure`` round-trips to an
    equal value."""
    return (dumps(problem_to_dict(problem)) + "\n").encode("utf-8")
