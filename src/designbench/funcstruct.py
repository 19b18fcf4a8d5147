"""Function-structure graphs and the interdependency index.

A design problem is held either as a :class:`BlackBox` (nondecomposable:
just labelled input and output flows) or as a :class:`FunctionStructure`
(decomposable: a DAG of subfunction vertices connected by labelled flows,
with boundary terminals for flows crossing the system border).

The interdependency index of a structure is the fraction of function
vertices whose total degree exceeds two.  Flows to and from boundary
terminals count toward a vertex's degree, but terminals themselves are
never counted in the denominator.  All arithmetic is exact
(:class:`fractions.Fraction`).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Union

from .jsonio import SchemaError, load_document

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


@dataclass(frozen=True)
class FunctionVertex:
    """A subfunction, e.g. ``"lead water through coffee powder"``."""

    id: str
    label: str


@dataclass(frozen=True)
class BoundaryTerminal:
    """Entry/exit point of a flow crossing the system boundary."""

    id: str
    kind: str  # INPUT or OUTPUT
    label: str  # flow label carried across the boundary


@dataclass(frozen=True)
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

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


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

    def vertex_ids(self) -> set[str]:
        return {v.id for v in self.vertices}

    def terminal_ids(self) -> set[str]:
        return {t.id for t in self.terminals}

    def vertex(self, vertex_id: str) -> FunctionVertex:
        for v in self.vertices:
            if v.id == vertex_id:
                return v
        raise KeyError(f"unknown vertex id: {vertex_id!r}")

    def __getstate__(self) -> dict:
        # Pickle and copy only the fields: the cached values are rebuilt on
        # demand, and their read-only mapping proxies cannot be pickled.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def degrees(self) -> Mapping[str, int]:
        """Read-only table of every function vertex's total degree.

        Built in one pass over ``flows``: O(V+F) once per structure.
        """
        table = {v.id: 0 for v in self.vertices}
        for f in self.flows:
            if f.source in table:
                table[f.source] += 1
            if f.target in table:
                table[f.target] += 1
        return MappingProxyType(table)

    @cached_property
    def function_labels(self) -> Mapping[str, int]:
        """Read-only multiset of function-vertex labels (missing labels count 0)."""
        return MappingProxyType(Counter(v.label for v in self.vertices))

    @cached_property
    def flow_labels(self) -> Mapping[str, int]:
        """Read-only multiset of flow labels (missing labels count 0)."""
        return MappingProxyType(Counter(f.label for f in self.flows))

    @cached_property
    def _report(self) -> "ValidationReport":
        return _check(self)

    @cached_property
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

    The report is computed once per structure and kept on it.
    """
    return fs._report


def _check(fs: FunctionStructure) -> ValidationReport:
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

    vertex_ids = fs.vertex_ids()
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
    structure's degree table, which costs O(V+F) on first use and O(1)
    afterwards.  Raises ``KeyError`` for an id that is not a function
    vertex.
    """
    try:
        return fs.degrees[vertex_id]
    except KeyError:
        raise KeyError(f"unknown vertex id: {vertex_id!r}") from None


def interdependency_index(problem: DesignProblem) -> Fraction:
    """Fraction of function vertices with degree strictly greater than two.

    A structure is validated and its index counted from the degree table
    once, in O(V+F); the index is kept on the structure, so later calls
    cost O(1).  An invalid structure raises
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
# only in the branch that raises, so a well-formed document pays no
# string formatting.  The checks run in document order, field by field,
# and the first failure is the one reported.

def _located(message: str, location: str, key: str, i: int, field: str = "") -> SchemaError:
    """The error for element ``i`` of array ``key`` (or its ``field``)."""
    return SchemaError(message, f"{location}.{key}[{i}]" + (f".{field}" if field else ""))


def problem_from_dict(doc: object, location: str = "$") -> DesignProblem:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", location)
    kind = doc.get("kind")
    if kind not in ("structure", "blackbox"):
        raise SchemaError("kind must be 'structure' or 'blackbox'", f"{location}.kind")

    if kind == "blackbox":
        label = doc.get("label", "")
        if not isinstance(label, str):
            raise SchemaError("expected a string", f"{location}.label")
        for key in ("inputs", "outputs"):
            if not isinstance(doc.get(key), list):
                raise SchemaError("expected an array", f"{location}.{key}")
        for key in ("inputs", "outputs"):
            for i, name in enumerate(doc[key]):
                if not isinstance(name, str):
                    raise SchemaError("expected a string", f"{location}.{key}[{i}]")
        return BlackBox(label, tuple(doc["inputs"]), tuple(doc["outputs"]))

    for key in ("vertices", "terminals", "flows"):
        if not isinstance(doc.get(key), list):
            raise SchemaError("expected an array", f"{location}.{key}")

    seen_ids: set[str] = set()
    vertices = []
    for i, v in enumerate(doc["vertices"]):
        if not isinstance(v, dict):
            raise _located("expected an object", location, "vertices", i)
        vid = v.get("id")
        if not isinstance(vid, str):
            raise _located("expected a string", location, "vertices", i, "id")
        if vid in seen_ids:
            raise _located(f"duplicate id {vid!r}", location, "vertices", i, "id")
        seen_ids.add(vid)
        label = v.get("label")
        if not isinstance(label, str):
            raise _located("expected a string", location, "vertices", i, "label")
        vertices.append(FunctionVertex(vid, label))

    terminals = []
    for i, t in enumerate(doc["terminals"]):
        if not isinstance(t, dict):
            raise _located("expected an object", location, "terminals", i)
        tid = t.get("id")
        if not isinstance(tid, str):
            raise _located("expected a string", location, "terminals", i, "id")
        if tid in seen_ids:
            raise _located(f"duplicate id {tid!r}", location, "terminals", i, "id")
        seen_ids.add(tid)
        kind_t = t.get("kind")
        if not isinstance(kind_t, str):
            raise _located("expected a string", location, "terminals", i, "kind")
        if kind_t not in (INPUT, OUTPUT):
            raise _located("kind must be 'input' or 'output'", location, "terminals", i, "kind")
        label = t.get("label")
        if not isinstance(label, str):
            raise _located("expected a string", location, "terminals", i, "label")
        terminals.append(BoundaryTerminal(tid, kind_t, label))

    flows = []
    for i, f in enumerate(doc["flows"]):
        if not isinstance(f, dict):
            raise _located("expected an object", location, "flows", i)
        source, target, label = f.get("source"), f.get("target"), f.get("label")
        if not isinstance(source, str):
            raise _located("expected a string", location, "flows", i, "source")
        if not isinstance(target, str):
            raise _located("expected a string", location, "flows", i, "target")
        if not isinstance(label, str):
            raise _located("expected a string", location, "flows", i, "label")
        flows.append(Flow(source, target, label))

    return FunctionStructure(tuple(vertices), tuple(terminals), tuple(flows))


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
    return (
        json.dumps(problem_to_dict(problem), indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
