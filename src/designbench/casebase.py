"""Case-based design: similarity retrieval plus reuse, revise, retain.

Similarity between two function structures blends three terms, each in
[0, 1]: multiset Jaccard over function-vertex labels, multiset Jaccard
over flow labels, and closeness of the two interdependency indices.
The weights are configurable and default to (1/2, 3/10, 1/5).  Scores
are exact rationals, which keeps ranking ties deterministic.

Reuse maps the retrieved case's components onto the query's
subfunctions greedily by word overlap; revise only checks requirements
and records open tasks, it performs no automatic repair.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .funcstruct import (
    FunctionStructure,
    SchemaError,
    interdependency_index,
    problem_from_dict,
    problem_to_dict,
    validate,
)

DEFAULT_WEIGHTS = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))


class DuplicateCaseError(ValueError):
    pass


class EmptyCaseBaseError(ValueError):
    pass


@dataclass(frozen=True)
class Component:
    name: str
    serves: str = ""  # subfunction label the component implements in its case


@dataclass(frozen=True)
class Solution:
    description: str
    components: tuple[Component, ...] = ()


@dataclass(frozen=True)
class Case:
    id: str
    problem: FunctionStructure
    solution: Solution
    domain: str = "engineering"  # 'biological' marks biology-inspired cases


@dataclass(frozen=True)
class CaseBase:
    cases: tuple[Case, ...] = ()

    def __post_init__(self):
        ids = [c.id for c in self.cases]
        if len(ids) != len(set(ids)):
            raise DuplicateCaseError("case ids must be unique")

    def __len__(self) -> int:
        return len(self.cases)

    def case(self, case_id: str) -> Case:
        for c in self.cases:
            if c.id == case_id:
                return c
        raise KeyError(case_id)


@dataclass(frozen=True)
class SimilaritySpec:
    function_weight: Fraction = DEFAULT_WEIGHTS[0]
    flow_weight: Fraction = DEFAULT_WEIGHTS[1]
    structure_weight: Fraction = DEFAULT_WEIGHTS[2]

    def __post_init__(self):
        weights = (self.function_weight, self.flow_weight, self.structure_weight)
        if any(w < 0 for w in weights):
            raise ValueError("similarity weights must be non-negative")
        if sum(weights) != 1:
            raise ValueError("similarity weights must sum to exactly 1")


@dataclass(frozen=True)
class RetrievalResult:
    ranked: tuple[tuple[str, Fraction], ...]  # (case id, score), best first


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


def similarity(spec: SimilaritySpec, query: FunctionStructure, case: Case) -> Fraction:
    return structure_similarity(spec, query, case.problem)


def retrieve(base: CaseBase, spec: SimilaritySpec, query: FunctionStructure,
             k: int) -> RetrievalResult:
    """Top-k cases by similarity; ties broken by case id."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not base.cases:
        raise EmptyCaseBaseError("cannot retrieve from an empty case base")
    scored = sorted(
        ((case.id, similarity(spec, query, case)) for case in base.cases),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return RetrievalResult(tuple(scored[:k]))


def retain(base: CaseBase, case: Case) -> CaseBase:
    """New base including ``case``; refuses duplicate ids."""
    if any(c.id == case.id for c in base.cases):
        raise DuplicateCaseError(f"case id {case.id!r} already present")
    return CaseBase((*base.cases, case))


# ---------------------------------------------------------------------------
# Reuse / revise

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


@dataclass(frozen=True)
class ComponentMapping:
    component: Component
    subfunction: Optional[str]  # query subfunction label, None if unassigned
    affinity: Fraction


@dataclass(frozen=True)
class DraftSolution:
    case_id: str
    description: str
    mappings: tuple[ComponentMapping, ...]
    gaps: tuple[str, ...]  # query subfunctions no component covers

    def components(self) -> tuple[Component, ...]:
        return tuple(m.component for m in self.mappings)


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


@dataclass(frozen=True)
class Requirement:
    """Named predicate over a draft's component list."""

    name: str
    predicate: Callable[[tuple[Component, ...]], bool]


@dataclass(frozen=True)
class RequirementCheck:
    name: str
    satisfied: bool


@dataclass(frozen=True)
class RevisedSolution:
    draft: DraftSolution
    checks: tuple[RequirementCheck, ...]
    open_tasks: tuple[str, ...]  # names of violated requirements


def revise(draft: DraftSolution, requirements: Sequence[Requirement]) -> RevisedSolution:
    """Mark each requirement satisfied or violated; violations become
    open revision tasks.  No automatic repair is attempted."""
    components = draft.components()
    checks = tuple(
        RequirementCheck(req.name, bool(req.predicate(components)))
        for req in requirements
    )
    open_tasks = tuple(c.name for c in checks if not c.satisfied)
    return RevisedSolution(draft, checks, open_tasks)


def has_component(substring: str) -> Callable[[tuple[Component, ...]], bool]:
    needle = substring.lower()
    return lambda comps: any(needle in c.name.lower() for c in comps)


def serves_function(label: str) -> Callable[[tuple[Component, ...]], bool]:
    return lambda comps: any(label_affinity(c.serves, label) > 0 for c in comps)


def min_components(count: int) -> Callable[[tuple[Component, ...]], bool]:
    return lambda comps: len(comps) >= count


def requirement_from_dict(doc: object, location: str) -> Requirement:
    if not isinstance(doc, dict) or not isinstance(doc.get("name"), str):
        raise SchemaError("requirement needs a string 'name'", location)
    if "has_component" in doc:
        return Requirement(doc["name"], has_component(str(doc["has_component"])))
    if "serves_function" in doc:
        return Requirement(doc["name"], serves_function(str(doc["serves_function"])))
    if "min_components" in doc:
        return Requirement(doc["name"], min_components(int(doc["min_components"])))
    raise SchemaError(
        "requirement needs one of 'has_component', 'serves_function', 'min_components'",
        location,
    )


# ---------------------------------------------------------------------------
# JSON formats (.cases.json / .simspec.json)

def _fraction_from_json(value: object, location: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a valid rational: {value!r}", location) from exc
    raise SchemaError(f"not a valid rational: {value!r}", location)


def case_from_dict(doc: object, location: str) -> Case:
    if not isinstance(doc, dict) or not isinstance(doc.get("id"), str):
        raise SchemaError("case needs a string 'id'", location)
    problem = problem_from_dict(doc.get("problem"), f"{location}.problem")
    if not isinstance(problem, FunctionStructure):
        raise SchemaError("case problems must be function structures",
                          f"{location}.problem")
    report = validate(problem)
    if not report.ok:
        raise SchemaError(
            "invalid case problem: " + "; ".join(v.message for v in report.violations),
            f"{location}.problem",
        )
    sol = doc.get("solution")
    if not isinstance(sol, dict) or not isinstance(sol.get("description"), str):
        raise SchemaError("solution needs a string 'description'", f"{location}.solution")
    components = []
    for i, c in enumerate(sol.get("components", [])):
        loc = f"{location}.solution.components[{i}]"
        if not isinstance(c, dict) or not isinstance(c.get("name"), str):
            raise SchemaError("component needs a string 'name'", loc)
        components.append(Component(c["name"], str(c.get("serves", ""))))
    domain = doc.get("domain", "engineering")
    if not isinstance(domain, str):
        raise SchemaError("'domain' must be a string", f"{location}.domain")
    return Case(doc["id"], problem, Solution(sol["description"], tuple(components)), domain)


def parse_case_base(data: bytes | str) -> CaseBase:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", f"line {exc.lineno}") from exc
    if not isinstance(doc, list):
        raise SchemaError("expected an array of cases")
    cases = tuple(case_from_dict(c, f"$[{i}]") for i, c in enumerate(doc))
    try:
        return CaseBase(cases)
    except DuplicateCaseError as exc:
        raise SchemaError(str(exc)) from exc


def case_to_dict(case: Case) -> dict:
    return {
        "id": case.id,
        "domain": case.domain,
        "problem": problem_to_dict(case.problem),
        "solution": {
            "description": case.solution.description,
            "components": [
                {"name": c.name, "serves": c.serves} for c in case.solution.components
            ],
        },
    }


def serialize_case_base(base: CaseBase) -> bytes:
    doc = [case_to_dict(c) for c in base.cases]
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def parse_similarity_spec(data: bytes | str) -> SimilaritySpec:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", f"line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("expected an object with weight fields")
    weights = {}
    for key in ("function", "flow", "structure"):
        if key not in doc:
            raise SchemaError(f"missing weight {key!r}", f"$.{key}")
        weights[key] = _fraction_from_json(doc[key], f"$.{key}")
    try:
        return SimilaritySpec(weights["function"], weights["flow"], weights["structure"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
