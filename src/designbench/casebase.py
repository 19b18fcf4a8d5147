"""Case-based design: similarity retrieval plus reuse, revise, retain.

Similarity between two function structures blends three terms, each in
[0, 1]: multiset Jaccard over function-vertex labels, multiset Jaccard
over flow labels, and closeness of the two interdependency indices.
The weights are configurable and default to (1/2, 3/10, 1/5).  Scores
are exact rationals, which keeps ranking ties deterministic.  The
kernel keeps every term as an integer numerator and denominator and
returns the score as one unreduced ``(num, den)`` pair; rational
arithmetic is exact and ``Fraction`` reduces to lowest terms, so
``Fraction(num, den)`` is the same value, with the same ``str``, as a
term-by-term ``Fraction`` sum.  Retrieval ranks the pairs themselves:
it keeps the best k in a bounded heap ordered by the cross products
``num * den'`` against ``num' * den`` (denominators are positive), then
by case id, which equals a full sort under (best score, then case id)
cut at k, and builds a ``Fraction`` only for the k cases it returns.

Reuse maps the retrieved case's components onto the query's
subfunctions greedily by word overlap, tokenising each label and
component text once; revise only checks requirements and records open
tasks, it performs no automatic repair.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .funcstruct import FunctionStructure, interdependency_index, problem_from_dict, validate
from .jsonio import (SchemaError, cached, expect, field, fields_only, fraction_from_json,
                     load_document, located)

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
        if len(self._by_id) != len(self.cases):
            raise DuplicateCaseError("case ids must be unique")

    __getstate__ = fields_only

    def __len__(self) -> int:
        return len(self.cases)

    @cached
    def _by_id(self) -> dict[str, Case]:
        return {c.id: c for c in self.cases}

    def case(self, case_id: str) -> Case:
        return self._by_id[case_id]


@dataclass(frozen=True)
class SimilaritySpec:
    function_weight: Fraction = DEFAULT_WEIGHTS[0]
    flow_weight: Fraction = DEFAULT_WEIGHTS[1]
    structure_weight: Fraction = DEFAULT_WEIGHTS[2]

    def __post_init__(self):
        weights = (self.function_weight, self.flow_weight, self.structure_weight)
        if any(isinstance(w, bool) or not isinstance(w, (int, Fraction)) for w in weights):
            raise ValueError("similarity weights must be integers or Fractions")
        if any(w < 0 for w in weights):
            raise ValueError("similarity weights must be non-negative")
        if sum(weights) != 1:
            raise ValueError("similarity weights must sum to exactly 1")


@dataclass(frozen=True)
class RetrievalResult:
    ranked: tuple[tuple[str, Fraction], ...]  # (case id, score), best first


def _overlap(a: Mapping[str, int], b: Mapping[str, int]) -> int:
    """Size of the multiset intersection: the smaller count of each label."""
    if len(a) > len(b):
        a, b = b, a
    total = 0
    for label, n in a.items():
        m = b.get(label, 0)
        total += n if n < m else m
    return total


def _weights(spec: SimilaritySpec) -> tuple[int, int, int, int, int, int]:
    """The three weights as numerator, denominator pairs, in spec order."""
    fn, fd = spec.function_weight.as_integer_ratio()
    ln, ld = spec.flow_weight.as_integer_ratio()
    sn, sd = spec.structure_weight.as_integer_ratio()
    return fn, fd, ln, ld, sn, sd


def _score(weights: tuple[int, int, int, int, int, int], a: FunctionStructure,
           b: FunctionStructure) -> tuple[int, int]:
    """The similarity of ``a`` and ``b`` as an unreduced ``(num, den)``
    with ``den > 0`` (see :func:`structure_similarity`)."""
    fn, fd, ln, ld, sn, sd = weights
    fo = _overlap(a.function_labels, b.function_labels)
    fu = len(a.vertices) + len(b.vertices) - fo
    lo = _overlap(a.flow_labels, b.flow_labels)
    lu = len(a.flows) + len(b.flows) - lo
    pa, pb = interdependency_index(a), interdependency_index(b)
    pq = pa.denominator * pb.denominator
    closeness = pq - abs(pa.numerator * pb.denominator - pb.numerator * pa.denominator)
    functions_d, flows_d, structure_d = fd * fu, ld * lu, sd * pq
    return (
        fn * fo * flows_d * structure_d
        + ln * lo * functions_d * structure_d
        + sn * closeness * functions_d * flows_d,
        functions_d * flows_d * structure_d,
    )


def structure_similarity(spec: SimilaritySpec, a: FunctionStructure,
                         b: FunctionStructure) -> Fraction:
    """Weighted blend of label overlap and interdependency closeness.

    Symmetric, 1 on identical structures, and always within [0, 1].
    Label multisets and indices are read from each structure's cache,
    so scoring a pair costs O(distinct labels) once both are warm.

    The kernel :func:`_score` stays in integers.  A label Jaccard is the
    multiset overlap over the union, which is the two totals (every
    vertex, every flow) minus the overlap; a valid structure has a
    vertex and flows, so no union is zero, and an invalid one raises
    from :func:`interdependency_index`.  The PI term ``1 - |pa/qa -
    pb/qb|`` is cross-multiplied from the two reduced indices, and each
    weight enters as its numerator and denominator.  ``Fraction(num,
    den)`` over the product of the denominators reduces once to the same
    value, hence the same ``str``, as summing the terms as ``Fraction``s.
    """
    return Fraction(*_score(_weights(spec), a, b))


def similarity(spec: SimilaritySpec, query: FunctionStructure, case: Case) -> Fraction:
    return structure_similarity(spec, query, case.problem)


class _Ranked:
    """A scored case in the retrieval heap; ``<`` means ranked below."""

    __slots__ = ("num", "den", "id")

    def __init__(self, num: int, den: int, case_id: str):
        self.num, self.den, self.id = num, den, case_id

    def __lt__(self, other: _Ranked) -> bool:
        lower = self.num * other.den - other.num * self.den
        return lower < 0 or (lower == 0 and self.id > other.id)


def retrieve(base: CaseBase, spec: SimilaritySpec, query: FunctionStructure,
             k: int) -> RetrievalResult:
    """Top-k cases by similarity; ties broken by case id.

    The first k cases fill a heap whose root is the lowest ranked; every
    later case is compared with the root once and replaces it only if it
    ranks above, so selection is O(N log k) and most cases cost one
    integer comparison.  Cases are scored in base order, so the first
    invalid structure met, the query or a case, is the one that raises.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not base.cases:
        raise EmptyCaseBaseError("cannot retrieve from an empty case base")
    weights = _weights(spec)
    heap = [_Ranked(*_score(weights, query, case.problem), case.id)
            for case in base.cases[:k]]
    heapq.heapify(heap)
    for case in base.cases[k:]:
        num, den = _score(weights, query, case.problem)
        worst = heap[0]
        above = num * worst.den - worst.num * den
        if above > 0 or (above == 0 and case.id < worst.id):
            heapq.heapreplace(heap, _Ranked(num, den, case.id))
    heap.sort(reverse=True)
    return RetrievalResult(tuple((entry.id, Fraction(entry.num, entry.den))
                                 for entry in heap))


def retain(base: CaseBase, case: Case) -> CaseBase:
    """New base including ``case``; refuses duplicate ids."""
    if case.id in base._by_id:
        raise DuplicateCaseError(f"case id {case.id!r} already present")
    return CaseBase((*base.cases, case))


# ---------------------------------------------------------------------------
# Reuse / revise

_WORDS = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> frozenset[str]:
    return frozenset(_WORDS.findall(text.lower()))


def _word_overlap(ta: frozenset[str], tb: frozenset[str]) -> tuple[int, int]:
    """Word Jaccard as (shared, union); two empty word sets count as 1/1."""
    if not ta and not tb:
        return 1, 1
    shared = len(ta & tb)
    return shared, len(ta) + len(tb) - shared


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
    labels = list(dict.fromkeys(v.label for v in query.vertices))
    label_words = [(label, _tokens(label)) for label in labels]

    # Each text is tokenised once; a pair's affinity is the larger of the
    # serves and name Jaccards, compared as integer ratios, and only a
    # positive one becomes a Fraction.
    candidates = []
    for comp in case.solution.components:
        serves, name = _tokens(comp.serves), _tokens(comp.name)
        for label, words in label_words:
            shared, union = _word_overlap(serves, words)
            name_shared, name_union = _word_overlap(name, words)
            if name_shared * union > shared * name_union:
                shared, union = name_shared, name_union
            if shared:
                candidates.append((Fraction(shared, union), comp.name, label, comp))
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
    # the word Jaccard is above 0 exactly when the shared count is, which
    # holds also for two empty word sets (1/1); the label is tokenised once
    words = _tokens(label)
    return lambda comps: any(_word_overlap(_tokens(c.serves), words)[0] > 0
                             for c in comps)


def min_components(count: int) -> Callable[[tuple[Component, ...]], bool]:
    return lambda comps: len(comps) >= count


# ---------------------------------------------------------------------------
# JSON formats (.cases.json / .simspec.json)

def case_from_dict(doc: object, location: str) -> Case:
    case_id = field(expect(doc, dict, location), "id", str, location)
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
    sol = field(doc, "solution", dict, location)
    loc = f"{location}.solution"
    description = field(sol, "description", str, loc)
    components = []
    for i, c in enumerate(field(sol, "components", list, loc, [])):
        cloc = f"{loc}.components[{i}]"
        name = field(expect(c, dict, cloc), "name", str, cloc)
        components.append(Component(name, field(c, "serves", str, cloc, "")))
    domain = field(doc, "domain", str, location, "engineering")
    return Case(case_id, problem, Solution(description, tuple(components)), domain)


def parse_case_base(data: bytes | str) -> CaseBase:
    doc = expect(load_document(data), list, "$")
    cases = tuple(case_from_dict(c, f"$[{i}]") for i, c in enumerate(doc))
    return located("$", CaseBase, cases)


def parse_similarity_spec(data: bytes | str) -> SimilaritySpec:
    doc = expect(load_document(data), dict, "$")
    weights = {}
    for key in ("function", "flow", "structure"):
        if key not in doc:
            raise SchemaError(f"missing weight {key!r}", f"$.{key}")
        weights[key] = fraction_from_json(doc[key], f"$.{key}")
    return located("$", SimilaritySpec, weights["function"], weights["flow"],
                   weights["structure"])
