"""Innovation and creativity indices over a knowledge base of variables.

A knowledge base declares, per design variable, the domain of values
considered expected.  Scoring a concrete design instance against it:

* innovation index = share of the instance's variables that are known
  but carry a value outside their domain;
* creativity index = share of the instance's variables the knowledge
  base does not know at all.

A name counts toward exactly one of the two (known or new, never both),
so the indices share the instance-size denominator and their sum never
exceeds one.  Feasibility is an external verdict: a design judged not
feasible is categorised ``NOT_VALUABLE`` regardless of its indices.

Scoring is one pass over the assignments, each name looked up in the
knowledge base's name index; :func:`absorb` widens through a copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from .domains import _SCALARS, Domain, Scalar, domain_from_dict, singleton
from .jsonio import SchemaError, cached, expect, field, fields_only, load_document


class DesignCategory(Enum):
    ROUTINE = "routine"
    INNOVATIVE = "innovative"
    CREATIVE = "creative"
    NOT_VALUABLE = "not_valuable"


@dataclass(frozen=True)
class DesignVariable:
    name: str
    domain: Domain
    subfunction: Optional[str] = None


@dataclass(frozen=True)
class KnowledgeBase:
    variables: tuple[DesignVariable, ...]

    def __post_init__(self):
        if len(self._by_name) != len(self.variables):
            raise ValueError("variable names must be unique within a knowledge base")

    __getstate__ = fields_only

    @cached
    def _by_name(self) -> dict[str, DesignVariable]:
        return {v.name: v for v in self.variables}


@dataclass(frozen=True)
class DesignInstance:
    """A concrete variable assignment, optionally pre-judged for feasibility."""

    assignments: tuple[tuple[str, Scalar], ...]
    feasible: Optional[bool] = None

    def __post_init__(self):
        if not self.assignments:
            raise ValueError("a design instance needs at least one assignment")
        names = [n for n, _ in self.assignments]
        if len(names) != len(set(names)):
            raise ValueError("assignment names must be unique")

    @classmethod
    def from_mapping(cls, assignments: Mapping[str, Scalar],
                     feasible: Optional[bool] = None) -> "DesignInstance":
        return cls(tuple(assignments.items()), feasible)

    def __len__(self) -> int:
        return len(self.assignments)


@dataclass(frozen=True)
class NoveltyReport:
    innovation: Fraction
    creativity: Fraction
    category: DesignCategory
    unexpected: tuple[str, ...]
    new: tuple[str, ...]


def assess(kb: KnowledgeBase, design: DesignInstance,
           feasible: Optional[bool] = None) -> NoveltyReport:
    """Score a design and place it in the routine/innovative/creative
    taxonomy.  ``feasible`` falls back to the instance's own verdict."""
    if feasible is None:
        feasible = design.feasible
    if feasible is None:
        raise ValueError("a feasibility verdict is required (external judgement)")

    unexpected, new = [], []  # a name is known or new, never both
    for name, value in design.assignments:
        var = kb._by_name.get(name)
        if var is None:
            new.append(name)
        elif not var.domain.contains(value):
            unexpected.append(name)
    innovation = Fraction(len(unexpected), len(design))
    creativity = Fraction(len(new), len(design))

    if not feasible:
        category = DesignCategory.NOT_VALUABLE
    elif creativity > 0:
        category = DesignCategory.CREATIVE
    elif innovation > 0:
        category = DesignCategory.INNOVATIVE
    else:
        category = DesignCategory.ROUTINE

    return NoveltyReport(innovation, creativity, category, tuple(unexpected), tuple(new))


def absorb(kb: KnowledgeBase, design: DesignInstance) -> KnowledgeBase:
    """Fold a design back into the knowledge base.

    Out-of-domain values widen the variable's domain; unknown names are
    added with singleton domains.  Assessing the same design against the
    result is routine by construction.  A widened variable keeps its place
    in the index copy, and added ones follow in assignment order.
    """
    by_name = dict(kb._by_name)
    for name, value in design.assignments:
        var = by_name.get(name)
        if var is None:
            by_name[name] = DesignVariable(name, singleton(value))
        elif not var.domain.contains(value):
            by_name[name] = DesignVariable(name, var.domain.widen(value), var.subfunction)
    return KnowledgeBase(tuple(by_name.values()))


# ---------------------------------------------------------------------------
# JSON formats (.kb.json / .design.json)

def parse_knowledge_base(data: bytes | str) -> KnowledgeBase:
    doc = expect(load_document(data), dict, "$")
    variables = []
    seen: set[str] = set()
    for i, v in enumerate(field(doc, "variables", list, "$")):
        loc = f"$.variables[{i}]"
        name = field(expect(v, dict, loc), "name", str, loc)
        if name in seen:
            raise SchemaError(f"duplicate variable {name!r}", f"{loc}.name")
        seen.add(name)
        domain = domain_from_dict(v.get("domain"), f"{loc}.domain")
        subfunction = v.get("subfunction")
        if subfunction is not None:
            field(v, "subfunction", str, loc)
        variables.append(DesignVariable(name, domain, subfunction))
    return KnowledgeBase(tuple(variables))


def parse_design_instance(data: bytes | str) -> DesignInstance:
    doc = expect(load_document(data), dict, "$")
    assignments = field(doc, "assignments", dict, "$")
    if not assignments:
        raise SchemaError("'assignments' must not be empty", "$.assignments")
    feasible = doc.get("feasible")
    if feasible is not None:
        field(doc, "feasible", bool, "$")
    for name, value in assignments.items():
        if not isinstance(value, _SCALARS):
            raise SchemaError("values must be JSON scalars", f"$.assignments.{name}")
    return DesignInstance.from_mapping(assignments, feasible)
