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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from .domains import _SCALARS, Domain, Scalar, domain_from_dict, singleton
from .jsonio import SchemaError, expect, field, load_document


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
        names = [v.name for v in self.variables]
        if len(names) != len(set(names)):
            raise ValueError("variable names must be unique within a knowledge base")

    def names(self) -> set[str]:
        return {v.name for v in self.variables}

    def domain_of(self, name: str) -> Domain:
        for v in self.variables:
            if v.name == name:
                return v.domain
        raise KeyError(name)


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


def unexpected_names(kb: KnowledgeBase, design: DesignInstance) -> tuple[str, ...]:
    """Names known to the KB whose assigned value falls outside its domain."""
    known = kb.names()
    return tuple(
        name for name, value in design.assignments
        if name in known and not kb.domain_of(name).contains(value)
    )


def new_names(kb: KnowledgeBase, design: DesignInstance) -> tuple[str, ...]:
    """Names the KB does not know; these never count as unexpected."""
    known = kb.names()
    return tuple(name for name, _ in design.assignments if name not in known)


def innovation_index(kb: KnowledgeBase, design: DesignInstance) -> Fraction:
    return Fraction(len(unexpected_names(kb, design)), len(design))


def creativity_index(kb: KnowledgeBase, design: DesignInstance) -> Fraction:
    return Fraction(len(new_names(kb, design)), len(design))


def assess(kb: KnowledgeBase, design: DesignInstance,
           feasible: Optional[bool] = None) -> NoveltyReport:
    """Score a design and place it in the routine/innovative/creative
    taxonomy.  ``feasible`` falls back to the instance's own verdict."""
    if feasible is None:
        feasible = design.feasible
    if feasible is None:
        raise ValueError("a feasibility verdict is required (external judgement)")

    unexpected = unexpected_names(kb, design)
    new = new_names(kb, design)
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

    return NoveltyReport(innovation, creativity, category, unexpected, new)


def absorb(kb: KnowledgeBase, design: DesignInstance) -> KnowledgeBase:
    """Fold a design back into the knowledge base.

    Out-of-domain values widen the variable's domain; unknown names are
    added with singleton domains.  Assessing the same design against the
    result is routine by construction.
    """
    by_name = {v.name: v for v in kb.variables}
    merged = list(kb.variables)
    for name, value in design.assignments:
        if name in by_name:
            var = by_name[name]
            if not var.domain.contains(value):
                widened = DesignVariable(var.name, var.domain.widen(value), var.subfunction)
                merged[merged.index(var)] = widened
                by_name[name] = widened
        else:
            added = DesignVariable(name, singleton(value))
            merged.append(added)
            by_name[name] = added
    return KnowledgeBase(tuple(merged))


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
