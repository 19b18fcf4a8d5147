"""Mapping problem profiles to applicable synthesis methods.

The capability matrix and the verdict rules are data, not code.  Each
row says whether a method needs a decomposable problem and how well it
copes with interdependencies, innovation and creativity; the profile's
novelty picks the column, and ``_VERDICTS`` maps its level to a verdict
and a rationale.  The default matrix encodes the worked examples: all
three methods need decomposability and handle interdependencies; analogy
methods are only partially suited to innovation because retrieval pulls
solutions toward what the case base already contains; and no method
reaches creativity, since each one draws every variable it can touch
from a knowledge base someone programmed in advance.

The ``interdependencies`` column decides no verdict, although it is one
of the paper's four traits, and the interdependency index (PI) only
annotates the rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Optional, Sequence

from .jsonio import SchemaError, expect, field, fraction_from_json, load_document, located
from .novelty import DesignCategory


class Method(Enum):
    GRAMMAR_BASED = "grammar_based"
    FUNCTIONAL_SYNTHESIS = "functional_synthesis"
    ANALOGY_BASED = "analogy_based"


class CapabilityLevel(IntEnum):
    NONE = 0
    LIMITED = 1
    FULL = 2


class Verdict(Enum):
    APPLICABLE = "applicable"
    LIMITED = "limited"
    INAPPLICABLE = "inapplicable"


_PROFILE_NOVELTIES = (
    DesignCategory.ROUTINE,
    DesignCategory.INNOVATIVE,
    DesignCategory.CREATIVE,
)


@dataclass(frozen=True)
class MethodCapabilities:
    method: Method
    requires_decomposable: bool
    interdependencies: CapabilityLevel
    innovation: CapabilityLevel
    creativity: CapabilityLevel


@dataclass(frozen=True)
class ProblemProfile:
    decomposable: bool
    pi: Optional[Fraction]
    novelty: DesignCategory

    def __post_init__(self):
        if self.novelty not in _PROFILE_NOVELTIES:
            raise ValueError("profile novelty must be routine, innovative or creative")
        if self.decomposable and self.pi is None:
            raise ValueError("decomposable profiles carry an interdependency index")
        if not self.decomposable and self.pi not in (None, Fraction(0), Fraction(1)):
            raise ValueError("a black-box annotation can only be 0 or 1")
        if self.pi is not None and not 0 <= self.pi <= 1:
            raise ValueError("interdependency index must lie in [0, 1]")
        try:
            str(self.pi)  # a ValueError past the integer limit, as in fraction_from_json
        except ValueError:
            raise ValueError("interdependency index has more digits than a report can "
                             "print") from None


@dataclass(frozen=True)
class MethodVerdict:
    method: Method
    verdict: Verdict
    rationale: str


@dataclass(frozen=True)
class MethodReport:
    entries: tuple[MethodVerdict, ...]

    def applicable(self) -> tuple[Method, ...]:
        return tuple(e.method for e in self.entries if e.verdict is Verdict.APPLICABLE)


def default_matrix() -> tuple[MethodCapabilities, ...]:
    full, limited, none = CapabilityLevel.FULL, CapabilityLevel.LIMITED, CapabilityLevel.NONE
    return (
        MethodCapabilities(Method.GRAMMAR_BASED, True, full, full, none),
        MethodCapabilities(Method.FUNCTIONAL_SYNTHESIS, True, full, full, none),
        MethodCapabilities(Method.ANALOGY_BASED, True, full, limited, none),
    )


_VERDICTS = {
    CapabilityLevel.FULL: (Verdict.APPLICABLE, "{method} covers {needed}; {note}"),
    CapabilityLevel.LIMITED: (Verdict.LIMITED,
                              "{method} covers {needed} only partially; {note}"),
    CapabilityLevel.NONE: (Verdict.INAPPLICABLE,
                           "{method} cannot provide {needed}: every variable it can "
                           "reach lives in a pre-programmed knowledge base"),
}


def recommend(profile: ProblemProfile,
              matrix: Optional[Sequence[MethodCapabilities]] = None) -> MethodReport:
    """Verdict per method: APPLICABLE, LIMITED (partial capability at the
    profile's novelty level) or INAPPLICABLE."""
    if matrix is None:
        matrix = default_matrix()
    note = ("no interdependency index is available" if profile.pi is None
            else f"interdependencies at PI = {profile.pi} are handled")
    entries = []
    for row in matrix:
        if row.requires_decomposable and not profile.decomposable:
            entries.append(MethodVerdict(
                row.method, Verdict.INAPPLICABLE,
                f"{row.method.value} needs a decomposable problem; "
                "this one is represented as a black box"))
            continue
        level, needed = {
            DesignCategory.ROUTINE: (CapabilityLevel.FULL, "routine design"),
            DesignCategory.INNOVATIVE: (row.innovation, "innovation"),
            DesignCategory.CREATIVE: (row.creativity, "creativity"),
        }[profile.novelty]
        verdict, rationale = _VERDICTS[level]
        entries.append(MethodVerdict(row.method, verdict, rationale.format(
            method=row.method.value, needed=needed, note=note)))
    return MethodReport(tuple(entries))


# ---------------------------------------------------------------------------
# JSON formats (.profile.json / matrix override)

def parse_profile(data: bytes | str) -> ProblemProfile:
    doc = expect(load_document(data), dict, "$")
    decomposable = field(doc, "decomposable", bool, "$")
    novelty_raw = doc.get("novelty")
    try:
        novelty = DesignCategory(novelty_raw)
    except ValueError as exc:
        raise SchemaError(
            f"'novelty' must be one of routine/innovative/creative, got {novelty_raw!r}",
            "$.novelty",
        ) from exc
    pi = None
    if doc.get("pi") is not None:
        pi = fraction_from_json(doc["pi"], "$.pi")
    return located("$", ProblemProfile, decomposable, pi, novelty)


_LEVELS = {"none": CapabilityLevel.NONE, "limited": CapabilityLevel.LIMITED,
           "full": CapabilityLevel.FULL}


def parse_matrix(data: bytes | str) -> tuple[MethodCapabilities, ...]:
    doc = expect(load_document(data), list, "$")
    if not doc:
        raise SchemaError("expected a non-empty array of capability rows")
    rows = []
    for i, row in enumerate(doc):
        loc = f"$[{i}]"
        expect(row, dict, loc)
        try:
            method = Method(row.get("method"))
        except ValueError as exc:
            raise SchemaError(f"unknown method {row.get('method')!r}", f"{loc}.method") from exc
        if any(r.method is method for r in rows):
            raise SchemaError(f"duplicate method {method.value!r}", f"{loc}.method")
        requires_decomposable = field(row, "requires_decomposable", bool, loc)
        levels = {}
        for key in ("interdependencies", "innovation", "creativity"):
            if not isinstance(row.get(key), str) or row[key] not in _LEVELS:
                raise SchemaError(f"'{key}' must be one of none/limited/full", f"{loc}.{key}")
            levels[key] = _LEVELS[row[key]]
        rows.append(
            MethodCapabilities(method, requires_decomposable,
                               levels["interdependencies"], levels["innovation"],
                               levels["creativity"])
        )
    return tuple(rows)


def report_to_dict(report: MethodReport) -> dict:
    return {
        "methods": [
            {"method": e.method.value, "verdict": e.verdict.value, "rationale": e.rationale}
            for e in report.entries
        ],
        "applicable": [m.value for m in report.applicable()],
    }
