"""Span recorder for the traced run.

It wraps the program's public functions from outside by rebinding
module and class attributes, including every alias another module
imported (``casebase.validate`` is ``funcstruct.validate``).  Spans stay
in memory as parallel integer arrays (name, start, end, parent, request,
exception type) and are written out once the run ends; ``restore`` puts
every original back.

Spans stop at public functions: private helpers such as
``synth._search_assignment`` appear only inside their caller's self
time until the program counts its own work.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

#: Wrapped functions as ``module.attribute`` or ``module.Class.method``.
TARGETS = (
    "cli.run",
    "funcstruct.parse_structure", "funcstruct.validate",
    "funcstruct.interdependency_index", "funcstruct.degree",
    "novelty.parse_design_instance", "novelty.assess", "novelty.absorb",
    "casebase.retrieve", "casebase.similarity", "casebase.reuse",
    "casebase.revise", "casebase.retain",
    "classify.recommend",
    "grammar.parse_grammar", "grammar.generate", "grammar.find_matches",
    "grammar.apply", "grammar.Vocabulary.require_valid",
    "grammar.canonical_form", "grammar.design_to_dict",
    "synth.parse_requirement", "synth.parse_topology",
    "synth.synthesize_topology", "synth.synthesize_assignment",
    "synth.evaluate", "synth.to_function_structure", "synth.circuit_to_dict",
)

PACKAGE = "designbench"


class Recorder:
    def __init__(self):
        self.names = list(TARGETS)
        self.exc_types: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.exc = array("i")
        self.current_request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for index, target in enumerate(TARGETS):
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            wrapper = self._wrap(index, original)
            self._rebind(owner, attr, wrapper)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original and (module, alias) != (owner, attr):
                        self._rebind(module, alias, wrapper)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Attributes that are not their original object again."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._saved
                if owner.__dict__[attr] is not original]

    def _wrap(self, index: int, fn):
        stack, name_id, start, end = self._stack, self.name_id, self.start, self.end
        parent, request, exc = self.parent, self.request, self.exc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start)
            name_id.append(index)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            exc.append(-1)
            end.append(0)
            stack.append(span)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException as error:
                exc[span] = self._exc_type(type(error).__name__)
                raise
            finally:
                end[span] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _exc_type(self, name: str) -> int:
        if name not in self.exc_types:
            self.exc_types.append(name)
        return self.exc_types.index(name)

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def per_function(self) -> dict[str, dict]:
        """calls, total and self nanoseconds per wrapped function."""
        child = [0] * len(self)
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        for i in range(len(self)):
            entry = out[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child[i]
        return out

    def root_ns(self) -> int:
        return sum(self.end[i] - self.start[i] for i in range(len(self)) if self.parent[i] < 0)

    def count(self, name: str, parent_name: str | None = None) -> int:
        want = self.names.index(name)
        if parent_name is None:
            return sum(1 for n in self.name_id if n == want)
        want_parent = self.names.index(parent_name)
        return sum(1 for i, n in enumerate(self.name_id)
                   if n == want and self.parent[i] >= 0
                   and self.name_id[self.parent[i]] == want_parent)

    def errors(self) -> dict[str, int]:
        """Exceptions raised through a wrapped function, by function and type."""
        out: dict[str, int] = {}
        for i, e in enumerate(self.exc):
            if e >= 0:
                key = f"{self.names[self.name_id[i]]}:{self.exc_types[e]}"
                out[key] = out.get(key, 0) + 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\trequest\texception\n")
            for i in range(len(self)):
                e = self.exc[i]
                out.write(f"{self.names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                          f"{self.parent[i]}\t{self.request[i]}\t"
                          f"{self.exc_types[e] if e >= 0 else ''}\n")


def _resolve(target: str):
    module_name, *path = target.split(".")
    owner = sys.modules[f"{PACKAGE}.{module_name}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]
