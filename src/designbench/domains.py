"""Scalar value domains shared by knowledge bases and grammar vocabularies.

A domain answers one question: does a given scalar belong to it?  Four
variants cover the artifact's needs: finite sets, closed numeric
intervals, named scalar types, and free-text constraint descriptions
(rules we cannot evaluate, treated as satisfied).  ``widen`` returns a
domain guaranteed to contain a value; unions keep widening sound when a
non-numeric value must join an interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .jsonio import SchemaError, cached, expect, fields_only

Scalar = Union[None, bool, int, float, str]
_SCALARS = (type(None), bool, int, float, str)

_TYPE_CHECKS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def is_number(value: Scalar) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def same_scalar(a: Scalar, b: Scalar) -> bool:
    """Equality that keeps booleans apart from 0/1."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def scalar_key(value: Scalar):
    """Total order over heterogeneous scalars, for deterministic output."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if is_number(value):
        return (2, value)
    return (3, value)


# A bool is looked up in a set as one of these stand-ins, never as itself,
# so that it meets neither 0 nor 1, while 1 still meets 1.0.
_BOOL_KEYS = {False: object(), True: object()}


@dataclass(frozen=True)
class SetDomain:
    """A finite set of scalars; :func:`domain_from_dict` checks that each
    member is one, and lookups need them hashable."""

    values: tuple[Scalar, ...]

    __getstate__ = fields_only

    @cached
    def _keys(self) -> frozenset:
        """The members, each bool as its stand-in in ``_BOOL_KEYS``."""
        return frozenset([_BOOL_KEYS[v] if type(v) is bool else v for v in self.values])

    def contains(self, value: Scalar) -> bool:
        """Whether some member is :func:`same_scalar` to ``value``.  A NaN
        equals no member, although a set lookup matches a NaN member by
        identity."""
        keys = self._keys
        try:
            found = (_BOOL_KEYS[value] if type(value) is bool else value) in keys
        except TypeError:  # unhashable, as a JSON array is: no scalar member equals it
            return False
        return found and value == value

    def widen(self, value: Scalar) -> "Domain":
        if self.contains(value):
            return self
        return SetDomain(tuple(sorted((*self.values, value), key=scalar_key)))


@dataclass(frozen=True)
class IntervalDomain:
    lower: float
    upper: float

    def contains(self, value: Scalar) -> bool:
        return is_number(value) and self.lower <= value <= self.upper

    def widen(self, value: Scalar) -> "Domain":
        if self.contains(value):
            return self
        if is_number(value):
            return IntervalDomain(min(self.lower, value), max(self.upper, value))
        return DomainUnion((self, SetDomain((value,))))


@dataclass(frozen=True)
class TypeDomain:
    """All values of a named scalar type ('bool', 'int', 'float', 'str')."""

    type_name: str

    def contains(self, value: Scalar) -> bool:
        return _TYPE_CHECKS[self.type_name](value)

    def widen(self, value: Scalar) -> "Domain":
        if self.contains(value):
            return self
        return DomainUnion((self, SetDomain((value,))))


@dataclass(frozen=True)
class DescribedDomain:
    """A constraint stated only as prose; membership cannot be decided,
    so every value is treated as expected."""

    description: str

    def contains(self, value: Scalar) -> bool:
        return True

    def widen(self, value: Scalar) -> "Domain":
        return self


@dataclass(frozen=True)
class DomainUnion:
    parts: tuple["Domain", ...]

    def contains(self, value: Scalar) -> bool:
        return any(p.contains(value) for p in self.parts)

    def widen(self, value: Scalar) -> "Domain":
        if self.contains(value):
            return self
        for i, part in enumerate(self.parts):
            if isinstance(part, SetDomain):
                widened = part.widen(value)
                return DomainUnion((*self.parts[:i], widened, *self.parts[i + 1:]))
        return DomainUnion((*self.parts, SetDomain((value,))))


Domain = Union[SetDomain, IntervalDomain, TypeDomain, DescribedDomain, DomainUnion]


def singleton(value: Scalar) -> SetDomain:
    return SetDomain((value,))


def domain_from_dict(doc: object, location: str) -> Domain:
    if len(expect(doc, dict, location)) != 1:
        raise SchemaError("domain must be a one-key object", location)
    key, payload = next(iter(doc.items()))
    if key in ("set", "any_of") and not expect(payload, list, f"{location}.{key}"):
        raise SchemaError(f"'{key}' must not be empty", f"{location}.{key}")
    if key == "set":
        for j, member in enumerate(payload):
            if not isinstance(member, _SCALARS):
                raise SchemaError("set members must be scalars", f"{location}.set[{j}]")
        return SetDomain(tuple(payload))
    if key == "interval":
        ok = (
            isinstance(payload, list)
            and len(payload) == 2
            and all(is_number(x) for x in payload)
            and payload[0] <= payload[1]
        )
        if not ok:
            raise SchemaError("'interval' takes finite [lower, upper] with lower <= upper",
                              f"{location}.interval")
        return IntervalDomain(payload[0], payload[1])
    if key == "type":
        if not isinstance(payload, str) or payload not in _TYPE_CHECKS:
            raise SchemaError(f"unknown type {payload!r}", f"{location}.type")
        return TypeDomain(payload)
    if key == "description":
        return DescribedDomain(expect(payload, str, f"{location}.description"))
    if key == "any_of":
        return DomainUnion(
            tuple(domain_from_dict(p, f"{location}.any_of[{i}]") for i, p in enumerate(payload))
        )
    raise SchemaError(f"unknown domain form {key!r}", location)

