"""The one JSON reader, the one JSON writer and the one memo descriptor.

Every ``parse_*`` reader in the package reads its document with
:func:`load_document`, so all formats share its rules.

* Bytes are decoded as UTF-8; a bad byte raises :class:`UnicodeDecodeError`,
  and nesting deeper than the interpreter's stack raises :class:`RecursionError`.
* An empty or whitespace-only document is ``$: empty document``.
* Malformed JSON is ``line N: not valid JSON: ...`` with the decoder's text.
* ``NaN``, ``Infinity``, ``-Infinity`` and numbers that overflow a float,
  such as ``1e999``, are rejected: none is JSON (RFC 8259), and a value
  read from them could not be written back as JSON.
* So is an integer longer than the interpreter's limit for integer string
  conversion (``sys.get_int_max_str_digits()``, 4300 digits by default).

The decoder is built once, at import, because ``json.loads`` with keyword
arguments builds a new one per call.  :class:`SchemaError`, the rational
parser and :func:`located`, which reports a record's own ``ValueError`` at
the record's location, live here too, so the engine modules share them
without importing one another.

The readers check the JSON type of a value with one of two functions,
which hold the only wording of that error: :func:`expect` for a document
or an array element (``$.rules[2]: expected an object``) and :func:`field`
for a named field (``$.rules[2].name: 'name' must be a string``).

Every JSON document the package writes is :func:`dumps` of it, equal
byte for byte to ``json.dumps(doc, indent=2, sort_keys=True)``.  It is a
small recursive emitter over the C string encoder, because ``indent``
sends ``json.dumps`` to its pure-Python encoder, which costs more than
most requests.  :func:`append_json` is its step, for a writer that joins
pieces formatted ahead of time (``grammar-generate``'s, in ``cli``).

Derived values of the frozen records are memoised with :class:`cached`,
and :func:`fields_only` keeps them out of a record's pickle and copies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields
from fractions import Fraction
from json import JSONDecodeError, JSONDecoder
from json.encoder import encode_basestring_ascii
from typing import NoReturn


class SchemaError(ValueError):
    """A document does not conform to the on-disk schema.

    ``location`` is a dotted/indexed path into the offending document,
    e.g. ``"flows[3].source"``.
    """

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message


def _not_finite(literal: str) -> NoReturn:
    raise SchemaError(f"not valid JSON: {literal} is not a finite number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        _not_finite(literal)
    return value


_DECODER = JSONDecoder(parse_float=_finite_float, parse_constant=_not_finite)


def load_document(data: bytes | str) -> object:
    """Decode and parse one JSON document under the rules above."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if not data or data.isspace():
        raise SchemaError("empty document")
    try:
        if data.startswith("\ufeff"):  # the message json.loads gives
            raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", data, 0)
        return _DECODER.decode(data)
    except JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", f"line {exc.lineno}") from exc
    except SchemaError:
        raise
    except ValueError as exc:  # the only other one: an integer too long to convert
        raise SchemaError(f"not valid JSON: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc


_KINDS = {str: "a string", list: "an array", dict: "an object", bool: "a boolean",
          int: "an integer"}


def expect(value: object, kind: type, location: str):
    """``value``, a document or an array element, if its JSON type is
    ``kind``; else ``<location>: expected <kind>``.  A decoded value's type
    is exact, so a boolean is never an integer."""
    if type(value) is not kind:
        raise SchemaError(f"expected {_KINDS[kind]}", location)
    return value


def field(doc: dict, key: str, kind: type, location: str, *default):
    """``doc[key]`` if its JSON type is ``kind``, a missing key reading as
    ``default`` when one is given; else ``<location>.<key>: '<key>' must
    be <kind>``."""
    value = doc.get(key, *default)
    if type(value) is not kind:
        raise SchemaError(f"'{key}' must be {_KINDS[kind]}", f"{location}.{key}")
    return value


def located(location: str, make, *args):
    """``make(*args)``, its ``ValueError`` raised as a :class:`SchemaError`
    at ``location``: how a record's own check reaches the document."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaError(str(exc), location) from exc


def fraction_from_json(value: object, location: str) -> Fraction:
    """A JSON rational: an int, a float (read from its shortest repr) or a
    string such as ``"3/10"`` or ``"1e-3"``; anything else is a
    :class:`SchemaError`.  So is a string whose reduced numerator or
    denominator has more digits than the integer limit above, which no
    report could print, and, before ``Fraction`` reads it, one whose
    exponent exceeds that limit: ``Fraction`` builds ``10 ** exponent``,
    which takes seconds from a few million on."""
    try:
        if isinstance(value, str):
            _, e, exponent = value.replace("E", "e").rpartition("e")
            if e and abs(int(exponent)) > (sys.get_int_max_str_digits() or math.inf):
                raise ValueError
            fraction = Fraction(value)
            str(fraction)  # a ValueError past the limit
            return fraction
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a valid rational: {value!r}", location) from exc
    raise SchemaError(f"not a valid rational: {value!r}", location)


def dumps(doc: object) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for finite values."""
    pieces: list[str] = []
    append_json(doc, "", "\n", pieces)
    return "".join(pieces)


def append_json(value: object, head: str, newline: str, pieces: list[str]) -> None:
    """Append ``value`` as indented JSON to ``pieces``, one piece per value:
    ``head`` is the separator and key before it, ``newline`` the line break
    and indentation of its own line."""
    if isinstance(value, str):
        pieces.append(head + encode_basestring_ascii(value))
    elif value is None:
        pieces.append(head + "null")
    elif value is True:
        pieces.append(head + "true")
    elif value is False:
        pieces.append(head + "false")
    elif isinstance(value, int):
        pieces.append(head + int.__repr__(value))
    elif isinstance(value, float):
        pieces.append(head + float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append(head + "{}")
            return
        inner = newline + "  "
        head += "{" + inner
        for key in sorted(value):
            append_json(value[key], head + encode_basestring_ascii(key) + ": ", inner, pieces)
            head = "," + inner
        pieces.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append(head + "[]")
            return
        inner = newline + "  "
        head += "[" + inner
        for item in value:
            append_json(item, head, inner, pieces)
            head = "," + inner
        pieces.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class cached:
    """``functools.cached_property`` without the lock that Python 3.11
    takes on every first access: the value is stored in the instance's
    ``__dict__``, where it shadows this descriptor from then on.  Being
    lock-free, two threads may both compute a value; each memoised value
    is a pure function of frozen fields, so either write stores an equal one."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def fields_only(record) -> dict:
    """A frozen record's ``__getstate__``: pickle and copy its fields
    alone, so its :class:`cached` values are rebuilt on first use."""
    return {f.name: getattr(record, f.name) for f in fields(record)}
