"""The one JSON reader: every ``parse_*`` reader in the package is
``<x>_from_dict(load_document(data))``, so all formats share its rules.

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
arguments builds a new one per call.  :class:`SchemaError` and the
rational parser live here too, so the engine modules share them without
importing one another.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from json import JSONDecodeError, JSONDecoder
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


def fraction_from_json(value: object, location: str) -> Fraction:
    """A JSON rational: an int, a float (read from its shortest repr) or a
    string such as ``"3/10"``; anything else is a :class:`SchemaError`."""
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
