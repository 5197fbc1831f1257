"""Input boundary: every JSON document is decoded here, and the loaders take
every field through these checks.  Each raises DefinitionError naming the
offending place, so malformed input lets no other exception out."""

from __future__ import annotations

import json
import re
import sys
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, Mapping

from .errors import DefinitionError


#: Where a string can get a lone surrogate: a ``\uD800``-``\uDFFF`` escape.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a finite number")


def parse_json(data: bytes | str, name: str):
    """Decode UTF-8 JSON (a leading byte-order mark is skipped); the
    ``NaN``/``Infinity`` literals and strings that UTF-8 cannot encode (a
    lone surrogate escape) are rejected."""
    try:
        text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
        doc = json.loads(text, parse_constant=_reject_constant)
        if _SURROGATE_ESCAPE.search(text):  # raises UnicodeEncodeError on a lone one
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise DefinitionError(f"{name} is not valid JSON ({exc})") from None


def read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DefinitionError(f"cannot read {path}: {exc.strerror}") from None


def read_json(path):
    return parse_json(read_bytes(path), str(path))


def _check(doc, allowed: Iterable[str], required: Iterable[str],
           not_object: str, unknown: str, missing: str) -> None:
    if not isinstance(doc, Mapping):
        raise DefinitionError(not_object)
    extra = sorted(set(doc) - set(allowed), key=str)
    if extra:
        raise DefinitionError(unknown + str(extra))
    absent = [key for key in required if key not in doc]
    if absent:
        raise DefinitionError(missing + repr(absent[0]))


def document(doc, kind: str, allowed: Iterable[str], required: Iterable[str] = ()) -> None:
    """Check a document or section: an object with keys only from ``allowed``
    and every ``required`` key ("unknown instrument fields: ['extra']")."""
    _check(doc, allowed, required, f"{kind} definition must be a JSON object",
           f"unknown {kind} fields: ", f"missing {kind} field ")


def fields(doc, context: str, allowed: Iterable[str], required: Iterable[str] = ()) -> None:
    """Check a record as :func:`document` does; errors start with its
    location ("item at position 3: unknown fields ['note']")."""
    _check(doc, allowed, required, f"{context} must be an object",
           f"{context}: unknown fields ", f"{context}: missing field ")


def array(value, context: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise DefinitionError(f"{context} must be a list")
    return value


def string(value, context: str) -> str:
    if not isinstance(value, str):
        raise DefinitionError(f"{context} must be a string, got {value!r}")
    return value


def boolean(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise DefinitionError(f"{context} must be true or false, got {value!r}")
    return value


def mapping(value, context: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise DefinitionError(f"{context} must be an object")
    return value


def number(value, context: str, minimum: float | None = None) -> float:
    """``value`` as a float: a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real) \
            or not abs(value) <= sys.float_info.max:  # False for NaN
        raise DefinitionError(f"{context} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise DefinitionError(f"{context} must be >= {minimum}, got {float(value)}")
    return float(value)


def integer(value, context: str, minimum: int | None = None) -> int:
    """``value`` as an int: an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DefinitionError(f"{context} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DefinitionError(f"{context} must be >= {minimum}, got {value}")
    return int(value)
