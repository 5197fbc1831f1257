"""Input boundary: every JSON document is decoded here and every record read
here.  A record shaped like its dataclass (an instrument, a saved report's
results) is read by :func:`read` through the dataclass's annotations; the
other loaders take each field through the checks below.  Each raises
DefinitionError naming the offending place, so malformed input lets no
other exception out."""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, fields as dataclass_fields, is_dataclass
from enum import EnumMeta
from functools import cache
from numbers import Integral, Real
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

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


_SCALARS = {float: number, int: integer, str: string, bool: boolean}
#: A JSON object key that names an int: the text str() writes for it.
_INT_KEY = re.compile(r"0|-?[1-9][0-9]*")
#: A dataclass's annotations, resolved on its first read.
hints = cache(get_type_hints)


@cache
def _required(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclass_fields(cls)
                 if f.default is MISSING and f.default_factory is MISSING)


def _int_key(key, context: str) -> int:
    if not (isinstance(key, str) and _INT_KEY.fullmatch(key)):
        raise DefinitionError(f"{context} key {key!r} must be an integer as str() writes it")
    return int(key)


def read(tp, value, context: str):
    """``value`` read as the annotation ``tp``: a scalar (returned as given), an
    enum, a dataclass (no unknown key, no missing field without a default; its
    constructor makes the checks not about types), ``X | None``, ``tuple[X, ...]``
    or ``Mapping[str | int, X]``.  Errors give the path (``instrument.items[2].kano``)."""
    if tp in _SCALARS:
        _SCALARS[tp](value, context)
        return value
    if isinstance(tp, EnumMeta):
        try:
            return tp(value)
        except ValueError:
            raise DefinitionError(f"{context} {value!r} is not one of: "
                                  f"{', '.join(member.value for member in tp)}") from None
    if is_dataclass(tp):
        types = hints(tp)
        fields(value, context, types, _required(tp))
        return tp(**{name: read(types[name], v, f"{context}.{name}")
                     for name, v in value.items()})
    origin, args = get_origin(tp), get_args(tp)
    if type(None) in args:
        return None if value is None else read(args[0], value, context)
    if origin is tuple:
        return tuple(read(args[0], v, f"{context}[{at}]")
                     for at, v in enumerate(array(value, context)))
    key = _int_key if args[0] is int else string  # a Mapping
    return {key(k, context): read(args[1], v, f"{context}[{k!r}]")
            for k, v in mapping(value, context).items()}
