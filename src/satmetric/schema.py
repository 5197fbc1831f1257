"""Input boundary: every JSON document is decoded here and every record read
here.  Each document (an instrument, a weights, house-of-quality or fishbone
file, a saved report) is read by :func:`read` through the annotations of a
dataclass shaped like its JSON; the loaders keep only the checks that are not
about types.  Each raises DefinitionError naming the offending place by its
path, so malformed input lets no other exception out.  :func:`write` turns a
dataclass back into the JSON data that :func:`read` takes."""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Container, Iterable, Mapping
from dataclasses import MISSING, fields as dataclass_fields, is_dataclass
from enum import Enum, EnumMeta
from functools import cache
from numbers import Integral, Real
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

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


def fields(doc, context: str, allowed: Container[str], required: Iterable[str] = ()) -> None:
    """Check a record: an object with keys only from ``allowed`` and every
    ``required`` key ("instrument.items[2]: unknown fields ['note']")."""
    extra = [key for key in mapping(doc, context) if key not in allowed]
    if extra:
        raise DefinitionError(f"{context}: unknown fields {sorted(extra, key=str)}")
    absent = [key for key in required if key not in doc]
    if absent:
        raise DefinitionError(f"{context}: missing field {absent[0]!r}")


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
    """``value`` as a float: a finite real number, not a bool.  It is converted
    before the range check, so a numpy float is never compared with a Python
    one and an int or a Fraction beyond the float range is refused."""
    try:
        real = float(value) if type(value) in (float, int) or \
            isinstance(value, Real) and type(value) is not bool else math.nan
    except OverflowError:
        real = math.inf
    if not abs(real) <= sys.float_info.max:  # False for NaN
        raise DefinitionError(f"{context} must be a finite number, got {value!r}")
    if minimum is not None and real < minimum:
        raise DefinitionError(f"{context} must be >= {minimum}, got {real}")
    return real


def integer(value, context: str, minimum: int | None = None) -> int:
    """``value`` as an int: an integer, not a bool."""
    if not (type(value) is int or isinstance(value, Integral) and type(value) is not bool):
        raise DefinitionError(f"{context} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DefinitionError(f"{context} must be >= {minimum}, got {value}")
    return int(value)


_SCALARS = {float: number, int: integer, str: string, bool: boolean}
#: The types of the values that read and write return as they are.
_PLAIN = frozenset((float, int, str, bool, type(None)))
#: A JSON object key that names an int: the text str() writes for it.
_INT_KEY = re.compile(r"0|-?[1-9][0-9]*")
#: A dataclass's annotations, resolved on its first read.
hints = cache(get_type_hints)


def _int_key(key, context: str) -> int:
    if not (isinstance(key, str) and _INT_KEY.fullmatch(key)):
        raise DefinitionError(f"{context} key {key!r} must be an integer as str() writes it")
    return int(key)


@cache
def _form(tp) -> tuple[str, object]:
    """How :func:`read` takes the annotation ``tp``, worked out on its first read."""
    if tp in _SCALARS:
        return "scalar", _SCALARS[tp]
    if isinstance(tp, EnumMeta):
        return "enum", None
    if is_dataclass(tp):
        return "record", (hints(tp), [f.name for f in dataclass_fields(tp)
                                      if f.default is MISSING and f.default_factory is MISSING])
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):  # X | Y or Optional[X]: has None, has str, the other
        return "union", (type(None) in args, str in args,
                         next((a for a in args if a not in (str, type(None))), str))
    return ("tuple", args[0]) if origin is tuple else ("mapping", args)


def _data(value, context: str):
    """``value`` as JSON data, made of plain Python values: an object with
    string keys (a dict), a list or tuple (a list), a string, true, false,
    null and finite numbers (an int, or a float for any other real number,
    such as a numpy float).  Anything else, and a container that holds
    itself, is refused by its path, the first in document order that the
    walk meets.  It walks with a stack, not by recursion, so no depth that
    JSON can hold raises RecursionError."""
    root = [None]
    stack = [(value, root, 0, context, 0)]  # (value, its container, its slot there, path, depth)
    within: list[int] = []  # the ids of the containers that hold the value, outermost first
    while stack:
        value, into, slot, path, depth = stack.pop()
        del within[depth:]
        if value is None or type(value) in (str, bool, int):
            into[slot] = value
        elif isinstance(value, Integral):
            into[slot] = int(value)
        elif isinstance(value, Real):
            into[slot] = number(value, path)
        elif isinstance(value, (Mapping, list, tuple)):
            if id(value) in within:
                raise DefinitionError(f"{path} holds itself")
            within.append(id(value))
            if isinstance(value, Mapping):
                for key in value:
                    if type(key) is not str:
                        raise DefinitionError(f"{path} key {key!r} must be a string")
                into[slot] = out = dict.fromkeys(value)  # keeps the key order
                keys = list(out)
            else:
                into[slot] = out = [None] * len(value)
                keys = range(len(value))
            stack.extend((value[key], out, key, f"{path}[{key!r}]", depth + 1)
                         for key in reversed(keys))
        else:
            raise DefinitionError(f"{path} must be JSON data (an object, a list, a string, "
                                  f"a finite number, true, false or null), got {value!r}")
    return root[0]


def read(tp, value, context: str):
    """``value`` read as the annotation ``tp``: ``object`` (JSON data, see
    :func:`_data`), a scalar (an int, float, str or bool returned as given,
    any other accepted number, such as a numpy scalar, as its checker's int
    or float), an enum, a dataclass (no unknown key, no missing field without
    a default; its constructor makes the checks not about types), a union of
    ``None``, ``str`` and one other type (the member is chosen by the value's
    JSON kind), ``tuple[X, ...]`` or ``Mapping[str | int, X]``.  Errors give
    the path (``instrument.items[2].kano``)."""
    if tp is object:
        return _data(value, context)
    form, detail = _form(tp)
    if form == "scalar":
        checked = detail(value, context)
        return value if type(value) in _PLAIN else checked
    if form == "enum":
        try:
            return tp(value)
        except ValueError:
            raise DefinitionError(f"{context} {value!r} is not one of: "
                                  f"{', '.join(member.value for member in tp)}") from None
    if form == "record":
        types, required = detail
        fields(value, context, types, required)
        return tp(**{name: read(types[name], v, f"{context}.{name}")
                     for name, v in value.items()})
    if form == "union":
        optional, text, other = detail
        if value is None and optional or isinstance(value, str) and text:
            return value
        return read(other, value, context)
    if form == "tuple":
        return tuple(read(detail, v, f"{context}[{at}]")
                     for at, v in enumerate(array(value, context)))
    key = _int_key if detail[0] is int else string  # a Mapping
    return {key(k, context): read(detail[1], v, f"{context}[{k!r}]")
            for k, v in mapping(value, context).items()}


def write(value):
    """``value`` as JSON-ready data, the shape :func:`read` takes: a dataclass as
    a dict of its fields in declaration order, a tuple or a list as a new list,
    a dict as a new dict, an enum as its value.  No container of the result is
    one of ``value``'s, so editing the result leaves ``value`` as it was."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Enum):  # tested first: is_dataclass costs more when it misses
        return value.value
    if is_dataclass(value):
        return {name: v if type(v := getattr(value, name)) in _PLAIN else write(v)
                for name in hints(type(value))}
    if isinstance(value, dict):
        return {key: write(v) for key, v in value.items()}
    return [write(v) for v in value] if isinstance(value, (tuple, list)) else value
