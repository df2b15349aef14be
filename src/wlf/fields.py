"""Typed, ranged readers for every JSON leaf of wlf's files and configs.

A reader takes a value and its key path (``boxes[2].bounds[3]``,
``dcs.window``) and returns the value, or raises a ValueError whose message
starts with the path; ``within`` prefixes a caller's key, and a file's reader
adds the file. A config dataclass declares each field's range with the field
(``leaf``) for ``check_fields``. This module imports nothing from wlf.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import field, fields
from functools import partial

__all__ = ["integer", "number", "name", "listof", "mapping", "within", "leaf", "check_fields"]

# Ids, columns and image sizes are stored as int32 or compared as float64.
INT32_MAX = 2**31 - 1
# int and float come first: the numbers ABCs are slow, and only numpy's types need them.
_INTEGRAL, _REAL = (int, numbers.Integral), (float, int, numbers.Real)


def integer(value, where: str, lo: int = 0, hi: int = INT32_MAX):
    """``value`` if it is an integer, not a bool, in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, _INTEGRAL) or not lo <= value <= hi:
        raise ValueError(f"{where} {value!r} is not an integer in [{lo}, {hi}]")
    return value


def number(value, where: str, lo=-math.inf, hi=math.inf, exclusive: bool = False):
    """``value`` if it is a number, not a bool, whose float is finite and in
    [lo, hi], or in (lo, hi) when ``exclusive``. An integer past 2**53 has no
    exact double, and JSON readers differ on its value (RFC 8259, section 6)."""
    exact = isinstance(value, float) or not isinstance(value, _INTEGRAL) or abs(value) <= 2**53
    real = isinstance(value, _REAL) and not isinstance(value, bool) and exact
    x = float(value) if real else math.nan
    if not (math.isfinite(x) and (lo < x < hi if exclusive else lo <= x <= hi)):
        span = f" in {'(' if exclusive else '['}{lo}, {hi}{')' if exclusive else ']'}"
        raise ValueError(f"{where} {value!r} is not a finite number"
                         + ("" if (lo, hi) == (-math.inf, math.inf) else span))
    return value


def name(value, where: str) -> str:
    """``value`` if it is a string that can name a directory entry."""
    if not isinstance(value, str) or value in ("", ".", "..") or "/" in value or "\0" in value:
        raise ValueError(f"{where} {value!r} is not a plain name")
    return value


def listof(value, where: str, read, k: int | None = None):
    """``value`` if it is a list (or a tuple) of ``k`` items, or of any number
    without ``k``, each of which ``read(item, f"{where}[i]")`` accepts."""
    if not isinstance(value, (list, tuple)) or k not in (None, len(value)):
        raise ValueError(f"{where} {value!r} is not a list" + (f" of {k}" if k else ""))
    for i, item in enumerate(value):
        read(item, f"{where}[{i}]")
    return value


def mapping(value, where: str, cls=None) -> dict:
    """``value`` if it is a JSON object, whose keys name fields of ``cls`` if given."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} {value!r} is not a JSON object")
    unknown = sorted(set(value) - {f.name for f in fields(cls)}) if cls else []
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}")
    return value


@contextmanager
def within(where: str):
    """Prefix ``where`` to the key path that starts a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}.{exc}") from exc


def leaf(default, lo=-math.inf, hi=math.inf, *, exclusive: bool = False):
    """A dataclass field with ``default`` that ``check_fields`` reads as of its
    default's kind: a string, or an integer or number in [lo, hi] ((lo, hi)
    when ``exclusive``), or a tuple (a list is unhashable) of as many."""
    kind = default[0] if isinstance(default, tuple) else default
    read = (partial(_of_type, kind=str) if isinstance(kind, str)
            else partial(integer, lo=lo, hi=hi) if isinstance(kind, int)
            else partial(number, lo=lo, hi=hi, exclusive=exclusive))
    if isinstance(default, tuple):
        read = partial(_of_type, kind=tuple, then=partial(listof, read=read, k=len(default)))
    return field(default=default, metadata={"read": read})


def _of_type(value, where: str, kind: type, then=None):
    if not isinstance(value, kind):
        raise ValueError(f"{where} {value!r} is not a {kind.__name__}")
    return then(value, where) if then else value


def check_fields(obj) -> None:
    """ValueError, naming the field, unless each ``leaf`` field of ``obj`` fits."""
    for f in fields(obj):
        if "read" in f.metadata:
            f.metadata["read"](getattr(obj, f.name), f.name)
