"""Shared argument-validation and wire-document helpers.

Every public entry point of :mod:`repro` validates its arguments through the
small helpers in this module so that error messages are uniform and the
validation logic is tested in exactly one place.

The wire-document readers (:func:`doc_field`, :func:`fraction_field`)
raise a ``ValueError`` naming the field; the wire-format validators, which
live beside each format's writer and return problem strings instead of
raising, share the helpers at the end.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from fractions import Fraction
from typing import Any, Callable, Mapping, get_type_hints


def check_int(value: object, name: str, *, minimum: int | None = None,
              maximum: int | None = None) -> int:
    """Validate that *value* is an ``int`` within ``[minimum, maximum]``.

    Booleans are rejected even though ``bool`` subclasses ``int``: a caller
    passing ``True`` for a count is almost certainly a bug.

    Returns the validated integer so call sites can write
    ``n = check_int(n, "n", minimum=1)``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_class_params(n: int, d: int) -> tuple[int, int]:
    """Validate the network-class parameters ``(n, D)`` of ``N_n^D``.

    The paper (section 3) requires ``2 <= D <= n``; in addition every
    requirement quantifies over a set ``Y`` of ``D`` nodes drawn from
    ``V_n - {x}``, which needs ``D <= n - 1``.
    """
    n = check_int(n, "n", minimum=3)
    d = check_int(d, "D", minimum=2, maximum=n - 1)
    return n, d


def check_probability(value: object, name: str) -> float:
    """Validate a probability in ``[0, 1]``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a float, got {type(value).__name__}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_positive_float(value: object, name: str) -> float:
    """Validate a strictly positive finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a float, got {type(value).__name__}")
    value = float(value)
    if not value > 0.0 or value != value or value in (float("inf"),):
        raise ValueError(f"{name} must be a positive finite float, got {value}")
    return value


def check_nonnegative_float(value: object, name: str) -> float:
    """Validate a non-negative finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a float, got {type(value).__name__}")
    value = float(value)
    if not value >= 0.0 or value == float("inf"):
        raise ValueError(f"{name} must be a non-negative finite float, got {value}")
    return value


def is_a(value: object, kind: type | tuple[type, ...]) -> bool:
    """Whether JSON *value* is a *kind*, never counting ``bool`` as ``int``."""
    return isinstance(value, kind) and not isinstance(value, bool)


_KINDS = {str: "a string", int: "an integer", bool: "a boolean",
          dict: "a JSON object",
          (int, float, str): "a number or a fraction string"}


def doc_field(doc: Mapping[str, Any], key: str, kind, *, what: str,
              default: Any = None) -> Any:
    """``doc[key]`` if it is a *kind* (a bool is no number), else the
    ``ValueError`` naming the *what* document's *key*.

    An absent key gives *default*, or the ``ValueError`` when *default*
    is None: a field without a default is required.
    """
    if key not in doc:
        if default is None:
            raise ValueError(f"{what} missing field {key!r}")
        return default
    value = doc[key]
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind is not bool):
        raise ValueError(f"{what} field {key!r} must be {_KINDS[kind]}, "
                         f"got {type(value).__name__}")
    return value


def fraction_field(doc: Mapping[str, Any], key: str, *, what: str) -> Fraction:
    """``doc[key]`` as an exact fraction string, or the ``ValueError``
    naming the *what* document's *key*."""
    text = doc_field(doc, key, str, what=what)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} field {key!r} is not a fraction: "
                         f"{text!r}") from None


def required_fields(cls: type) -> dict[str, Any]:
    """Required fields of dataclass *cls* and their JSON types.

    The fields without a default, each with the type a document may carry
    for it (``float`` also admits ``int``).
    """
    hints = get_type_hints(cls)
    return {f.name: (int, float) if hints[f.name] is float else hints[f.name]
            for f in fields(cls) if f.default is MISSING}


def header_problems(doc: Mapping[str, Any], fmt: str,
                    version: int) -> list[str]:
    """Problems with a wire document's ``format``/``version`` header.

    Every versioned document opens with these two members; the list is
    empty when they declare *fmt* version *version*.
    """
    problems = []
    if doc.get("format") != fmt:
        problems.append(f"'format' must be {fmt!r}, got {doc.get('format')!r}")
    if doc.get("version") != version:
        problems.append(f"'version' must be {version}, "
                        f"got {doc.get('version')!r}")
    return problems


def jsonl_problems(text: str, check: Callable[[Any], list[str]]
                   ) -> tuple[list[Any], list[str]]:
    """Run *check* on every line of a JSONL document.

    Returns the documents *check* passed and every problem, prefixed
    ``line N:``; a blank or unparseable line is a problem too.
    """
    docs: list[Any] = []
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            problems.append(f"line {lineno}: blank line")
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: unparseable: {exc}")
            continue
        found = check(doc)
        problems.extend(f"line {lineno}: {p}" for p in found)
        if not found:
            docs.append(doc)
    return docs, problems
