"""Config fields declared once: each one's unit, default and range.

A field that a scenario file may set is declared on its dataclass with
:func:`param`.  :class:`Checked` reads those declarations to list every
field out of range, and the CLI reads them for units, integer fields
and the keys a file may use.
"""
from __future__ import annotations

import operator
from dataclasses import MISSING, Field, field, fields

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def param(unit: str, default=MISSING, bounds: str = ""):
    """A settable field.

    ``unit`` names the dimension its file value converts from ("length",
    "speed", ...; "plain" when dimensionless).  ``bounds`` is the range
    as ``"<op> <limit>"``, e.g. ``"> 0"``; empty means any finite value.
    """
    return field(default=default, metadata={"unit": unit, "bounds": bounds})


def settable(cls) -> dict[str, Field]:
    """The fields of a dataclass (or instance) declared with :func:`param`,
    by name."""
    return {f.name: f for f in fields(cls) if "unit" in f.metadata}


def parts(obj) -> list[tuple[str, Checked]]:
    """``(field name, value)`` of each field of ``obj`` that is itself checked."""
    return [(f.name, getattr(obj, f.name)) for f in fields(obj)
            if isinstance(getattr(obj, f.name), Checked)]


class Checked:
    """Range checks read from the :func:`param` declarations."""

    def issues(self) -> list[tuple[str, str]]:
        """``(field, problem)`` for every field outside its declared range."""
        out = []
        for f in settable(self).values():
            if not f.metadata["bounds"]:
                continue
            op, limit = f.metadata["bounds"].split()
            value = getattr(self, f.name)
            if not _OPS[op](value, float(limit)):
                out.append((f.name, f"must be {op} {limit}, got {value}"))
        return out

    def validate(self) -> None:
        """Raise ``ValueError`` naming every field :meth:`issues` lists."""
        problems = self.issues()
        if problems:
            raise ValueError("; ".join(f"{name} {problem}" for name, problem in problems))
