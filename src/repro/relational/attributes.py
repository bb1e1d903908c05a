"""Attributes and attribute sets.

The paper writes relation schemes as strings of single-letter attributes
(``ABC`` denotes the scheme ``{A, B, C}``).  This module provides the
:func:`attrs` constructor that accepts both that compact notation and
explicit collections of (possibly multi-character) attribute names, and
the :class:`AttributeSet` type -- a frozenset subclass with set algebra
plus the paper's vocabulary (``is_linked_to`` for nonempty intersection of
attribute sets).

An *attribute* is simply a nonempty string.  Domains are left implicit:
relation states may hold any hashable Python values.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Union

from repro.errors import SchemaError

__all__ = ["AttributeSet", "attrs", "format_attrs", "AttrsLike"]

#: Anything convertible to an :class:`AttributeSet` by :func:`attrs`.
AttrsLike = Union[str, Iterable[str], "AttributeSet"]


class AttributeSet(FrozenSet[str]):
    """An immutable set of attribute names.

    Subclasses ``frozenset`` so the whole set API is available; the binary
    set operators are overridden to preserve the subclass type::

        >>> attrs("ABC") & attrs("BCD")
        AttributeSet('BC')
    """

    __slots__ = ()

    def __new__(cls, names: Iterable[str] = ()) -> "AttributeSet":
        names = tuple(names)
        for name in names:
            if not isinstance(name, str) or not name:
                raise SchemaError(
                    f"attribute names must be nonempty strings, got {name!r}"
                )
        return super().__new__(cls, names)

    # -- set algebra preserving the subclass ------------------------------

    def __or__(self, other: Iterable[str]) -> "AttributeSet":
        return AttributeSet(frozenset.__or__(self, frozenset(other)))

    def __and__(self, other: Iterable[str]) -> "AttributeSet":
        return AttributeSet(frozenset.__and__(self, frozenset(other)))

    def __sub__(self, other: Iterable[str]) -> "AttributeSet":
        return AttributeSet(frozenset.__sub__(self, frozenset(other)))

    def __xor__(self, other: Iterable[str]) -> "AttributeSet":
        return AttributeSet(frozenset.__xor__(self, frozenset(other)))

    union = __or__
    intersection = __and__
    difference = __sub__

    # -- paper vocabulary --------------------------------------------------

    def is_linked_to(self, other: "AttributeSet") -> bool:
        """True when the two attribute sets share at least one attribute."""
        return bool(self & other)

    # -- presentation ------------------------------------------------------

    def sorted(self) -> tuple:
        """The attribute names in deterministic (lexicographic) order."""
        return tuple(sorted(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttributeSet({format_attrs(self)!r})"

    def __str__(self) -> str:
        return format_attrs(self)


def attrs(spec: AttrsLike) -> AttributeSet:
    """Build an :class:`AttributeSet` from a compact or explicit spec.

    * a string is read as the paper's compact notation -- one attribute per
      character: ``attrs("ABC") == {"A", "B", "C"}``;
    * any other iterable is taken as explicit attribute names:
      ``attrs(["student", "course"])``;
    * an existing :class:`AttributeSet` is returned unchanged.

    Raises :class:`~repro.errors.SchemaError` on empty input, because the
    paper's relation schemes are nonempty by definition.
    """
    if isinstance(spec, AttributeSet):
        result = spec
    elif isinstance(spec, str):
        result = AttributeSet(spec)
    else:
        result = AttributeSet(spec)
    if not result:
        raise SchemaError("a relation scheme must contain at least one attribute")
    return result


def format_attrs(attributes: Iterable[str]) -> str:
    """Render attributes compactly: ``ABC`` when all names are single
    characters (the paper's notation), ``{course, student}`` otherwise."""
    names = sorted(attributes)
    joined = "".join(names)
    # No empty name, and as many characters as names: each is one.
    if names and len(joined) == len(names) and "" not in names:
        return joined
    return "{" + ", ".join(names) + "}"
