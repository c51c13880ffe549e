"""Immutable value records: slotted classes that compare, hash and print by their fields.

A subclass names its fields in ``_fields`` and gives them slots; its
class-level annotations document them.  ``_defaults`` maps each field a call
may leave out to the value it then gets.  The one ``__init__`` here binds
the fields by position, then by keyword, then from ``_defaults``, and writes
each once; a subclass that validates its arguments does so in its own
``__init__``, then calls this one.  Two records are equal only if they are
of the same class with equal fields; hashes, reprs
(``Name(field=value, ...)``), pickling and copying follow the fields.
Assigning or deleting an attribute raises ``AttributeError``.

The standard library's class generator would cost more to import, and to
generate each class with, than the rest of the package's start-up (see the
README).
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, object]) -> list:
        """One value per field, in field order: from ``args``, then ``kwargs``, then ``_defaults``."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, {len(args)} given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name} has no field {field!r}")
            if field in values:
                raise TypeError(f"{name} got field {field!r} twice")
            values[field] = value
        missing = [field for field in fields if field not in values and field not in cls._defaults]
        if missing:
            raise TypeError(f"{name} is missing field(s) {', '.join(missing)}")
        values = {**cls._defaults, **values}
        return [values[field] for field in fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()
