"""Immutable value records: slotted classes that compare, hash and print by their fields.

A subclass names its fields in ``_fields``, in ``__init__`` order, gives them
slots and writes them once with ``object.__setattr__``.  Two records are equal
only if they are of the same class with equal fields; hashes, reprs
(``Name(field=value, ...)``), pickling and copying follow the fields.
Assigning or deleting an attribute raises ``AttributeError``.

Each record spells out its ``__init__``: the standard library's class
generator costs more to import, and to generate each class with, than the
rest of the package's start-up (see the README).
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

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
