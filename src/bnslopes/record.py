"""The base of the package's immutable value records.

The records are plain classes with ``__slots__`` and hand-written
methods rather than dataclasses: ``@dataclass`` generates the source of
each method and ``exec``s it whenever the class is created, on every
import of the package, a cost that no bytecode cache saves.  One
constructor serves them all: it takes the fields positionally in
``_fields`` order, the order in which ``__reduce__`` hands them back.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Tuple

__all__ = ["Record"]


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in constructor order in ``_fields`` and
    keeps each in a slot of that name: its ``__slots__`` are its
    ``_fields``, so a record holds no hidden state.  The constructor
    takes one value per field, positionally in ``_fields`` order, and
    sets each once through ``object.__setattr__``, since assigning or
    deleting an attribute of a record raises ``AttributeError``.  A
    subclass defines its own ``__init__`` only to validate, and then
    passes every field on to ``super().__init__``.  Two records are
    equal when they have the same type and equal field tuples, and a
    record hashes by its field tuple.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the field tuple of a record, read by one C call
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values: object) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__}({', '.join(fields)}) takes {len(fields)} values; got {len(values)}"
            )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor
        return type(self), self._key(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
