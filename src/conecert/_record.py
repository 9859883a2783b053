"""Base of the package's immutable value records.

A record lists its fields in ``__slots__`` and sets them in its own
``__init__``, one by one with ``_set(self, name, value)`` or all from the
like-named parameters with ``_fill(self, locals())``; assigning a field
afterwards raises ``AttributeError``.  Two records of the same class are
``==`` when their field tuples are, ``hash`` hashes the field tuple, and
``repr`` reads ``Name(field=value, ...)``.  No code is generated when a
record class is defined.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _fill(record: object, values: dict) -> None:
    """Set each slot of ``record`` to the entry of ``values`` with its name."""
    for name in record.__slots__:
        _set(record, name, values[name])


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        getter = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter of one name returns the value, not a 1-tuple
            cls._fields = staticmethod(lambda record: (getter(record),))
        else:
            cls._fields = staticmethod(getter)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
