"""Value classes on ``__slots__``: repr, equality, hash and pickling from the fields.

The fields are a class's ``__slots__``, in constructor order. A ``Record``
is mutable and unhashable; a ``Frozen`` one refuses assignment and hashes
what it compares. Both behave like the dataclasses they replace, without
importing ``dataclasses`` (and with it ``inspect``) or generating code at
import time, a cost every CLI request paid at start-up.
"""

from __future__ import annotations


class Record:
    """Fields in ``__slots__``; ``==`` compares ``_key()``, the repr shows every field."""

    __slots__ = ()
    __hash__ = None  # mutable, so unhashable, as a dataclass with eq=True

    def _fill(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        return self._values()

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())


class Frozen(Record):
    """An immutable Record: assignment raises AttributeError, hash follows ``==``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())
