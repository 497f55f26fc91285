"""Base of khab's immutable value classes.

A subclass names its fields in ``_fields`` and holds them in ``__slots__``.
The base ``__init__`` binds arguments to them as a written signature would
and sets each once; a subclass that validates calls it once they pass.  The
base compares, hashes and prints an instance over those fields as a frozen
dataclass does: only instances of one class compare equal, ``repr`` reads
``Params(n=2, alpha=2.0)``, and setting or deleting an attribute raises
AttributeError.  Plain classes, not dataclasses, because building a
dataclass costs a few tenths of a millisecond at import, which every khab
process pays.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        # a missing or unknown name, or one bound twice or to no name
        if values.keys() != set(names) or len(values) != len(args) + len(kwargs):
            raise TypeError(f"{type(self).__qualname__}() takes {names} once each, "
                            f"got {len(args)} positional, keywords {sorted(kwargs)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
