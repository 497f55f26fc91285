"""Base of khab's immutable value classes.

A subclass names its fields in ``_fields`` and holds them in ``__slots__``.
The base ``__init__`` binds arguments to them as a written signature would
and sets each once; a subclass that validates calls it once they pass, and
one built on a hot path, or by keywords, writes its signature and sets its
slots itself, as a dataclass's generated ``__init__`` does.  The base
compares, hashes and prints an instance over those fields as a frozen
dataclass does: only instances of one class compare equal, ``repr`` reads
``Params(n=2, alpha=2.0)``, and setting or deleting an attribute raises
AttributeError.

Plain classes, not dataclasses, because ``import dataclasses`` (which
loads ``inspect``, ``ast``, ``dis`` and ``tokenize``) and building a
dataclass cost milliseconds at import, which every khab process would pay.
The dataclasses module still accepts every value: ``replace``, ``fields``,
``asdict`` and ``is_dataclass`` read ``__dataclass_fields__`` and
``__dataclass_params__``, which a class answers from a frozen dataclass of
its ``_fields``, built on the first read and kept per class.  ``replace``
rebuilds through the class's own ``__init__``, so its checks run again.
"""

from __future__ import annotations

from functools import cache


@cache
def _twin(cls: type) -> type:
    """The frozen dataclass of ``cls._fields``, built once per class."""
    from dataclasses import make_dataclass

    return make_dataclass(cls.__name__, cls._fields, frozen=True)


class _DataclassTwin:
    """A class attribute that reads its name off the reading class's twin."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object, cls: type) -> object:
        return getattr(_twin(cls), self.name)


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassTwin()
    __dataclass_params__ = _DataclassTwin()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """``args`` followed by the keywords of the later fields, in order."""
        names = self._fields
        rest = tuple(kwargs[name] for name in names[len(args):] if name in kwargs)
        # a missing or unknown name, or one bound twice or to no name
        if len(rest) != len(kwargs) or len(args) + len(rest) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes {names} once each, "
                            f"got {len(args)} positional, keywords {sorted(kwargs)}")
        return args + rest

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
