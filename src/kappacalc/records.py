"""Plain value records: the fields of a record class are its `__slots__`.

`Record` gives a subclass an `__init__` that takes the fields by position
or keyword, in `__slots__` order, with defaults from the class's
`_defaults` (a list or dict default is copied for each record, so no two
records share one), plus `__eq__` by class and field values and a
`__repr__` of the fields.  A `Record` is mutable and unhashable;
a `FrozenRecord` refuses assignment and hashes its field values.  Unlike
`dataclasses`, nothing is generated from source text at class creation, so
defining a record costs no more than defining a class.
"""
from __future__ import annotations


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                            f"arguments, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                if isinstance(value, (list, dict)):
                    value = value.copy()
            else:
                raise TypeError(f"{type(self).__name__}() missing argument "
                                f"{name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected or "
                            f"repeated argument {next(iter(kwargs))!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._values())
