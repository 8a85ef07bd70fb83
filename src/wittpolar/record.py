"""`Record`, the base of the package's immutable value classes.

A record's fields are its `__slots__`, which its `__init__` sets once
through `_set_fields` (or the slots' own setters).  Records equal
records of their exact class with equal fields and hash by their fields;
assigning or deleting any attribute raises AttributeError.  Copies and
pickles rebuild a record through its `__init__`, with its fields in
`__slots__` order as the arguments.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)

    def _set_fields(self, *values):
        """Set the fields, in `__slots__` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
