"""Immutable records with the behaviour of frozen dataclasses, built without
generating code.

``@record`` takes a class's fields, in order, from its own annotations
(only the names are read) and their defaults from class attributes.  It
gives the class an ``__init__`` taking the fields by position or keyword,
which then calls ``__post_init__`` if the class has one; equality with the
same class and a hash, both on the tuple of fields; the repr
``Name(field=value, ...)``; and no assignment or deletion.  These are the
values a frozen dataclass gives, so reports and set orders do not depend on
which of the two built a class.  Fields live in the instance ``__dict__``,
so ``functools.cached_property`` views work on records."""

from __future__ import annotations

from operator import itemgetter


class FrozenRecordError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Frozen:
    """Refuses assignment and deletion; the base of records written out by
    hand, which set their slots through the slot descriptors.

    Such a record names its fields in ``_fields``; a field may be a view of
    the slots, read through ``getattr``.  The repr ``Name(field=value,
    ...)`` and pickling (the class called with the field values) are read
    off those names."""

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self._fields)


def record(cls):
    """Make ``cls`` an immutable record of its annotated fields."""
    names = tuple(cls.__annotations__)  # the class's own, from Python 3.10 on
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        d = self.__dict__
        d.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                d[name] = kwargs.pop(name)
            elif name in defaults:
                d[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        if post_init:
            self.__post_init__()

    # the field tuple of an instance dict; itemgetter gives a tuple for two or more
    fields = itemgetter(*names) if len(names) > 1 else lambda d: tuple([d[n] for n in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self.__dict__) == fields(other.__dict__)

    def __hash__(self):
        return hash(fields(self.__dict__))

    def __repr__(self):
        d = self.__dict__
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={d[n]!r}' for n in names)})"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = Frozen.__setattr__, Frozen.__delattr__
    cls._fields = names
    return cls
