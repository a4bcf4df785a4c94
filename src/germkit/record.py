"""The shared base of germkit's small value classes.

Every germkit command imports the whole package before it computes, so
these classes are written out by hand instead of built by `dataclasses`,
whose import (with `inspect`, `ast` and `dis`) cost more than the
computation of a typical command.
"""


class Record:
    """A value class whose fields are its `__slots__`, in order.

    A subclass lists its fields in `__slots__` and writes an `__init__`
    that validates its arguments and hands the field values, in slot order,
    to `Record.__init__`. Records of the same class are equal when their
    fields are; the repr is `Name(field=value, ...)`; pickling rebuilds a
    record through its constructor. A Record is mutable and unhashable; a
    FrozenRecord is hashable and refuses assignment.
    """

    __slots__ = ()
    __hash__ = None

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__),
        )

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A Record whose fields are set once, by its constructor."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
