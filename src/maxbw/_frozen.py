"""Frozen value types on one small base.

The standard library's class generator imports `inspect` and compiles
methods for each class: several milliseconds of every cold CLI command. A
value type here lists its fields in `__slots__`, in parameter order (slots
named with a leading "_" stay outside equality, hashing and repr). Its
`__init__` validates the arguments, then passes every slot's value, in slot
order, to `Frozen.__init__`, the one place that stores fields.
"""

from operator import attrgetter


class Frozen:
    """Equality, hashing, repr, immutability and pickling over the fields."""

    __slots__ = _slots = _stores = ()

    def __init_subclass__(cls):
        cls._slots += tuple(cls.__dict__.get("__slots__", ()))  # a subclass extends its parent's
        cls._fields = tuple(name for name in cls._slots if name[0] != "_")
        cls._key = attrgetter(*cls._fields)
        # each slot's own setter, which __setattr__ below does not pass through
        cls._stores = tuple(getattr(cls, name).__set__ for name in cls._slots)

    def __init__(self, *values):
        """Store one value per slot, in slot order."""
        stores = self._stores
        if len(values) != len(stores):  # cheaper than zip(..., strict=True), and as strict
            raise TypeError(f"{self.__class__.__qualname__} stores {len(stores)} slots, "
                            f"got {len(values)} values")
        for store, value in zip(stores, values):
            store(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # every slot as it is, where __init__ would normalize the arguments again
        return _rebuild, (self.__class__, tuple(map(self.__getattribute__, self._slots)))


def _rebuild(cls, values):
    obj = object.__new__(cls)
    Frozen.__init__(obj, *values)
    return obj


def replace(obj, **changes):
    """A copy of obj with the given fields changed, validated as a new value."""
    fields = {name: getattr(obj, name) for name in obj._fields}
    return obj.__class__(**{**fields, **changes})
