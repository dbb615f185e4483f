"""Immutable records, the base of every ringstab value and result type.

A record declares its fields as class annotations, in order; a class attribute
of the same name is a default.  ``Record`` reads the annotations once, when a
subclass is created, and supplies from shared methods: construction by
position or keyword followed by ``__post_init__``, immutability, equality and
hashing over the fields within one class, and ``repr``.  ``_fields`` lists the
field names.  Unlike ``dataclasses`` it generates no code.  The hot value
classes ``Poly``, ``QuadElem``, ``RingElement`` and ``TransferFunction``
define their own ``__init__``, which skips the argument binding.
"""

from operator import attrgetter


class Record:
    _fields = ()

    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__annotations__)
        # One name gives the bare value, several a tuple; a record without
        # fields reads its empty ``_fields``, so all its instances are equal.
        cls._values = attrgetter(*names) if names else attrgetter("_fields")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Validation once the fields are set; records override it."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """The field values of ``cls(*args, **kwargs)`` with defaults filled in; TypeError on a mistake."""
    names, given = cls._fields, len(args)
    values, defaults, used = list(args), vars(cls), 0
    for name in names[given:]:
        if name in kwargs:
            values.append(kwargs[name])
            used += 1
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls.__name__} is missing the field {name}")
    if given > len(names) or used < len(kwargs):  # too many, unknown or repeated arguments
        raise TypeError(f"{cls.__name__} takes the fields ({', '.join(names)}); got {given} "
                        f"positional and the keywords {', '.join(kwargs) or 'none'}")
    return values
