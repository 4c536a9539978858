"""Frozen records: the base class of the library's result types.

A subclass lists its fields as annotations, in order; a class attribute of
the same name is that field's default.  When the subclass is created it gets
an `__init__` that takes the fields positionally or by keyword, sets them and
then runs the class's `__post_init__`, if it has one.  Instances refuse
assignment and deletion, compare equal only to instances of the same class
with equal fields, hash as the tuple of their fields and print as
`Qualname(field=value!r, ...)`.  These are the methods the standard library's
frozen data classes generate, here made of closures instead of generated
source, so that importing the package loads neither that module nor the
introspection and parsing modules it pulls in.

Each class resolves its field getter and `__post_init__` once, when it is
created.  Fields are set with `object.__setattr__`, as the generated methods
set them: writing through `self.__dict__` instead would give every instance
a dict of its own and double the cost of each later attribute read.
"""

from operator import attrgetter

__all__ = ["Record"]

_setattr = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        if fields[len(fields) - len(defaults):] != tuple(defaults):
            raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
        names = frozenset(fields)
        post_init = getattr(cls, "__post_init__", None)
        if len(fields) == 1:  # attrgetter of one name returns the value, not a 1-tuple
            get = attrgetter(*fields)

            def values(record):
                return (get(record),)
        else:
            values = attrgetter(*fields)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(fields):
                args = _bind(cls, fields, names, defaults, args, kwargs)
            for name, value in zip(fields, args):
                _setattr(self, name, value)
            if post_init is not None:
                post_init(self)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        for method in (__init__, __eq__, __hash__):
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
        cls._fields = fields

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with `changes` applied to its fields; `__post_init__` runs again."""
        return self.__class__(**{**{name: getattr(self, name) for name in self._fields}, **changes})


def _bind(cls, fields, names, defaults, args, kwargs) -> list:
    """The field values of a call that names fields or leaves defaults out.
    A call that gives too many, unknown, repeated or too few is a TypeError."""
    values = {**defaults, **dict(zip(fields, args)), **kwargs}
    if len(args) > len(fields) or values.keys() != names or not kwargs.keys().isdisjoint(fields[:len(args)]):
        raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(fields)}; "
                        f"got {len(args)} positional and the keywords {', '.join(kwargs) or 'none'}")
    return [values[f] for f in fields]
