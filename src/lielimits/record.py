"""Immutable records, the base of the library's value types.  The fields (`_fields`) are a
class's own annotations, in order, and class attributes their defaults.  A subclass that
checks its fields stores them in its own `__init__` through `self.__dict__`."""

from operator import attrgetter


class Record:
    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._values = attrgetter(*fields) if fields else staticmethod(lambda record: ())  # one field: its value

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        values = dict(zip(fields, args), **kwargs)  # shorter if args repeat or outnumber fields
        missing = [f for f in fields if f not in values and not hasattr(cls, f)]
        if missing or len(values) < len(args) + len(kwargs) or not values.keys() <= set(fields):
            raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(fields)}), got "
                            f"{len(args)} by position and ({', '.join(kwargs)}) by name")
        self.__dict__.update(values)

    def __eq__(self, other):
        return self._values(self) == other._values(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def _frozen(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __setattr__ = __delattr__ = _frozen
