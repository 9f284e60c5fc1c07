"""Frozen record classes whose methods are shared, not generated per class,
so that creating one costs next to nothing when a process starts."""


class FrozenRecordError(AttributeError):
    """An attempt to set or delete an attribute of a record."""


def _init(self, *args, **kwargs):
    cls = type(self)
    names, defaults = cls.__record_fields__, cls.__record_defaults__
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments, got {len(args)}")
    values = dict(zip(names, args))
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{cls.__qualname__}() got an unexpected argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__qualname__}() got two values for argument {name!r}")
    values.update(kwargs)
    missing = [name for name in names if name not in values and name not in defaults]
    if missing:
        raise TypeError(f"{cls.__qualname__}() missing arguments {missing}")
    self.__dict__.update({name: values[name] if name in values else defaults[name] for name in names})
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _repr(self):
    fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self.__record_fields__)
    return f"{type(self).__qualname__}({fields})"


def _values(self):
    return tuple(self.__dict__[name] for name in self.__record_fields__)


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self):
    return hash(_values(self))


def replace(obj, **changes):
    """A copy of record obj with the given fields changed, built and
    checked by its class's ``__init__`` as a new record is."""
    return type(obj)(**{**obj.__dict__, **changes})


def record(cls=None, /, *, eq=True):
    """Make cls a frozen record, as ``@dataclass(frozen=True, eq=eq)`` would.

    The fields are cls's own annotations, in order, taken as names and
    never evaluated; a class value is the field's default.  ``__init__``
    takes the fields by position or keyword, then calls ``__post_init__``
    if cls has one.  Setting or deleting an attribute raises
    :class:`FrozenRecordError`; ``repr`` reads ``Name(a=1, b=2)``.  With
    eq, records of one class are equal when their field tuples are and
    hash as that tuple; without, they keep identity equality and hashing.
    A base class is refused, since its fields would be missed.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    if cls.__bases__ != (object,):
        raise TypeError(f"record {cls.__qualname__} may not have a base class")
    names = tuple(cls.__annotations__)
    cls.__record_fields__ = names
    cls.__record_defaults__ = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    cls.__init__, cls.__repr__ = _init, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    if eq:
        cls.__eq__, cls.__hash__ = _eq, _hash
    return cls
