"""The one strict reader of input.  A kind is ``int``, ``bool`` or ``str`` by
exact type (``true`` is not an integer), ``[kind]`` for an array of that kind,
or a tuple of kinds for an array of exactly that length; an array is a list or
a tuple.  Nothing is coerced: a refusal names the field path, e.g.
``symbol: fibers[1][0] must be an integer``.  ``check`` serves both paths:
JSON fields through ``read``, and the array arguments of the constructors.
An object must have exactly the fields asked for: none is optional.

``Record`` is the base of the package's immutable value types.  It lives here
because every layer imports this module; unlike ``dataclasses`` it generates
no source, so it needs neither ``inspect`` nor its imports.
"""

import json
from operator import attrgetter, is_

_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def check(value: object, kind, path: str):
    """``value`` if it has the shape ``kind``, with arrays as tuples.  The
    elements' paths are built only for an array of arrays or a refusal."""
    if type(kind) is list or type(kind) is tuple:
        if type(value) is not list and type(value) is not tuple:
            raise ValueError(f"{path} must be a list or a tuple, got {value!r}")
        kinds = kind * len(value) if type(kind) is list else kind
        if len(kinds) != len(value):
            raise ValueError(f"{path} must be an array of {len(kind)} elements")
        if all(map(is_, map(type, value), kinds)):
            return tuple(value)
        return tuple(check(v, k, f"{path}[{i}]") for i, (v, k) in enumerate(zip(value, kinds)))
    if type(value) is not kind:
        raise ValueError(f"{path} must be {_NAMES[kind]}")
    return value


def require_int(**values: object) -> None:
    """Refuse any value that is not exactly an ``int``, naming its argument."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


def read(data: object, what: str, fields: dict) -> tuple:
    """The values of ``fields``, in order, from an object with exactly those keys."""
    if type(data) is not dict:
        raise ValueError(f"{what}: expected a JSON object")
    for key in data:
        if key not in fields:
            raise ValueError(f"{what}: unknown field {key!r}")
    for key in fields:
        if key not in data:
            raise ValueError(f"{what}: missing field {key!r}")
    return tuple(check(data[key], kind, f"{what}: {key}") for key, kind in fields.items())


def _unique(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def loads(text: str) -> object:
    """``json.loads`` that refuses an object with a repeated key."""
    return json.loads(text, object_pairs_hook=_unique)


class Record:
    """An immutable value with named fields.  A subclass declares its fields as
    class annotations, in order, with class-level defaults where it has them:
    the constructor binds positional and keyword arguments to them, then calls
    ``__post_init__``, which checks the values and may normalise a field with
    ``object.__setattr__``.  A record equals only a record of its own class
    with equal fields, hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    ``AttributeError``.  No record is ordered: ``<`` between two records
    raises ``TypeError``."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        # an attrgetter is no descriptor: ``self._key(self)`` is the field tuple
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields, what = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{what}() takes at most {len(fields)} arguments")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{what}() got an unknown or repeated field {name!r}")
            values[name] = value
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if name not in self._defaults:
                        raise TypeError(f"{what}() missing field {name!r}")
                    values[name] = self._defaults[name]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
