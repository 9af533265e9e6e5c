"""The one strict reader of JSON input.  A kind is ``int``, ``bool`` or ``str``
by exact type (``true`` is not an integer), ``[kind]`` for an array of that kind,
or a tuple of kinds for an array of exactly that length.  Nothing is coerced: a
refusal names the field path, e.g. ``symbol: fibers[1][0] must be an integer``."""

import json

_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def check(value: object, kind, path: str):
    """``value`` if it has the shape ``kind``, with arrays as tuples."""
    if type(kind) is list:
        if type(value) is not list:
            raise ValueError(f"{path} must be an array")
        return tuple(check(v, kind[0], f"{path}[{i}]") for i, v in enumerate(value))
    if type(kind) is tuple:
        if type(value) is not list or len(value) != len(kind):
            raise ValueError(f"{path} must be an array of {len(kind)} elements")
        return tuple(check(v, kind[i], f"{path}[{i}]") for i, v in enumerate(value))
    if type(value) is not kind:
        raise ValueError(f"{path} must be {_NAMES[kind]}")
    return value


def require_int(**values: object) -> None:
    """Refuse any value that is not exactly an ``int``, naming its argument."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_array(value: object, name: str) -> tuple:
    """``value`` as a tuple if it is a list or a tuple; anything else (a dict,
    a generator, a number) is refused, naming ``name``, not coerced."""
    if type(value) is not tuple and type(value) is not list:
        raise ValueError(f"{name} must be a list or a tuple, got {value!r}")
    return tuple(value)


def read(data: object, what: str, fields: dict, defaults: dict | None = None) -> tuple:
    """The values of ``fields``, in order, from an object with exactly those keys."""
    if type(data) is not dict:
        raise ValueError(f"{what}: expected a JSON object")
    for key in data:
        if key not in fields:
            raise ValueError(f"{what}: unknown field {key!r}")
    values = {**(defaults or {}), **data}
    for key in fields:
        if key not in values:
            raise ValueError(f"{what}: missing field {key!r}")
    return tuple(check(values[key], kind, f"{what}: {key}") for key, kind in fields.items())


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
