"""Classes that register by declaration and own their JSON form.

Kernel families, mean forms and NARX modes are each a group: the group's
base class sets ``tag``, the JSON key that tells its members apart, and a
member is declared with that key, as in ``class Matern32(_Matern,
family="matern32")``, which adds it to the base's ``registry``.

A value's kind is declared by its annotation: :data:`READERS` gives its reader.
"""

import functools
import inspect
import math
import typing

import numpy as np


def _array(value) -> np.ndarray:
    """``value`` as an array; a ragged list, or a list holding a bool, as one
    that no reader takes (numpy would read a bool as 1 or 0)."""
    if isinstance(value, list) and any(isinstance(x, bool) for x in value):
        return np.asarray(None)
    try:
        return np.asarray(value)
    except ValueError:
        return np.asarray(None)


def number(name: str, value, positive: bool = False) -> np.float64:
    """``value`` as a numpy float; ValueError naming ``name`` unless it is one
    finite number, and above 0 if ``positive``."""
    array = _array(value)
    if array.ndim or array.dtype.kind not in "iuf" or not math.isfinite(array):
        raise ValueError(f"{name} takes one finite number, got {value!r}")
    if positive and not array > 0.0:
        raise ValueError(f"{name} takes a positive number, got {value!r}")
    return np.float64(array)


def count(name: str, value, least: int = 0) -> int:
    """``value``; ValueError naming ``name`` unless it is an integer, not a
    bool, of at least ``least`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "a positive" if least else "a non-negative"
        raise ValueError(f"{name} takes {kind} integer, got {value!r}")
    return value


def flag(name: str, value) -> bool:
    """``value``; ValueError naming ``name`` unless it is true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} takes true or false, got {value!r}")
    return value


def numbers(name: str, value, positive: bool = False) -> np.ndarray:
    """``value`` as a 1-D float array; ValueError naming ``name`` unless it is
    one finite number or a list of them, each above 0 if ``positive``."""
    array = _array(value)
    if array.ndim > 1 or array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise ValueError(f"{name} takes one finite number or a list of them, got {value!r}")
    if positive and not (array > 0.0).all():
        raise ValueError(f"{name} takes positive numbers, got {value!r}")
    return np.atleast_1d(np.asarray(array, dtype=float))


Positive = typing.Annotated[float, "above 0"]
Count = typing.Annotated[int, "at least 1"]
Floats = typing.Annotated[np.ndarray, "one number or a list of them"]
Positives = typing.Annotated[np.ndarray, "one number or a list of them, each above 0"]

READERS = {float: number, Positive: functools.partial(number, positive=True),
           int: count, Count: functools.partial(count, least=1), bool: flag,
           Floats: numbers, Positives: functools.partial(numbers, positive=True),
           Count | None: lambda name, value: value if value is None else count(name, value, 1),
           Floats | None: lambda name, value: value if value is None else numbers(name, value)}


@functools.cache
def _readers(owner) -> dict:
    """Name -> reader of each parameter or field of ``owner`` that declares a kind."""
    kinds = typing.get_type_hints(owner, include_extras=True)
    return {name: READERS[kind] for name, kind in kinds.items() if kind in READERS}


def reads(function):
    """``function`` with each argument passed read by its parameter's annotation."""
    signature = inspect.signature(function)

    @functools.wraps(function)
    def read(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        for name, reader in _readers(function).items():
            if name in bound.arguments:
                bound.arguments[name] = reader(name, bound.arguments[name])
        return function(*bound.args, **bound.kwargs)

    return read


def read_fields(obj) -> None:
    """Store each field of the frozen dataclass ``obj`` as read by its annotation."""
    for name, read in _readers(type(obj)).items():
        object.__setattr__(obj, name, read(name, getattr(obj, name)))


class Registered:
    """A member's JSON form is its tag plus one plain value per key; its keys
    are its own annotated fields, in order, unless it sets ``keys``."""

    tag: str
    registry: dict
    keys = ()

    def __init_subclass__(cls, **kwargs):
        name = kwargs.pop(cls.tag, None)
        super().__init_subclass__(**kwargs)
        if "tag" in vars(cls):  # a group's base
            cls.registry = {}
            setattr(cls, cls.tag, None)
        elif name is not None:
            setattr(cls, cls.tag, name)
            cls.registry[name] = cls
        if "keys" not in vars(cls) and inspect.get_annotations(cls):
            cls.keys = tuple(inspect.get_annotations(cls))

    def __post_init__(self):
        read_fields(self)

    def values(self) -> list:
        return [getattr(self, k) for k in self.keys]

    @classmethod
    def from_values(cls, *values):
        return cls(*values)

    def to_dict(self) -> dict:
        return {self.tag: getattr(self, self.tag), **{
            k: np.asarray(v, dtype=float).tolist() for k, v in zip(self.keys, self.values())}}

    @classmethod
    def member(cls, name) -> type:
        """The member registered under ``name``; ValueError if none is."""
        if not isinstance(name, str) or name not in cls.registry:
            raise ValueError(f"unknown {cls.tag} {name!r}; expected one of {sorted(cls.registry)}")
        return cls.registry[name]

    @classmethod
    def from_dict(cls, doc: dict):
        """Inverse of :meth:`to_dict`: the member ``doc`` names, given exactly
        its keys; ValueError otherwise."""
        member = cls.member(doc.get(cls.tag) if isinstance(doc, dict) else None)
        if set(doc) != {cls.tag, *member.keys}:
            raise ValueError(f"{cls.tag} {doc[cls.tag]!r} takes exactly the keys "
                             f"{[cls.tag, *member.keys]}, got {sorted(doc)}")
        return member.from_values(*(doc[k] for k in member.keys))
