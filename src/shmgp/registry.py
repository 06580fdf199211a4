"""Classes that register by declaration and own their JSON form.

Kernel families, mean forms and NARX modes are each a group: the group's
base class sets ``tag``, the JSON key that tells its members apart, and a
member is declared with that key, as in ``class Matern32(_Matern,
family="matern32")``, which adds it to the base's ``registry``.
"""

import numpy as np


def store_numbers(obj, *names: str) -> None:
    """Store each field ``names`` of the frozen dataclass ``obj`` as a numpy
    float; a value that is not one finite number is a ValueError naming its
    field."""
    for name in names:
        value = np.asarray(getattr(obj, name))
        if value.ndim or value.dtype.kind not in "biuf" or not np.isfinite(value):
            raise ValueError(f"{name} takes one finite number, got {getattr(obj, name)!r}")
        object.__setattr__(obj, name, np.float64(value))


class Registered:
    """A member's JSON form is its tag plus one plain value per key."""

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
        if name not in cls.registry:
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
