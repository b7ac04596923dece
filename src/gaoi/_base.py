"""What several layers share and none owns: the model error, the binary
entropy, and the base of gaoi's plain frozen classes.

gaoi's types are plain frozen classes, not dataclasses: each sets its fields
once in ``__init__`` (through ``_Frozen._init``), after which assignment and
deletion raise, so a value stays valid by construction; ``__match_args__``
names the fields.  A type whose fields are arrays, or hold them, compares and
hashes by identity (``_Frozen``), since a value ``==`` would take an array's
truth value and a value hash would hash an array.  A type whose fields are
plain values compares and hashes by them (``_Value``), as a frozen dataclass
does.  That leaves a dataclass nothing to generate that is not written here,
and its decorator and module cost start-up on every import.
``cached_property`` writes the instance dict directly, so a cached table
still builds once.

The layers import this module, never each other, for these names, so a
command loads only the layers it runs.
"""

from __future__ import annotations

import numpy as np


class ModelError(ValueError):
    """Raised for malformed kernels, a reducible change matrix, or a law that
    float64 cannot hold."""


class _Frozen:
    """Fields set once in ``__init__``; assigning or deleting one raises.
    Equality and hash are identity; the repr names the fields."""

    __match_args__: tuple[str, ...] = ()

    def _init(self, **fields) -> None:
        """Set the fields, once, from ``__init__``."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is frozen")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class _Value(_Frozen):
    """A ``_Frozen`` of plain values: two of one type are equal when their
    fields are, and the hash is the fields'."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


def binary_entropy(q):
    """H(q, 1-q) in bits, elementwise (a float for a scalar); 0 if q <= 0 or q >= 1."""
    q = np.asarray(q, dtype=float)
    outside = (q <= 0.0) | (q >= 1.0)
    q = np.where(outside, 0.5, q)
    # log1p keeps the digits of ln(1 - q) that 1 - q rounds away at small q
    h = -q * np.log2(q) - (1.0 - q) * np.log1p(-q) / np.log(2.0)
    return np.where(outside, 0.0, h)[()]
