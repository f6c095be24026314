"""Exact q-series arithmetic, level-one modular form expansions, and an
integer-only construction and certification of the Leech lattice as the
quotient w_perp / w of an isotropic Weyl vector inside the even unimodular
Lorentzian lattice of signature (25, 1).

Library callers import from the submodules: qseries, modforms,
observations, lorentz, lattices and cli.

The record types derive from _Value, a frozen dataclass stand-in that keeps
dataclasses, inspect, ast and dis out of every process: fields in __slots__,
set in slot order and then checked by __post_init__, equal only within one
class, shown as ClassName(field=value, ...), copied and pickled via __init__.
Every integer input passes _integer, or _integers for a sequence: operator.index,
else ValueError("<what> must be integers"), the package's one integer rule."""

import operator

__version__ = "0.1.0"

# the ceiling of the accepted --jobs value; here so cli need not load lattices
MAX_JOBS = 64


class _Value:
    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} values")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """The subclass's check; it may normalise a field with object.__setattr__."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


def _integers(values, what: str) -> tuple[int, ...]:
    """values through operator.index, as a tuple of plain ints."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def _integer(value, what: str) -> int:
    """value through operator.index, as a plain int."""
    return _integers((value,), what)[0]
