"""endscope: a symbolic decision engine for end spaces of infinite-type
surfaces and second-countable Stone spaces.

Spaces are finite terms; the engine derives germ tables (end classes with
their preorder and accumulation structure), certifies stability, classifies
telescoping ends, and renders automatic-continuity verdicts with
machine-checkable certificates. A companion module verifies the commutator
constructions and the Steinhaus exponent arithmetic at truncation depth.
"""

from operator import attrgetter

__version__ = "0.1.0"

# constructors set the fields of a `_Frozen` instance through this
_set = object.__setattr__


class _Frozen:
    """Base of the package's immutable value classes: assigning or deleting
    an attribute raises AttributeError, and `==`, `hash` and `repr` are those
    a frozen dataclass generates over `_fields`. The hash is hash(field
    tuple): the order of sets and dicts of values, which reaches the output,
    follows it. `_fields` defaults to the class's own `__slots__` names that
    do not start with `_`. It lives here, not in a submodule, so that the
    modules that import no other module of the package share it too."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            slots = cls.__dict__.get("__slots__", ())
            cls._fields = tuple(name for name in slots if not name.startswith("_"))
        fields = cls._fields
        get = attrgetter(*fields) if fields else lambda x: ()
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(fields) != 1 else lambda x: (get(x),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"
