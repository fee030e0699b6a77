"""endscope: a symbolic decision engine for end spaces of infinite-type
surfaces and second-countable Stone spaces.

Spaces are finite terms; the engine derives germ tables (end classes with
their preorder and accumulation structure), certifies stability, classifies
telescoping ends, and renders automatic-continuity verdicts with
machine-checkable certificates. A companion module verifies the commutator
constructions and the Steinhaus exponent arithmetic at truncation depth.
"""

__version__ = "0.1.0"

# constructors set the fields of a `_Frozen` instance through this
_set = object.__setattr__


class _Frozen:
    """Base of the package's immutable value classes: assigning or deleting
    an attribute raises AttributeError. It lives here, not in a submodule,
    so that the modules that import no other module of the package share it
    too."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
