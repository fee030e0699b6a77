"""endscope: a symbolic decision engine for end spaces of infinite-type
surfaces and second-countable Stone spaces.

Spaces are finite terms; the engine derives germ tables (end classes with
their preorder and accumulation structure), certifies stability, classifies
telescoping ends, and renders automatic-continuity verdicts with
machine-checkable certificates. A companion module verifies the commutator
constructions and the Steinhaus exponent arithmetic at truncation depth.
"""

from operator import attrgetter
from weakref import WeakValueDictionary

__version__ = "0.1.0"

# constructors set the fields of a `_Frozen` instance through this
_set = object.__setattr__


class _Frozen:
    """Base of the package's immutable value classes: assigning or deleting
    an attribute raises AttributeError, and the constructor, `==`, `hash`
    and `repr` are those a frozen dataclass generates over `_fields`; the
    hash is hash(field tuple). No output reads a hash: every output order is
    an explicit sort, and a set or dict of values is never iterated into
    output. `_fields` defaults to the class's own `__slots__` names that do
    not start with `_`; `_defaults` maps trailing fields to the constructor's
    defaults. A class that builds in its own `__init__` or `__new__` keeps
    it. `_Interned` below makes equal values one object, so that `==` is
    `is`. Both live here, not in a submodule, so that the modules that import
    no other module of the package share them too."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            slots = cls.__dict__.get("__slots__", ())
            cls._fields = tuple(name for name in slots if not name.startswith("_"))
        fields = cls._fields
        get = attrgetter(*fields) if fields else lambda x: ()
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(fields) != 1 else lambda x: (get(x),))
        if fields and "__init__" not in cls.__dict__ and "__new__" not in cls.__dict__:
            cls.__init__ = _constructor(cls)

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


def _constructor(cls):
    """`__init__(self, <fields>)` of `cls`, setting each field: compiled from
    source once per class, as `collections.namedtuple` builds its `__new__`,
    so that a call binds its arguments as fast as a hand-written one."""
    fields, defaults = cls._fields, cls.__dict__.get("_defaults", {})
    if set(defaults) != set(fields[len(fields) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: only trailing fields take defaults")
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    namespace = {"_set": _set}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults[name] for name in fields if name in defaults) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class _Interned(_Frozen):
    """A `_Frozen` value that exists once: building one whose fields equal
    those of a live value returns that value, so `==` is `is` and the hash
    is the identity hash. The table holds its values weakly, so a value dies
    when nothing else holds it; a table that evicted live values would let
    two equal ones exist. Subclasses build in `__new__` through `_make` and
    have no `__init__`, so a hit costs one lookup."""

    __slots__ = ("__weakref__",)
    _live = WeakValueDictionary()

    @classmethod
    def _make(cls, fields: tuple, *args, **kwargs):
        """The live value of this class with these fields, or a new one with
        its fields set and the subclass's `_seal(*args, **kwargs)`, which sets
        the facts derived from them, run before it enters the table; a
        `_seal` that raises keeps the value out of it."""
        key = (cls, fields)
        self = cls._live.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                _set(self, name, value)
            self._seal(*args, **kwargs)
            cls._live[key] = self
        return self

    __eq__ = object.__eq__
    __hash__ = object.__hash__
