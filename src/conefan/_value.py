"""Frozen value classes, without the dataclasses module.

A subclass of Frozen declares its fields as class annotations, in order:

    class Cone(Frozen):
        rays: tuple[IntVec, ...]
        normals: tuple[IntVec, ...]
        ambient_dim: int

- A class attribute named like a field is that field's default; fields
  with a default follow those without.
- A field whose name starts with "_" is derived from the others: __init__
  sets it, but it takes no part in equality, hashing or repr.
- __init__ takes the fields by position or by keyword, then calls
  __post_init__ when the class has one.
- __eq__ compares the other fields of two instances of the same class and
  returns NotImplemented for any other class; __hash__ is the hash of the
  tuple of those fields, the value a frozen dataclass computes.
- Assigning or deleting an attribute raises AttributeError.  Instances
  keep a __dict__, so functools.cached_property works on them.
- _replace(**changes) returns a copy with the named fields changed; it
  goes through __init__, so __post_init__ checks the copy.

__init__, __eq__ and __hash__ are compiled once per class, by one exec of
source built from the field names alone, so per-instance calls run as
fast as hand-written methods.  The dataclasses module would exec six
methods per class and import inspect, which costs more than the rest of
importing conefan together.
"""

_TEMPLATE = """\
def __init__(self, {params}):
{sets}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine})==({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
"""


class Frozen:
    _fields: tuple[str, ...]  # set on each subclass

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        for name in names:
            if not name.isidentifier():
                raise TypeError(f"{cls.__name__}: bad field name {name!r}")
        defaults = tuple(getattr(cls, n) for n in names if hasattr(cls, n))
        if any(hasattr(cls, n) for n in names[: len(names) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without default follows one with")
        sets = [f"    _setattr(self, {n!r}, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            sets.append("    self.__post_init__()")
        compared = [n for n in names if not n.startswith("_")]
        namespace = {"_setattr": object.__setattr__}
        exec(
            _TEMPLATE.format(
                params=", ".join(names),
                sets="\n".join(sets),
                mine="".join(f"self.{n}," for n in compared),
                theirs="".join(f"other.{n}," for n in compared),
            ),
            namespace,
        )
        namespace["__init__"].__defaults__ = defaults or None
        for fn in (namespace[k] for k in ("__init__", "__eq__", "__hash__")):
            fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
            setattr(cls, fn.__name__, fn)
        cls._fields = names

    def __repr__(self):
        shown = ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields if not n.startswith("_")
        )
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        fields = {n: changes.pop(n, getattr(self, n)) for n in self._fields}
        return type(self)(**fields, **changes)
