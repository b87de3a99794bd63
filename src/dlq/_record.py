"""Record classes: the part of ``dataclasses`` that dlq uses.

Every ``dlq`` command runs in a fresh process, and letting ``dataclasses``
build the package's record classes costs tens of milliseconds there, more
than most commands spend reasoning.  :func:`record` gives a class the same
methods.  ``__init__`` and ``__eq__`` run on every concept node the
reasoner builds, so they are generated as straight-line code from one
``exec`` per class; the rest are closures over the field names or plain
functions.

A record's fields are the annotations of its own class body, in order; no
base class of a record is a record.  Every record class is rebuilt with
``__slots__`` for its fields, so an instance has a ``__dict__`` only when
a base class gives it one: ``lang.syntax.Term`` does, because a term
reads its position from a class-level default until the parser sets it.
``__init__`` takes the fields in order, with the value written in the
class body as a field's default, and calls ``__post_init__`` when the
class has one.  ``__repr__`` prints ``Name(field=value, ...)`` with the
class's ``__qualname__``.  There are two options:

- ``eq`` (the default): ``__eq__`` compares the field tuples of two
  objects of exactly the same class and otherwise returns
  ``NotImplemented``.  A frozen record hashes as ``hash(tuple of fields)``,
  computed on first use and kept in one more slot, ``_hash``, which
  ``__init__`` sets to ``None``; concepts, roles and IRIs key every memo,
  label and edge map, so a lookup reads the stored value.  Any other
  record is unhashable.  With ``eq=False``, equality and hash stay by
  identity.
- ``frozen``: assignment and deletion of any attribute raise
  :class:`FrozenInstanceError`, an ``AttributeError``.  ``__init__`` sets
  the fields through their slot descriptors' ``__set__``, bound once per
  class, and a ``__post_init__`` rewrites a field through
  ``object.__setattr__``.

A method written in the class body is never replaced; a record that
writes its own ``__hash__`` gets no ``_hash`` slot.  There is no
``field()``, ``fields()``, ``replace()``, ``__match_args__`` or pickling
support.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["FrozenInstanceError", "record"]


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def record(*, frozen: bool = False, eq: bool = True):
    """Class decorator that turns annotated class attributes into fields."""
    return lambda cls: _build(cls, frozen, eq)


def _build(cls, frozen: bool, eq: bool):
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    cached = eq and frozen and "__hash__" not in cls.__dict__
    namespace = {k: v for k, v in cls.__dict__.items()
                 if k not in fields and k not in ("__dict__", "__weakref__")}
    namespace["__slots__"] = fields + ("_hash",) if cached else fields
    qualname = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    cls.__qualname__ = qualname

    env = {}
    params, body = [], []
    for name in fields:
        if name in defaults:
            env[f"_default_{name}"] = defaults[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        if frozen:
            env[f"_set_{name}"] = cls.__dict__[name].__set__
            body.append(f"_set_{name}(self, {name})")
        else:
            body.append(f"self.{name} = {name}")
    if cached:
        env["_set__hash"] = set_hash = cls.__dict__["_hash"].__set__
        body.append("_set__hash(self, None)")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")

    source = [f"def __init__(self, {', '.join(params)}):",
              *(f"    {line}" for line in body or ["pass"])]
    if eq:
        mine = "".join(f"self.{name}," for name in fields)
        theirs = "".join(f"other.{name}," for name in fields)
        source += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
        ]
    exec("\n".join(source), env)
    # Compiling costs more than running these, so they are not generated.
    if cached:
        env["__hash__"] = _cached_hash(fields, set_hash)
    elif eq and not frozen:
        env["__hash__"] = None
    env["__repr__"] = _repr(fields)
    if frozen:
        env["__setattr__"], env["__delattr__"] = _refuse_assignment, _refuse_deletion

    for method in ("__init__", "__repr__", "__eq__", "__hash__",
                   "__setattr__", "__delattr__"):
        if method in env and method not in cls.__dict__:
            setattr(cls, method, env[method])
    return cls


def _cached_hash(names: tuple[str, ...], set_hash):
    values = attrgetter(*names) if names else lambda self: ()
    one = len(names) == 1  # then ``values`` returns the bare field

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash((values(self),) if one else values(self))
            set_hash(self, value)
        return value
    return __hash__


def _repr(names: tuple[str, ...]):
    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"
    return __repr__


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")
