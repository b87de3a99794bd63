"""Record classes: the part of ``dataclasses`` that dlq uses.

Every ``dlq`` command runs in a fresh process, and letting ``dataclasses``
build the package's record classes costs tens of milliseconds there, more
than most commands spend reasoning.  :func:`record` gives a class the same
methods.  ``__init__``, ``__eq__`` and ``__hash__`` run on every concept
node the reasoner builds, so they are generated as straight-line code from
one ``exec`` per class; the rest are closures over the field names.

- ``__init__`` takes the fields in order (record base classes first) and
  calls ``__post_init__`` when the class has one.  A field's default is the
  value written in the class body, or :func:`field` gives a
  ``default_factory`` or ``init=False`` (the class attribute then holds the
  default).
- ``__repr__`` prints ``Name(field=value, ...)`` with the class's
  ``__qualname__``.
- With ``eq`` (the default), ``__eq__`` compares the field tuples of two
  objects of exactly the same class and otherwise returns
  ``NotImplemented``.  A frozen record hashes as ``hash(tuple of fields)``.
  With ``eq=False``, equality and hash stay by identity.
- ``frozen`` makes assignment and deletion raise
  :class:`FrozenInstanceError`, an ``AttributeError``.  ``__init__`` sets
  the fields of a frozen slotted record that the class declares itself
  through their slot descriptors' ``__set__``, bound once per class, and
  any other field through ``object.__setattr__``, which is also how a
  ``__post_init__`` rewrites a field.  A frozen exception still lets the
  interpreter set the attributes it keeps on every exception
  (``__traceback__``, ``__context__``, ``__cause__``,
  ``__suppress_context__`` and ``__notes__``), so it can be raised
  through a generator-based context manager and take ``add_note``.
- ``slots`` rebuilds the class with ``__slots__`` for its own fields.

A method written in the class body is never replaced.  There is no
``fields()``, ``replace()``, ``__match_args__`` or pickling support.
"""

from __future__ import annotations

__all__ = ["FrozenInstanceError", "field", "record"]

_MISSING = object()
_FACTORY = object()  # __init__ default of a field with a default_factory
# What the interpreter and ``BaseException.add_note`` assign on exceptions.
_EXCEPTION_ATTRIBUTES = frozenset(
    {"__traceback__", "__context__", "__cause__", "__suppress_context__", "__notes__"})


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class _Field:
    __slots__ = ("default", "default_factory", "init")

    def __init__(self, default=_MISSING, default_factory=_MISSING, init=True):
        self.default = default
        self.default_factory = default_factory
        self.init = init


def field(*, default=_MISSING, default_factory=_MISSING, init=True) -> _Field:
    """A field with a ``default_factory``, or one left out of ``__init__``."""
    return _Field(default, default_factory, init)


def record(*, frozen: bool = False, slots: bool = False, eq: bool = True):
    """Class decorator that turns annotated class attributes into fields."""
    return lambda cls: _build(cls, frozen, slots, eq)


def _build(cls, frozen: bool, slots: bool, eq: bool):
    own = cls.__dict__.get("__annotations__", {})
    fields: dict[str, _Field] = {}
    for base in reversed(cls.__mro__[1:]):
        fields.update(base.__dict__.get("__record_fields__", {}))
    for name in own:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Field):
            if value.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value.default)
            fields[name] = value
        else:
            fields[name] = _Field(value)
    if slots:
        namespace = {k: v for k, v in cls.__dict__.items()
                     if k not in own and k not in ("__dict__", "__weakref__")}
        namespace["__slots__"] = tuple(own)
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, namespace)
        cls.__qualname__ = qualname
    cls.__record_fields__ = fields

    env = {"_setattr": object.__setattr__, "_FACTORY": _FACTORY}
    params, body = [], []
    for name, f in fields.items():
        if not f.init:
            continue
        value = name
        if f.default_factory is not _MISSING:
            env[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
        elif f.default is not _MISSING:
            env[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        if frozen and slots and name in own:
            env[f"_set_{name}"] = cls.__dict__[name].__set__
            body.append(f"_set_{name}(self, {value})")
        elif frozen:
            body.append(f"_setattr(self, {name!r}, {value})")
        else:
            body.append(f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")

    mine = "".join(f"self.{name}," for name in fields)
    theirs = "".join(f"other.{name}," for name in fields)
    source = [f"def __init__(self, {', '.join(params)}):",
              *(f"    {line}" for line in body or ["pass"])]
    if eq:
        source += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
        ]
    if eq and frozen:
        source += ["def __hash__(self):", f"    return hash(({mine}))"]
    exec("\n".join(source), env)
    # Compiling costs more than running these, so they are closures.
    env["__repr__"] = _repr(tuple(fields))
    if frozen:
        env["__setattr__"], env["__delattr__"] = _frozen(cls, tuple(fields))

    for method in ("__init__", "__repr__", "__eq__", "__hash__",
                   "__setattr__", "__delattr__"):
        if method in env and method not in cls.__dict__:
            setattr(cls, method, env[method])
    return cls


def _repr(names: tuple[str, ...]):
    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"
    return __repr__


def _frozen(cls, names: tuple[str, ...]):
    writable = _EXCEPTION_ATTRIBUTES if issubclass(cls, BaseException) else ()

    def __setattr__(self, name, value):
        if (type(self) is cls or name in names) and name not in writable:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if (type(self) is cls or name in names) and name not in writable:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__
