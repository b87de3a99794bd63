from __future__ import annotations

import contextlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import dlq
from dlq._record import FrozenInstanceError, record
from dlq.lang.syntax import IriLit, Ref
from dlq.lexing import ParseError
from dlq.model import (
    And,
    Atomic,
    Exists,
    Iri,
    KnowledgeBase,
    Nominal,
    Or,
    Role,
    RoleAssertion,
)

A = Atomic(Iri("http://x/A"))
R = Role(Iri("http://x/r"))
OBJ = Iri("http://x/o")


def test_cli_import_loads_every_layer_but_not_dataclasses():
    src = pathlib.Path(dlq.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import json, sys, dlq.cli; "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('dlq') or m in ('dataclasses', 'inspect'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert not loaded & {"dataclasses", "inspect"}
    assert "dlq.interpretation" not in loaded
    assert {"dlq.query", "dlq.algebra", "dlq.inference", "dlq.lang.parser",
            "dlq.lang.typecheck", "dlq.lang.interp"} <= loaded


class TestFrozenSlots:
    def test_equality_hash_and_repr(self):
        assert Role(OBJ) == Role(OBJ, False)
        assert Role(OBJ) != Role(OBJ, True)
        assert hash(Role(OBJ, True)) == hash((OBJ, True))
        assert repr(Role(OBJ)) == "Role(iri=Iri(value='http://x/o'), inverse=False)"

    def test_assignment_and_deletion_raise(self):
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'inverse'"):
            R.inverse = True
        with pytest.raises(AttributeError):
            del R.iri
        assert not hasattr(R, "__dict__")
        assert Role.__slots__ == ("iri", "inverse")

    def test_post_init_swaps_an_inverse_role_assertion(self):
        a, b = Iri("http://x/a"), Iri("http://x/b")
        assert RoleAssertion(a, Role(OBJ, True), b) == RoleAssertion(b, Role(OBJ), a)
        with pytest.raises(ValueError):
            Iri("")


class TestConceptNode:
    def test_hash_is_the_field_tuple_hash_and_is_cached(self):
        c = Exists(R, Nominal(OBJ))
        assert c._hash is None
        assert hash(c) == hash((R, Nominal(OBJ)))
        assert c._hash == hash(c)
        assert c == Exists(R, Nominal(OBJ))

    def test_equality_is_not_implemented_across_classes(self):
        assert And(A, A).__eq__(Or(A, A)) is NotImplemented
        assert And(A, A) != Or(A, A)
        assert repr(And(A, A)) == f"And(left={A!r}, right={A!r})"

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            A.iri = OBJ


class TestIdentityRecords:
    def test_frozen_without_eq_keeps_identity_and_a_fresh_default(self):
        one, two = KnowledgeBase(), KnowledgeBase()
        assert one != two and one == one
        assert hash(one) == object.__hash__(one)
        assert one.prefixes == {} and one.prefixes is not two.prefixes
        assert repr(one) == "KnowledgeBase(tbox=(), abox=(), prefixes={})"
        with pytest.raises(AttributeError):
            one.tbox = ()

    def test_mutable_terms_inherit_a_field_left_out_of_init(self):
        term = Ref("x")
        assert term.pos == (0, 0)
        assert term != Ref("x")
        assert repr(term.at((2, 5))) == "Ref(pos=(2, 5), name='x')"
        assert IriLit(OBJ).ascription is None
        with pytest.raises(TypeError):
            Ref((1, 1), "x")


class TestSlotDescriptors:
    """Frozen slotted records set their own fields through the slots'
    descriptors and inherited ones through ``object.__setattr__``."""

    @record(frozen=True, slots=True)
    class Base:
        x: int

    @record(frozen=True, slots=True)
    class Sub(Base):
        y: str
        z: tuple = ()

    @record(frozen=True, slots=True)
    class Span:
        lo: int
        hi: int

        def __post_init__(self) -> None:
            if self.lo > self.hi:
                lo, hi = self.hi, self.lo
                object.__setattr__(self, "lo", lo)
                object.__setattr__(self, "hi", hi)

    def test_a_subclass_sets_inherited_and_own_fields(self):
        s = self.Sub(1, "a")
        assert (s.x, s.y, s.z) == (1, "a", ())
        assert self.Sub.__slots__ == ("y", "z")
        assert not hasattr(s, "__dict__")
        assert s == self.Sub(1, "a") != self.Sub(2, "a")
        assert hash(s) == hash((1, "a", ()))
        assert repr(s) == "TestSlotDescriptors.Sub(x=1, y='a', z=())"

    def test_post_init_rewrites_fields(self):
        assert (self.Span(5, 2).lo, self.Span(5, 2).hi) == (2, 5)
        assert self.Span(5, 2) == self.Span(2, 5)

    @pytest.mark.parametrize("name", ["x", "y", "z"])
    def test_assignment_and_deletion_raise(self, name):
        s = self.Sub(1, "a")
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field {name!r}"):
            setattr(s, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field {name!r}"):
            delattr(s, name)
        assert (s.x, s.y, s.z) == (1, "a", ())


def test_exception_records_raise_with_their_fields():
    with pytest.raises(ParseError) as exc:
        raise ParseError(3, 7, "unexpected token")
    assert str(exc.value) == "3:7: unexpected token"
    assert exc.value == ParseError(3, 7, "unexpected token")
    assert hash(exc.value) == hash((3, 7, "unexpected token"))


def test_methods_written_in_the_body_are_kept():
    @record(frozen=True)
    class Point:
        x: int
        y: int = 0

        def __repr__(self) -> str:
            return "point"

        def __hash__(self) -> int:
            return self.x

    assert repr(Point(1)) == "point"
    assert hash(Point(1, 2)) == 1
    assert Point(1, 2) == Point(1, 2) != Point(1, 3)


class TestFrozenExceptions:
    """The interpreter's own attributes of an exception stay writable."""

    def test_raised_through_a_context_manager_it_stays_itself(self):
        @contextlib.contextmanager
        def scope():
            yield

        with pytest.raises(ParseError) as exc:
            with scope():
                raise ParseError(1, 2, "inside")
        assert exc.value == ParseError(1, 2, "inside")
        assert exc.value.__traceback__ is not None

    def test_chaining_and_notes(self):
        try:
            try:
                raise ValueError("first")
            except ValueError as cause:
                raise ParseError(1, 1, "second") from cause
        except ParseError as err:
            assert isinstance(err.__cause__, ValueError)
            assert err.__suppress_context__
            err.__notes__ = ["a note"]
            assert err.__notes__ == ["a note"]
            del err.__notes__

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="add_note is new in 3.11")
    def test_add_note(self):
        err = ParseError(1, 1, "m")
        err.add_note("x")
        assert err.__notes__ == ["x"]

    def test_fields_stay_frozen(self):
        err = ParseError(1, 1, "m")
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'line'"):
            err.line = 2
        with pytest.raises(FrozenInstanceError):
            del err.message
        with pytest.raises(FrozenInstanceError):
            err.other = 1
