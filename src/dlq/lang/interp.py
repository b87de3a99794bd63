"""Call-by-value evaluation of type-checked programs.

Queries reduce through :func:`~dlq.algebra.run_select`, with the spliced
values as constants, and the projected table becomes a list (of tuples,
for two or more selected variables) in table order.  A role projection
runs :meth:`~dlq.query.SelectQuery.projection` with its subject spliced
in.  Match tries its cases in order, taking the first whose concept
provably contains the scrutinee, else the default branch.
"""

from __future__ import annotations

from typing import Mapping

from ..algebra import run_select
from ..query import SelectQuery
from ..reasoner import Reasoner
from .syntax import (
    BoolVal,
    Call,
    Head,
    If,
    IriLit,
    IriVal,
    Let,
    ListVal,
    Match,
    Nil,
    NonEmpty,
    Pos,
    Program,
    QueryTerm,
    Ref,
    RoleProj,
    Term,
    TupleIndex,
    TupleVal,
    Value,
)

__all__ = ["EvalError", "evaluate"]


class EvalError(Exception):
    """A runtime fault (empty-list head, unbound result variable)."""

    def __init__(self, pos: Pos, message: str) -> None:
        super().__init__(message)
        self.pos = pos
        self.message = message


class _Interp:
    def __init__(self, r: Reasoner, program: Program) -> None:
        self.r = r
        self.program = program

    def run(self) -> Value:
        return self.eval(self.program.main, {})

    def _run_select(self, sq: SelectQuery, env: Mapping[str, Value],
                    pos: Pos) -> ListVal:
        values = {}
        for splice in sq.splices:
            v = env[splice]
            assert isinstance(v, IriVal), "typechecker admits only IRI splices"
            values[splice] = v.iri
        table = run_select(self.r, sq, values)
        items: list[Value] = []
        for row in table.rows:
            cells: list[Value] = []
            for var, cell in zip(table.columns, row):
                if cell is None:
                    raise EvalError(
                        pos, f"variable ?{var.name} is unbound in a solution")
                cells.append(IriVal(cell))
            items.append(cells[0] if len(cells) == 1 else TupleVal(tuple(cells)))
        return ListVal(tuple(items))

    def eval(self, t: Term, env: Mapping[str, Value]) -> Value:
        if isinstance(t, Ref):
            return env[t.name]
        if isinstance(t, IriLit):
            return IriVal(t.iri)
        if isinstance(t, Call):
            d = self.program.definitions[t.name]
            args = [self.eval(a, env) for a in t.args]
            return self.eval(d.body, {p: v for (p, _), v in zip(d.params, args)})
        if isinstance(t, QueryTerm):
            return self._run_select(t.query, env, t.pos)
        if isinstance(t, RoleProj):
            return self._run_select(SelectQuery.projection(t.role),
                                    {"subject": self.eval(t.subject, env)}, t.pos)
        if isinstance(t, Match):
            subject = self.eval(t.subject, env)
            assert isinstance(subject, IriVal)
            for case in t.cases:
                if self.r.entails_instance(subject.iri, case.concept):
                    branch_env = dict(env)
                    branch_env[case.binder] = subject
                    return self.eval(case.body, branch_env)
            return self.eval(t.default, env)
        if isinstance(t, If):
            cond = self.eval(t.cond, env)
            assert isinstance(cond, BoolVal)
            return self.eval(t.then if cond.value else t.orelse, env)
        if isinstance(t, Let):
            body_env = dict(env)
            body_env[t.name] = self.eval(t.value, env)
            return self.eval(t.body, body_env)
        if isinstance(t, TupleIndex):
            subject = self.eval(t.subject, env)
            assert isinstance(subject, TupleVal)
            return subject.items[t.index - 1]
        if isinstance(t, NonEmpty):
            arg = self.eval(t.arg, env)
            assert isinstance(arg, ListVal)
            return BoolVal(bool(arg.items))
        if isinstance(t, Head):
            arg = self.eval(t.arg, env)
            assert isinstance(arg, ListVal)
            if not arg.items:
                raise EvalError(t.pos, "head of an empty list")
            return arg.items[0]
        if isinstance(t, Nil):
            return ListVal(())
        raise TypeError(f"not a term: {t!r}")


def evaluate(r: Reasoner, program: Program) -> Value:
    """Evaluate a program's main expression.  The program must have been
    type-checked; shape assumptions are asserted, not re-verified."""
    return _Interp(r, program).run()
