"""Bottom-up query evaluation and projection to result tables.

Computes the same certain-answer sets as the brute-force definition in
:mod:`dlq.interpretation`, but compositionally: patterns enumerate named objects
through the reasoner (which refutes most candidates against one model of
the knowledge base per session, built at the first enumeration, and runs
the tableau only on the rest), joins merge compatible mappings, UNION unions
branch answers, MINUS filters left answers through the per-mapping truth
condition of its right side, OPTIONAL keeps join answers that actually
bound an optional-only variable plus all left answers.
:func:`eval_algebraic` takes the caller's :class:`~dlq.reasoner.Reasoner`
session, so its memo and its model serve every pattern of the query and
every later query on that session.  :func:`run_select` is how a spliced
query runs, from the command line and from a program alike.

Projection produces a deterministic table: one row per distinct projected
binding, rows ordered lexicographically by cell text with absent cells
first.
"""

from __future__ import annotations

import json
from typing import Mapping

from ._record import record
from .model import Iri
from .query import (
    ConceptPattern,
    Join,
    Minus,
    Optional,
    Pattern,
    Query,
    SelectQuery,
    SolutionMapping,
    Union,
    Var,
    elem_value,
    query_vars,
    satisfies,
    substitute_splices,
)
from .reasoner import Reasoner

__all__ = ["ResultTable", "eval_algebraic", "project", "run_select", "table_to_json"]

_EMPTY = SolutionMapping(())


def _eval_pattern(r: Reasoner, p: Pattern) -> frozenset[SolutionMapping]:
    if isinstance(p, ConceptPattern):
        a = elem_value(p.elem, _EMPTY)
        if a is not None:
            return frozenset([_EMPTY]) if r.entails_instance(a, p.concept) else frozenset()
        return frozenset(
            SolutionMapping.of({p.elem: obj}) for obj in r.named_instances(p.concept)
        )

    subject, role, obj = p.subject, p.role, p.obj
    if role.inverse:
        subject, obj, role = obj, subject, role.inverted()
    a, b = elem_value(subject, _EMPTY), elem_value(obj, _EMPTY)
    if a is None and subject == obj:
        return frozenset(
            SolutionMapping.of({subject: x}) for x in r.objects
            if r.named_role_pairs(role, x, x)
        )
    return frozenset(
        SolutionMapping.of({e: x for e, x in ((subject, s), (obj, o)) if isinstance(e, Var)})
        for s, o in r.named_role_pairs(role, a, b)
    )


def _merge_all(
    left: frozenset[SolutionMapping], right: frozenset[SolutionMapping]
) -> frozenset[SolutionMapping]:
    out = set()
    for mu1 in left:
        for mu2 in right:
            merged = mu1.merge(mu2)
            if merged is not None:
                out.add(merged)
    return frozenset(out)


def eval_algebraic(r: Reasoner, q: Query) -> frozenset[SolutionMapping]:
    """Certain answers of ``q``, equal to ``denotational_eval`` on every query."""
    if isinstance(q, Pattern):
        return _eval_pattern(r, q)
    if isinstance(q, Join):
        return _merge_all(eval_algebraic(r, q.left), eval_algebraic(r, q.right))
    if isinstance(q, Union):
        return eval_algebraic(r, q.left) | eval_algebraic(r, q.right)
    if isinstance(q, Minus):
        return frozenset(
            mu for mu in eval_algebraic(r, q.left) if not satisfies(r, q.right, mu)
        )
    if isinstance(q, Optional):
        left = eval_algebraic(r, q.left)
        joined = _merge_all(left, eval_algebraic(r, q.right))
        private = query_vars(q.right) - query_vars(q.left)
        return frozenset(mu for mu in joined if mu.domain & private) | left
    raise TypeError(f"not a query: {q!r}")


@record(frozen=True)
class ResultTable:
    """Projected solutions in a fixed row order; absent cells are None."""

    columns: tuple[Var, ...]
    rows: tuple[tuple[Iri | None, ...], ...]


def _row_key(row: tuple[Iri | None, ...]) -> tuple:
    return tuple((cell is not None, cell.value if cell is not None else "")
                 for cell in row)


def project(solutions: frozenset[SolutionMapping],
            select_vars: tuple[Var, ...]) -> ResultTable:
    """Project solutions onto the selected variables, collapsing duplicates."""
    rows = {tuple(mu.get(v) for v in select_vars) for mu in solutions}
    return ResultTable(tuple(select_vars), tuple(sorted(rows, key=_row_key)))


def run_select(r: Reasoner, sq: SelectQuery, values: Mapping[str, Iri]) -> ResultTable:
    """The result table of ``sq`` with every splice replaced by its IRI in
    ``values``."""
    body = substitute_splices(sq.body, values)
    return project(eval_algebraic(r, body), sq.select_vars)


def table_to_json(table: ResultTable) -> str:
    """The wire shape: ``{"vars": [...], "solutions": [{...}]}`` with unbound
    variables omitted per solution, rows in table order."""
    payload = {
        "vars": [v.name for v in table.columns],
        "solutions": [
            {
                var.name: cell.value
                for var, cell in zip(table.columns, row)
                if cell is not None
            }
            for row in table.rows
        ],
    }
    return json.dumps(payload)
