"""The worked example at scale: certain answers of
``SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }`` over the
fixture university knowledge base plus research assistants that each work
for ``:softlang``, 160 named objects in all.  Each tableau run used to
branch on every T-Box inclusion at every node, which put this size at
minutes; with the T-Box absorbed it takes seconds.
"""

from __future__ import annotations

import pathlib
import time

from dlq.algebra import eval_algebraic, project
from dlq.kbtext import parse_kb
from dlq.query import parse_query
from dlq.reasoner import Reasoner
from dlq.tableau import Tableau

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
WORKED_EXAMPLE = "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }"
OBJECTS = 160
BUDGET_S = 30.0   # about 3 s on a 2-core x86 VM


def test_worked_example_at_160_objects(monkeypatch, uobj):
    runs = []
    original = Tableau.run

    def counted(self, *args, **kwargs):
        runs.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Tableau, "run", counted)
    # alice, bob and softlang come with the fixture.
    workers = [f"worker{i}" for i in range(OBJECTS - 3)]
    kb = parse_kb((FIXTURES / "university.kb").read_text() + "".join(
        f":{w} Type :ResearchAssistant\n:{w} Fact :worksFor :softlang\n" for w in workers))
    session = Reasoner(kb)
    assert len(session.objects) == OBJECTS
    sq = parse_query(WORKED_EXAMPLE, kb.prefixes)
    start = time.perf_counter()
    table = project(eval_algebraic(session, sq.body), sq.select_vars)
    elapsed = time.perf_counter() - start
    assert set(table.rows) == {(uobj("softlang"), uobj(name))
                               for name in ["bob", *workers]}
    assert len(table.rows) == OBJECTS - 2
    assert len(runs) <= len(table.rows) + 2
    assert elapsed < BUDGET_S
