"""The worked example at scale: certain answers of
``SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }`` over the
fixture university knowledge base plus research assistants that each work
for ``:softlang``, 160 named objects in all.  Each tableau run used to
branch on every T-Box inclusion at every node, which put this size at
minutes; with the T-Box absorbed it takes seconds.  The consistency run
must not rebuild the blocking map once per ∃ round either, and the role
pattern must read its candidates off the session model's edges rather
than compute one extension per object.
"""

from __future__ import annotations

import pathlib
import time

import dlq.reasoner
from dlq.algebra import eval_algebraic, project
from dlq.kbtext import parse_kb
from dlq.query import parse_query
from dlq.reasoner import Reasoner
from dlq.tableau import Tableau, _Graph

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
WORKED_EXAMPLE = "SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }"
OBJECTS = 160
BUDGET_S = 30.0   # about 0.3 s on a 2-core x86 VM
# alice, bob and softlang come with the fixture.
WORKERS = [f"worker{i}" for i in range(OBJECTS - 3)]


def _worked_example_kb():
    return parse_kb((FIXTURES / "university.kb").read_text() + "".join(
        f":{w} Type :ResearchAssistant\n:{w} Fact :worksFor :softlang\n" for w in WORKERS))


def test_worked_example_at_160_objects(monkeypatch, uobj, uc):
    runs, extensions = [], []
    original, extension = Tableau.run, dlq.reasoner.extension

    def counted(self, *args, **kwargs):
        runs.append(args)
        return original(self, *args, **kwargs)

    def counted_extension(c, model):
        extensions.append(c)
        return extension(c, model)

    monkeypatch.setattr(Tableau, "run", counted)
    monkeypatch.setattr(dlq.reasoner, "extension", counted_extension)
    kb = _worked_example_kb()
    session = Reasoner(kb)
    assert len(session.objects) == OBJECTS
    sq = parse_query(WORKED_EXAMPLE, kb.prefixes)
    start = time.perf_counter()
    table = project(eval_algebraic(session, sq.body), sq.select_vars)
    elapsed = time.perf_counter() - start
    assert set(table.rows) == {(uobj("softlang"), uobj(name))
                               for name in ["bob", *WORKERS]}
    assert len(table.rows) == OBJECTS - 2
    assert len(runs) <= 2
    # A count, not a time: the only extension is the concept pattern's.
    assert extensions == [uc(":ResearchGroup")]
    assert elapsed < BUDGET_S


def test_consistency_run_computes_blocking_at_most_once_per_anonymous_node(monkeypatch):
    # A count, not a time: the run is deterministic, so it repeats exactly.
    calls = {"blocking": 0, "anonymous": 0}
    blocking, new_node = _Graph.blocking, _Graph.new_node

    def counted_blocking(self):
        calls["blocking"] += 1
        return blocking(self)

    def counted_new_node(self, parent, label):
        calls["anonymous"] += parent is not None
        return new_node(self, parent, label)

    monkeypatch.setattr(_Graph, "blocking", counted_blocking)
    monkeypatch.setattr(_Graph, "new_node", counted_new_node)
    assert Tableau(_worked_example_kb()).run() is not None
    assert calls["blocking"] <= calls["anonymous"]
