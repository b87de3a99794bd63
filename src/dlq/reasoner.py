"""Decision procedures over one knowledge base: consistency, concept
satisfiability (with model witnesses), subsumption, instance and role
entailment.

A :class:`Reasoner` is a session around one immutable knowledge base.  It
memoises every answer, so repeated checks (the query evaluator asks the
same instance/role questions over and over) cost one dictionary lookup.
Sessions are single-caller; run independent sessions for parallel work.
The session is the only way in: query evaluation, query typing and the
expression language all take a :class:`Reasoner`, so one memo serves a
whole command, and there are no module-level shortcuts over a bare
knowledge base.

Role entailment is instance entailment: with nominals, the knowledge base
entails ``r(a, b)`` iff it entails ``a : ∃r.{b}``, so one memo holds both
kinds of question and one pruning rule serves them.  An edge the A-Box
asserts holds in every model, read either way (``r(a, b)`` is also
``inv(r)(b, a)``), so ``a : ∃r.{b}`` is true for it with no tableau run.
Enumeration (:meth:`Reasoner.named_instances`,
:meth:`Reasoner.named_role_pairs`) refutes candidates against one model
of the knowledge base per session: the clash-free graph of the
consistency run, read off as an interpretation when the session first
enumerates.  A candidate outside the concept's extension in that model
is not entailed and costs no tableau run; only the survivors that are not
asserted edges get a refutation run.  Role candidates come from the
model's edges: when the session reads the model it indexes, for every
role name and its inverse, the named objects each named object is joined
to, so a role pattern with a fixed end reads one row and one with both
ends free walks the role's edges; neither visits every pair of objects.
Once the session holds the model, point checks consult it too.  An
inconsistent knowledge base has no model, so nothing is pruned; nor is a
candidate, or a concept naming an object, that the model does not
interpret.

Subsumption ``C ⊑ D`` is unsatisfiability of the probe ``C ⊓ ¬D``, and
the session answers it from what it holds before it runs anything:

* ``{a} ⊑ D`` is the instance check ``a : D``;
* an atomic ``D`` reached from an atomic ``C`` through the unfolding
  table's atomic entries and their conjuncts (a told subsumer) is true;
* every model the session holds, the session model once built and the
  witness of every satisfiable :meth:`Reasoner.is_satisfiable` answer, is
  a model of the knowledge base, so one with an element in ``C ⊓ ¬D``
  refutes the subsumption (a model that does not interpret every object
  the probe names is skipped).

Only then does the probe get one tableau run, and that run builds no
model.  A true answer is kept as an unsatisfiable probe in the
satisfiability memo and a false one in a set of refuted probes, so no
probe runs twice in a session.
"""

from __future__ import annotations

from ._record import record
from typing import Iterable, Optional

from .model import (
    And,
    Concept,
    Exists,
    Interpretation,
    Iri,
    KnowledgeBase,
    Nominal,
    Not,
    Role,
    concept_signature,
    extension,
)
from .tableau import Tableau

__all__ = ["SatResult", "Reasoner"]


@record(frozen=True, eq=False)
class SatResult:
    """Outcome of a satisfiability check; a witness model when satisfiable."""

    satisfiable: bool
    witness: Optional[Interpretation] = None


class Reasoner:
    """Memoising reasoning session over one knowledge base."""

    def __init__(self, kb: KnowledgeBase) -> None:
        self.kb = kb
        self._tableau = Tableau(kb)
        self._sat: dict[Concept, SatResult] = {}
        self._instance: dict[tuple[Iri, Concept], bool] = {}
        self._extension: dict[Concept, Optional[frozenset[int]]] = {}
        self._role_probes: dict[tuple[Role, Iri], Concept] = {}
        self._refuted: set[Concept] = set()
        self._consistent: Optional[bool] = None
        self._model: Optional[Interpretation] = None
        self._edges: dict[Role, dict[Iri, list[Iri]]] = {}

    @property
    def objects(self) -> tuple[Iri, ...]:
        """The knowledge base's named objects, sorted by IRI."""
        return self._tableau.named

    def _session_model(self) -> Optional[Interpretation]:
        """The model read off the consistency run, built on first use;
        None when the knowledge base is inconsistent."""
        if self._consistent is None:
            graph = self._tableau.run()
            self._consistent = graph is not None
            if graph is not None:
                self._model = self._tableau.model_of(graph)
                self._edges = _edge_index(self._model)
        return self._model

    def is_consistent(self) -> bool:
        """True iff the knowledge base has at least one model."""
        return self._session_model() is not None

    def is_satisfiable(self, c: Concept) -> SatResult:
        """Satisfiability of ``c``, with a model witness when satisfiable."""
        cached = self._sat.get(c)
        if cached is None:
            graph = self._tableau.run(c)
            if graph is None:
                cached = SatResult(False)
            else:
                cached = SatResult(True, self._tableau.model_of(graph))
            self._sat[c] = cached
        return cached

    def entails_subsumption(self, c: Concept, d: Concept) -> bool:
        """True iff every model makes ext(c) a subset of ext(d)."""
        if isinstance(c, Nominal):
            return self.entails_instance(c.obj, d)
        probe = And(c, Not(d))
        cached = self._sat.get(probe)
        if cached is not None:
            return not cached.satisfiable
        if probe in self._refuted:
            return False
        refuted = d not in self._tableau.told_subsumers(c) and (
            self._held_model_inhabits(probe) or self._tableau.run(probe) is not None)
        if refuted:
            self._refuted.add(probe)
        else:
            self._sat[probe] = SatResult(False)
        return not refuted

    def _held_model_inhabits(self, c: Concept) -> bool:
        """True when the session model or a satisfiability witness gives
        ``c`` an element; a model not interpreting every object ``c`` names
        is skipped."""
        named = concept_signature(c).objects
        held = [self._model] + [s.witness for s in self._sat.values()]
        return any(m is not None and named <= m.object_map.keys() and extension(c, m)
                   for m in held)

    def _instance_candidates(self, c: Concept, objs: Iterable[Iri]) -> list[Iri]:
        """The objects the held model does not refute as instances of ``c``."""
        model = self._model
        if model is None:
            return list(objs)
        # The held model never changes, so each extension is computed once;
        # None marks a concept naming an object the model does not interpret.
        if c not in self._extension:
            known = concept_signature(c).objects <= model.object_map.keys()
            self._extension[c] = extension(c, model) if known else None
        ext = self._extension[c]
        if ext is None:
            return list(objs)
        where = model.object_map
        return [o for o in objs if o not in where or where[o] in ext]

    def _told_edge(self, obj: Iri, c: Concept) -> bool:
        """True when ``c`` is ``∃r.{b}`` and the A-Box asserts the edge
        (obj, r, b); that edge holds in every model."""
        return (isinstance(c, Exists) and isinstance(c.filler, Nominal)
                and (obj, c.role, c.filler.obj) in self._tableau.told_edges)

    def entails_instance(self, obj: Iri, c: Concept) -> bool:
        """True iff the knowledge base entails that ``obj`` belongs to ``c``."""
        key = (obj, c)
        cached = self._instance.get(key)
        if cached is None:
            if self._told_edge(obj, c):
                cached = True
            elif not self._instance_candidates(c, (obj,)):
                return False
            else:
                cached = self._tableau.run(Not(c), obj) is None
            self._instance[key] = cached
        return cached

    def _role_probe(self, role: Role, obj: Iri) -> Concept:
        """``role some {obj}``, built once per session: a fresh concept
        would be hashed anew at every memo lookup."""
        key = (role, obj)
        probe = self._role_probes.get(key)
        if probe is None:
            probe = self._role_probes[key] = Exists(role, Nominal(obj))
        return probe

    def entails_role(self, subject: Iri, role: Role, obj: Iri) -> bool:
        """True iff the knowledge base entails the ``role`` edge (subject, obj)."""
        return self.entails_instance(subject, self._role_probe(role, obj))

    def named_instances(self, c: Concept) -> frozenset[Iri]:
        """The named objects provably belonging to ``c``."""
        self._session_model()
        return frozenset(o for o in self._instance_candidates(c, self.objects)
                         if self.entails_instance(o, c))

    def named_role_pairs(self, role: Role, subject: Optional[Iri] = None,
                         obj: Optional[Iri] = None) -> frozenset[tuple[Iri, Iri]]:
        """The entailed ``role`` edges between named objects, as (subject,
        object) pairs; a given ``subject`` or ``obj`` fixes that end."""
        return frozenset((a, b) for a, b in self._role_candidates(role, subject, obj)
                         if self.entails_instance(a, self._role_probe(role, b)))

    def _role_candidates(self, role: Role, subject: Optional[Iri],
                         obj: Optional[Iri]) -> Iterable[tuple[Iri, Iri]]:
        """The pairs the held model does not refute as ``role`` edges: those
        it joins by ``role``, and every pairing with an end it does not
        interpret."""
        model = self._session_model()
        if model is None or any(end is not None and end not in model.object_map
                                for end in (subject, obj)):
            subjects = self.objects if subject is None else (subject,)
            objs = self.objects if obj is None else (obj,)
            return ((a, b) for a in subjects for b in objs)
        if subject is not None:
            row = self._edges.get(role, {}).get(subject, ())
            return ((subject, b) for b in row if obj is None or b == obj)
        if obj is not None:
            return ((a, obj) for a in self._edges.get(role.inverted(), {}).get(obj, ()))
        return ((a, b) for a, row in self._edges.get(role, {}).items() for b in row)


def _edge_index(model: Interpretation) -> dict[Role, dict[Iri, list[Iri]]]:
    """For each role name and its inverse, each named object's row of the
    named objects ``model`` joins it to; objects merged onto one element
    share its rows."""
    at: dict[int, list[Iri]] = {}
    for o, x in model.object_map.items():
        at.setdefault(x, []).append(o)
    index: dict[Role, dict[Iri, list[Iri]]] = {}
    for name, pairs in model.role_ext.items():
        forward = index[Role(name)] = {}
        backward = index[Role(name, inverse=True)] = {}
        for x, y in pairs:
            for a in at.get(x, ()):
                for b in at.get(y, ()):
                    forward.setdefault(a, []).append(b)
                    backward.setdefault(b, []).append(a)
    return index
