"""Completion-graph tableau for the supported concept constructor set.

The calculus handles boolean connectives, qualified quantifiers, inverse
roles and single-object nominals:

* every concept is kept in negation normal form;
* the T-Box is absorbed into lazy unfolding (Horrocks and Tobies, KR 2000;
  role absorption after Tsarkov and Horrocks, DL 2004): C1 ⊔ C2 ⊑ D splits
  into C1 ⊑ D and C2 ⊑ D; A ⊓ X ⊑ D with A atomic becomes the trigger
  A ↦ nnf(¬X ⊔ D), added to a label whenever A enters it; failing an
  atomic conjunct, ∃r.F ⊓ X ⊑ D becomes the equivalent
  F ⊑ ∀inv(r).nnf(¬X ⊔ D) and is absorbed in turn, so ∃r.⊤ ⊑ D ends as
  the deterministic ∀inv(r).D; ⊤ ⊑ D internalises D.  Only what none of
  these rules takes stays internalised as the disjunction nnf(¬C ⊔ D).
  Every node carries the internalised concepts before the first rule
  sweep.  Only positive atomic concepts trigger: a node
  without A is outside A in the extracted model, so a trigger on ¬A would
  miss every node holding neither;
* universal restrictions propagate across edges in both directions, so
  inverse roles need no special casing beyond the neighbour relation;
* two nodes sharing a nominal are merged (newer into older), which is the
  only way equality between individuals can be forced here.  The subtree
  the newer node generated is pruned, not re-parented (Horrocks and
  Sattler, IJCAI 2005): the older node regenerates what it needs.  Kept,
  each merge could unblock a chain that grew one node more before the
  next merge, without end;
* termination comes from anywhere pairwise blocking: an anonymous node is
  blocked when its (label, parent label, connecting edge labels) triple
  duplicates that of an earlier unblocked anonymous node.  Nodes holding a
  nominal are never blocked.  Only successor generation is gated on
  blocking; label-filling rules are harmless on blocked nodes and keep
  the block condition honest.

Unfolding, ⊓ and ∀ fire as concepts and edges arrive (ToDo-list
expansion, Horrocks and Patel-Schneider, J. Logic Comput. 1999): adding a
concept to a label closes the graph under them from a worklist, and a new
edge carries the ∀s of both its endpoints across, so no rule sweep waits
for them.  Merge, ⊔ and ∃ are found by sweeping the graph, in that fixed
priority (lowest node id first; within a label, insertion order).  Disjunctions with
exactly one non-clashing side are applied without a choice point,
successors are generated before the first real choice point, and real
choice points are explored depth-first from an explicit stack of pending
graphs (so the number of choice points is not bounded by Python's
recursion limit), first choice first.  Runs are reproducible.

From a clash-free completed graph a finite model is read off directly:
blocked nodes are dropped and edges into them are redirected to their
blockers, which the pairwise blocking condition makes safe.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from .interpretation import Interpretation
from .model import (
    And,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    Iri,
    KnowledgeBase,
    Nominal,
    Not,
    Or,
    Role,
    RoleAssertion,
    SubClass,
    Top,
    concept_signature,
    negated,
    nnf,
    signature,
)

class _Graph:
    """Mutable completion graph; copied at disjunction choice points.

    Labels are insertion-ordered concept sets (dicts with None values), so
    every iteration order below is deterministic without sorting.  Until a
    clash, labels stay closed under unfolding, ⊓ and ∀: every ⊓ has both
    conjuncts beside it, and every ∀r.C has C in the label of each
    r-neighbour.  The unfolding table and the negation lookup belong to
    the tableau and are shared by every copy.
    """

    __slots__ = ("labels", "parent", "out", "inc", "clashed", "next_id",
                 "unfolding", "neg")

    def __init__(self, unfolding: dict[Concept, tuple[Concept, ...]],
                 neg: Callable[[Concept], Concept]) -> None:
        self.labels: dict[int, dict[Concept, None]] = {}
        self.parent: dict[int, Optional[int]] = {}
        self.out: dict[int, dict[int, set[Iri]]] = {}
        self.inc: dict[int, dict[int, set[Iri]]] = {}
        self.clashed = False
        self.next_id = 0
        self.unfolding = unfolding
        self.neg = neg

    def copy(self) -> "_Graph":
        g = _Graph.__new__(_Graph)
        g.labels = {n: dict(lbl) for n, lbl in self.labels.items()}
        g.parent = dict(self.parent)
        g.out = {n: {d: set(r) for d, r in adj.items()} for n, adj in self.out.items()}
        g.inc = {n: {d: set(r) for d, r in adj.items()} for n, adj in self.inc.items()}
        g.clashed = self.clashed
        g.next_id = self.next_id
        g.unfolding = self.unfolding
        g.neg = self.neg
        return g

    def new_node(self, parent: Optional[int], label: Iterable[Concept]) -> int:
        node = self.next_id
        self.next_id += 1
        self.labels[node] = {}
        self.parent[node] = parent
        self.out[node] = {}
        self.inc[node] = {}
        for c in label:
            self.add(node, c)
        return node

    def add(self, node: int, c: Concept) -> None:
        """Add a concept to a label and close the graph under what it
        fires: unfolding, ⊓, and ∀ across the node's current edges.  Stops
        at the first clash (⊥ or a complementary literal pair)."""
        self._close([(node, c)])

    def _close(self, todo: list[tuple[int, Concept]]) -> None:
        if self.clashed:  # a clashed graph is discarded unread
            return
        # The list grows while it is walked: what a concept fires joins
        # the graph after it, unfoldings in table order.
        for node, c in todo:
            label = self.labels[node]
            if c in label:
                continue
            label[c] = None
            if isinstance(c, (Atomic, Nominal)):
                if self.neg(c) in label:
                    self.clashed = True
                    return
                todo.extend((node, d) for d in self.unfolding.get(c, ()))
            elif isinstance(c, And):
                todo += ((node, c.left), (node, c.right))
            elif isinstance(c, Forall):
                todo.extend((y, c.filler) for y in self.neighbors(node, c.role))
            elif isinstance(c, Not):
                if c.operand in label:
                    self.clashed = True
                    return
            elif isinstance(c, Bottom):
                self.clashed = True
                return

    def add_edge(self, src: int, dst: int, role_iri: Iri) -> None:
        """Add an edge and carry the ∀s of both endpoints across it."""
        roles = self.out[src].setdefault(dst, set())
        if role_iri in roles:
            return
        roles.add(role_iri)
        self.inc[dst].setdefault(src, set()).add(role_iri)
        self._close(
            [(dst, c.filler) for c in self.labels[src] if isinstance(c, Forall)
             and not c.role.inverse and c.role.iri == role_iri]
            + [(src, c.filler) for c in self.labels[dst] if isinstance(c, Forall)
               and c.role.inverse and c.role.iri == role_iri])

    def neighbors(self, node: int, role: Role) -> Iterator[int]:
        adj = self.inc[node] if role.inverse else self.out[node]
        for other, roles in adj.items():
            if role.iri in roles:
                yield other

    def connection(self, a: int, b: int) -> tuple[frozenset[Iri], frozenset[Iri]]:
        return (frozenset(self.out[a].get(b, ())), frozenset(self.out[b].get(a, ())))

    def has_nominal(self, node: int) -> bool:
        return any(isinstance(c, Nominal) for c in self.labels[node])

    def merge(self, target: int, source: int) -> None:
        """Fold ``source`` into ``target``: delete the subtree ``source``
        generated, union labels, copy the remaining edges onto ``target``,
        delete ``source``."""
        subtree = [source]
        for node, par in self.parent.items():  # a parent precedes its children
            if par in subtree:
                subtree.append(node)
        for node in subtree[1:]:
            self.delete(node)
        # A snapshot: a ∀ copied onto the target crosses its edges, and
        # one of them may lead back into the source.
        for c in list(self.labels[source]):
            self.add(target, c)
        for dst, roles in self.out[source].items():
            for r in roles:
                self.add_edge(target, target if dst == source else dst, r)
        for src, roles in self.inc[source].items():
            if src != source:
                for r in roles:
                    self.add_edge(src, target, r)
        self.delete(source)

    def delete(self, node: int) -> None:
        """Remove a node and every edge touching it."""
        for dst in self.out.pop(node):
            if dst != node:
                self.inc[dst].pop(node)
        for src in self.inc.pop(node):
            if src != node:
                self.out[src].pop(node)
        del self.labels[node], self.parent[node]

    def blocking(self) -> tuple[dict[int, int], set[int]]:
        """(directly-blocked -> blocker, all blocked nodes), by ascending id;
        a parent always has a smaller id than its children."""
        direct: dict[int, int] = {}
        blocked: set[int] = set()
        candidates: list[int] = []
        for node in self.labels:
            par = self.parent[node]
            if par is not None and par in blocked:
                blocked.add(node)
                continue
            if par is None or self.has_nominal(node):
                continue
            lbl = self.labels[node].keys()
            plbl = self.labels[par].keys()
            conn = self.connection(par, node)
            for other in candidates:
                opar = self.parent[other]
                if (self.labels[other].keys() == lbl
                        and self.labels[opar].keys() == plbl
                        and self.connection(opar, other) == conn):
                    direct[node] = other
                    blocked.add(node)
                    break
            if node not in blocked:
                candidates.append(node)
        return direct, blocked


def _absorb(gcis: Iterable[SubClass]) -> tuple[dict[Concept, tuple[Concept, ...]],
                                              tuple[Concept, ...]]:
    """Sort inclusions into (atomic trigger -> concepts it unfolds to, the
    concepts every node carries), by the rules in the module docstring."""
    unfolding: dict[Concept, dict[Concept, None]] = {}
    internalized: dict[Concept, None] = {}
    pending = [(nnf(g.sub), nnf(g.sup)) for g in gcis]
    # Rewritten inclusions join the list while it is walked, so an ∃ chain
    # on a left-hand side takes one step per quantifier, not one frame.
    for sub, sup in pending:
        if isinstance(sub, Or):
            pending += [(sub.left, sup), (sub.right, sup)]
            continue
        conjuncts = _conjuncts(sub)
        if any(isinstance(c, Bottom) for c in conjuncts) or isinstance(sup, Top):
            continue
        atom = next((i for i, c in enumerate(conjuncts) if isinstance(c, Atomic)), None)
        if atom is not None:
            rest = conjuncts[:atom] + conjuncts[atom + 1:]
            unfolding.setdefault(conjuncts[atom], {})[_implies(rest, sup)] = None
            continue
        if not conjuncts:
            internalized[sup] = None
            continue
        some = next((i for i, c in enumerate(conjuncts) if isinstance(c, Exists)), None)
        if some is not None:
            rest = conjuncts[:some] + conjuncts[some + 1:]
            c = conjuncts[some]
            pending.append((c.filler, Forall(c.role.inverted(), _implies(rest, sup))))
            continue
        internalized[_implies(conjuncts, sup)] = None
    return ({a: tuple(cs) for a, cs in unfolding.items()}, tuple(internalized))


def _conjuncts(c: Concept) -> list[Concept]:
    """The conjuncts of an NNF concept, nested ∧ flattened and ⊤ dropped."""
    out: list[Concept] = []
    stack = [c]
    while stack:
        c = stack.pop()
        if isinstance(c, And):
            stack += [c.right, c.left]
        elif not isinstance(c, Top):
            out.append(c)
    return out


def _implies(conjuncts: list[Concept], sup: Concept) -> Concept:
    """nnf(¬(⊓ conjuncts) ⊔ sup) for an NNF ``sup``: ``sup`` itself when
    there is no conjunct, and no disjunction with ⊥."""
    if not conjuncts:
        return sup
    x = conjuncts[0]
    for c in conjuncts[1:]:
        x = And(x, c)
    if isinstance(sup, Bottom):
        return negated(x)
    return Or(negated(x), sup)


class Tableau:
    """Deterministic satisfiability runs over one knowledge base."""

    def __init__(self, kb: KnowledgeBase) -> None:
        self.kb = kb
        self.unfolding, self.internalized = _absorb(kb.gcis())
        self.named: tuple[Iri, ...] = tuple(
            sorted(signature(kb).objects, key=lambda i: i.value))
        self._negations: dict[Concept, Concept] = {}

    def _neg(self, c: Concept) -> Concept:
        cached = self._negations.get(c)
        if cached is None:
            cached = negated(c)
            self._negations[c] = cached
        return cached

    def _initial_graph(
        self,
        probe: Optional[Concept],
        extra_assertions: tuple[tuple[Iri, Concept], ...],
    ) -> _Graph:
        graph = _Graph(self.unfolding, self._neg)
        named = list(self.named)
        for obj, _ in extra_assertions:
            if obj not in named:
                named.append(obj)
        # An object a nominal names denotes something even when the KB
        # never mentions it, so it gets a node of its own.
        concepts = [c for _, c in extra_assertions] + ([probe] if probe is not None else [])
        mentioned = {o for c in concepts for o in concept_signature(c).objects}
        named += sorted(mentioned.difference(named), key=lambda i: i.value)
        # Concepts before edges, and the extra assertions first: a
        # refutation that clashes on an asserted concept then stops before
        # the internalised concepts and the role assertions close the graph.
        node_of = {obj: graph.new_node(None, (Nominal(obj),)) for obj in named}
        for obj, concept in extra_assertions:
            graph.add(node_of[obj], nnf(concept))
        for assertion in self.kb.abox:
            if isinstance(assertion, ConceptAssertion):
                graph.add(node_of[assertion.obj], nnf(assertion.concept))
        for node in node_of.values():
            for c in self.internalized:
                graph.add(node, c)
        for assertion in self.kb.abox:
            if isinstance(assertion, RoleAssertion):
                graph.add_edge(node_of[assertion.subject], node_of[assertion.obj],
                               assertion.role.iri)
        if probe is not None:
            graph.new_node(None, (nnf(probe),) + self.internalized)
        if not graph.labels:
            graph.new_node(None, self.internalized)
        return graph

    def run(
        self,
        probe: Optional[Concept] = None,
        extra_assertions: tuple[tuple[Iri, Concept], ...] = (),
    ) -> Optional[_Graph]:
        """Expand to a clash-free completed graph, or None if none exists."""
        return self._expand(self._initial_graph(probe, extra_assertions))

    def _expand(self, graph: _Graph) -> Optional[_Graph]:
        # Merges and decided disjunctions run to quiescence before any
        # choice point (unfolding, ⊓ and ∀ never wait), and successors are
        # generated before branching, so every branch starts from a fully
        # propagated graph.  Disjunctions with at most one non-clashing
        # side never branch.  A choice point pushes one graph per choice,
        # the first on top; the last choice takes the graph itself, the
        # others a copy.
        pending = [graph]
        while pending:
            graph = pending.pop()
            branch = self._saturate(graph)
            if graph.clashed:
                continue
            if branch is None:
                return graph
            node, choices = branch
            attempts = [graph.copy() for _ in choices[1:]] + [graph]
            for attempt, choice in zip(attempts, choices):
                attempt.add(node, choice)
            pending.extend(reversed(attempts))
        return None

    def _saturate(self, graph: _Graph) -> Optional[tuple[int, list[Concept]]]:
        """Apply deterministic rules until the graph clashes or is complete
        (both None), or needs a choice: then (node, choices)."""
        while True:
            if graph.clashed:
                return None

            action = self._merge_action(graph)
            if action is not None:
                graph.merge(*action)
                continue

            branch = self._disjunction_action(graph)
            if branch is not None and len(branch[1]) <= 1:
                node, choices = branch
                if not choices:
                    graph.clashed = True
                    return None
                graph.add(node, choices[0])
                continue

            if self._apply_exists(graph):
                continue

            return branch

    def _merge_action(self, graph: _Graph) -> Optional[tuple[int, int]]:
        seen: dict[Iri, int] = {}
        for node in graph.labels:
            for c in graph.labels[node]:
                if isinstance(c, Nominal):
                    first = seen.get(c.obj)
                    if first is None:
                        seen[c.obj] = node
                    elif first != node:
                        return (first, node)
        return None

    def _disjunction_action(self, graph: _Graph) -> Optional[tuple[int, list[Concept]]]:
        """The next disjunction to apply: prefer ones decided by the current
        label (zero or one viable side) over genuine choice points."""
        first_choice: Optional[tuple[int, list[Concept]]] = None
        for node in graph.labels:
            label = graph.labels[node]
            for c in label:
                if not isinstance(c, Or):
                    continue
                if c.left in label or c.right in label:
                    continue
                viable = [
                    d for d in (c.left, c.right)
                    if not isinstance(d, Bottom) and self._neg(d) not in label
                ]
                if len(viable) <= 1:
                    return (node, viable)
                if first_choice is None:
                    first_choice = (node, viable)
        return first_choice

    def _apply_exists(self, graph: _Graph) -> bool:
        direct, blocked = graph.blocking()
        indirect = blocked - direct.keys()
        # Returns as soon as it adds a node, so the label dict is never
        # iterated after a change.
        for node in graph.labels:
            if node in blocked:
                continue
            for c in graph.labels[node]:
                if isinstance(c, Exists):
                    # A directly blocked witness is fine (its blocker stands
                    # in for it in the extracted model); an indirectly
                    # blocked one disappears entirely, so it does not count.
                    if any(c.filler in graph.labels[y]
                           for y in graph.neighbors(node, c.role)
                           if y not in indirect):
                        continue
                    child = graph.new_node(node, (c.filler,) + self.internalized)
                    if c.role.inverse:
                        graph.add_edge(child, node, c.role.iri)
                    else:
                        graph.add_edge(node, child, c.role.iri)
                    return True
        return False

    # -- model extraction --------------------------------------------------

    def model_of(self, graph: _Graph) -> Interpretation:
        """Read a finite interpretation off a clash-free completed graph.

        Blocked nodes are dropped; every edge endpoint at a directly blocked
        node is replaced by its blocker (pairwise blocking makes the tree
        edge safe; label-filling rules run on blocked nodes too, which makes
        the rerouted non-tree edges safe as well).  Edges touching an
        indirectly blocked node vanish with their subtree.
        """
        direct, blocked = graph.blocking()
        surviving = [n for n in graph.labels if n not in blocked]
        domain = frozenset(surviving)

        concept_ext: dict[Iri, set[int]] = {}
        object_map: dict[Iri, int] = {}
        for node in surviving:
            for c in graph.labels[node]:
                if isinstance(c, Atomic):
                    concept_ext.setdefault(c.iri, set()).add(node)
                elif isinstance(c, Nominal):
                    object_map[c.obj] = node

        def land(node: int) -> Optional[int]:
            return node if node in domain else direct.get(node)

        role_ext: dict[Iri, set[tuple[int, int]]] = {}
        for src, adj in graph.out.items():
            for dst, roles in adj.items():
                source, target = land(src), land(dst)
                if source is None or target is None:
                    continue
                for role_iri in roles:
                    role_ext.setdefault(role_iri, set()).add((source, target))

        return Interpretation(
            domain=domain,
            concept_ext={k: frozenset(v) for k, v in concept_ext.items()},
            role_ext={k: frozenset(v) for k, v in role_ext.items()},
            object_map=object_map,
        )
