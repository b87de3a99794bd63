"""Completion-graph tableau for the supported concept constructor set.

The calculus handles boolean connectives, qualified quantifiers, inverse
roles and single-object nominals:

* every concept is kept in negation normal form;
* each inclusion C ⊑ D is internalised as the disjunction nnf(¬C ⊔ D),
  part of every node's label from the moment the node is created;
* universal restrictions propagate across edges in both directions, so
  inverse roles need no special casing beyond the neighbour relation;
* two nodes sharing a nominal are merged (newer into older), which is the
  only way equality between individuals can be forced here;
* termination comes from anywhere pairwise blocking: an anonymous node is
  blocked when its (label, parent label, connecting edge labels) triple
  duplicates that of an earlier unblocked anonymous node.  Nodes holding a
  nominal are never blocked.  Only successor generation is gated on
  blocking; label-filling rules are harmless on blocked nodes and keep
  the block condition honest.

Rule priority is fixed (merge, then ⊓, ⊔, ∃, ∀; lowest node id first;
within a label, insertion order), disjunctions with exactly one
non-clashing side are applied without a choice point, and real choice
points are explored depth-first from an explicit stack of pending graphs
(so the number of choice points is not bounded by Python's recursion
limit), first choice first.  Runs are reproducible.

From a clash-free completed graph a finite model is read off directly:
blocked nodes are dropped and edges into them are redirected to their
blockers, which the pairwise blocking condition makes safe.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

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
    concept_signature,
    negated,
    nnf,
    signature,
)

class _Graph:
    """Mutable completion graph; copied at disjunction choice points.

    Labels are insertion-ordered concept sets (dicts with None values), so
    every iteration order below is deterministic without sorting.
    """

    __slots__ = ("labels", "parent", "out", "inc", "clashed", "next_id")

    def __init__(self) -> None:
        self.labels: dict[int, dict[Concept, None]] = {}
        self.parent: dict[int, Optional[int]] = {}
        self.out: dict[int, dict[int, set[Iri]]] = {}
        self.inc: dict[int, dict[int, set[Iri]]] = {}
        self.clashed = False
        self.next_id = 0

    def copy(self) -> "_Graph":
        g = _Graph.__new__(_Graph)
        g.labels = {n: dict(lbl) for n, lbl in self.labels.items()}
        g.parent = dict(self.parent)
        g.out = {n: {d: set(r) for d, r in adj.items()} for n, adj in self.out.items()}
        g.inc = {n: {d: set(r) for d, r in adj.items()} for n, adj in self.inc.items()}
        g.clashed = self.clashed
        g.next_id = self.next_id
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

    def add(self, node: int, c: Concept) -> bool:
        """Add a concept to a label; returns False if already present.
        Flags a clash on bottom or on a complementary literal pair."""
        label = self.labels[node]
        if c in label:
            return False
        label[c] = None
        if isinstance(c, Bottom):
            self.clashed = True
        elif isinstance(c, Not):
            if c.operand in label:
                self.clashed = True
        elif isinstance(c, (Atomic, Nominal)):
            if Not(c) in label:
                self.clashed = True
        return True

    def add_edge(self, src: int, dst: int, role_iri: Iri) -> None:
        self.out[src].setdefault(dst, set()).add(role_iri)
        self.inc[dst].setdefault(src, set()).add(role_iri)

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
        """Fold ``source`` into ``target``: union labels, reroute edges,
        re-parent children, delete the source node."""
        for c in self.labels[source]:
            self.add(target, c)
        for dst, roles in list(self.out[source].items()):
            dst2 = target if dst == source else dst
            for r in roles:
                self.add_edge(target, dst2, r)
            self.inc[dst].pop(source, None)
        for src, roles in list(self.inc[source].items()):
            if src == source:
                continue
            for r in roles:
                self.add_edge(src, target, r)
            self.out[src].pop(source, None)
        for table in (self.labels, self.parent, self.out, self.inc):
            del table[source]
        for node, par in self.parent.items():
            if par == source:
                self.parent[node] = target

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


class Tableau:
    """Deterministic satisfiability runs over one knowledge base."""

    def __init__(self, kb: KnowledgeBase) -> None:
        self.kb = kb
        self.internalized: tuple[Concept, ...] = tuple(
            dict.fromkeys(nnf(Or(Not(g.sub), g.sup)) for g in kb.gcis())
        )
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
        graph = _Graph()
        named = list(self.named)
        for obj, _ in extra_assertions:
            if obj not in named:
                named.append(obj)
        # An object a nominal names denotes something even when the KB
        # never mentions it, so it gets a node of its own.
        concepts = [c for _, c in extra_assertions] + ([probe] if probe is not None else [])
        mentioned = {o for c in concepts for o in concept_signature(c).objects}
        named += sorted(mentioned.difference(named), key=lambda i: i.value)
        node_of = {
            obj: graph.new_node(None, (Nominal(obj),) + self.internalized)
            for obj in named
        }
        for assertion in self.kb.abox:
            if isinstance(assertion, ConceptAssertion):
                graph.add(node_of[assertion.obj], nnf(assertion.concept))
            elif isinstance(assertion, RoleAssertion):
                graph.add_edge(node_of[assertion.subject], node_of[assertion.obj],
                               assertion.role.iri)
        for obj, concept in extra_assertions:
            graph.add(node_of[obj], nnf(concept))
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
        # Deterministic rules run to quiescence before any choice point, and
        # successors are generated before branching, so every branch starts
        # from a fully propagated graph.  Disjunctions with at most one
        # non-clashing side never branch.  A choice point pushes one graph
        # per choice, the first on top; the last choice takes the graph
        # itself, the others a copy.
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

            if self._apply_conjunctions(graph):
                continue

            if self._apply_foralls(graph):
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

    def _apply_conjunctions(self, graph: _Graph) -> bool:
        changed = False
        for node in graph.labels:
            label = graph.labels[node]
            # Snapshot: decompositions may enqueue further conjunctions,
            # which the next sweep picks up.
            for c in list(label):
                if isinstance(c, And):
                    changed |= graph.add(node, c.left)
                    changed |= graph.add(node, c.right)
                    if graph.clashed:
                        return True
        return changed

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

    def _apply_foralls(self, graph: _Graph) -> bool:
        changed = False
        for node in graph.labels:
            for c in list(graph.labels[node]):
                if isinstance(c, Forall):
                    for y in graph.neighbors(node, c.role):
                        changed |= graph.add(y, c.filler)
                        if graph.clashed:
                            return True
        return changed

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
