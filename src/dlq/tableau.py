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
* an edge is stored at both its ends, as r from its tail and inv(r) from
  its head, so ∃ and ∀ over an inverse role read the same edge map as over
  an atomic one;
* two nodes sharing a nominal are merged (newer into older), which is the
  only way equality between individuals can be forced here.  The subtree
  the newer node generated is pruned, not re-parented (Horrocks and
  Sattler, IJCAI 2005): the older node regenerates what it needs.  Kept,
  each merge could unblock a chain that grew one node more before the
  next merge, without end;
* termination comes from anywhere pairwise blocking: an anonymous node is
  blocked when its key (label, parent label, roles joining the parent to
  it) is held by an earlier unblocked anonymous node; one pass maps each
  key to its first holder.  Nodes holding a nominal are never blocked.
  Only successor generation is gated on blocking; label-filling rules are
  harmless on blocked nodes and keep the block condition honest.

Unfolding, ⊓ and ∀ fire as concepts and edges arrive (ToDo-list
expansion, Horrocks and Patel-Schneider, J. Logic Comput. 1999): adding a
concept to a label closes the graph under them from a worklist, and a new
edge carries the ∀s of both its endpoints across, so no rule sweep waits
for them.  One sweep over the labels (lowest node id first; within a
label, insertion order) finds the first nominal merge, else the first
disjunction with at most one non-clashing side, which is applied without a
choice point, else the first real choice point.  Only when it finds no
merge or decided disjunction does the ∃ rule run, so successors are
generated before the first real choice point.

The ∃ rule reads an agenda, not the labels.  An ∃ joins the agenda, with
its node, when it enters a label.  The rule expands the first unwitnessed
entry on an unblocked node, in the sweep's order.  An entry is retired
once a neighbour over its role holds its filler.  That is sound for three
reasons:

* labels and edges only grow between merges;
* a merge gives the node it keeps the label and edges of the node it
  deletes;
* an anonymous node's neighbours are its parent, its children and roots,
  so its witness is blocked indirectly only when the node itself is
  blocked, and is pruned only with the node.

The exception is a root whose witness is an anonymous node other than its
own child; a merge leaves such edges.  That witness can become indirectly
blocked, or be pruned with a merged subtree, so the entry stays and is
checked again.  The blocking map is computed at most once per ∃ step, and
only when an unwitnessed entry on an anonymous node, or such a witness,
needs it.

Real choice points are explored depth-first from an explicit stack of
pending graphs (so the number of choice points is not bounded by Python's
recursion limit), first choice first.  Labels and edge role sets keep
insertion order, so runs are reproducible whatever the hash seed.

From a clash-free completed graph a finite model is read off directly:
blocked nodes are dropped and edges into them are redirected to their
blockers, which the pairwise blocking condition makes safe.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .model import (
    And,
    Atomic,
    BOTTOM,
    Bottom,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    Interpretation,
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

    Labels are insertion-ordered concept sets (dicts with None values), and
    so are edges: ``edges[a][b]`` holds every role, inverse roles included,
    that joins ``a`` to ``b``, so an r-edge from a to b is r under
    ``edges[a][b]`` and inv(r) under ``edges[b][a]``.  Every iteration
    order below is deterministic without sorting.  Until a clash, labels
    stay closed under unfolding, ⊓ and ∀: every ⊓ has both conjuncts beside
    it, and every ∀r.C has C in the label of each r-neighbour.  ``agenda``
    lists (node, ∃) in the order the ∃s entered labels; the ∃ rule drops
    the entries of deleted nodes and the entries whose witness lasts (see
    the module docstring), so it holds every unwitnessed ∃.  The unfolding
    table and the negation lookup belong to the tableau and are shared by
    every copy.
    """

    __slots__ = ("labels", "parent", "edges", "agenda", "clashed", "next_id",
                 "unfolding", "neg")

    def __init__(self, unfolding: dict[Concept, tuple[Concept, ...]],
                 neg: Callable[[Concept], Concept]) -> None:
        self.labels: dict[int, dict[Concept, None]] = {}
        self.parent: dict[int, Optional[int]] = {}
        self.edges: dict[int, dict[int, dict[Role, None]]] = {}
        self.agenda: list[tuple[int, Exists]] = []
        self.clashed = False
        self.next_id = 0
        self.unfolding = unfolding
        self.neg = neg

    def copy(self) -> "_Graph":
        g = _Graph.__new__(_Graph)
        g.labels = {n: dict(lbl) for n, lbl in self.labels.items()}
        g.parent = dict(self.parent)
        g.edges = {n: {m: dict(r) for m, r in adj.items()} for n, adj in self.edges.items()}
        g.agenda = list(self.agenda)
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
        self.edges[node] = {}
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
            elif isinstance(c, Exists):
                self.agenda.append((node, c))
            elif isinstance(c, Not):
                if c.operand in label:
                    self.clashed = True
                    return
            elif isinstance(c, Bottom):
                self.clashed = True
                return

    def add_edge(self, src: int, dst: int, role: Role) -> None:
        """Add a ``role`` edge from ``src`` to ``dst`` and carry the ∀s of
        both endpoints across it."""
        roles = self.edges[src].setdefault(dst, {})
        if role in roles:
            return
        roles[role] = None
        back = role.inverted()
        self.edges[dst].setdefault(src, {})[back] = None
        self._close(
            [(dst, c.filler) for c in self.labels[src]
             if isinstance(c, Forall) and c.role == role]
            + [(src, c.filler) for c in self.labels[dst]
               if isinstance(c, Forall) and c.role == back])

    def neighbors(self, node: int, role: Role) -> Iterator[int]:
        for other, roles in self.edges[node].items():
            if role in roles:
                yield other

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
        for other, roles in self.edges[source].items():
            for role in roles:
                self.add_edge(target, target if other == source else other, role)
        self.delete(source)

    def delete(self, node: int) -> None:
        """Remove a node and every edge touching it."""
        for other in self.edges.pop(node):
            if other != node:
                del self.edges[other][node]
        del self.labels[node], self.parent[node]

    def blocking(self) -> tuple[dict[int, int], set[int]]:
        """(directly-blocked -> blocker, all blocked nodes).  A node is
        blocked directly by the first unblocked anonymous node, by
        ascending id, with the same (label, parent label, roles from the
        parent) key; a parent always has a smaller id than its children."""
        direct: dict[int, int] = {}
        blocked: set[int] = set()
        holders: dict[tuple, int] = {}
        for node, par in self.parent.items():
            if par in blocked:
                blocked.add(node)
            elif par is not None and not self.has_nominal(node):
                key = (frozenset(self.labels[node]), frozenset(self.labels[par]),
                       frozenset(self.edges[par][node]))
                holder = holders.setdefault(key, node)
                if holder != node:
                    direct[node] = holder
                    blocked.add(node)
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

    def told_subsumers(self, c: Concept) -> set[Concept]:
        """The atomic concepts reached from atomic ``c`` through the
        unfolding table's atomic entries and their conjuncts, ``c``
        included; each one subsumes ``c``.  Empty when ``c`` is not atomic."""
        if not isinstance(c, Atomic):
            return set()
        seen, todo = {c}, [c]
        while todo:
            for e in self.unfolding.get(todo.pop(), ()):
                for a in _conjuncts(e):
                    if isinstance(a, Atomic) and a not in seen:
                        seen.add(a)
                        todo.append(a)
        return seen

    @cached_property
    def told_edges(self) -> frozenset[tuple[Iri, Role, Iri]]:
        """Every asserted role edge from both ends, (a, r, b) and
        (b, inv(r), a); built on first use, so set-up does not pay for it."""
        return frozenset(
            edge for a in self.kb.abox if isinstance(a, RoleAssertion)
            for edge in ((a.subject, a.role, a.obj), (a.obj, a.role.inverted(), a.subject)))

    def _initial_graph(self, concept: Optional[Concept], obj: Optional[Iri]) -> _Graph:
        graph = _Graph(self.unfolding, self._neg)
        named = list(self.named)
        if obj is not None and obj not in named:
            named.append(obj)
        # An object a nominal names denotes something even when the KB
        # never mentions it, so it gets a node of its own.
        if concept is not None:
            mentioned = concept_signature(concept).objects.difference(named)
            named += sorted(mentioned, key=lambda i: i.value)
        # Concepts before edges, and the asserted concept first: a
        # refutation that clashes on it then stops before the internalised
        # concepts and the role assertions close the graph.
        node_of = {o: graph.new_node(None, (Nominal(o),)) for o in named}
        if obj is not None and concept is not None:
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
                               assertion.role)
        if obj is None and concept is not None:
            graph.new_node(None, (nnf(concept),) + self.internalized)
        if not graph.labels:
            graph.new_node(None, self.internalized)
        return graph

    def run(self, concept: Optional[Concept] = None,
            obj: Optional[Iri] = None) -> Optional[_Graph]:
        """Expand to a clash-free completed graph, or None if none exists.
        ``concept``, when given, is asserted of ``obj``, or of a fresh root
        node when ``obj`` is None."""
        return self._expand(self._initial_graph(concept, obj))

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
        while not graph.clashed:
            merge, branch = self._sweep(graph)
            if merge is not None:
                graph.merge(*merge)
            elif branch is not None and len(branch[1]) <= 1:
                node, choices = branch
                graph.add(node, choices[0] if choices else BOTTOM)
            elif not self._apply_exists(graph):
                return branch
        return None

    def _sweep(self, graph: _Graph) -> tuple[Optional[tuple[int, int]],
                                             Optional[tuple[int, list[Concept]]]]:
        """One pass over the labels, lowest node id first: the first two
        nodes sharing a nominal (older, newer), and the first disjunction
        decided by its label (zero or one viable side), else the first
        genuine choice point."""
        seen: dict[Iri, int] = {}
        decided = choice = None
        for node, label in graph.labels.items():
            for c in label:
                if isinstance(c, Nominal):
                    first = seen.setdefault(c.obj, node)
                    if first != node:
                        return (first, node), None
                elif (isinstance(c, Or) and decided is None
                      and c.left not in label and c.right not in label):
                    viable = [d for d in (c.left, c.right)
                              if not isinstance(d, Bottom) and self._neg(d) not in label]
                    if len(viable) <= 1:
                        decided = (node, viable)
                    elif choice is None:
                        choice = (node, viable)
        return None, decided or choice

    def _apply_exists(self, graph: _Graph) -> bool:
        """Give a new successor to the first unwitnessed ∃ on an unblocked
        node, in the sweep's order (lowest node id, then label order);
        False if there is none.  Retires the agenda entries whose witness
        lasts (see the module docstring)."""
        labels, parent = graph.labels, graph.parent
        # (node, ∃, the root's witnesses that may stop counting)
        open_: list[tuple[int, Exists, list[int]]] = []
        for node, c in graph.agenda:
            if node not in labels:  # deleted by a merge
                continue
            root = parent[node] is None
            doubtful: list[int] = []
            for y in graph.neighbors(node, c.role):
                if c.filler in labels[y]:
                    if not root or parent[y] is None or parent[y] == node:
                        break
                    doubtful.append(y)
            else:
                open_.append((node, c, doubtful))
        graph.agenda = [(node, c) for node, c, _ in open_]
        indirect = blocked = None
        # sorted() is stable, so one node's entries keep their label order.
        for node, c, doubtful in sorted(open_, key=lambda entry: entry[0]):
            if doubtful or parent[node] is not None:
                if blocked is None:
                    direct, blocked = graph.blocking()
                    indirect = blocked - direct.keys()
                # A directly blocked witness is fine (its blocker stands in
                # for it in the extracted model); an indirectly blocked one
                # disappears entirely, so it does not count.
                if node in blocked or any(y not in indirect for y in doubtful):
                    continue
            child = graph.new_node(node, (c.filler,) + self.internalized)
            graph.add_edge(node, child, c.role)
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
        for src, adj in graph.edges.items():
            for dst, roles in adj.items():
                source, target = land(src), land(dst)
                if source is None or target is None:
                    continue
                for role in roles:
                    if not role.inverse:
                        role_ext.setdefault(role.iri, set()).add((source, target))

        return Interpretation(
            domain=domain,
            concept_ext={k: frozenset(v) for k, v in concept_ext.items()},
            role_ext={k: frozenset(v) for k, v in role_ext.items()},
            object_map=object_map,
        )
