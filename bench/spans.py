"""Spans around the public entry points of each ``dlq`` layer.

A :class:`Tracer` patches the layer functions in every module that holds
them (``eval_algebraic``, ``typecheck`` and friends are imported by name
into ``dlq.cli``, ``dlq.lang.interp`` and the benchmark) and the ``Reasoner`` and
``Tableau`` methods on their classes.  Each call records a span: name,
start, end, parent span, op id and a small result summary.  Spans stay in
memory; :func:`layer_metrics` turns a list of them into the per-layer
metrics, where a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import dlq.cli  # noqa: F401  (imports every layer)
from dlq.reasoner import Reasoner
from dlq.tableau import Tableau

# (span name, module, function): module-level entry points.
FUNCTIONS = (
    ("kbtext.parse_kb", "dlq.kbtext", "parse_kb"),
    ("query.parse_query", "dlq.query", "parse_query"),
    ("algebra.eval", "dlq.algebra", "eval_algebraic"),
    ("algebra.project", "dlq.algebra", "project"),
    ("inference.infer", "dlq.inference", "infer_query"),
    ("inference.validate", "dlq.inference", "validate_query"),
    ("lang.parse_program", "dlq.lang.parser", "parse_program"),
    ("lang.typecheck", "dlq.lang.typecheck", "typecheck"),
    ("lang.evaluate", "dlq.lang.interp", "evaluate"),
    ("cli.main", "dlq.cli", "main"),
)
# (span name, class, method): patched on the class.
METHODS = (
    ("tableau.init", Tableau, "__init__"),
    ("tableau.run", Tableau, "run"),
    ("tableau.model_of", Tableau, "model_of"),
    ("reasoner.consistent", Reasoner, "is_consistent"),
    ("reasoner.sat", Reasoner, "is_satisfiable"),
    ("reasoner.subsumption", Reasoner, "entails_subsumption"),
    ("reasoner.instance", Reasoner, "entails_instance"),
    ("reasoner.role", Reasoner, "entails_role"),
    ("reasoner.named_instances", Reasoner, "named_instances"),
)
# The memoised decision procedures; the others are built on them.
DECISIONS = ("reasoner.consistent", "reasoner.sat", "reasoner.instance", "reasoner.role")
ENTAILMENTS = ("reasoner.subsumption", "reasoner.instance", "reasoner.role")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    result: object = None

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.result]


def _summary(name: str, value):
    if name == "tableau.run":
        return value is not None
    if name == "reasoner.sat":
        return value.satisfiable
    if name in ENTAILMENTS or name == "reasoner.consistent":
        return bool(value)
    if name == "algebra.project":
        return len(value.rows)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self.process_wall = 0.0   # wall time of traced dlq processes
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            # Recursive entry points (infer_query) count once, outermost.
            if stack and spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                value = fn(*args, **kwargs)
                span.result = _summary(name, value)
                return value
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def adopt(self, records: list[list]) -> None:
        """Append the spans a traced ``dlq`` process wrote, under the
        current op."""
        base = len(self.spans)
        for name, start, end, parent, _, result in records:
            self.spans.append(Span(name, start, end,
                                   None if parent is None else base + parent,
                                   self.op, result))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        # Every module that imported an entry point by name, the
        # benchmark's own included.
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for name, cls, attr in METHODS:
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
        prop = Reasoner.__dict__["objects"]
        self._patch(Reasoner, "objects",
                    property(self._wrap("reasoner.objects", prop.fget)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# name, unit, better: the per-layer metrics, in BENCHMARK.json order.
LAYER_METRICS = (
    ("tableau.runs", "count", "lower"),
    ("tableau.run_s", "s", "lower"),
    ("tableau.run_mean_ms", "ms", "lower"),
    ("tableau.run_max_ms", "ms", "lower"),
    ("tableau.model_ratio", "ratio", "lower"),
    ("tableau.init_s", "s", "lower"),
    ("tableau.model_of_s", "s", "lower"),
    ("reasoner.calls", "count", "lower"),
    ("reasoner.instance_calls", "count", "lower"),
    ("reasoner.role_calls", "count", "lower"),
    ("reasoner.sat_calls", "count", "lower"),
    ("reasoner.true_ratio", "ratio", "higher"),
    ("reasoner.memo_hit_ratio", "ratio", "higher"),
    ("reasoner.self_s", "s", "lower"),
    ("reasoner.objects_calls", "count", "lower"),
    ("reasoner.objects_s", "s", "lower"),
    ("algebra.checks_per_row", "calls/row", "lower"),
    ("algebra.eval_s", "s", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("algebra.project_s", "s", "lower"),
    ("query.parse_query_s", "s", "lower"),
    ("kbtext.parse_kb_s", "s", "lower"),
    ("inference.infer_s", "s", "lower"),
    ("inference.validate_s", "s", "lower"),
    ("inference.validate_self_s", "s", "lower"),
    ("lang.parse_program_s", "s", "lower"),
    ("lang.typecheck_s", "s", "lower"),
    ("lang.evaluate_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], process_wall: float = 0.0) -> dict[str, float]:
    """Counts and times over ``spans`` (one pass of a workload).  Ratios
    whose base is zero, and times of layers the pass never called, are 0.
    ``process_wall`` is the wall time of the pass's ``dlq`` processes, if
    any; ``trace.overhead_ratio`` needs untraced times, so the caller
    fills it in."""
    child = [0.0] * len(spans)
    ran = [False] * len(spans)        # a tableau run happened inside
    in_eval = [False] * len(spans)    # under eval_algebraic
    for i, s in enumerate(spans):
        if s.parent is not None:
            child[s.parent] += s.end - s.start
            in_eval[i] = in_eval[s.parent] or spans[s.parent].name == "algebra.eval"
        if s.name == "tableau.run":
            p = s.parent
            while p is not None and not ran[p]:
                ran[p] = True
                p = spans[p].parent

    def of(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(spans[i].end - spans[i].start for i in of(name))

    def self_time(prefix):
        return sum(s.end - s.start - child[i] for i, s in enumerate(spans)
                   if s.name.startswith(prefix))

    runs = [spans[i].end - spans[i].start for i in of("tableau.run")]
    decisions = [i for i, s in enumerate(spans) if s.name in DECISIONS]
    entailments = [s for s in spans if s.name in ENTAILMENTS]
    rows = sum(spans[i].result for i in of("algebra.project"))
    return {
        "tableau.runs": len(runs),
        "tableau.run_s": sum(runs),
        "tableau.run_mean_ms": _ratio(1000 * sum(runs), len(runs)),
        "tableau.run_max_ms": 1000 * max(runs, default=0.0),
        "tableau.model_ratio": _ratio(
            sum(1 for i in of("tableau.run") if spans[i].result), len(runs)),
        "tableau.init_s": total("tableau.init"),
        "tableau.model_of_s": total("tableau.model_of"),
        "reasoner.calls": len(decisions),
        "reasoner.instance_calls": len(of("reasoner.instance")),
        "reasoner.role_calls": len(of("reasoner.role")),
        "reasoner.sat_calls": len(of("reasoner.sat")),
        "reasoner.true_ratio": _ratio(
            sum(1 for s in entailments if s.result), len(entailments)),
        "reasoner.memo_hit_ratio": _ratio(
            sum(1 for i in decisions if not ran[i]), len(decisions)),
        "reasoner.self_s": self_time("reasoner."),
        "reasoner.objects_calls": len(of("reasoner.objects")),
        "reasoner.objects_s": total("reasoner.objects"),
        "algebra.checks_per_row": _ratio(
            sum(1 for i in decisions if in_eval[i]), rows),
        "algebra.eval_s": total("algebra.eval"),
        "algebra.self_s": self_time("algebra.eval"),
        "algebra.project_s": total("algebra.project"),
        "query.parse_query_s": total("query.parse_query"),
        "kbtext.parse_kb_s": total("kbtext.parse_kb"),
        "inference.infer_s": total("inference.infer"),
        "inference.validate_s": total("inference.validate"),
        "inference.validate_self_s": self_time("inference.validate"),
        "lang.parse_program_s": total("lang.parse_program"),
        "lang.typecheck_s": total("lang.typecheck"),
        "lang.evaluate_s": total("lang.evaluate"),
        "cli.main_s": total("cli.main"),
        "cli.startup_s": process_wall - total("cli.main") if process_wall else 0.0,
        "trace.overhead_ratio": 0.0,
    }
