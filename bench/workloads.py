"""The three workloads.  Each builds its inputs from the seed, sets up a
session, and runs a fixed stream of ops per pass, checking every output
against the answer the generator derived for it.

A workload exposes ``setup()`` (the timed set-up: parse the KB, build the
session), ``new_pass()`` (what one pass needs: a fresh session, or nothing
for subprocess ops), ``ops``, ``run(state, op) -> output`` and
``check(op, output)``.  ``in_process`` workloads are capped by the caller;
the subprocess one caps its own processes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from dlq import Reasoner, parse_kb
from dlq.algebra import eval_algebraic, project
from dlq.inference import infer_query, validate_query
from dlq.kbtext import parse_concept
from dlq.lang import LangTypeError, evaluate, parse_program, typecheck
from dlq.query import parse_query

import univ

BENCH = Path(__file__).resolve().parent


class _Session:
    """Ops run in this process, one ``Reasoner`` session per pass over a KB
    parsed once.  ``setup`` is the library user's set-up: parse the KB
    text, build the session."""

    in_process = True

    def __init__(self, text: str) -> None:
        self.text = text
        self.kb = parse_kb(text)

    def setup(self) -> Reasoner:
        return Reasoner(parse_kb(self.text))

    def new_pass(self) -> Reasoner:
        # One parse per run: a re-parsed KB's concepts are equal to, not
        # identical with, the keys of dlq's process-wide negation cache, so
        # each later pass would compare them structurally on every lookup.
        return Reasoner(self.kb)

    def check(self, op: univ.Op, output) -> bool:
        return output == op.expected


class AboxAnswer(_Session):
    """Certain-answer queries and a spliced program over a generated A-Box."""

    def __init__(self, seed: int) -> None:
        self.university = univ.generate_university(seed)
        super().__init__(self.university.text())
        self.ops = univ.abox_stream(self.university)

    def run(self, r: Reasoner, op: univ.Op):
        if op.kind == "select":
            sq = parse_query(op.text, r.kb.prefixes)
            table = project(eval_algebraic(r, sq.body), sq.select_vars)
            return [[c.value if c is not None else None for c in row]
                    for row in table.rows]
        program = parse_program(op.text)
        typecheck(r, program)
        return [item.iri.value for item in evaluate(r, program).items]

    def describe(self) -> str:
        told = self.university.told
        return (f"{len(told)} named objects, {len(univ.FIXTURE_TBOX)} T-Box axioms, "
                f"{sum(c is None for c in told.values())} role-only, "
                f"{len(self.ops)} ops per pass")


class TboxTyping(_Session):
    """Satisfiability, subsumption, query typing and program checking over a
    univ-bench-sized T-Box with the fixture's three individuals."""

    def __init__(self, seed: int) -> None:
        super().__init__(univ.kb_text(univ.UNIV_BENCH_TBOX, univ.FIXTURE_ABOX))
        self.ops = univ.tbox_stream(random.Random(seed))

    def run(self, r: Reasoner, op: univ.Op):
        p = r.kb.prefixes
        if op.kind == "sat":
            result = r.is_satisfiable(parse_concept(op.text, p))
            # A satisfiable answer must come with its witness model.
            return result.satisfiable and result.witness is not None
        if op.kind == "sub":
            c, d = op.text.split(" SubClassOf ")
            return r.entails_subsumption(parse_concept(c, p), parse_concept(d, p))
        if op.kind == "infer":
            return tuple(sorted(v.name for v in infer_query(parse_query(op.text, p).body).domain))
        if op.kind == "validate":
            splices, mode = op.args
            types = {name: parse_concept(c, p) for name, c in splices}
            return type(validate_query(r, parse_query(op.text, p), types, mode)).__name__
        (mode,) = op.args
        try:
            typecheck(r, parse_program(op.text), mode)
        except LangTypeError as exc:
            return exc.category
        return "ok"

    def describe(self) -> str:
        return (f"{len(univ.UNIV_BENCH_TBOX)} T-Box axioms, "
                f"{len(univ.UNIV_BENCH_SUPERS)} classes, "
                f"{len(univ.FIXTURE_ABOX)} A-Box assertions, {len(self.ops)} ops per pass")


class CliOneshot:
    """One ``dlq`` process per op on the fixture KBs."""

    in_process = False

    def __init__(self, seed: int, workdir: Path, src: Path, cap: float) -> None:
        self.workdir, self.cap = workdir, cap
        self.texts = [text for name, text in univ.CLI_FILES.items()
                      if name.endswith(".kb")]
        self.ops = univ.cli_stream(random.Random(seed))
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.tracer = None    # set while a pass is traced
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in univ.CLI_FILES.items():
            (workdir / name).write_text(text, encoding="utf-8")

    def setup(self) -> list[Reasoner]:
        return [Reasoner(parse_kb(text)) for text in self.texts]

    def new_pass(self) -> None:
        return None

    def run(self, _state, op: univ.Op):
        if self.tracer is None:
            command = [sys.executable, "-m", "dlq", *op.args]
        else:
            spans_file = self.workdir / "spans.json"
            command = [sys.executable, str(BENCH / "launch.py"), str(spans_file), *op.args]
        t0 = time.perf_counter()
        done = subprocess.run(command, cwd=self.workdir, env=self.env,
                              capture_output=True, timeout=self.cap)
        if self.tracer is not None:
            self.tracer.process_wall += time.perf_counter() - t0
            self.tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")))
        return done.returncode, done.stdout.decode("utf-8", "replace")

    def check(self, op: univ.Op, output) -> bool:
        code, stdout = output
        want_code, want_out = op.expected
        if code != want_code:
            return False
        if want_out != univ.MODEL:
            return stdout == want_out
        first, _, rest = stdout.partition("\n")
        try:
            model = json.loads(rest)
        except ValueError:
            return False
        if first != "true" or set(model) != {"domain", "concepts", "roles", "objects"}:
            return False
        probe = op.args[2].split()[0]
        return (set(model["objects"]) == {":alice", ":bob", ":softlang"}
                and set(model["objects"].values()) <= set(model["domain"])
                and bool(model["concepts"].get(probe)))

    def describe(self) -> str:
        return f"{len(self.ops)} dlq processes per pass"
