"""One-off checks that are not repeated workloads, run from a checkout root:

    python3 bench/sweep.py                  # scaling at 8 and 13 objects, cliff probe
    python3 bench/sweep.py --sizes 8 13 23  # 23 objects takes minutes; capped

Scaling: the worked example
``SELECT ?x ?y WHERE { ?y :worksFor ?x . ?x a :ResearchGroup }`` over the
fixture KB plus generated research assistants, each typed and working for
``:softlang``, at n named objects.  The evaluator asks one tableau run per
object for the concept pattern and one per pair for the role pattern, so it
must make exactly n² + n runs.  Baseline on a 2-core x86 VM before any
tableau or evaluator work: 1.9 s at 8 objects, 12.8 s at 13.

Cliff probe: the ``:Employee`` entailment of each graduate student of a
14-object university, the abox-answer one plus a department member and two
students, when the first four students are role-only (known only through
``:worksFor``).  Refutation cost grows with the choice points
the chronological backtracking search must revisit on the nodes ordered
before the student; a check over the cap is reported as ``timeout``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from cap import Timeout, capped

SRC = Path.cwd() / "src"
SCALING_CAP_S = 300.0   # per size; 23 objects took 155 s on the baseline
CLIFF_CAP_S = 20.0      # per entailment; a typed student's takes ~0.03 s


def timed(fn, cap: float):
    """(result, seconds), or ("timeout", cap) when ``fn`` runs over ``cap``."""
    t0 = time.perf_counter()
    try:
        return capped(fn, cap), time.perf_counter() - t0
    except Timeout:
        return "timeout", cap


def scaling_kb(n: int) -> str:
    import univ

    workers = tuple(line for i in range(n - 3) for line in (
        f":worker{i} Type :ResearchAssistant", f":worker{i} Fact :worksFor :softlang"))
    return univ.kb_text(univ.FIXTURE_TBOX, univ.FIXTURE_ABOX, workers)


def scaling(n: int, cap: float) -> dict:
    import spans
    from dlq import Reasoner, parse_kb
    from dlq.algebra import eval_algebraic, project
    from dlq.query import parse_query

    import univ

    kb = parse_kb(scaling_kb(n))
    r = Reasoner(kb)
    sq = parse_query(univ.WORKS, kb.prefixes)
    tracer = spans.Tracer()
    tracer.install()
    try:
        table, seconds = timed(
            lambda: project(eval_algebraic(r, sq.body), sq.select_vars), cap)
    finally:
        tracer.uninstall()
    runs = sum(1 for s in tracer.spans if s.name == "tableau.run")
    rows = None if table == "timeout" else len(table.rows)
    return {"objects": n, "seconds": seconds, "tableau_runs": runs,
            "expected_runs": n * n + n, "rows": rows, "timeout": table == "timeout"}


def cliff(cap: float) -> list[dict]:
    from dlq import Reasoner, parse_kb
    from dlq.model import Atomic, Iri

    import univ

    u = univ.generate_university(1, role_only=4, shape=((1, 2, 3), (1, 1, 2)))
    r = Reasoner(parse_kb(u.text()))
    employee = Atomic(Iri(univ.UB + "Employee"))
    out = []
    for iri in sorted(u.told):
        if not iri.rsplit("/", 1)[-1].startswith("GraduateStudent"):
            continue
        answer, seconds = timed(lambda: r.entails_instance(Iri(iri), employee), cap)
        out.append({"object": u.name(iri), "role_only": u.told[iri] is None,
                    "entailed": answer, "seconds": seconds})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 13])
    args = ap.parse_args()
    if not (SRC / "dlq" / "__init__.py").is_file():
        print(f"error: no dlq sources at {SRC}; run from a dlq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    report = {"scaling": [], "cliff": []}
    for n in args.sizes:
        row = scaling(n, SCALING_CAP_S)
        report["scaling"].append(row)
        status = "timeout" if row["timeout"] else f"{row['seconds']:.2f} s"
        ok = "ok" if row["tableau_runs"] == row["expected_runs"] or row["timeout"] else "MISMATCH"
        print(f"worked example, {n} objects: {status}, {row['tableau_runs']} tableau runs "
              f"(n²+n = {row['expected_runs']}: {ok})")
    for row in cliff(CLIFF_CAP_S):
        report["cliff"].append(row)
        took = "timeout" if row["entailed"] == "timeout" else f"{row['seconds']:.3f} s"
        print(f"{row['object']:22s} role-only={row['role_only']!s:5s} :Employee {took}")
    print(json.dumps(report))
    mismatch = any(not r["timeout"] and r["tableau_runs"] != r["expected_runs"]
                   for r in report["scaling"])
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
