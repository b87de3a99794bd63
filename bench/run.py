"""Benchmark of the dlq toolchain, run from the root of a source checkout:

    python3 bench/run.py --workload abox-answer --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``abox-answer``: certain-answer SELECT queries and a spliced program,
  sent by one client to one ``Reasoner`` per pass over a generated
  LUBM-style A-Box;
* ``tbox-typing``: satisfiability, subsumption, query typing and program
  checking over a univ-bench-sized T-Box;
* ``cli-oneshot``: one ``dlq`` process per op on the fixture KBs.

Each is a closed loop with one client.  A pass is the workload's fixed op
stream; the run repeats whole passes and stops at the pass boundary
nearest to ``--seconds``, so every pass contributes the same ops.  Every
op's output is checked against the generator's answer; a wrong answer, an
exception and an op over the per-op cap (a ``timeout``) each count as
failed.  Times are scaled to a reference speed of the CPU (see
``clock.py``); the report gives the unscaled total and the scale factors.
``setup_s`` is the median of one set-up (parse the KB, build the session)
over batches of back-to-back set-ups, one batch before the first pass and
one after each pass, so that the samples spread over the run and no op's
garbage lands in them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of one traced pass
(counts are those of one pass, times are means over the traced passes) and
writes every span to ``.bench_out/trace-<workload>-<seed>.json``.  The last
line of stdout is always one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cap import Timeout, capped
from clock import Clock

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("abox-answer", "tbox-typing", "cli-oneshot")
CAP_S = 30.0          # per-op cap; an op over it is a timeout failure
# Coarse, so that a run's sample count sits well inside one step: the
# percentile reported does not change with one pass more or less.
TAIL_LADDER = (50, 75, 95, 99, 99.9)
SETUP_BATCH = 20      # back-to-back set-ups timed at each pass boundary


def _percentile(sorted_xs: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_xs)))
    return sorted_xs[rank - 1], len(sorted_xs) - rank


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    best = (TAIL_LADDER[0], _percentile(xs, TAIL_LADDER[0])[0])
    for p in TAIL_LADDER:
        value, beyond = _percentile(xs, p)
        if beyond >= 10:
            best = (p, value)
    return best


class Tally:
    """Latencies (scaled by the clock) and outcomes of the ops run so far;
    ``wall`` is their unscaled sum."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wrong = self.errors = self.timeouts = 0
        self.wall = 0.0

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.timeouts


def run_pass(w, record: Tally, clock: Clock, tracer=None) -> None:
    """Run the op stream once."""
    gc.collect()
    state = w.new_pass()
    for i, op in enumerate(w.ops):
        clock.calibrate()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            if w.in_process:
                output = capped(lambda: w.run(state, op), CAP_S)
            else:
                output = w.run(state, op)
        except (Timeout, subprocess.TimeoutExpired) as exc:
            record.timeouts += 1
            output = exc
        except Exception as exc:  # noqa: BLE001 - any crash is a failed op
            record.errors += 1
            output = exc
            print(f"op {i} ({op.kind}) raised {exc!r}", file=sys.stderr)
        took = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        record.wall += took
        record.latencies.append(took * clock.factor)
        if not isinstance(output, BaseException) and not w.check(op, output):
            record.wrong += 1
            print(f"op {i} ({op.kind}) wrong: {op.text!r}\n"
                  f"  expected {op.expected!r}\n  got      {output!r}",
                  file=sys.stderr)


def time_setups(w, setups: list[float], clock: Clock) -> None:
    """Time a batch of back-to-back set-ups, from a collected heap."""
    gc.collect()
    for _ in range(SETUP_BATCH):
        clock.calibrate()
        t0 = time.perf_counter()
        w.setup()
        setups.append((time.perf_counter() - t0) * clock.factor)


def make_workload(name: str, seed: int):
    import workloads

    if name == "abox-answer":
        return workloads.AboxAnswer(seed)
    if name == "tbox-typing":
        return workloads.TboxTyping(seed)
    return workloads.CliOneshot(seed, OUT / "cli", SRC, CAP_S)


def peak_rss_mb(w) -> float:
    who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def warm(w) -> None:
    """Write the bytecode of every dlq module before timing, as an installed
    tool has it."""
    if not w.in_process:
        w.run(None, w.ops[0])


def measure(w, seconds: float) -> dict:
    record = Tally()
    clock = Clock()
    setups: list[float] = []
    passes = 0
    # Stop at the pass boundary nearest to ``seconds`` of unscaled op time.
    while passes == 0 or record.wall + record.wall / passes / 2 < seconds:
        time_setups(w, setups, clock)
        run_pass(w, record, clock)
        passes += 1
    time_setups(w, setups, clock)
    elapsed = sum(record.latencies)
    lat = sorted(record.latencies)
    p, tail_value = tail(lat)
    n = len(lat)
    print(f"measured {passes} passes, {n} ops in {record.wall:.2f} s, "
          f"{elapsed:.2f} s scaled; {clock.describe()}")
    print(f"latency_tail_ms is p{p} of {n} samples")
    print(f"fail_ratio = {record.failed / n:.6g} ratio ({record.failed} of {n} failed: "
          f"{record.wrong} wrong, {record.errors} errors, {record.timeouts} timeouts)")
    return {
        "record": record,
        "metrics": {
            "ops_per_s": (n / elapsed, "1/s"),
            "latency_p50_ms": (1000 * _percentile(lat, 50)[0], "ms"),
            "latency_tail_ms": (1000 * tail_value, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(w), "MB"),
        },
    }


def measure_traced(w, name: str, seed: int, seconds: float) -> dict:
    import spans

    plain, traced = Tally(), Tally()
    per_pass: list[dict[str, float]] = []
    dumped: list[list] = []
    started = time.perf_counter()
    clock = Clock()
    while not per_pass or time.perf_counter() - started < seconds:
        run_pass(w, plain, clock)
        tracer = spans.Tracer()
        if w.in_process:
            tracer.install()
            w.setup()   # one traced set-up per pass: parse_kb, session build
        else:
            w.tracer = tracer   # its dlq processes run under bench/launch.py
        try:
            run_pass(w, traced, clock, tracer)
        finally:
            if w.in_process:
                tracer.uninstall()
            else:
                w.tracer = None
        per_pass.append(spans.layer_metrics(tracer.spans, tracer.process_wall))
        dumped.append([s.to_json() for s in tracer.spans])
    metrics = {}
    for key, unit, _ in spans.LAYER_METRICS:
        values = [m[key] for m in per_pass]
        if unit == "count":
            if len(set(values)) > 1:
                print(f"warning: {key} differs between traced passes: {values}",
                      file=sys.stderr)
            metrics[key] = (values[0], unit)
        else:
            metrics[key] = (statistics.fmean(values), unit)
    metrics["trace.overhead_ratio"] = (plain.wall / traced.wall, "ratio")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{name}-{seed}.json", "w", encoding="utf-8") as f:
        json.dump(dumped, f)
    print(f"traced {len(per_pass)} passes (and as many untraced); counts are per "
          f"pass, times are unscaled means per pass")
    record = Tally()
    for part in (plain, traced):
        record.latencies += part.latencies
        record.wrong += part.wrong
        record.errors += part.errors
        record.timeouts += part.timeouts
    return {"record": record, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dlq" / "__init__.py").is_file():
        print(f"error: no dlq sources at {SRC}; run from a dlq checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dlq

    if Path(dlq.__file__).resolve().parent != (SRC / "dlq").resolve():
        print(f"error: imported dlq from {dlq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = make_workload(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {w.describe()}")
    warm(w)
    if args.trace:
        result = measure_traced(w, args.workload, args.seed, args.seconds)
    else:
        result = measure(w, args.seconds)
    record: Tally = result["record"]
    for key, (value, unit) in result["metrics"].items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": record.wrong == 0 and record.errors == 0,
        "attempted": len(record.latencies),
        "failed": record.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
