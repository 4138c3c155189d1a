"""Benchmark of qsl3: tensor certificates, computed Loewy diagrams, symbolic fusion.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `qsl3` is imported from its `src/`.  One
process, one thread.  Rounds of the workload's operations run until the
next round would end after S seconds (at least one round; with --trace 1
each round runs plain and then traced).  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  A copy with the time of every operation goes to
perfbench/results/, and with --trace 1 the spans of the first traced round
go there too.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def process_age():
    """Seconds since this process started (start tick resolution: 10 ms)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_T0 = process_age()


def load_qsl3():
    """Import qsl3 from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qsl3
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qsl3 from {SRC}: {exc}")
    if Path(qsl3.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: qsl3 was imported from {qsl3.__file__}, not {SRC}")


def build_tables(orders):
    """Build the per-order field tables by using each field once: a product
    reduces modulo the cyclotomic polynomial, a Verma needs the PBW matrix."""
    from qsl3 import repmod
    from qsl3.exact import CycNum
    from qsl3.weights import ZERO

    for order in orders:
        z = CycNum.zeta(order)
        (z * z + z).inv()
        repmod.verma(ZERO, order)


def program_caches():
    """The module-level memo dicts of qsl3 (`structure._CHAIN_CACHE`, ...).

    Found by name, so a renamed or added `*_CACHE` dict is found too; the
    per-order field tables (lru_cache functions) are set-up, not listed.
    """
    from tracer import qsl3_modules

    return [value for mod in qsl3_modules().values()
            for name, value in vars(mod).items()
            if name.upper().endswith("_CACHE") and isinstance(value, dict)]


def fresh_state(caches):
    """Start a round as the first one started: empty memo dicts, no garbage.

    Every round runs the same operations, so a cache would carry from one
    round to the next only memory and answers the next round should compute
    itself; emptying it makes every round do the same work and keeps the
    heap, the collector's work and peak RSS the same in every round, however
    many rounds a run fits in.
    """
    for cache in caches:
        cache.clear()
    gc.collect()


def run_op(op, tracer):
    """Run one operation; (seconds, output, exception)."""
    if tracer is not None:
        tracer.install()
        t0 = tracer.begin_op(op.kind)
    else:
        t0 = time.perf_counter()
    try:
        out = op.run()
        return time.perf_counter() - t0, out, None
    except Exception as exc:  # an operation's failure is counted, not fatal
        return time.perf_counter() - t0, None, exc
    finally:
        if tracer is not None:
            tracer.end_op(t0)
            tracer.uninstall()


def measure(ops, seconds, make_tracer=None):
    """Run rounds of `ops` until the next round would end after `seconds`.

    With make_tracer, each round runs twice from the same fresh state:
    plain, then traced.  The pairs give the tracing overhead; the counters
    and spans of the first traced pass are the ones reported, so they depend
    on the seed alone.  Outputs are checked on every plain pass.
    """
    rounds, problems = [], []
    attempted = failed = 0
    caches = program_caches()
    reported = None
    t_start = time.perf_counter()
    while True:
        r_start = time.perf_counter()
        passes = [None]
        if make_tracer is not None:
            passes.append(make_tracer())
            reported = reported or passes[1]
        for tracer in passes:
            fresh_state(caches)
            times, ok = [], []
            for op in ops:
                attempted += 1
                dt, out, exc = run_op(op, tracer)
                times.append(dt)
                ok.append(exc is None)
                if exc is not None:
                    failed += 1
                    if op.expect is None or not isinstance(exc, op.expect):
                        print(f"perfbench: {op.kind} {op.inputs} raised "
                              f"{type(exc).__name__}: {exc}", file=sys.stderr)
                elif tracer is None:
                    problems.extend(f"{op.kind} {op.inputs}: {p}" for p in op.check(out))
            rounds.append({"traced": tracer is not None, "op_s": times, "ok": ok})
        now = time.perf_counter()
        if (now - t_start) + (now - r_start) > seconds:
            break
    return rounds, problems, attempted, failed, reported


def fastest(rounds):
    """Each operation's fastest time across the rounds, failed ones included.

    Every round does the same work from the same state, so what varies
    between rounds is the machine, and other load on it only ever adds
    time: the fastest time is the least disturbed measurement of the work.
    """
    return [min(slot) for slot in zip(*(r["op_s"] for r in rounds))]


def end_to_end(rounds, setup_s):
    best = fastest(rounds)
    times = [t for t, ok in zip(best, rounds[0]["ok"]) if ok]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "peak_rss_mib": (peak, "MiB"),
    }


def per_layer(rounds, tracer):
    plain = sum(fastest([r for r in rounds if not r["traced"]]))
    traced = sum(fastest([r for r in rounds if r["traced"]]))
    out = dict(tracer.metrics())
    out["trace.overhead_s"] = (traced - plain, "s")
    out["trace.overhead_ratio"] = ((traced - plain) / plain, "ratio")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_qsl3()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    make_ops, orders = workloads.WORKLOADS[args.workload]
    build_tables(orders)
    setup_s = _AGE_AT_T0 + (time.perf_counter() - _T0)

    problems = []
    if args.workload == "tensor-certify":
        problems.extend(f"negative control: {p}" for p in workloads.negative_control())
    make_tracer = None
    if args.trace:
        import tracer

        make_tracer = tracer.Tracer
    rounds, found, attempted, failed, traced = measure(
        make_ops(args.seed), args.seconds, make_tracer)
    problems.extend(found)

    metrics = per_layer(rounds, traced) if args.trace else end_to_end(rounds, setup_s)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  problems=problems, rounds=rounds)
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced is not None:
        traced.write_spans(out_dir / f"{stem}-spans.jsonl")
    for msg in problems[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed, {len(problems)} check failures",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
