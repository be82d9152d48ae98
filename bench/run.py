"""rhocalc benchmark: one seeded workload, end-to-end or traced.

    python3 bench/run.py --workload exact-series --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run spawns fresh interpreters one after the
other.  Each imports rhocalc, builds its inputs from the seed and warms
up.  TIMED_WORKERS of them then run a single-client closed loop of whole
blocks of operations for their share of ``--seconds``; the set-up time
is the median over all of them.  The run prints every end-to-end metric
with its unit and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` one worker runs TRACE_BLOCKS blocks with timing
wrappers on rhocalc's layers, a second worker runs the same operations
untraced, and the last line carries the per-layer metrics.  The traced
run also runs each workload's known-defect probe.

Workers get BLAS/OpenMP thread caps of ``nproc`` in their environment.
Reports, failure logs and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

TIMED_WORKERS = 2      # worker processes that run the timed loop, one after the other
SETUP_WORKERS = 1      # further workers that only set up, for a median of three set-ups
MIN_OPS = 100          # per run, so that ten latencies lie above the 90th percentile
TRACE_BLOCKS = {"exact-series": 2, "puiseux-roots": 2, "distributions": 1}
RUN_LIMIT = 170        # seconds for all workers of one run; a run must end within 180

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def _nproc():
    return len(os.sched_getaffinity(0))


def _thread_caps():
    n = str(_nproc())
    return {k: n for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def _environment(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return dict(versions, nproc=_nproc(), cpu=cpu, commit=commit, thread_caps=_thread_caps())


def _spawn(args, extra):
    """Run one worker to completion and return its JSON report."""
    env = dict(os.environ, PYTHONHASHSEED="0", **_thread_caps())
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    deadline = getattr(args, "deadline", None)
    left = RUN_LIMIT if deadline is None else deadline - time.monotonic()
    if left <= 0:
        raise SystemExit("run.py: out of time before spawning a worker")
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    # on timeout, subprocess.run kills the worker and waits for it
    proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=left)
    if proc.stderr:
        with open(OUT / "worker-stderr.log", "a") as fh:
            fh.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args):
    share = args.seconds / TIMED_WORKERS
    min_ops = str(-(-MIN_OPS // TIMED_WORKERS))
    reports = [_spawn(args, ["--stream", str(j), "--seconds", repr(share), "--min-ops", min_ops])
               for j in range(TIMED_WORKERS)]
    setups = [r["setup_s"] for r in reports] + [
        _spawn(args, ["--stream", str(TIMED_WORKERS + j), "--setup-only"])["setup_s"]
        for j in range(SETUP_WORKERS)]
    lat = [x for r in reports for x in r["latencies"]]
    ok = sum(r["ok"] for r in reports)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {
        "ops_per_s": ok / sum(r["timed_s"] for r in reports),
        "op_p50_ms": 1e3 * _quantile(lat, 50),
        "op_p90_ms": 1e3 * _quantile(lat, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    print(f"workload {args.workload}  seed {args.seed}  timed workers {TIMED_WORKERS}  "
          f"operations {attempted}  failed {failed}  failed_share {failed / attempted:.4f}")
    for r in reports:
        for f in r["failures"]:
            print("  FAIL " + json.dumps(f))
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {E2E_UNITS[name]}")
    print(f"  correct      {failed == 0}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}
    return result, reports


# per-layer metrics read from the trace summary: (span name, its fields)
_SPAN_FIELDS = [
    ("series.ctor", ("calls", "self_s")), ("series.add", ("calls", "self_s")),
    ("series.cmp", ("calls", "self_s")), ("series.truncate", ("calls", "self_s")),
    ("series.mul", ("calls", "self_s")),
    ("closure.inverse", ("calls", "self_s")), ("closure.nth_root", ("calls", "self_s")),
    ("closure.poly_roots", ("calls", "self_s", "total_s")), ("closure.polyeval", ("calls",)),
    ("closure.shift", ("calls",)),
    ("funcs.pair", ("calls", "self_s", "total_s")), ("funcs.quad", ("calls",)),
    ("funcs.provider_eval", ("calls", "self_s")), ("funcs.eval_at", ("calls", "self_s")),
    ("mollify.testfn_eval", ("calls", "self_s")), ("mollify.kernel_eval", ("calls", "self_s")),
    ("mollify.cutoff_eval", ("calls", "self_s")), ("mollify.conv_eval", ("calls", "self_s")),
    ("mollify.build_mollifier", ("calls", "self_s")), ("mollify.embed", ("calls", "total_s")),
    ("mollify.reference_pairing", ("calls", "self_s")),
    ("parser.parse", ("calls", "self_s")), ("parser.evaluate", ("calls", "self_s")),
    ("parser.serialize", ("calls", "self_s")), ("cli.main", ("calls", "total_s")),
]
_POINTS = ("funcs.provider_eval", "mollify.testfn_eval", "mollify.cutoff_eval",
           "mollify.conv_eval")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(traced, plain):
    t = traced["trace"]
    stats, counts, within = t["stats"], t["counts"], t["within_roots"]
    m = {"init.import_s": (traced["import_s"], "s"),
         "init.modules_loaded": (traced["modules_loaded"], "count")}
    for span, fields in _SPAN_FIELDS:
        s = stats.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for f in fields:
            m[f"{span}.{f}"] = (s[f], "count" if f == "calls" else "s")
    for span in _POINTS:
        pts = counts.get(span, 0)
        m[f"{span}.points"] = (pts, "count")
        if span in ("funcs.provider_eval", "mollify.testfn_eval"):
            m[f"{span}.points_per_call"] = (_ratio(pts, stats.get(span, {}).get("calls", 0)),
                                            "points")
    pairs = counts.get("series.mul", 0)
    m["series.mul.term_pairs"] = (pairs, "count")
    m["series.mul.ns_per_term_pair"] = (
        _ratio(1e9 * stats.get("series.mul", {}).get("self_s", 0.0), pairs), "ns")
    m["closure.mul_per_root"] = (_ratio(within["series.mul"], traced["roots"]), "count")
    m["closure.inverse_per_root"] = (_ratio(within["closure.inverse"], traced["roots"]), "count")
    lift = [p for p in traced["probe"] if p["kind"] == "roots"]
    fails = sum(p["outcome"] == "LiftError" for p in lift)
    m["closure.lift_failures"] = (fails, "count")
    m["closure.lift_failure_share"] = (_ratio(fails, len(lift)), "ratio")
    m["trace.overhead_share"] = (1.0 - plain["timed_s"] / traced["timed_s"], "ratio")
    return m


def traced_run(args):
    blocks = str(TRACE_BLOCKS[args.workload])
    spans = OUT / f"spans-{args.workload}-{args.seed}.npz"
    traced = _spawn(args, ["--blocks", blocks, "--trace", "1", "--probe", "1",
                           "--spans", str(spans)])
    plain = _spawn(args, ["--blocks", blocks])
    t = traced["trace"]
    same = traced["digest"] == plain["digest"]
    metrics = layer_metrics(traced, plain)
    print(f"workload {args.workload}  seed {args.seed}  traced operations {traced['attempted']}  "
          f"spans {t['spans']}  failed {traced['failed']}")
    print(f"  traced and untraced results identical: {same}; "
          f"wrapped attributes restored: {t['restored']}")
    if t["missing"]:
        print(f"  not traced (attribute missing): {', '.join(t['missing'])}")
    for p in traced["probe"]:
        print(f"  known-defect probe {p['kind']}#{p['index']}: {p['outcome']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    correct = traced["failed"] == 0 and plain["failed"] == 0 and same and t["restored"]
    print(f"  correct {correct}")
    result = {"correct": correct, "attempted": traced["attempted"] + plain["attempted"],
              "failed": traced["failed"] + plain["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, [traced, plain]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_BLOCKS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT
    if not (ROOT / "src" / "rhocalc" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no rhocalc sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    result, reports = traced_run(args) if args.trace else end_to_end(args)
    env = _environment(reports[0]["versions"])
    print("environment " + json.dumps(env))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result,
              "workers": [{k: v for k, v in r.items() if k != "latencies"} for r in reports]}
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
