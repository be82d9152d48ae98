"""One benchmark worker: a fresh interpreter that runs one closed loop.

Run by ``bench/run.py``, one process at a time.  The worker imports
rhocalc from the checkout's ``src`` (never an installed copy), builds its
inputs, warms up, then sends one operation after another, each only when
the previous one has returned.  Only the operation call is timed; every
result is checked right after, outside the timed region.  The last line
of standard output is a JSON report.

    python3 bench/worker.py --workload exact-series --seed 1 --seconds 10
    python3 bench/worker.py --workload puiseux-roots --seed 1 --replay 17

``--replay I`` runs input I of the stream alone and prints its result,
which reproduces a failure logged with ``"input": I``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Operations prepared per stream; a loop that runs past them starts over.
POOL_BLOCKS = {"exact-series": 8, "puiseux-roots": 4, "distributions": 2}


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _import_rhocalc():
    if not (SRC / "rhocalc" / "__init__.py").is_file():
        raise SystemExit(f"worker: no rhocalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    before = len(sys.modules)
    t0 = time.perf_counter()
    import rhocalc
    import_s = time.perf_counter() - t0
    if Path(rhocalc.__file__).resolve().parent != SRC / "rhocalc":
        raise SystemExit(f"worker: imported rhocalc from {rhocalc.__file__}, not {SRC}")
    return import_s, len(sys.modules) - before


def _fail_record(args, index, pool, kind, exc):
    rec = {"workload": args.workload, "seed": args.seed, "stream": args.stream,
           "op": index, "input": index % pool, "kind": kind, "type": type(exc).__name__,
           "message": str(exc)[:300]}
    print("FAIL " + json.dumps(rec), file=sys.stderr, flush=True)
    return rec


def _call(fn):
    """(result, None) or (None, exception); catches every exception type
    a user call can raise, including SystemExit from argparse."""
    try:
        return fn(), None
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - any failure counts
        return None, exc


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", default="0")
    ap.add_argument("--seconds", type=float, default=0.0, help="timed budget")
    ap.add_argument("--min-ops", type=int, default=1, help="run at least this many operations")
    ap.add_argument("--blocks", type=int, default=0, help="run exactly this many blocks")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", type=int, default=0, help="run the known-defect probe")
    ap.add_argument("--spans", default="", help="write traced spans to this .npz")
    ap.add_argument("--spawn-ns", type=int, default=0, help="parent's monotonic clock at spawn")
    ap.add_argument("--replay", type=int, default=-1)
    ap.add_argument("--setup-only", action="store_true", help="stop before the first timed operation")
    args = ap.parse_args(argv)
    spawn_ns = args.spawn_ns or _now_ns()

    import_s, modules_loaded = _import_rhocalc()
    import workloads
    wl = workloads.WORKLOADS[args.workload]

    if args.replay >= 0:
        spec = wl.plan(args.seed, args.stream, args.replay + 1)[args.replay]
        print(json.dumps({k: repr(v) for k, v in spec.items()}))
        result, exc = _call(wl.prepare(spec))
        if exc is not None:
            traceback.print_exception(exc)
            return 1
        plain = wl.plain(spec["kind"], result)
        print(repr(plain))
        wl.check(spec, plain)
        print("check passed")
        return 0

    n_ops = args.blocks * len(wl.block)
    pool = n_ops or POOL_BLOCKS[args.workload] * len(wl.block)
    specs = wl.plan(args.seed, args.stream, pool)
    ops = [wl.prepare(s) for s in specs]
    # warm-up from its own stream fills lazy caches (sympy lambdify of
    # bump derivatives, scipy imports) before timing starts
    for spec in wl.plan(args.seed, f"warm-{args.stream}", len(wl.warm), wl.warm):
        _call(wl.prepare(spec))

    if args.setup_only:
        print(json.dumps({"setup_s": (_now_ns() - spawn_ns) / 1e9}))
        return 0

    tracer = None
    missing = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        missing = tracer.install(tracing.layer_patches())

    digest = hashlib.sha256()
    latencies, failures = [], []
    ok = roots = 0
    timed = 0.0
    clock = time.perf_counter
    first_ns = _now_ns()
    i = 0
    # Whole blocks only, so every run has the same mix of slots.  The
    # timed budget is met to the nearest whole block: stop at a block end
    # once the time left is less than half a block.
    block_len = len(wl.block)
    while True:
        if i % block_len == 0 and i:
            if n_ops and i >= n_ops:
                break
            if (not n_ops and i >= args.min_ops
                    and timed + timed * block_len / (2 * i) >= args.seconds):
                break
        spec, op = specs[i % pool], ops[i % pool]
        fn = op if tracer is None else (lambda op=op, i=i: tracer.run_op(i, op))
        t0 = clock()
        result, exc = _call(fn)
        dt = clock() - t0
        timed += dt
        latencies.append(dt)
        if exc is None:
            try:
                plain = wl.plain(spec["kind"], result)
                wl.check(spec, plain)
            except Exception as check_exc:  # noqa: BLE001 - a wrong result counts
                exc = check_exc
            else:
                ok += 1
                digest.update(repr(plain).encode())
                if spec["kind"] == "roots":
                    roots += sum(m for _, m in plain)
        if exc is not None:
            digest.update(f"failed:{type(exc).__name__}".encode())
            failures.append(_fail_record(args, i, pool, spec["kind"], exc))
        i += 1

    report = {"workload": args.workload, "seed": args.seed, "stream": args.stream,
              "setup_s": (first_ns - spawn_ns) / 1e9, "import_s": import_s,
              "modules_loaded": modules_loaded, "attempted": i, "ok": ok,
              "failed": len(failures), "failures": failures, "timed_s": timed,
              "latencies": latencies, "digest": digest.hexdigest(), "roots": roots}

    if tracer is not None:
        tracer.uninstall()
        stats, within = tracer.summary()
        report["trace"] = {"stats": stats, "within_roots": within,
                           "counts": dict(tracer.counts), "errors": dict(tracer.errors),
                           "spans": len(tracer.start), "restored": tracer.restored(),
                           "missing": missing}
        if args.spans:
            tracer.save(args.spans)

    if args.probe:
        probe = []
        for j, spec in enumerate(wl.probe(args.seed)):
            result, exc = _call(wl.prepare(spec))
            if exc is None:
                try:
                    wl.check(spec, wl.plain(spec["kind"], result))
                except Exception as check_exc:  # noqa: BLE001
                    exc = check_exc
            probe.append({"kind": spec["kind"], "index": j,
                          "outcome": "ok" if exc is None else type(exc).__name__})
        report["probe"] = probe

    import numpy
    import scipy
    import sympy
    report["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "sympy": sympy.__version__}
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
