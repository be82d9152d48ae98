"""Self-tests of the benchmark harness itself.

    python3 bench/selftest.py [--seed N] [--workload NAME ...]

For each workload, on one block of operations of one seed:

* a traced and an untraced worker produce identical result digests, so
  the timing wrappers do not change what rhocalc computes;
* two traced workers record identical calls, points and term_pairs
  counts, so per-layer counts repeat exactly;
* every traced worker finds each wrapped attribute restored to the
  original object after uninstalling the wrappers.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace

import run


def _counts(report):
    t = report["trace"]
    return {name: s["calls"] for name, s in t["stats"].items()}, t["counts"]


def check(workload, seed):
    args = SimpleNamespace(workload=workload, seed=seed)
    traced = [run._spawn(args, ["--blocks", "1", "--trace", "1"]) for _ in range(2)]
    plain = run._spawn(args, ["--blocks", "1"])
    results = {
        "no failed operations": all(r["failed"] == 0 for r in traced + [plain]),
        "traced and untraced digests identical":
            all(r["digest"] == plain["digest"] for r in traced),
        "traced counts repeat exactly": _counts(traced[0]) == _counts(traced[1]),
        "wrapped attributes restored": all(r["trace"]["restored"] for r in traced),
        "every layer patched": not any(r["trace"]["missing"] for r in traced),
    }
    for name, ok in results.items():
        print(f"{workload:<14} {name:<40} {'PASS' if ok else 'FAIL'}")
    return all(results.values())


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(run.TRACE_BLOCKS))
    args = ap.parse_args(argv)
    run.OUT.mkdir(exist_ok=True)
    ok = [check(w, args.seed) for w in (args.workload or sorted(run.TRACE_BLOCKS))]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
