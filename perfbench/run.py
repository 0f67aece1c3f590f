"""agstab benchmark: one workload, measured from outside through agstab's public functions.

    python3 perfbench/run.py --workload {herm-m3,small-exact,pauli-8} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; agstab is imported from its src/.
Every process this starts runs alone, one after another, single-threaded.
  --trace 0  set-up runs in nine fresh processes (setup_s is their median);
             the fifth also runs checked passes for S seconds, untraced.
             Prints run_s, setup_s and peak_rss_mb.
  --trace 1  one process alternates traced and untraced passes and
             prints the per-layer metrics, including the tracing overhead.
             Spans are written to .perfbench_traces/ in the checkout.
Informational lines come first; the last line of standard output is the
JSON result.  The exit code is 0 whenever a result is printed, even when
a check failed ("correct": false).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("herm-m3", "small-exact", "pauli-8")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args, mode: str, deadline: float, spans_out: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{mode} process overran the {RUN_LIMIT_S:g} s run limit")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} process printed no result")
    return json.loads(lines[-1])


def _tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    ordered = sorted(values)
    p = math.floor(100 * (n - 10) / n)
    return f"p{p} = {ordered[n - 11]:.6f} s (n={n}, 10 beyond)"


def _measure(args, deadline: float) -> dict:
    # Half the set-up samples come after the passes, so that they span the
    # run as the passes do and a few seconds of host contention weigh less.
    before = (SETUP_SAMPLES - 1) // 2
    setups = [_run_child(args, "setup", deadline)["setup_s"] for _ in range(before)]
    child = _run_child(args, "measure", deadline)
    setups.append(child["setup_s"])
    setups += [
        _run_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1 - before)
    ]
    passes = child["pass_s"]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes")
    print(f"run_s median {statistics.median(passes):.6f} s; {_tail_percentile(passes)}")
    print(f"pass_s {[round(p, 4) for p in passes]}")
    print(f"setup_s samples {[round(s, 4) for s in setups]}")
    print(f"fail_frac {child['failed']}/{child['attempted']} = {child['failed'] / child['attempted']:g}")
    for report in child["reports"]:
        print(f"report {report['bytes']} B sha256 {report['sha256']} (information only)")
    metrics = {
        "run_s": (statistics.median(passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    return {
        "correct": bool(child["correct"]),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _trace(args, deadline: float) -> dict:
    spans_out = ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.json"
    child = _run_child(args, "trace", deadline, spans_out)
    print(f"workload {args.workload} seed {args.seed}: {len(child['pass_s'])} passes, traced first")
    print(
        f"run_s traced {child['traced_run_s']:.6f} s, untraced {child['untraced_run_s']:.6f} s, "
        f"overhead {child['metrics']['trace.overhead_s']:.6f} s"
    )
    print(f"fail_frac {child['failed']}/{child['attempted']}")
    print(f"work counts that differ between traced passes: {child['count_mismatch'] or 'none'}")
    print(f"predicted nulls broken: {child['null_violations'] or 'none'}")
    if child["missing_hooks"]:
        print(f"hook targets missing, their metrics left out: {child['missing_hooks']}")
    print(f"spans written to {spans_out.relative_to(ROOT)}")
    return {
        "correct": bool(child["correct"]),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in child["metrics"].items()
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "agstab" / "__init__.py").is_file():
        print(f"no agstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        result = _trace(args, deadline) if args.trace else _measure(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
