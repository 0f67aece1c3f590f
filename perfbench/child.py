"""One workload in one process: set up, then run checked passes.

Started by run.py, never by hand.  Modes:
  setup    stop once set-up is done;
  measure  untraced passes until --seconds is spent;
  trace    traced and untraced passes alternate, traced first, at least
           three, so that two traced passes can be compared.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = {"measure": 1, "trace": 3}
LINEAR_NULL_SHARE = 0.01


def _run_pass(instances, workloads) -> tuple[int, list[bytes]]:
    failed = 0
    reports = []
    for label, run in instances:
        try:
            reports.append(run())
        except workloads.CheckFailed as exc:
            failed += 1
            print(f"{label}: check failed: {exc}", file=sys.stderr)
        except Exception:
            failed += 1
            print(f"{label}: raised", file=sys.stderr)
            traceback.print_exc()
    return failed, reports


def _null_violations(workload: str, metrics: dict, linear_share: float) -> list[str]:
    """The layers each workload is predicted not to use."""
    if workload == "herm-m3":
        return [
            m for m, v in metrics.items()
            if (m.startswith("pauli.") or m == "symplectic.states") and v != 0
        ]
    if workload == "pauli-8" and linear_share >= LINEAR_NULL_SHARE:
        return [f"linear.* took {100 * linear_share:.2f}% of the pass"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import agstab

    import_s = time.perf_counter() - start
    if src not in Path(agstab.__file__).resolve().parents:
        print(f"agstab came from {agstab.__file__}, not from {src}", file=sys.stderr)
        return 3

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer:
        tracer.install()
    instances = workloads.WORKLOADS[args.workload](args.seed)
    # CLOCK_MONOTONIC is one clock for every process, so this includes the spawn.
    setup_s = time.monotonic() - args.t0
    out: dict = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    setup_spans = []
    if tracer:
        tracer.uninstall()
        setup_spans = [[n, s0 - start, s1 - start, p] for n, s0, s1, p in tracer.take()[0]]

    pass_s: list[float] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    layer_passes: list[dict] = []
    linear_shares: list[float] = []
    trace_log: list[dict] = []
    failed = 0
    first_reports: list[bytes] = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(pass_s) % 2 == 0
        if traced:
            tracer.install()
        t = time.perf_counter()
        pass_failed, reports = _run_pass(instances, workloads)
        dt = time.perf_counter() - t
        if traced:
            tracer.uninstall()
            spans, counts, exact_s = tracer.take()
            counts["artifacts.report_bytes"] = sum(len(r) for r in reports)
            metrics, share = tracing.pass_metrics(spans, counts, exact_s, dt)
            layer_passes.append(metrics)
            linear_shares.append(share)
            trace_log.append({"pass": len(pass_s), "seconds": dt, "spans": [
                [name, s0 - t, s1 - t, parent] for name, s0, s1, parent in spans
            ]})
            traced_s.append(dt)
        elif tracer is not None:
            untraced_s.append(dt)
        if not pass_s:
            first_reports = reports
        pass_s.append(dt)
        failed += pass_failed
        elapsed = time.perf_counter() - begin
        if len(pass_s) >= MIN_PASSES[args.mode] and elapsed + statistics.median(pass_s) > args.seconds:
            break

    out.update(
        attempted=len(pass_s) * len(instances),
        failed=failed,
        pass_s=pass_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        reports=[
            {"bytes": len(r), "sha256": hashlib.sha256(r).hexdigest()}
            for r in first_reports if r
        ],
    )
    if tracer is None:
        out["correct"] = failed == 0
        print(json.dumps(out))
        return 0

    # Work counts repeat exactly and stay whole numbers; times take the median.
    metrics = {}
    for m in layer_passes[0]:
        values = [p[m] for p in layer_passes]
        metrics[m] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["fields.self_dual_basis.s"] = sum(
        s1 - s0 for name, s0, s1, _ in setup_spans if name == "fields.self_dual_basis"
    )
    metrics["import_s"] = import_s
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    nulls = _null_violations(args.workload, metrics, statistics.median(linear_shares))
    metrics["trace.null_violations"] = len(nulls)
    for name in tracer.missing:
        for m in [m for m in metrics if m.startswith(name + ".")]:
            del metrics[m]
    mismatched = [
        m for m in tracing.EXACT_COUNTS
        if len({p[m] for p in layer_passes}) > 1
    ]
    out.update(
        correct=failed == 0 and not mismatched,
        metrics=metrics,
        count_mismatch=mismatched,
        null_violations=nulls,
        missing_hooks=tracer.missing,
        traced_run_s=statistics.median(traced_s),
        untraced_run_s=statistics.median(untraced_s),
    )
    if args.spans_out:
        Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.spans_out).write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "setup_spans": setup_spans,
            "passes": trace_log,
        }))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
