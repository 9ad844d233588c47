"""The repository's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for shapes and reasons):

* ``sweep`` — the paper's full 508-Treads partner sweep over a columnar
  population, parallel batch sweep plus advertiser reports;
* ``contested`` — the same sweep with rival advertisers and a constant
  competing bid, so auctions clear at nonzero prices;
* ``serve`` — ``repro gateway`` (process backend) under an open-loop
  HTTP client.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Every run checks the program's outputs. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any check failed. Each run also appends its record, with the host
signature, to ``.perfbench/records.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: name -> (unit, better). The workload-specific meaning of each is in
#: the README; BENCHMARK.json carries the same list with bounds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "p50_ms": ("ms", "lower"),
}

#: Printed on the summary lines only: on ``serve`` the p99 follows how
#: often the shared host preempts its cores, which no bound allowed can
#: hold (see the README).
UNGATED = {
    "p99_ms": "ms",
}

#: Every per-layer metric, name -> (unit, better); a workload that never
#: reaches a layer prints 0.
PER_LAYER = {
    "population.load_s": ("s", "lower"),
    "population.users": ("count", "higher"),
    "provider.launch_s": ("s", "lower"),
    "provider.ads_submitted": ("count", "higher"),
    "targeting.lower_s": ("s", "lower"),
    "targeting.specs_lowered": ("count", "higher"),
    "targeting.fallback_ratio": ("ratio", "lower"),
    "delivery.sweep_s.sum": ("s", "lower"),
    "delivery.sweep_s.max": ("s", "lower"),
    "delivery.multi_account_s": ("s", "lower"),
    "delivery.sweep_rounds": ("count", "lower"),
    "delivery.slots_auctioned": ("count", "higher"),
    "delivery.fill_ratio": ("ratio", "higher"),
    "delivery.budget_fallback_rounds": ("count", "lower"),
    "parsweep.certify_s": ("s", "lower"),
    "parsweep.fork_s": ("s", "lower"),
    "parsweep.wait_s": ("s", "lower"),
    "parsweep.worker_skew": ("ratio", "lower"),
    "parsweep.delta_bytes": ("bytes", "lower"),
    "parsweep.fold_s": ("s", "lower"),
    "billing.charges": ("count", "lower"),
    "billing.charge_s": ("s", "lower"),
    "reporting.report_s": ("s", "lower"),
    "reporting.ads": ("count", "higher"),
    "gateway.requests": ("count", "higher"),
    "gateway.parse_s": ("s", "lower"),
    "gateway.handle_s": ("s", "lower"),
    "serve.submit_s": ("s", "lower"),
    "serve.queue_wait_s.p50": ("s", "lower"),
    "serve.queue_wait_s.p99": ("s", "lower"),
    "serve.batch_size.mean": ("count", "higher"),
    "serve.shed": ("count", "lower"),
    "serve.timeouts": ("count", "lower"),
    "serve.ipc.batches": ("count", "lower"),
    "serve.ipc.bytes": ("bytes", "lower"),
    "serve.ipc.roundtrip_s.p50": ("s", "lower"),
    "serve.ipc.roundtrip_s.p99": ("s", "lower"),
    "delivery.serve_s": ("s", "lower"),
    "delivery.slots_served": ("count", "higher"),
    "store.records_appended": ("count", "lower"),
    "store.journal_bytes": ("bytes", "lower"),
    "store.flushes": ("count", "lower"),
    "store.flush_s": ("s", "lower"),
    "loadgen.lateness_ms.max": ("ms", "lower"),
    "loadgen.lateness_ms.p99": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

WORKLOADS = ("sweep", "contested", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the workloads' cleanup still stops
    # every gateway and worker they started.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import hostinfo

    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    started = time.time()
    try:
        if args.workload == "serve":
            import serve
            result = serve.run(args.seed, args.seconds, bool(args.trace),
                               workdir, SRC)
        else:
            import sweeps
            result = sweeps.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        catalog = PER_LAYER
        values = result["layers"]
    else:
        catalog = END_TO_END
        values = result["e2e"]
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, (unit, _better) in catalog.items()}
    correct = not result["problems"] and result["failed"] == 0
    signature = hostinfo.signature()
    for note in result["notes"]:
        print(note)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"host: {json.dumps(signature, sort_keys=True)}")
    failed_ratio = result["failed"] / max(result["attempted"], 1)
    print(f"{args.workload}: failed_ratio {failed_ratio:.6f} ratio "
          f"({result['failed']} of {result['attempted']})")
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} {metric['value']:.6g} "
              f"{metric['unit']}")
    ungated = {name: result["e2e"][name] for name in UNGATED
               if name in result.get("e2e", {})}
    for name, value in ungated.items():
        print(f"{args.workload}: {name} {value:.6g} {UNGATED[name]} "
              "(not gated)")
    for name, (value, unit) in result.get("extra", {}).items():
        print(f"{args.workload}: {name} {value:.6g} {unit}")
    for name, value in result.get("unscaled", {}).items():
        if value != result["e2e"][name]:
            unit = UNGATED.get(name) or END_TO_END[name][0]
            print(f"{args.workload}: {name} unscaled {value:.6g} {unit}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started_unix": started, "host": signature,
        "attempted": result["attempted"], "failed": result["failed"],
        "correct": correct, "metrics": metrics, "ungated": ungated,
        "extra": result.get("extra", {}),
        "unscaled": result.get("unscaled", {}),
    }
    with open(os.path.join(ROOT, ".perfbench", "records.jsonl"), "a",
              encoding="utf-8") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
