"""Write ``golden.json``: every sweep world's reports from the scalar loop.

For each sweep workload and world variant this builds the world exactly
as the benchmark does, delivers it with the scalar per-user loop
(``TransparencyProvider.run_delivery(sweep=False)``, i.e.
``AdPlatform.run_until_saturated``) instead of the batch sweep, and
stores the fingerprint of every account's reports
(:func:`worlds.fingerprint`). The benchmark compares each batch-sweep
run against it. Takes several minutes per workload on one core::

    python3 perfbench/make_golden.py                 # all workloads
    python3 perfbench/make_golden.py --workload sweep --variant 3
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import worlds  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")


def load() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as stream:
        return json.load(stream)


def key(shape: worlds.Shape, variant: int) -> str:
    return f"{shape.name}/{shape.users}/{variant}"


def scalar_fingerprint(shape: worlds.Shape, variant: int) -> dict:
    world = worlds.build(shape, variant)
    world.provider.run_delivery(sweep=False)
    reports = {acct: world.platform.reports(acct)
               for acct in world.account_ids()}
    return worlds.fingerprint(worlds.report_dicts(reports))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(worlds.SHAPES),
                        action="append")
    parser.add_argument("--variant", type=int, action="append")
    args = parser.parse_args()
    names = args.workload or sorted(worlds.SHAPES)
    variants = args.variant or list(range(worlds.VARIANTS))
    for name in names:
        shape = worlds.SHAPES[name]
        for variant in variants:
            started = time.perf_counter()
            entry = scalar_fingerprint(shape, variant)
            entry["generated_by"] = ("scalar run_until_saturated loop, "
                                     "perfbench/make_golden.py")
            # Re-read before writing: several generators may run at once.
            golden = load()
            golden[key(shape, variant)] = entry
            tmp = GOLDEN_PATH + f".{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as stream:
                json.dump(golden, stream, indent=1, sort_keys=True)
                stream.write("\n")
            os.replace(tmp, GOLDEN_PATH)
            print(f"{key(shape, variant)}: {entry['digest'][:16]} "
                  f"({time.perf_counter() - started:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
