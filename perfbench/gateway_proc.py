"""Run ``repro gateway`` with the benchmark's layer wrappers installed.

    python3 perfbench/gateway_proc.py --trace-dir DIR -- gateway [flags]

The traced ``serve`` run starts the gateway through this file instead of
``python3 -m repro``: it installs :func:`spans.install_gateway`, runs the
CLI exactly as ``repro`` would, and once the gateway has shut down
(SIGTERM) writes ``DIR/gateway.json`` with its spans, call totals and
the ``repro.obs`` registry, which by then holds the shard workers'
merged counters. Shard workers write their own records as
``DIR/child-<pid>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import spans
    from repro import cli
    from repro.obs import metrics

    spans.install_gateway(args.trace_dir)
    code = cli.main(cli_args)
    record = spans.RECORDER.record()
    record["registry"] = metrics.registry().to_state()
    path = os.path.join(args.trace_dir, "gateway.json")
    with open(path + ".tmp", "w", encoding="utf-8") as stream:
        json.dump(record, stream)
    os.replace(path + ".tmp", path)
    return code


if __name__ == "__main__":
    sys.exit(main())
