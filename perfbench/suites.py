"""Wall time per suite of one `kappacalc verify` point, in the layout of the
ROADMAP baseline table.

    python3 perfbench/suites.py --basis bicrossproduct --dim 4 --order 3

Runs the point once untraced (the `total` column) and once traced, and prints
the untraced wall time, the traced `suite.<name>.total_s` of every suite that
ran, the shared base realization build, the tracing overhead and the
wrappers' own bookkeeping.
"""
from __future__ import annotations

import sys

import run as bench

TIMEOUT_S = 1800.0


def main(argv) -> int:
    request = bench.Request("adhoc", ("verify", *argv, "--json"))
    untraced = bench.spawn(request, "run", 0, TIMEOUT_S)
    traced = bench.spawn(request, "trace", 1, TIMEOUT_S)
    for out in (untraced, traced):
        if out.error:
            print(f"error: {out.error}", file=sys.stderr)
            return 1
    metrics = bench.per_layer([traced], [], traced.wall_s - untraced.wall_s)
    print(f"{'total (untraced request)':32} {untraced.wall_s:8.2f} s")
    for name, m in metrics.items():
        if name.startswith("suite.") and m["value"] or name in (
                "realizations.build.total_s", "trace.overhead_s",
                "trace.wrapper_s"):
            print(f"{name:32} {m['value']:8.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
