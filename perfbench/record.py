"""Record what every benchmark request must output: perfbench/expected.json.

    python3 perfbench/record.py

For each request of each workload this stores the exit code, the check count
of every suite in order, the names of the failing checks (only the
fault-injection request has any) and the sha256 of the `--json` stdout.  The
digest is compared only for requests whose arguments do not depend on the
seed; to be recorded, such an output must be byte-identical across two runs
with different PYTHONHASHSEED values.  The check counts and failing names do
not depend on the seed, so the request lists are made at a fixed one.
Re-record only on purpose, when the verified output is meant to change.
"""
from __future__ import annotations

import json
import os
import random
import sys

import run as bench


def record_one(request: bench.Request) -> dict:
    outs = []
    for hash_seed in ("0", "1"):
        os.environ["PYTHONHASHSEED"] = hash_seed
        out = bench.spawn(request, "run", 0, bench.RUN_LIMIT_S)
        if out.error:
            raise SystemExit(f"{request.label}: {out.error}")
        outs.append(out)
        if request.seeded:
            break
    got = bench.summarize(outs[0].stdout)
    if any(bench.summarize(o.stdout)["sha256"] != got["sha256"]
           for o in outs):
        raise SystemExit(f"{request.label}: output is not reproducible")
    entry = {"exit": outs[0].exit, "checks": got["checks"],
             "failing": got["failing"]}
    if not request.seeded:
        entry["sha256"] = got["sha256"]
    return entry


def main() -> int:
    expected = {}
    for workload, make in bench.WORKLOADS.items():
        for request in make(random.Random(1)):
            expected[request.label] = record_one(request)
            print(f"{workload:13} {request.label}: exit "
                  f"{expected[request.label]['exit']}", file=sys.stderr)
    bench.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
