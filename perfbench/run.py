"""kappacalc benchmark: cold `kappacalc verify --json` requests, end to end
and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs to be installed, the
request processes get `PYTHONPATH=src`.  One client sends one request at a
time (closed loop): each request is a fresh interpreter running
`kappacalc.cli:main` through perfbench/child.py, so the `_mul_mono` cache and
the `HopfStructure` caches start cold every time, as they do for a user.

A workload is a fixed list of requests.  The run repeats whole cycles of it,
each cycle in an order drawn from the seed; after the second it starts no
new cycle that would end after `--seconds`.  Every request's exit code and
`--json` output are checked against perfbench/expected.json (see record.py);
a mismatch is counted as failed and makes the command exit 1.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` the untraced cycles are followed, in the order of the first, by
one timed cycle and one counting cycle (see tracer.py); the last line carries
the per-layer metrics of those two cycles and the tracing overhead, and the
spans are written to perfbench/out/spans-<workload>-<seed>.json.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
EXPECTED = BENCH / "expected.json"
MARKER = "@@perfbench-report "
MIN_CYCLES = 2
RUN_LIMIT_S = 170.0   # every run, traced or not, must end within 180 s


@dataclass(frozen=True)
class Request:
    label: str          # key into expected.json
    args: tuple         # the CLI arguments, starting with the command
    seeded: bool = False  # arguments depend on the seed: no digest check


# -- workloads ----------------------------------------------------------------

CATALOG_SUITES = "space,lorentz,shift,box,frames"


def _verify(label, *args, seeded=False) -> Request:
    return Request(label, ("verify", *args, "--json"), seeded)


def hopf_dense(rng: random.Random) -> list:
    """Hopf suite at n=3, N=4 for two bases with a transcendental phi: dense
    a0-series with growing denominators under `HopfStructure.realize`."""
    return [_verify(f"hopf/{basis}", "--basis", basis, "--dim", "3",
                    "--order", "4", "--suites", "hopf")
            for basis in ("left", "weyl-symmetric")]


def actions_wide(rng: random.Random) -> list:
    """Calculus and actions suites at n=4, N=2: many monomials with short
    series, and full products that `vacuum_project` mostly discards."""
    return [_verify(f"actions/{basis}", "--basis", basis, "--dim", "4",
                    "--order", "2", "--suites", "calculus,actions")
            for basis in ("bicrossproduct", "left")]


def _rational(rng: random.Random) -> str:
    q = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 4)))
    return str(q if rng.random() < 0.5 else -q)


def catalog_cold(rng: random.Random) -> list:
    """Nine short n=4, N=3 requests where interpreter start, import, CLI
    validation, DSL evaluation, realization build and JSON emission are a
    large share: the catalog bases, two seeded DSL pairs, the natural frame
    and the fault-injection negative control."""
    common = ("--dim", "4", "--order", "3")
    out = [_verify(f"catalog/{basis}", "--basis", basis, *common,
                   "--suites", CATALOG_SUITES)
           for basis in ("bicrossproduct", "left", "weyl-symmetric",
                         "left-covariant", "right-covariant")]
    q, r = _rational(rng), _rational(rng)
    out.append(_verify("catalog/dsl-exp-phi", "--phi", f"exp(({q})*A)",
                       "--psi", f"1+({r})*A", *common,
                       "--suites", CATALOG_SUITES, seeded=True))
    q, r = _rational(rng), _rational(rng)
    out.append(_verify("catalog/dsl-exp-psi", "--phi", f"1+({q})*A",
                       "--psi", f"exp(({r})*A)", *common,
                       "--suites", CATALOG_SUITES, seeded=True))
    out.append(_verify("catalog/natural", "--realization", "natural",
                       "--direction", "1,1,0,0", *common,
                       "--suites", "space,lorentz,shift"))
    out.append(_verify("catalog/fault", "--basis", "left", *common,
                       "--suites", "calculus", "--inject-fault"))
    return out


WORKLOADS = {
    "hopf-dense": hopf_dense,
    "actions-wide": actions_wide,
    "catalog-cold": catalog_cold,
}


# -- one request --------------------------------------------------------------


@dataclass
class Outcome:
    request: Request
    wall_s: float
    setup_s: float | None
    exit: int
    stdout: bytes
    report: dict | None
    error: str | None = None    # why the output check failed, if it did


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(request: Request, mode: str, request_id: int, timeout: float
          ) -> Outcome:
    """Run one request in a fresh interpreter and wait until it has ended."""
    cmd = [sys.executable, str(CHILD), mode, str(request_id), *request.args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    wall = time.monotonic() - start
    text = stderr.decode(errors="replace")
    report = None
    at = text.rfind(MARKER)
    if at >= 0:
        report = json.loads(text[at + len(MARKER):].splitlines()[0])
    setup = report["ready"] - start if report else None
    out = Outcome(request, wall, setup, proc.returncode, stdout, report)
    if report is None:
        out.error = f"no report (exit {proc.returncode}): {text[-400:]}"
    return out


# -- output gate --------------------------------------------------------------


def summarize(stdout: bytes) -> dict:
    """Exit-independent facts of one `verify --json` output."""
    data = json.loads(stdout)
    return {
        "checks": [[s["suite"], len(s["checks"])] for s in data["suites"]],
        "failing": [f"{s['suite']} :: {c['name']}" for s in data["suites"]
                    for c in s["checks"] if not c["passed"]],
        "sha256": hashlib.sha256(stdout).hexdigest(),
    }


def check(out: Outcome, expected: dict) -> None:
    """Set `out.error` if the request did not produce its recorded output."""
    if out.error:
        return
    want = expected.get(out.request.label)
    if want is None:
        out.error = "no recorded expectation"
        return
    if out.exit != want["exit"]:
        out.error = f"exit {out.exit}, recorded {want['exit']}"
        return
    try:
        got = summarize(out.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        out.error = f"unreadable --json output: {exc}"
        return
    for key in ("checks", "failing"):
        if got[key] != want[key]:
            out.error = f"{key} differ from the recorded ones"
            return
    if not out.request.seeded and got["sha256"] != want["sha256"]:
        out.error = "sha256 of the output differs from the recorded one"


def identities(out: Outcome) -> int:
    if out.error:
        return 0
    return sum(n for _, n in summarize(out.stdout)["checks"])


# -- the run ------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.rng = random.Random(seed)
        self.requests = WORKLOADS[workload](self.rng)
        self.expected = json.loads(EXPECTED.read_text())
        self.seconds = seconds
        self.outcomes: list = []
        self.cycle_walls: list = []
        self.first_order: list = []
        self.started = time.monotonic()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def one(self, request: Request, mode: str) -> Outcome:
        if self.remaining() <= 0:
            raise TimeoutError("run limit reached")
        out = spawn(request, mode, len(self.outcomes), self.remaining())
        check(out, self.expected)
        self.outcomes.append(out)
        tag = "ok" if out.error is None else f"FAILED: {out.error}"
        print(f"{mode:5} {out.wall_s:7.3f}s {request.label} {tag}",
              file=sys.stderr, flush=True)
        return out

    def cycle(self, order: list, mode: str) -> list:
        start = time.monotonic()
        outs = [self.one(req, mode) for req in order]
        self.cycle_walls.append(time.monotonic() - start)
        return outs

    def untraced(self) -> list:
        """Whole cycles while the next one, at the mean cycle time so far,
        still ends within `seconds` (at least MIN_CYCLES)."""
        begin = time.monotonic()
        outs: list = []
        while len(self.cycle_walls) < MIN_CYCLES or (
                time.monotonic() - begin + statistics.mean(self.cycle_walls)
                <= self.seconds):
            order = list(self.requests)
            self.rng.shuffle(order)
            self.first_order = self.first_order or order
            outs += self.cycle(order, "run")
        return outs

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, outs: list) -> dict:
    walls = [o.wall_s for o in outs]
    # The slowest request is judged by its median over the run's cycles: a
    # single wall time swings by 15% on a shared machine, and the maximum of
    # all samples would also grow with the number of cycles that fit.
    by_label: dict = {}
    for o in outs:
        by_label.setdefault(o.request.label, []).append(o.wall_s)
    setups = [o.setup_s for o in outs if o.setup_s is not None]
    rss = [o.report["maxrss_kb"] for o in outs if o.report]
    passed = sum(1 for o in run.outcomes if not o.error)
    return {
        "identities_per_s": metric(
            sum(identities(o) for o in outs) / sum(run.cycle_walls), "1/s"),
        "request_s.p50": metric(statistics.median(walls), "s"),
        "request_s.max": metric(
            max(statistics.median(w) for w in by_label.values()), "s"),
        "setup_s": metric(statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": metric(max(rss) / 1024 if rss else 0.0, "MB"),
        "passed_ratio": metric(passed / len(run.outcomes), "ratio"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(traced: list, counted: list, overhead_s: float) -> dict:
    """Sum the layer reports of the timed requests (`traced`) and of the
    counting requests (`counted`) into the per-layer metrics."""
    calls, self_s, total_s, extra, counts = ({} for _ in range(5))
    inputs: dict = {}
    hits = misses = distinct = 0
    wrapper_s = 0.0
    for o in traced:
        if not o.report or "trace" not in o.report:
            continue
        t = o.report["trace"]
        for acc, key in ((calls, "calls"), (self_s, "self_s"),
                         (total_s, "total_s")):
            for name, v in t[key].items():
                acc[name] = acc.get(name, 0) + v
        wrapper_s += t["wrapper_s"]
    for o in counted:
        if not o.report or "count" not in o.report:
            continue
        t = o.report["count"]
        for name, v in t["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for name, v in t["extra"].items():
            if name.endswith("peak_terms"):
                extra[name] = max(extra.get(name, 0), v)
            else:
                extra[name] = extra.get(name, 0) + v
        for name, v in o.report["inputs"].items():
            if name == "max_bits":
                inputs[name] = max(inputs.get(name, 0), v)
            else:
                inputs[name] = inputs.get(name, 0) + v
        hits += o.report["mono_hits"]
        misses += o.report["mono_misses"]
        distinct += t["xhat_distinct"]
    c = lambda *names: sum(calls.get(n, 0) for n in names)  # noqa: E731
    s = lambda name: self_s.get(name, 0.0)                  # noqa: E731
    tot = lambda name: total_s.get(name, 0.0)               # noqa: E731
    values = {
        "scalars.ops": (counts.get("scalars.ops", 0), "count"),
        "series.mul.calls": (c("series.mul"), "count"),
        "series.mul.self_s": (s("series.mul"), "s"),
        "series.new.calls": (counts.get("series.new", 0), "count"),
        "series.mul.nonzero_density": (
            _ratio(extra.get("series.mul.nonzero", 0),
                   extra.get("series.mul.coeffs", 0)), "ratio"),
        "series.transcendental.total_s": (tot("series.transcendental"), "s"),
        "algebra.mul.calls": (c("algebra.mul"), "count"),
        "algebra.mul.self_s": (s("algebra.mul"), "s"),
        "algebra.mul.term_pairs": (extra.get("algebra.mul.term_pairs", 0),
                                   "count"),
        "algebra.mul.peak_terms": (extra.get("algebra.mul.peak_terms", 0),
                                   "count"),
        "algebra.tensor_mul.calls": (c("algebra.tensor_mul"), "count"),
        "algebra.tensor_mul.self_s": (s("algebra.tensor_mul"), "s"),
        "algebra.mono.hits": (hits, "count"),
        "algebra.mono.misses": (misses, "count"),
        "algebra.mono.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "algebra.vacuum_project.kept_ratio": (
            _ratio(extra.get("algebra.vacuum_project.terms_kept", 0),
                   extra.get("algebra.vacuum_project.terms_in", 0)), "ratio"),
        "hopf.structure.total_s": (tot("hopf.structure"), "s"),
        "hopf.realize.calls": (c("hopf.realize"), "count"),
        "hopf.realize.self_s": (s("hopf.realize"), "s"),
        "hopf.delta.calls": (c("hopf.delta", "hopf.delta_leg"), "count"),
        "hopf.antipode.calls": (c("hopf.antipode"), "count"),
        "calculus.build.total_s": (tot("calculus.build"), "s"),
        "calculus.lorentz_action.calls": (c("calculus.lorentz_action"),
                                          "count"),
        "calculus.lorentz_action.total_s": (tot("calculus.lorentz_action"),
                                            "s"),
        "calculus.xhat_monomial.calls": (c("calculus.xhat_monomial"),
                                         "count"),
        "calculus.xhat_monomial.repeat_ratio": (
            _ratio(c("calculus.xhat_monomial"), distinct), "ratio"),
        "calculus.abstract_coords.total_s": (tot("calculus.abstract_coords"),
                                             "s"),
        "realizations.build.calls": (
            c("realizations.build_noncov", "realizations.build_natural"),
            "count"),
        "realizations.build.total_s": (tot("realizations.build"), "s"),
        "dsl.eval.calls": (c("dsl.eval"), "count"),
        "dsl.eval.total_s": (tot("dsl.eval"), "s"),
        "cli.run_suites.total_s": (tot("cli.run_suites"), "s"),
        "cli.emit.total_s": (tot("cli.emit"), "s"),
        "reports.record.calls": (c("reports.record"), "count"),
        "reports.render.total_s": (tot("reports.render"), "s"),
    }
    for suite in ("space", "lorentz", "shift", "box", "frames", "hopf",
                  "calculus", "actions"):
        values[f"suite.{suite}.total_s"] = (tot(f"suite.{suite}"), "s")
    values["input.series.nonzero_density"] = (
        _ratio(inputs.get("nonzero", 0), inputs.get("coeffs", 0)), "ratio")
    values["input.coeff.max_bits"] = (inputs.get("max_bits", 0), "bits")
    values["input.generators.monomials"] = (inputs.get("monomials", 0),
                                            "count")
    values["trace.overhead_s"] = (overhead_s, "s")
    values["trace.wrapper_s"] = (wrapper_s, "s")
    return {name: metric(v, unit) for name, (v, unit) in values.items()}


def write_spans(workload: str, seed: int, run: Run, first: int) -> Path:
    """Write the spans of the timed requests among run.outcomes[first:]; a
    span's request id is its request's index in run.outcomes, and its parent
    is the index of the enclosing span in the written list."""
    spans, labels = [], {}
    for request_id, o in enumerate(run.outcomes[first:], start=first):
        if o.report and "trace" in o.report:
            labels[request_id] = o.request.label
            base = len(spans)   # each child numbered its spans from 0
            spans.extend([name, start, end,
                          None if parent is None else base + parent, request]
                         for name, start, end, parent, request
                         in o.report["trace"]["spans"])
    path = BENCH / "out" / f"spans-{workload}-{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "request"],
        "requests": labels, "spans": spans}))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if not (ROOT / "src" / "kappacalc" / "cli.py").is_file():
        print(f"error: no kappacalc sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    run = Run(opts.workload, opts.seed, opts.seconds)
    try:
        outs = run.untraced()
        if opts.trace:
            untraced_s = statistics.median(run.cycle_walls)
            first = len(run.outcomes)
            traced = run.cycle(run.first_order, "trace")
            traced_s = run.cycle_walls[-1]
            counted = run.cycle(run.first_order, "count")
            metrics = per_layer(traced, counted, traced_s - untraced_s)
            spans = write_spans(opts.workload, opts.seed, run, first)
            print(f"spans written to {spans.relative_to(ROOT)}",
                  file=sys.stderr)
        else:
            metrics = end_to_end(run, outs)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, m in metrics.items():
        print(f"{name:40} {m['value']:>16.6g} {m['unit']}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": len(run.outcomes),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
