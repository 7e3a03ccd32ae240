"""Smoke test of the benchmark's tracer (perfbench/tracer.py) against the
package: it wraps kappacalc functions by name, so a renamed or deleted
function, or one called around its module name, must fail here and not
only in a traced benchmark run."""
import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kappacalc.algebra import Context
from kappacalc.realizations import build_basis

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
MARKER = "@@perfbench-report "
REQUEST = ["verify", "--basis", "left", "--dim", "2", "--order", "1",
           "--suites", "lorentz,hopf,calculus,actions", "--json"]


@functools.cache
def _child_report(mode: str) -> dict:
    """The child's report of one request in a fresh interpreter with the
    tracer installed in `mode` (trace: timing wrappers, count: counting
    wrappers)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(CHILD), mode, "0", *REQUEST],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["passed"] is True
    line = res.stderr.strip().splitlines()[-1]
    assert line.startswith(MARKER), res.stderr
    return json.loads(line[len(MARKER):])


def _traced(mode: str) -> dict:
    return _child_report(mode)[mode]


@pytest.mark.parametrize("mode", ["trace", "count"])
def test_tracer_installs_and_sees_the_layers(mode):
    report = _traced(mode)
    if mode == "count":
        assert report["xhat_distinct"] > 0
        assert report["extra"]["algebra.mul.term_pairs"] > 0
        return
    calls = report["calls"]
    for name in ("calculus.lorentz_action", "calculus.xhat_monomial",
                 "calculus.abstract_coords", "calculus.check_action_table",
                 "calculus.check_adjoint_agreement",
                 "calculus.check_module_property",
                 "calculus.run_calculus_suites", "hopf.check_hopf_axioms",
                 "hopf.realize", "algebra.mul", "reports.record",
                 "cli.run_suites"):
        assert calls.get(name, 0) > 0, name


def test_count_mode_measures_both_bases_of_the_actions_suite():
    # the actions suite's realization-independence check runs on a second
    # basis, which the tracer reads as the third positional argument of
    # check_module_property; input.* must describe both bases
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    ctx = Context(2, 1, (1, 0))
    want = child.input_properties([build_basis(ctx, "left"),
                                   build_basis(ctx, "bicrossproduct")])
    assert want["monomials"] == 14
    assert _child_report("count")["inputs"] == want
