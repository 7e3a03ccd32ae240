"""Per-layer tracing of one kappacalc request, installed from outside the
package by wrapping the public functions of each module.

A traced request runs twice, in two fresh interpreters, so that counting
never inflates the times:

- **timing** (`Tracer(..., timing=True)`): coarse layer calls (realization
  builds, suites, Hopf realization, Lorentz actions, ...) are recorded as
  spans: name, start, end, parent span and request id, kept in memory and
  returned with the report.  The hot inner products (TruncSeries and
  AlgElement products) run 10^5 times per request, so they are aggregated
  into call counts and self time instead of being stored one by one.  Nothing
  runs that only counts.
- **counting** (`timing=False`): the GaussScalar and TruncSeries call
  counters and the hooks that measure operands and results (series density,
  term pairs, terms kept by `vacuum_project`, distinct `xhat_monomial`
  arguments, the realizations the suites use).  No clock is read.

Self time is a call's duration minus the time covered by the wrapped calls
it made.  A total (`*.total_s`) counts only the outermost call of its group,
so recursion and nesting inside the same layer are not counted twice.  The
wrappers' own bookkeeping (clock reads, spans, counters) is charged to no
layer: its sum is reported as `wrapper_s`.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, request_id: int, suites: tuple, timing: bool):
        self.request_id = request_id
        self.suites = suites
        self.timing = timing
        self.clock = time.perf_counter
        # open frames: [name, start, child_s, span, suite, nested wrapper_s]
        self.stack: list = []
        self.spans: list = []   # [name, start, end, parent span index, request]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.depth: dict = defaultdict(int)
        self.wrapper_s = 0.0
        self.extra: dict = defaultdict(int)
        self.counts: dict = {}
        self.xhat_keys: set = set()
        self.realizations: list = []

    # -- wrappers -------------------------------------------------------------

    def counter(self, name: str):
        """Count calls; installed only when counting."""
        if self.timing:
            return None
        counts = self.counts
        counts[name] = 0

        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def timed(self, name: str, group: str | None = None, span: bool = True,
              suite=None, after=None):
        """Time each call of `fn` as layer `name` when timing; when counting,
        call `after(tracer, args, result)` once the call returns.

        `group` names the total this call adds to (default: `name`); `suite`
        is a suite name or a function of the call's arguments returning one."""
        if not self.timing:
            return None if after is None else self._hooked(after)
        group = group or name
        stack, depth, clock = self.stack, self.depth, self.clock

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                entered = clock()
                owner = suite(self, args) if callable(suite) else suite
                if owner is not None and depth["suite"]:
                    owner = None
                span_index = None
                if span:
                    parent = next((f[3] for f in reversed(stack)
                                   if f[3] is not None), None)
                    span_index = len(self.spans)
                    self.spans.append([name, 0.0, 0.0, parent,
                                       self.request_id])
                depth[group] += 1
                if owner is not None:
                    depth["suite"] += 1
                frame = [name, 0.0, 0.0, span_index, owner, 0.0]
                stack.append(frame)
                frame[1] = start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    # the call's own work: its duration less its children's
                    # whole wrapped calls, their bookkeeping included
                    self.calls[name] += 1
                    self.self_s[name] += duration - frame[2]
                    # totals leave out the bookkeeping of the wrapped calls
                    # nested in them
                    work = duration - frame[5]
                    depth[group] -= 1
                    if not depth[group]:
                        self.total_s[group] += work
                    if owner is not None:
                        depth["suite"] -= 1
                        self.total_s[f"suite.{owner}"] += work
                    if span_index is not None:
                        self.spans[span_index][1:3] = [start, end]
                    left = clock()
                    overhead = left - entered - duration
                    self.wrapper_s += overhead
                    if stack:
                        stack[-1][2] += left - entered
                        stack[-1][5] += frame[5] + overhead
            return traced
        return wrap

    def _hooked(self, after):
        def wrap(fn):
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(self, args, result)
                return result
            return hooked
        return wrap

    def caller(self) -> str | None:
        """Name of the innermost open wrapped call; read on entry, before the
        new call is pushed, it names the caller."""
        return self.stack[-1][0] if self.stack else None

    # -- report ---------------------------------------------------------------

    def report(self) -> dict:
        if self.timing:
            return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                    "total_s": dict(self.total_s),
                    "wrapper_s": self.wrapper_s, "spans": self.spans}
        return {"counts": self.counts, "extra": dict(self.extra),
                "xhat_distinct": len(self.xhat_keys)}


# -- extra counts recorded after a call returns --------------------------------


def _series_density(t: Tracer, args, result):
    for s in args[:2]:
        t.extra["series.mul.coeffs"] += len(s.coeffs)
        t.extra["series.mul.nonzero"] += sum(
            1 for c in s.coeffs if c.re or c.im)


def _alg_mul_size(t: Tracer, args, result):
    a, b = args
    t.extra["algebra.mul.term_pairs"] += len(a.terms) * len(b.terms)
    if len(result.terms) > t.extra["algebra.mul.peak_terms"]:
        t.extra["algebra.mul.peak_terms"] = len(result.terms)


def _vacuum_kept(t: Tracer, args, result):
    t.extra["algebra.vacuum_project.terms_in"] += len(args[0].terms)
    t.extra["algebra.vacuum_project.terms_kept"] += len(result.terms)


def _xhat_key(t: Tracer, args, result):
    r, indices = args
    t.xhat_keys.add((id(r), tuple(indices)))


def _keep_used_realization(t: Tracer, args, result):
    # RunConfig.build(order) is the Hopf suite's realization; the base one,
    # built without an order, is used by every other suite.
    if len(args) > 1 and args[1] is not None or set(t.suites) - {"hopf"}:
        t.realizations.append(result)


def _keep_second_basis(t: Tracer, args, result):
    # check_module_property(calc, r, other): `other` is the second basis of
    # the realization-independence check.
    if len(args) > 2 and args[2] is not None:
        t.realizations.append(args[2])


# -- suite attribution ---------------------------------------------------------
# `suite.<name>.total_s` sums the calls that `cli.run_suites` makes for each
# suite, excluding the base realization build shared by all suites (that is
# `realizations.build.total_s`).  Most suite functions name their suite
# statically in `install`; these decide from the call.


def _hopf_build(t: Tracer, args):
    # RunConfig.build(order) with an explicit order is the Hopf suite's
    # realization at one extra order; without one it is the shared base.
    return "hopf" if len(args) > 1 and args[1] is not None else None


def _calculus_build(t: Tracer, args):
    return "calculus" if "calculus" in t.suites else "actions"


def _second_basis(t: Tracer, args):
    # build_noncov called directly from run_suites builds the second basis
    # of the realization-independence check.
    return "actions" if t.caller() == "cli.run_suites" else None


# -- installation --------------------------------------------------------------


def _replace(modules, owner, attr: str, wrapper) -> None:
    """Wrap `owner.attr` (a wrapper of None leaves it alone); a module
    function is also replaced wherever another kappacalc module imported it
    by name."""
    if wrapper is None:
        return
    original = getattr(owner, attr)
    wrapped = wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


def install(tracer: Tracer) -> None:
    import kappacalc
    from kappacalc import (algebra, calculus, cli, dsl, hopf, realizations,
                           reports, scalars, series)
    modules = (kappacalc, algebra, calculus, cli, dsl, hopf, realizations,
               reports, scalars, series)
    t = tracer

    def patch(owner, attr, wrapper):
        _replace(modules, owner, attr, wrapper)

    gs = scalars.GaussScalar
    # __rsub__ and __rtruediv__ delegate to __sub__ and __truediv__
    for attr in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__"):
        patch(gs, attr, t.counter("scalars.ops"))

    ts = series.TruncSeries
    patch(ts, "__init__", t.counter("series.new"))
    patch(ts, "__mul__", t.timed("series.mul", span=False,
                                 after=_series_density))
    for attr in ("exp", "log", "recip", "compose", "comp_inverse"):
        patch(ts, attr, t.timed(f"series.{attr}", span=False,
                                group="series.transcendental"))

    patch(algebra.AlgElement, "__mul__",
          t.timed("algebra.mul", span=False, after=_alg_mul_size))
    patch(algebra.TensorElement, "__mul__",
          t.timed("algebra.tensor_mul", span=False))
    patch(algebra.AlgElement, "vacuum_project",
          t.timed("algebra.vacuum_project", span=False, after=_vacuum_kept))
    for cls in (algebra.AlgElement, algebra.TensorElement):
        patch(cls, "render", t.timed("reports.render"))

    hs = hopf.HopfStructure
    patch(hs, "__init__", t.timed("hopf.structure", suite="hopf"))
    patch(hs, "realize", t.timed("hopf.realize"))
    patch(hs, "delta", t.timed("hopf.delta"))
    patch(hs, "delta_leg", t.timed("hopf.delta_leg", group="hopf.delta"))
    patch(hs, "antipode", t.timed("hopf.antipode"))
    for fn in ("check_hopf_axioms", "check_group_like",
               "check_classical_primitivity", "check_morphism_compat"):
        patch(hopf, fn, t.timed(f"hopf.{fn}", suite="hopf"))

    patch(calculus, "build_calculus",
          t.timed("calculus.build", suite=_calculus_build))
    patch(calculus, "lorentz_action", t.timed("calculus.lorentz_action"))
    patch(calculus, "xhat_monomial",
          t.timed("calculus.xhat_monomial", after=_xhat_key))
    patch(calculus, "abstract_coords", t.timed("calculus.abstract_coords"))
    patch(calculus, "expected_xi", t.timed("calculus.expected_xi",
                                           suite="calculus"))
    patch(calculus, "run_calculus_suites",
          t.timed("calculus.run_calculus_suites", suite="calculus"))
    for fn in ("check_action_table", "check_adjoint_agreement"):
        patch(calculus, fn, t.timed(f"calculus.{fn}", suite="actions"))
    patch(calculus, "check_module_property",
          t.timed("calculus.check_module_property", suite="actions",
                  after=_keep_second_basis))

    patch(realizations, "build_noncov",
          t.timed("realizations.build_noncov", group="realizations.build",
                  suite=_second_basis))
    patch(realizations, "build_natural",
          t.timed("realizations.build_natural", group="realizations.build"))
    for fn, owner in (("verify_space", "space"),
                      ("verify_lorentz_and_mixed", "lorentz"),
                      ("extract_H_G", "lorentz"),
                      ("verify_shift", "shift"),
                      ("verify_box", "box"),
                      ("crosscheck_frames", "frames")):
        patch(realizations, fn, t.timed(f"realizations.{fn}", suite=owner))

    patch(dsl, "eval_dsl", t.timed("dsl.eval"))
    patch(cli, "run_suites", t.timed("cli.run_suites"))
    patch(cli, "_emit", t.timed("cli.emit"))
    patch(cli.RunConfig, "build",
          t.timed("cli.RunConfig.build", suite=_hopf_build,
                  after=_keep_used_realization))
    patch(reports.SuiteReport, "record", t.timed("reports.record",
                                                 span=False))
