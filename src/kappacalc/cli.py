"""Command-line driver: builds realizations from a config or the named-basis
catalog and runs the exact identity suites.

Exit codes: 0 all identities hold, 1 at least one identity fails,
2 invalid input (config, DSL, flags, object or generator names)."""
from __future__ import annotations

import argparse
import functools
import gc
import json
import re
import sys
from fractions import Fraction

from . import scalars
from .algebra import (AlgebraError, AlgElement, Context, act_on, commutator,
                      graded_commutator)
from .dsl import FUNCS, IDENT, DslError, eval_dsl
from .realizations import (CATALOG, GUARD, NoncovParams, RealizationSet,
                           build_basis, build_natural, build_noncov,
                           crosscheck_frames, extract_H_G, named_basis_params,
                           verify_box, verify_lorentz_and_mixed, verify_shift,
                           verify_space)
from .records import Record
from .reports import SuiteReport

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


# -- suites -------------------------------------------------------------------
# A runner takes (cfg, r, calc, structure): the run config, the base
# realization and two functions returning the run's calculus and Hopf
# structure, each built once, on first use.
# The hopf and calculus modules are imported by the runners that use them,
# so a request that runs neither suite never loads them.  Runners look the
# suite functions up on their module when they run, so a function replaced
# on its module (e.g. wrapped for tracing) is the one that runs.


def _run_lorentz(cfg, r, calc, structure) -> list:
    return [verify_lorentz_and_mixed(r), extract_H_G(r)]


def _run_hopf(cfg, r, calc, structure) -> list:
    from . import hopf
    structure = structure()
    reports = [hopf.check_hopf_axioms(name, structure)
               for name in hopf._generator_names(r.ctx)]
    return reports + [hopf.check_group_like(structure),
                      hopf.check_classical_primitivity(structure),
                      hopf.check_morphism_compat(structure)]


def _run_calculus(cfg, r, calc, structure) -> list:
    from . import calculus
    return calculus.run_calculus_suites(calc())


def _run_actions(cfg, r, calc, structure) -> list:
    from . import calculus
    c = calc()
    reports = [calculus.check_action_table(c)]
    other_name = "left" if cfg.basis != "left" else "bicrossproduct"
    other = build_basis(cfg.context(), other_name)
    # by position: perfbench/tracer.py reads the second basis as the third
    # positional argument
    return reports + [calculus.check_module_property(c, 2, other),
                      calculus.check_adjoint_agreement(structure())]


# name -> (requires the noncovariant realization, runner), in run order
SUITES = {
    "space": (False, lambda cfg, r, *_: [verify_space(r)]),
    "lorentz": (False, _run_lorentz),
    "shift": (False, lambda cfg, r, *_: [verify_shift(r)]),
    "box": (True, lambda cfg, r, *_: [verify_box(r)]),
    "frames": (True, lambda cfg, r, *_: [crosscheck_frames(r)]),
    "hopf": (True, _run_hopf),
    "calculus": (True, _run_calculus),
    "actions": (True, _run_actions),
}
ALL_SUITES = tuple(SUITES)


# -- configuration ------------------------------------------------------------


class RunConfig(Record):
    """A request's settings; `validate` checks them and fills in the default
    direction (the time axis) for the dimension."""

    __slots__ = ("dim", "order", "direction", "basis", "phi", "psi", "s",
                 "realization", "suites", "bindings")
    _defaults = {"dim": 4, "order": 3, "direction": (),
                 "basis": "bicrossproduct", "phi": None, "psi": None,
                 "s": Fraction(1), "realization": "noncovariant",
                 "suites": ALL_SUITES, "bindings": {}}

    def validate(self):
        if self.dim < 2:
            raise ConfigError("dimension must be >= 2")
        if self.order < 1:
            raise ConfigError("order must be >= 1")
        if not self.direction:
            self.direction = (Fraction(1),) + (Fraction(0),) * (self.dim - 1)
        if len(self.direction) != self.dim:
            raise ConfigError("direction length must equal the dimension")
        if self.realization not in ("noncovariant", "natural"):
            raise ConfigError(f"unknown realization {self.realization!r}")
        known = "known: " + ", ".join(ALL_SUITES)
        if not self.suites:
            raise ConfigError(f"no suite selected; {known}")
        for s in self.suites:
            if s not in ALL_SUITES:
                raise ConfigError(f"unknown suite {s!r}; {known}")
        missing = [k for k in ("phi", "psi") if getattr(self, k) is None]
        if self.realization == "noncovariant" and self.basis is None \
                and missing:
            raise ConfigError("need either a basis name or phi and psi; "
                              + " and ".join(missing) + " missing")

    def to_data(self) -> dict:
        data = {
            "schema_version": SCHEMA_VERSION,
            "dim": self.dim,
            "order": self.order,
            "direction": [str(e) for e in self.direction],
            "basis": self.basis,
            "phi": self.phi,
            "psi": self.psi,
            "s": str(self.s),
            "realization": self.realization,
            "suites": list(self.suites),
        }
        if self.bindings:
            data["bindings"] = {k: str(v) for k, v in self.bindings.items()}
        return data

    def params(self, order: int) -> NoncovParams:
        if self.basis is None:
            return NoncovParams.build(eval_dsl(self.phi, order, self.bindings),
                                      eval_dsl(self.psi, order, self.bindings))
        return named_basis_params(self.basis, order)

    def context(self) -> Context:
        return Context(self.dim, self.order, self.direction)

    def build(self) -> RealizationSet:
        ctx = self.context()
        if self.realization == "natural":
            return build_natural(ctx)
        return build_noncov(ctx, self.params(self.order + GUARD))


def _frac(text) -> Fraction:
    """An exact rational from "p", "p/q" or a decimal such as "0.5", by the
    string rule of `scalars._frac`."""
    if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ConfigError(f"rationals must be strings, got {text!r}")
    try:
        return scalars._frac(text)
    except scalars.ScalarError as exc:
        raise ConfigError(str(exc)) from None


CONFIG_KEYS = ("schema_version", "dim", "order", "direction", "basis", "phi",
               "psi", "s", "realization", "suites", "bindings")
_JSON_KINDS = {int: "an integer", str: "a string", list: "an array",
               dict: "an object"}


def _typed(data: dict, key: str, kind: type):
    value = data[key]
    if type(value) is not kind:  # rejects true/false where ints are wanted
        raise ConfigError(f"config key {key!r} must be {_JSON_KINDS[kind]}, "
                          f"got {value!r}")
    return value


def _binding_name(name: str) -> str:
    """A name the DSL reads as an identifier: not the series variable A, not
    a function name, and of the identifier grammar."""
    if name == "A" or name in FUNCS or not re.fullmatch(IDENT, name):
        raise ConfigError(f"config binding {name!r} is not a name phi or psi "
                          f"can use: names match {IDENT} and are not A, "
                          + ", ".join(FUNCS))
    return name


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(unknown))
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    cfg = RunConfig()
    for key, kind in (("dim", int), ("order", int), ("basis", str),
                      ("phi", str), ("psi", str), ("realization", str)):
        if key in data:
            setattr(cfg, key, _typed(data, key, kind))
    if "phi" in data or "psi" in data:
        cfg.basis = None
    if "direction" in data:
        cfg.direction = tuple(_frac(v) for v in _typed(data, "direction", list))
    if "s" in data:
        cfg.s = _frac(data["s"])
    if "suites" in data:
        cfg.suites = tuple(_typed(data, "suites", list))
    if "bindings" in data:
        cfg.bindings = {_binding_name(name): _frac(value) for name, value
                        in _typed(data, "bindings", dict).items()}
    return cfg


# -- suite execution ----------------------------------------------------------


def run_suites(cfg: RunConfig, inject_fault: bool = False) -> list:
    wanted = cfg.suites
    # these suites name each generator M_ij by one digit per index
    named = [s for s in wanted if s in ("hopf", "actions")]
    if cfg.dim > 10 and named:
        raise ConfigError("suites " + ", ".join(named) + " name the "
                          "generators M_ij with one-digit indices, so they "
                          "need --dim <= 10")
    if cfg.realization != "noncovariant":
        bad = [s for s in wanted if SUITES[s][0]]
        if bad:
            raise ConfigError("suites " + ", ".join(bad)
                              + " require the noncovariant realization")
    r = cfg.build()

    @functools.cache
    def calc():
        from . import calculus
        return calculus.build_calculus(r, cfg.s, fault=inject_fault)

    @functools.cache
    def structure():
        from .hopf import HopfStructure
        return HopfStructure(r)

    reports: list[SuiteReport] = []
    for name, (_, run) in SUITES.items():
        if name in wanted:
            reports.extend(run(cfg, r, calc, structure))
    return reports


def _emit(reports, cfg: RunConfig, as_json: bool):
    ok = all(rep.passed for rep in reports)
    if as_json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": cfg.to_data(),
            "passed": ok,
            "suites": [rep.to_data() for rep in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        for rep in reports:
            for check in rep.checks:
                tag = "PASS" if check.passed else "FAIL"
                line = f"[{tag}] {rep.suite} :: {check.name}"
                if check.residual:
                    line += f"  residual: {check.residual}"
                print(line)
        total = sum(len(rep.checks) for rep in reports)
        failed = sum(1 for rep in reports for c in rep.checks if not c.passed)
        print(f"{total - failed}/{total} identities hold")
    return ok


# -- commands -----------------------------------------------------------------
# name -> (function, whether it takes the config flags and --json, its other
# arguments); each argument is an `_arg`, the parameters of one
# `ArgumentParser.add_argument` call.
COMMANDS = {}


def _arg(*flags, **kwargs):
    return flags, kwargs


def _command(*arguments, name=None, config=True):
    def register(fn):
        COMMANDS[name or fn.__name__] = (fn, config, arguments)
        return fn
    return register


_HELP = _arg("--help", action="help", help="Show this message and exit.")
_CONFIG_ARGS = (
    _arg("--config", dest="config_path", metavar="PATH",
         help="JSON config file."),
    _arg("--basis", help="Named basis from the catalog."),
    _arg("--phi", help="phi(A) as a DSL expression."),
    _arg("--psi", help="psi(A) as a DSL expression."),
    _arg("--order", type=int, help="Truncation order N in a0."),
    _arg("--dim", type=int, help="Spacetime dimension."),
    _arg("--s", help="Exterior-derivative exponent s (rational)."),
    _arg("--direction",
         help="Deformation direction, comma-separated rationals."),
    _arg("--realization", choices=("noncovariant", "natural")),
    _arg("--json", dest="as_json", action="store_true",
         help="Machine-readable output."),
)


def _run_with_config(fn, config_path, basis, phi, psi, order, dim, s,
                     direction, realization, **rest):
    """Run the command `fn` on the validated RunConfig of the config flags,
    in place of the flags."""
    cfg = load_config(config_path) if config_path else RunConfig()
    if basis is not None:
        cfg.basis = basis
        cfg.phi = cfg.psi = None
    if phi is not None:
        cfg.phi, cfg.basis = phi, None
    if psi is not None:
        cfg.psi, cfg.basis = psi, None
    if order is not None:
        cfg.order = order
    if dim is not None:
        cfg.dim = dim
        cfg.direction = ()
    if s is not None:
        cfg.s = _frac(s)
    if direction is not None:
        cfg.direction = tuple(_frac(v) for v in direction.split(","))
    if realization is not None:
        cfg.realization = realization
    cfg.validate()
    return fn(cfg, **rest)


def _attach_values(args: list, arguments) -> list:
    """`args` with each option that takes a value joined to it as
    `--option=value`, so that a value starting with '-' (`--s -1/2`,
    `--direction -1,0`) is read as the value, not as an option."""
    takes_value = {flag for flags, kwargs in arguments
                   if "action" not in kwargs for flag in flags
                   if flag.startswith("-")}
    out, i = [], 0
    while i < len(args):
        if args[i] == "--":
            return out + args[i:]
        if args[i] in takes_value and i + 1 < len(args):
            out.append(f"{args[i]}={args[i + 1]}")
            i += 2
        else:
            out.append(args[i])
            i += 1
    return out


@_command(
    _arg("--suites",
         help="Comma-separated subset of: " + ", ".join(ALL_SUITES)),
    _arg("--inject-fault", action="store_true",
         help="Corrupt the K1 coefficient of the exterior derivative."))
def verify(cfg, as_json, suites, inject_fault):
    """Run the identity suites and exit 0 iff every identity holds."""
    if suites is not None:
        cfg.suites = tuple(t.strip() for t in suites.split(",") if t.strip())
        cfg.validate()
    reports = run_suites(cfg, inject_fault=inject_fault)
    ok = _emit(reports, cfg, as_json)
    sys.exit(0 if ok else 1)


_OBJECT = re.compile(
    r"(xhat|xi|dx|x|p|d|D|X)(0|[1-9][0-9]*)|(M)([0-9])([0-9])")


def _calculus(cfg: RunConfig, r: RealizationSet):
    from . import calculus
    if r.frame != "noncovariant":
        raise ConfigError("forms require the noncovariant realization")
    return calculus.build_calculus(r, cfg.s)


def _resolve_object(cfg: RunConfig, r: RealizationSet, name: str):
    ctx = r.ctx
    simple = {"Z": r.Z, "Zinv": r.Zinv, "box": r.box}
    if name in simple:
        if simple[name] is None:
            raise ConfigError(f"{name} is not defined in this realization")
        return simple[name]
    if name == "dhat":
        return _calculus(cfg, r).dhat
    match = _OBJECT.fullmatch(name)
    if match is None:
        raise ConfigError(f"unknown object {name!r}")
    kind, *indices = [g for g in match.groups() if g is not None]
    mu, *rest = [int(i) for i in indices]
    if not all(0 <= i < ctx.dim for i in (mu, *rest)):
        raise ConfigError(f"index out of range in {name!r}")
    if kind == "M":
        if mu == rest[0]:
            raise ConfigError("M indices must differ")
        return r.M[mu][rest[0]]
    if kind == "xi":
        return _calculus(cfg, r).xi[mu]
    generators = {"x": AlgElement.x, "d": AlgElement.d, "dx": AlgElement.dx}
    if kind in generators:
        return generators[kind](ctx, mu)
    return {"xhat": r.xhat, "p": r.p, "D": r.D, "X": r.X}[kind][mu]


def _print_element(obj, as_json: bool):
    if as_json:
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "value": obj.to_data()}, indent=2))
    else:
        print(obj.render())


def _print_hopf_map(cfg: RunConfig, what: str, generator: str,
                    as_json: bool):
    from . import hopf
    fn = hopf.coproduct if what == "coproduct" else hopf.antipode
    _print_element(fn(generator, hopf.HopfStructure(cfg.build())), as_json)


@_command(_arg("what", metavar="WHAT"),
          _arg("generator", nargs="?", metavar="GENERATOR"))
def show(cfg, as_json, what, generator):
    """Print a realized object.

    WHAT is e.g. xhat1, M10, Z, box, dhat, xi0, or 'coproduct'/'antipode'
    followed by a generator name."""
    if what in ("coproduct", "antipode"):
        if generator is None:
            raise ConfigError(f"{what} needs a generator name")
        _print_hopf_map(cfg, what, generator, as_json)
    elif generator is not None:
        raise ConfigError(f"unexpected argument {generator!r}: only "
                          "coproduct and antipode take a generator")
    else:
        _print_element(_resolve_object(cfg, cfg.build(), what), as_json)


@_command(_arg("--graded", action="store_true",
               help="Use the graded bracket (anticommutator on odd pairs)."),
          _arg("left", metavar="LEFT"), _arg("right", metavar="RIGHT"),
          name="commutator")
def commutator_cmd(cfg, as_json, graded, left, right):
    """Print [LEFT, RIGHT] of two realized objects."""
    r = cfg.build()
    a = _resolve_object(cfg, r, left)
    b = _resolve_object(cfg, r, right)
    _print_element(graded_commutator(a, b) if graded else commutator(a, b),
                   as_json)


@_command(_arg("generator", metavar="GENERATOR"), name="coproduct")
def coproduct_cmd(cfg, as_json, generator):
    """Print the coproduct of a generator (p0, p1, M10, M12, Z, ...)."""
    _print_hopf_map(cfg, "coproduct", generator, as_json)


@_command(_arg("generator", metavar="GENERATOR"), name="antipode")
def antipode_cmd(cfg, as_json, generator):
    """Print the antipode of a generator."""
    _print_hopf_map(cfg, "antipode", generator, as_json)


@_command(_arg("operator", metavar="OPERATOR"),
          _arg("target", metavar="TARGET"))
def act(cfg, as_json, operator, target):
    """Print OPERATOR |> TARGET, the derivative-free part of the product.

    OPERATOR |> TARGET = (OPERATOR TARGET) |> 1, computed without building
    the product."""
    r = cfg.build()
    a = _resolve_object(cfg, r, operator)
    f = _resolve_object(cfg, r, target)
    _print_element(act_on(a, f), as_json)


@_command(_arg("--json", dest="as_json", action="store_true"), config=False)
def catalog(as_json):
    """List the named (phi, psi) bases."""
    if as_json:
        print(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "bases": {k: {"phi": v[0], "psi": v[1]}
                      for k, v in sorted(CATALOG.items())},
        }, indent=2))
        return
    for name, (phi_src, psi_src) in sorted(CATALOG.items()):
        print(f"{name}: phi = {phi_src}, psi = {psi_src}")
    print("family: psi = 1+r*A with constant gamma = c "
          "(phi = (1+r*A)^((c-1)/r))")


def main(args=None, prog_name=None):
    """Exact verification of kappa-deformed spacetime realizations.

    Runs the command in `args` (default: the process arguments) and ends in
    SystemExit with the exit code: 0, 1, or 2 for invalid input anywhere
    below the command, reported as `error: ...` on stderr."""
    listing = "\n".join(f"  {name:<12}{fn.__doc__.splitlines()[0]}"
                        for name, (fn, _, _) in sorted(COMMANDS.items()))
    top = argparse.ArgumentParser(
        prog=prog_name, description=main.__doc__.splitlines()[0],
        epilog="commands:\n" + listing, add_help=False, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument(*_HELP[0], **_HELP[1])
    top.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                     help="One of the commands below.")
    top.add_argument("args", nargs=argparse.REMAINDER,
                     help="The command's arguments; see COMMAND --help.")
    request = top.parse_args(sys.argv[1:] if args is None else list(args))
    fn, config, arguments = COMMANDS[request.command]
    arguments = (_HELP, *(_CONFIG_ARGS if config else ()), *arguments)
    parser = argparse.ArgumentParser(
        prog=f"{top.prog} {request.command}", description=fn.__doc__,
        add_help=False, allow_abbrev=False)
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    # options may sit between the positional arguments
    opts = vars(parser.parse_intermixed_args(
        _attach_values(request.args, arguments)))
    # What exists now (modules, classes, functions) never becomes garbage:
    # frozen, the collector and interpreter teardown skip it.  Once per
    # process, so a later request's garbage is not frozen with it.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    try:
        if config:
            _run_with_config(fn, **opts)
        else:
            fn(**opts)
    except (ConfigError, DslError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
