import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import run_cli
from kappacalc.cli import SCHEMA_VERSION
from kappacalc.realizations import CATALOG

FAST = ["--dim", "2", "--order", "2"]


def test_verify_space_passes():
    res = run_cli(["verify", *FAST, "--basis", "left",
                               "--suites", "space,shift"])
    assert res.exit_code == 0, res.output
    assert "identities hold" in res.output
    assert "[FAIL]" not in res.output


def test_verify_json_output():
    res = run_cli(["verify", *FAST, "--suites", "space", "--json"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["passed"] is True
    assert payload["config"]["dim"] == 2
    assert all(s["passed"] for s in payload["suites"])


def test_verify_custom_phi_psi():
    res = run_cli(["verify", *FAST, "--phi", "exp(-A)",
                               "--psi", "1", "--suites", "space,lorentz"])
    assert res.exit_code == 0, res.output


def test_verify_natural_realization():
    res = run_cli(["verify", "--dim", "3", "--order", "2",
                               "--realization", "natural",
                               "--direction", "1,1,0",
                               "--suites", "space,lorentz,shift"])
    assert res.exit_code == 0, res.output


def test_verify_fault_injection_exits_one():
    res = run_cli(["verify", *FAST, "--suites", "calculus",
                               "--inject-fault"])
    assert res.exit_code == 1, res.output
    assert "[FAIL]" in res.output


def test_invalid_inputs_exit_two(tmp_path):
    configs = {
        "top-level-array": [1],
        "bindings-array": {"schema_version": SCHEMA_VERSION, "bindings": [1]},
        "float-dim": {"schema_version": SCHEMA_VERSION, "dim": 2.9},
        "string-order": {"schema_version": SCHEMA_VERSION, "order": "2"},
        "bool-order": {"schema_version": SCHEMA_VERSION, "order": True},
        "unknown-key": {"schema_version": SCHEMA_VERSION, "sutes": ["space"]},
        "output-key": {"schema_version": SCHEMA_VERSION, "output": "json"},
        "direction-string": {"schema_version": SCHEMA_VERSION,
                             "direction": "1,0,0,0"},
        "suites-string": {"schema_version": SCHEMA_VERSION, "suites": "space"},
        "suites-empty": {"schema_version": SCHEMA_VERSION, "suites": []},
        "basis-array": {"schema_version": SCHEMA_VERSION, "basis": [1]},
        "zero-denominator": {"schema_version": SCHEMA_VERSION, "s": "1/0"},
        "exponent-s": {"schema_version": SCHEMA_VERSION, "s": "1e999999999"},
        "exponent-direction": {"schema_version": SCHEMA_VERSION, "dim": 2,
                               "direction": ["1E999999999", "0"]},
        "exponent-binding": {"schema_version": SCHEMA_VERSION,
                             "bindings": {"q": "2.5e999999999"}},
    }
    # a binding the DSL can never read: the series variable, a function
    # name, or a key outside the identifier grammar
    unreadable = ("A", "exp", "log", "sqrt", "", "2q", "q-1", "q r", "\u00e9")
    for i, name in enumerate(unreadable):
        configs[f"binding-{i}"] = {
            "schema_version": SCHEMA_VERSION, "dim": 2, "order": 1,
            "phi": "1+A", "psi": "1", "bindings": {name: "1"}}
    cases = [
        ["verify", *FAST, "--basis", "no-such-basis", "--suites", "space"],
        ["verify", *FAST, "--suites", "bogus"],
        ["verify", *FAST, "--suites", ""],
        ["verify", *FAST, "--suites", ","],
        ["verify", *FAST, "--phi", "2+A", "--psi", "1", "--suites", "space"],
        ["verify", *FAST, "--phi", "exp(", "--psi", "1", "--suites", "space"],
        ["verify", *FAST, "--phi", "1/0", "--psi", "1", "--suites", "space"],
        ["verify", *FAST, "--psi", "1/0", "--phi", "1", "--suites", "space"],
        ["verify", *FAST, "--s", "1/0", "--suites", "space"],
        ["verify", *FAST, "--s", "half", "--suites", "space"],
        ["verify", *FAST, "--s", "1e999999999", "--suites", "space"],
        ["verify", *FAST, "--direction", "1e999999999,0", "--suites", "space"],
        ["verify", *FAST, "--phi", "9^99999999", "--psi", "1",
         "--suites", "space"],
        ["verify", *FAST, "--phi", "((1+A)^100)^100", "--psi", "1",
         "--suites", "space"],
        ["verify", *FAST, "--phi", "(" * 3000 + "A" + ")" * 3000,
         "--psi", "1", "--suites", "space"],
        ["verify", *FAST, "--direction", "1/0,0", "--suites", "space"],
        ["verify", "--dim", "1", "--suites", "space"],
        ["verify", *FAST, "--realization", "natural", "--suites", "hopf"],
        ["show", *FAST, "nonsense"],
        ["show", *FAST, "coproduct"],
        ["show", *FAST, "x9"],
        ["show", *FAST, "d9"],
        ["show", *FAST, "dx9"],
        ["show", *FAST, "p\u00b2"],
        ["show", *FAST, "p01"],
        ["show", *FAST, "x01"],
        ["show", *FAST, "M00"],
        ["show", *FAST, "M11"],
        ["show", *FAST, "M10", "xhat0"],
        ["show", *FAST, "xhat0", "extra"],
        ["act", *FAST, "x9", "x0"],
        ["commutator", *FAST, "xhat0", "xhat9"],
        ["coproduct", *FAST, "M"],
        ["coproduct", *FAST, "p"],
        ["coproduct", *FAST, "Mab"],
        ["coproduct", *FAST, "M123"],
        ["coproduct", *FAST, "p+1"],
        ["antipode", *FAST, "M1"],
    ]
    for name, data in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        cases.append(["verify", "--config", str(path), "--suites", "space"])
    for args in cases:
        res = run_cli(args)
        assert res.exit_code == 2, (args, res.output)
        assert isinstance(res.exception, SystemExit), (args, res.exception)
        assert "error:" in res.output, args
    # only coproduct and antipode take a second argument; a stray one is
    # named, not dropped
    for what, stray in (("M10", "xhat0"), ("xhat0", "extra")):
        res = run_cli(["show", *FAST, what, stray])
        assert f"error: unexpected argument {stray!r}" in res.output, stray
    # show refuses a Lorentz name with equal indices as the Hopf layer does
    for args in (["show", *FAST, "M00"], ["show", *FAST, "M11"],
                 ["coproduct", *FAST, "M11"]):
        assert "error: M indices must differ" in run_cli(args).output, args
    for i, name in enumerate(unreadable):
        res = run_cli(["verify", "--config",
                                   str(tmp_path / f"binding-{i}.json")])
        assert f"binding {name!r}" in res.output, (name, res.output)
    # exponent notation is refused by the scalar rule, with the CLI's message
    for value, flag in (("1e5", "--s"), ("1e5,0", "--direction")):
        res = run_cli(["verify", *FAST, flag, value,
                                   "--suites", "space"])
        assert res.exit_code == 2, (flag, res.output)
        assert "error: exponent notation is not accepted: '1e5'" \
            in res.output, flag
    # an empty selection is refused with the list of known suites
    for args in (["verify", *FAST, "--suites", ""],
                 ["verify", *FAST, "--suites", ","],
                 ["verify", "--config", str(tmp_path / "suites-empty.json")]):
        res = run_cli(args)
        assert res.exit_code == 2, (args, res.output)
        assert "no suite selected; known: space, lorentz," in res.output, args


def test_requests_freeze_the_heap_once_and_keep_the_collector():
    # the first request freezes what exists then; a later one in the same
    # process freezes nothing more, so its garbage stays collectable
    threshold = gc.get_threshold()
    args = ["verify", "--dim", "2", "--order", "1", "--suites", "space"]
    assert run_cli(args).exit_code == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert run_cli(args).exit_code == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()
    assert gc.get_threshold() == threshold


def test_generator_suites_refuse_two_digit_indices():
    # the hopf and actions suites name M_ij with one digit per index; the
    # other suites and commands still run above dim 10
    wide = ["--dim", "11", "--order", "1"]
    for suite in ("hopf", "actions"):
        res = run_cli(["verify", *wide, "--suites", suite])
        assert res.exit_code == 2, (suite, res.output)
        assert "one-digit" in res.output and "--dim <= 10" in res.output
    res = run_cli(["verify", *wide, "--suites", "space"])
    assert res.exit_code == 0, res.output
    res = run_cli(["show", *wide, "xhat10"])
    assert res.exit_code == 0, res.output


def test_plain_fraction_and_decimal_rationals_accepted():
    for s_value, direction in (("2", "1,0"), ("1/2", "1/1,0"),
                               ("0.5", "1.0,0")):
        res = run_cli(["verify", *FAST, "--s", s_value,
                                   "--direction", direction,
                                   "--suites", "space"])
        assert res.exit_code == 0, (s_value, res.output)


def test_values_starting_with_a_dash_are_values():
    for args in (["--s", "-1/2", "--suites", "space"],
                 ["--realization", "natural", "--direction", "-1,0",
                  "--suites", "space"]):
        res = run_cli(["verify", *FAST, *args])
        assert res.exit_code == 0, (args, res.output)


def test_options_may_sit_between_arguments():
    # the sha256 of this request's stdout, recorded before the CLI moved
    # from click to argparse
    res = run_cli(["show", *FAST, "coproduct", "--json", "p1"])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == \
        "ba375edee423e5bb26bfaad7311a97d768c8eb0592ed261d2d99e570fd5fcf59"


CONFIG_HELP = {
    "--config": "JSON config file.",
    "--basis": "Named basis from the catalog.",
    "--phi": "phi(A) as a DSL expression.",
    "--psi": "psi(A) as a DSL expression.",
    "--order": "Truncation order N in a0.",
    "--dim": "Spacetime dimension.",
    "--s": "Exterior-derivative exponent s (rational).",
    "--direction": "Deformation direction, comma-separated rationals.",
    "--realization": None,
    "--json": "Machine-readable output.",
}
COMMAND_HELP = {
    "verify": {**CONFIG_HELP,
               "--suites": "Comma-separated subset of: space, lorentz, "
                           "shift, box, frames, hopf, calculus, actions",
               "--inject-fault": "Corrupt the K1 coefficient of the "
                                 "exterior derivative."},
    "show": CONFIG_HELP,
    "commutator": {**CONFIG_HELP, "--graded": "Use the graded bracket "
                                              "(anticommutator on odd pairs)."},
    "coproduct": CONFIG_HELP,
    "antipode": CONFIG_HELP,
    "act": CONFIG_HELP,
    "catalog": {"--json": None},
}


def test_help_lists_every_command_and_option():
    def squeezed(text):  # help text is wrapped at any space or hyphen
        return "".join(text.split())

    res = run_cli(["--help"])
    assert res.exit_code == 0, res.output
    assert all(name in res.output for name in COMMAND_HELP)
    for name, options in COMMAND_HELP.items():
        res = run_cli([name, "--help"])
        assert res.exit_code == 0, (name, res.output)
        for flag, text in {**options, "--help": None}.items():
            assert flag in res.output, (name, flag)
            if text is not None:
                assert squeezed(text) in squeezed(res.output), (name, flag)


def test_lone_phi_or_psi_names_the_missing_one():
    for given_flag, missing in (("--phi", "psi"), ("--psi", "phi")):
        res = run_cli(["verify", *FAST, given_flag, "1",
                                   "--suites", "space"])
        assert res.exit_code == 2
        assert f"{missing} missing" in res.output


def test_config_file(tmp_path):
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "dim": 2,
        "order": 2,
        "basis": "weyl-symmetric",
        "s": "1/2",
        "suites": ["space", "box"],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["verify", "--config", str(path)])
    assert res.exit_code == 0, res.output


def test_json_config_records_bindings(tmp_path):
    cfg = {"schema_version": SCHEMA_VERSION, "dim": 2, "order": 2,
           "phi": "1+q*A", "psi": "1", "bindings": {"q": "1/2"},
           "suites": ["space"]}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["verify", "--config", str(path), "--json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["config"]["bindings"] == {"q": "1/2"}
    # a run without bindings reports none, as before
    res = run_cli(["verify", *FAST, "--suites", "space", "--json"])
    assert "bindings" not in json.loads(res.output)["config"]


def test_config_file_bad_schema(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schema_version": 99}))
    res = run_cli(["verify", "--config", str(path)])
    assert res.exit_code == 2


def test_config_file_rejects_float_rationals(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                "s": 0.5}))
    res = run_cli(["verify", "--config", str(path)])
    assert res.exit_code == 2


def test_show_objects():
    for name in ("xhat0", "M10", "Z", "box", "dhat", "xi1", "p0"):
        res = run_cli(["show", *FAST, name])
        assert res.exit_code == 0, (name, res.output)
        assert res.output.strip()


def test_show_json():
    res = run_cli(["show", *FAST, "xhat0", "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert "terms" in payload["value"]


def test_commutator_command():
    res = run_cli(["commutator", *FAST, "xhat0", "xhat1"])
    assert res.exit_code == 0, res.output
    res_graded = run_cli(["commutator", *FAST, "--graded",
                                      "dx0", "dx1"])
    assert res_graded.exit_code == 0
    assert res_graded.output.strip() == "0"


def test_coproduct_and_antipode_commands():
    res = run_cli(["coproduct", *FAST, "p1"])
    assert res.exit_code == 0, res.output
    res = run_cli(["antipode", *FAST, "Z"])
    assert res.exit_code == 0, res.output
    res = run_cli(["coproduct", *FAST, "q7"])
    assert res.exit_code == 2


def test_act_command():
    res = run_cli(["act", *FAST, "p1", "xhat1"])
    assert res.exit_code == 0, res.output
    assert "i" in res.output  # p_1 |> x_1 = -i


def test_catalog_command():
    res = run_cli(["catalog"])
    assert res.exit_code == 0
    assert "bicrossproduct" in res.output
    res = run_cli(["catalog", "--json"])
    payload = json.loads(res.output)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert "left" in payload["bases"]


def test_verify_hopf_suite_small():
    res = run_cli(["verify", *FAST, "--suites", "hopf"])
    assert res.exit_code == 0, res.output


def test_verify_actions_suite_small():
    res = run_cli(["verify", *FAST, "--suites", "actions"])
    assert res.exit_code == 0, res.output


_LOADED = "import sys\nprint(sorted(sys.modules), file=sys.stderr)\n"
_COMMAND = ("from kappacalc.cli import main\n"
            "try:\n"
            "    main(args=sys.argv[1:], prog_name='kappacalc')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n")


def _modules_loaded(code: str, *args) -> set:
    """The modules loaded after `code` ran with `args` in a fresh
    interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-c", "import sys\n" + code
                          + _LOADED, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return set(ast.literal_eval(res.stderr.strip().splitlines()[-1]))


@pytest.mark.parametrize("suites, absent", [
    ("space,lorentz,shift,box,frames",
     {"kappacalc.hopf", "kappacalc.calculus"}),
    ("hopf", {"kappacalc.calculus"}),
])
def test_verify_imports_only_the_suites_it_runs(suites, absent):
    loaded = _modules_loaded(_COMMAND, "verify", *FAST, "--suites", suites)
    assert "kappacalc.realizations" in loaded
    assert not loaded & absent


def test_cli_import_loads_no_click_dataclasses_or_inspect():
    # each of them costs the import more than argparse and plain records
    loaded = _modules_loaded("import kappacalc.cli\n")
    assert not loaded & {"click", "dataclasses", "inspect"}


def test_hopf_import_loads_no_dataclasses_or_inspect():
    # the Hopf suite's requests import the Hopf layer too; its atoms are
    # plain slotted classes
    loaded = _modules_loaded("import kappacalc.cli, kappacalc.hopf\n")
    assert "kappacalc.hopf" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_calculus_import_loads_no_dataclasses_or_inspect():
    # the calculus and actions requests import the calculus layer too;
    # `CalculusSet` is a plain record
    loaded = _modules_loaded(
        "import kappacalc.cli, kappacalc.hopf, kappacalc.calculus\n")
    assert "kappacalc.calculus" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_import_leaves_gc_alone_and_a_request_freezes_it():
    code = ("import gc\nimport kappacalc.cli\n"
            "assert gc.get_freeze_count() == 0\n" + _COMMAND
            + "assert gc.get_freeze_count() > 0\n")
    _modules_loaded(code, "verify", *FAST, "--suites", "space")


def test_star_import_binds_every_public_name():
    code = ("from kappacalc import *\n"
            "import kappacalc\n"
            "missing = [n for n in kappacalc.__all__ if n not in globals()]\n"
            "assert not missing, missing\n")
    loaded = _modules_loaded(code)
    assert {"kappacalc.hopf", "kappacalc.calculus"} <= loaded


# -- exit-code contract fuzz ---------------------------------------------------

RATIONAL_TEXT = st.one_of(
    st.sampled_from(["1", "1/2", "-3/4", "0", "1/0", "", "x", "2.5", " 1 "]),
    st.text(alphabet="0123456789/-. x", max_size=6))
DSL_TEXT = st.one_of(
    st.sampled_from(sorted({src for pair in CATALOG.values() for src in pair})
                    + ["1/0", "A", "0", "2+A", "exp(", "q*A", "A^-1"]),
    st.lists(st.sampled_from(["A", "1", "2", "1/2", "1/0", "0", "q", "exp(",
                              "log(", "sqrt(", "(", ")", "+", "-", "*", "/",
                              "^"]), max_size=6).map("".join),
    st.text(max_size=6))
NAME_TEXT = st.one_of(
    st.sampled_from(["xhat0", "xhat1", "xhat2", "x9", "d9", "dx9", "p1", "p+1",
                     "p", "M", "M10", "M12", "M123", "M00", "Mab", "M1", "Z",
                     "Zinv", "box", "D0", "X1", "dhat", "xi0", "xi9", "p0"]),
    st.text(alphabet="xhatpdDXMZinvboe0123+", max_size=5))
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | RATIONAL_TEXT | DSL_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)
FLAG_VALUES = {
    "--basis": st.one_of(st.sampled_from(sorted(CATALOG)), st.text(max_size=5)),
    "--phi": DSL_TEXT,
    "--psi": DSL_TEXT,
    "--s": RATIONAL_TEXT,
    "--direction": st.one_of(
        st.sampled_from(["1,0", "1,0,0", "1,1,0", "0,0,1", "1/0,0", ","]),
        st.lists(RATIONAL_TEXT, min_size=1, max_size=3).map(",".join)),
    "--realization": st.sampled_from(["noncovariant", "natural", "bogus"]),
}
CONFIG_KEYS = ("schema_version", "dim", "order", "direction", "basis", "phi",
               "psi", "s", "realization", "suites", "bindings", "output",
               "sutes")


@st.composite
def invocations(draw):
    """(argv, config or None): every CLI command with drawn flags, config
    values, DSL strings and object/generator names, kept to dim <= 3,
    order <= 2 and the cheap suites."""
    cmd = draw(st.sampled_from(["verify", "show", "commutator", "act",
                                "coproduct", "antipode"]))
    dim, order = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))
    config = None
    if draw(st.booleans()):
        config = {"schema_version": 1, "dim": dim, "order": order}
        for key in draw(st.sets(st.sampled_from(CONFIG_KEYS), max_size=3)):
            config[key] = draw(JSON_VALUE)
        if draw(st.integers(0, 9)) == 0:
            config = draw(JSON_VALUE)
        args = [cmd, "--config", "CONFIG"]
    else:
        args = [cmd, "--dim", str(dim), "--order", str(order)]
    for flag in draw(st.sets(st.sampled_from(sorted(FLAG_VALUES)),
                             max_size=3)):
        args += [flag, draw(FLAG_VALUES[flag])]
    if cmd == "verify":
        suites = draw(st.sets(st.sampled_from(["space", "lorentz", "shift"])))
        args += ["--suites", ",".join(sorted(suites))]
    elif cmd == "show":
        what = draw(st.one_of(NAME_TEXT, st.sampled_from(["coproduct",
                                                          "antipode"])))
        args += [what] + draw(st.lists(NAME_TEXT, max_size=1))
    elif cmd in ("commutator", "act"):
        args += draw(st.lists(NAME_TEXT, min_size=2, max_size=2))
    else:
        args.append(draw(NAME_TEXT))
    return args, config


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_exit_code_contract_fuzz(tmp_path_factory, invocation):
    args, config = invocation
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps(config))
    args = [str(path) if a == "CONFIG" else a for a in args]
    res = run_cli(args)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        (args, config, res.exception)
    assert res.exit_code in (0, 1, 2), (args, config, res.output)
    if res.exit_code == 1:
        assert "[FAIL]" in res.output, (args, config, res.output)
