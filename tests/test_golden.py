"""Golden outputs: sha256 digests of the CLI's stdout on a small grid.

The grid covers `coproduct`/`antipode --json` for every catalog basis at
n=3, N=2 and for two bases with a transcendental phi at n=3, N=4 (where
most symbolic Hopf terms lie above the working order), `show --json` of
realized objects in both frames (and at n=3, N=3 of the box, D0, X1, M10,
Z and Zinv on right-covariant and weyl-symmetric, where psi != 1 or phi is
transcendental), `verify --json` of every suite for every catalog basis
at n=2 and of the Hopf suite at n=3, N=3 (where rotations enter) and at
n=4, N=6 with `coproduct --json` there (where momentum words carry several
spatial momenta), `verify --suites hopf --json` at n=3, N=4 for two DSL
(phi, psi) pairs with psi != 1, `verify --suites lorentz,hopf --json` at
n=3, N=4 for those pairs and weyl-symmetric (where both suites read the
closed form of G above n=2), `coproduct`/`antipode --json` of Zinv,
`act --json` of operators on coordinates for three bases, and a few text
outputs.  Any refactoring of the engine must leave each digest (and exit
code) unchanged.

Re-record only on purpose, after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py --record
"""
import hashlib
import json
import sys
from pathlib import Path

from helpers import run_cli
from kappacalc.realizations import CATALOG

DIGESTS = Path(__file__).with_name("golden.json")

N3 = ["--dim", "3", "--order", "2"]
N2 = ["--dim", "2", "--order", "2"]
N4 = ["--dim", "3", "--order", "4"]
HOPF_GENERATORS = ("p0", "p1", "p2", "Z", "M10", "M20", "M12")
HOPF_N4_BASES = ("left", "weyl-symmetric")
HOPF_N4_GENERATORS = ("p0", "p1", "M10", "M12", "Z")
# above the orders of the other groups: n=4, N=6
DIM4_ORDER6 = ["--dim", "4", "--order", "6"]
DIM4_ORDER6_GENERATORS = ("p0", "p1", "M10")
SHOW_BICROSSPRODUCT = ("xhat0", "xhat1", "M10", "M12", "Z", "Zinv", "box",
                       "D0", "X1", "dhat", "xi0", "xi1")
SHOW_NATURAL = ("xhat0", "xhat1", "Z", "M10")
# psi != 1 (BigPsi is not A) and a transcendental phi, at one order above N3
N3_ORDER3 = ["--dim", "3", "--order", "3"]
SHOW_PSI_BASES = ("right-covariant", "weyl-symmetric")
SHOW_PSI = ("box", "D0", "X1", "M10", "Z", "Zinv")
# psi != 1 and phi != 1, so Delta Zinv goes through BigPsi^-1
ZINV_BASIS = "left-covariant"
NATURAL = [*N3, "--realization", "natural", "--direction", "1,1,0"]
# psi != 1 beside a transcendental phi, and the swapped pair, from the DSL
HOPF_DSL_PAIRS = (("exp(A/2)", "1+A/3"), ("1+A/3", "exp(A/2)"))
ACT_BASES = ("bicrossproduct", "left", "weyl-symmetric")
ACT_OPERATORS = ("M10", "M12", "p1", "Z", "box", "D0", "dhat", "xi0")
ACT_TARGETS = ("xhat0", "xhat1", "X1")

GROUPS = {
    "hopf": [[cmd, *N3, "--basis", basis, gen, "--json"]
             for basis in sorted(CATALOG)
             for cmd in ("coproduct", "antipode")
             for gen in HOPF_GENERATORS],
    "hopf-n4": [[cmd, *N4, "--basis", basis, gen, "--json"]
                for basis in HOPF_N4_BASES
                for cmd in ("coproduct", "antipode")
                for gen in HOPF_N4_GENERATORS],
    "show": ([["show", *N3, "--basis", "bicrossproduct", name, "--json"]
              for name in SHOW_BICROSSPRODUCT]
             + [["show", *NATURAL, name, "--json"] for name in SHOW_NATURAL]
             + [["show", *N3_ORDER3, "--basis", basis, name, "--json"]
                for basis in SHOW_PSI_BASES for name in SHOW_PSI]),
    "verify": [["verify", *N2, "--basis", basis, "--json"]
               for basis in sorted(CATALOG)],
    "hopf-suite-n3": ([["verify", *N3_ORDER3, "--basis", basis,
                        "--suites", "hopf", "--json"]
                       for basis in sorted(CATALOG)]
                      + [[cmd, *N3, "--basis", ZINV_BASIS, "Zinv", "--json"]
                         for cmd in ("coproduct", "antipode")]),
    "hopf-dim4-order6": ([["verify", *DIM4_ORDER6, "--basis", basis,
                           "--suites", "hopf", "--json"]
                          for basis in HOPF_N4_BASES]
                         + [["coproduct", *DIM4_ORDER6, "--basis", basis,
                             gen, "--json"]
                            for basis in HOPF_N4_BASES
                            for gen in DIM4_ORDER6_GENERATORS]),
    "hopf-dsl": [["verify", *N4, "--phi", phi, "--psi", psi,
                  "--suites", "hopf", "--json"]
                 for phi, psi in HOPF_DSL_PAIRS],
    "lorentz-hopf-n3-order4": (
        [["verify", *N4, "--phi", phi, "--psi", psi,
          "--suites", "lorentz,hopf", "--json"] for phi, psi in HOPF_DSL_PAIRS]
        + [["verify", *N4, "--basis", "weyl-symmetric",
            "--suites", "lorentz,hopf", "--json"]]),
    "act": [["act", *N3, "--basis", basis, op, target, "--json"]
            for basis in ACT_BASES
            for op in ACT_OPERATORS
            for target in ACT_TARGETS],
    "text": [["show", *N3, "coproduct", "M10"],
             ["commutator", *N3, "xhat0", "xhat1"],
             ["commutator", *N3, "--graded", "xi0", "xi1"],
             ["act", *N3, "p1", "xhat1"],
             ["verify", *N2, "--suites", "calculus", "--inject-fault"]],
}


def _digest(args) -> str:
    res = run_cli(args)
    return f"{res.exit_code}:{hashlib.sha256(res.stdout.encode()).hexdigest()}"


def _check(group: str):
    want = json.loads(DIGESTS.read_text())[group]
    got = {" ".join(args): _digest(args) for args in GROUPS[group]}
    assert got.keys() == want.keys()
    changed = [cmd for cmd in got if got[cmd] != want[cmd]]
    assert not changed, f"outputs changed: {changed}"


def test_hopf_maps_golden():
    _check("hopf")


def test_hopf_maps_n4_golden():
    _check("hopf-n4")


def test_show_golden():
    _check("show")


def test_verify_golden():
    _check("verify")


def test_hopf_suite_n3_golden():
    _check("hopf-suite-n3")


def test_hopf_dim4_order6_golden():
    _check("hopf-dim4-order6")


def test_hopf_dsl_golden():
    _check("hopf-dsl")


def test_lorentz_hopf_n3_order4_golden():
    _check("lorentz-hopf-n3-order4")


def test_act_golden():
    _check("act")


def test_text_golden():
    _check("text")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    DIGESTS.write_text(json.dumps(
        {group: {" ".join(args): _digest(args) for args in grid}
         for group, grid in GROUPS.items()}, indent=1) + "\n")
