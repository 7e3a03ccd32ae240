"""Static checks on the package source, with the standard library's `ast`."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kappacalc"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name; an
    attribute chain such as `re.fullmatch` reads its head name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_detection():
    src = "import os\nimport re as regex\nfrom math import gcd, lcm\n" \
          "print(regex.sub, lcm)\n"
    assert unused_imports(src) == ["gcd (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def module_level_imports(source: str) -> list:
    """Modules an import statement outside every function body names, as
    written: `from .hopf import X` and `from . import hopf` both give
    `.hopf`."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = "." * child.level + (child.module or "")
                found.extend([base] if child.module else
                             [base + alias.name for alias in child.names])
            visit(child)
    visit(ast.parse(source))
    return found


def test_module_level_import_detection():
    src = ("import os\nfrom .hopf import X\n"
           "if X:\n    from . import calculus\n"
           "def f():\n    from . import dsl\n"
           "class C:\n    import re\n")
    assert module_level_imports(src) == ["os", ".hopf", ".calculus", "re"]


@pytest.mark.parametrize("name", ["cli.py", "calculus.py"])
def test_suite_modules_are_imported_on_use(name):
    # a request that runs neither the hopf nor the calculus suite must not
    # pay for compiling them; the runners import them when they run
    imports = module_level_imports((PACKAGE / name).read_text())
    bad = [m for m in imports if m.removeprefix("kappacalc").lstrip(".")
           .split(".")[0] in ("hopf", "calculus")]
    assert bad == []


def test_only_the_suite_modules_import_dataclasses():
    # the CLI's import path loads neither click nor dataclasses, and the
    # Hopf layer's atoms are plain slotted classes; calculus is imported
    # only when its suites run
    found = {path.name: sorted({m.split(".")[0] for m in
                                module_level_imports(path.read_text())}
                               & {"dataclasses", "click"})
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == \
        {"calculus.py": ["dataclasses"]}


def gc_uses(source: str) -> set:
    """Attributes of the `gc` module a source reads, through `import gc`
    (under any alias) or `from gc import ...`."""
    tree = ast.parse(source)
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name == "gc"}
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            used |= {a.name for a in node.names}
    used |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return used


def test_gc_use_detection():
    src = ("import gc\nimport gc as g\nfrom gc import disable\n"
           "gc.freeze()\ng.set_threshold(1)\nx.collect()\n")
    assert gc_uses(src) == {"freeze", "set_threshold", "disable"}


def test_gc_policy_is_the_one_freeze_in_cli():
    # the collector keeps its defaults: the only use of gc is the CLI's
    # once-per-process freeze of the imported heap
    uses = {path.name: gc_uses(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: u for name, u in uses.items() if u} == \
        {"cli.py": {"freeze", "get_freeze_count"}}


def optional_hopf(source: str) -> list:
    """Functions with a `hopf` parameter that has a default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            if "hopf" in [a.arg for a in defaulted]:
                found.append(node.name)
    return found


def public_functions_taking(source: str, *names: str) -> list:
    """The public module-level functions and public methods of public
    classes that have a parameter of each of `names`."""
    tree = ast.parse(source)
    scopes = [("", tree)] + [(f"{node.name}.", node) for node in tree.body
                             if isinstance(node, ast.ClassDef)
                             and not node.name.startswith("_")]
    found = []
    for prefix, scope in scopes:
        for node in scope.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args
                          + args.kwonlyargs}
                if params.issuperset(names):
                    found.append(prefix + node.name)
    return found


def test_hopf_handle_detection():
    src = ("def f(x, hopf=None): pass\n"
           "def g(x, *, hopf=None): pass\n"
           "def h(hopf, r): pass\n"
           "def _k(r, hopf): pass\n"
           "class C:\n"
           "    def __init__(self, r): pass\n"
           "    def m(self, *, r): pass\n")
    assert optional_hopf(src) == ["f", "g"]
    assert public_functions_taking(src, "r") == ["h", "C.m"]


def test_the_hopf_structure_is_the_one_handle():
    # every Hopf operation takes the request's HopfStructure, which holds
    # its realization: none takes `r` beside it, and none builds its own
    # structure when it is left out
    found = {path.name: optional_hopf(path.read_text()) for path in MODULES}
    assert {name: fns for name, fns in found.items() if fns} == {}
    assert public_functions_taking((PACKAGE / "hopf.py").read_text(),
                                   "r") == []


def test_calculus_handle_detection():
    src = ("def f(c, r): pass\n"
           "def g(c, *, r=None): pass\n"
           "def h(c, hopf): pass\n"
           "def _k(c, r): pass\n"
           "class C:\n"
           "    def m(self, r, c): pass\n"
           "class _D:\n"
           "    def m(self, c, r): pass\n")
    assert public_functions_taking(src, "c", "r") == ["f", "g", "C.m"]
    assert public_functions_taking(src, "c") == ["f", "g", "h", "C.m"]


def test_the_calculus_set_is_the_one_handle():
    # every calculus check takes the CalculusSet, which holds its
    # realization: none takes `r` beside it, and the adjoint check reads
    # the realization from the HopfStructure alone
    source = (PACKAGE / "calculus.py").read_text()
    assert public_functions_taking(source, "c", "r") == []
    assert "check_adjoint_agreement" in public_functions_taking(source, "hopf")
    assert "check_adjoint_agreement" not in public_functions_taking(source,
                                                                    "c")
