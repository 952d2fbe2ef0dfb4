"""Imports of the pairkey modules.

Every module except __init__ (which re-exports) uses each name it imports,
at any depth: a deletion that leaves an import behind fails here. No module
imports scipy when it is itself imported, and `theory`, `cli` and the
package import no numpy, so that `pairkey theory` runs on the standard
library alone. Which libraries each entry point really loads is checked in
fresh interpreters, since this one has loaded numpy and scipy already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairkey
from pairkey import cli

PACKAGE = Path(pairkey.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
WATCHED = ("numpy", "scipy", "scipy.sparse", "scipy.special")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def eager_imports(source: str) -> set[str]:
    """What `source` imports when it is itself imported, that is, outside
    any function body: top-level package names, and ".name" for a sibling
    module imported relatively."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                found.update(a.name.partition(".")[0] for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level:
                found.update(f".{name}" for name in
                             ([child.module] if child.module else
                              [a.name for a in child.names]))
            elif isinstance(child, ast.ImportFrom):
                found.add(child.module.partition(".")[0])
            visit(child)

    visit(ast.parse(source))
    return found


def eager_packages(module: str) -> set[str]:
    """Top-level packages that importing pairkey.`module` loads through
    module-level imports, following sibling modules and the package's own
    __init__."""
    seen, todo, packages = set(), ["__init__", module], set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for imp in eager_imports((PACKAGE / f"{name}.py").read_text()):
                if imp.startswith("."):
                    todo.append(imp[1:])
                else:
                    packages.add(imp)
    return packages


def test_checker_finds_an_unused_import():
    assert unused_imports("import math\nimport numpy as np\n"
                          "from os import path, sep\nx = np.pi + len(sep)\n") == \
        ["math (line 1)", "path (line 3)"]


def test_checker_finds_eager_imports():
    source = ("import numpy as np\nimport os.path\n"
              "from . import theory\nfrom .scheme import uniform_rows\n"
              "if np:\n    from scipy.special import bdtr\n"
              "class A:\n    import json\n"
              "def f():\n    import scipy.sparse\n    from . import cli\n")
    assert eager_imports(source) == {"numpy", "os", ".theory", ".scheme",
                                     "scipy", "json"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy_eagerly(path):
    assert "scipy" not in eager_imports(path.read_text())


@pytest.mark.parametrize("module", ["__init__", "theory", "cli"])
def test_stdlib_modules_import_no_numpy_eagerly(module):
    assert "numpy" not in eager_packages(module)


def run_fresh(code: str) -> tuple[str, set[str]]:
    """Run `code` in a fresh interpreter that imports pairkey from this tree
    and can import the test modules. Returns what it printed and which of
    WATCHED it had loaded at the end."""
    path = (str(PACKAGE.parent), str(Path(__file__).parent), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out, _, last = proc.stdout.rstrip("\n").rpartition("\n")
    return out, set(json.loads(last))


@pytest.mark.parametrize("code", [
    "import pairkey.cli",
    "import pairkey; pairkey.theory_report(200, 10, 0.4)",
    "from pairkey import cli\ntry:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass",
    "from pairkey import cli; assert cli.main(['simulate', '--n', 'x', '--out', 'o']) == 1",
], ids=["import-cli", "theory-report", "help", "usage-error"])
def test_cli_start_loads_neither_numpy_nor_scipy(code):
    assert run_fresh(code)[1] == set()


def test_montecarlo_loads_numpy_but_not_scipy():
    assert run_fresh("from pairkey import montecarlo")[1] == {"numpy"}


def test_theory_command_prints_the_same_json_without_numpy(capsys):
    argv = ["theory", "--n", "200", "--K", "10", "--p", "0.4"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    out, loaded = run_fresh(f"from pairkey import cli; cli.main({argv!r})")
    assert out + "\n" == want
    assert loaded == set()


def test_match_rho_loads_no_numpy():
    out, loaded = run_fresh("import pairkey; print(repr(pairkey.match_rho(0.2)))")
    assert out == repr(pairkey.match_rho(0.2))
    assert loaded == set()


def test_sweep_loads_scipy_sparse_before_its_first_trial():
    # the one trial has an isolated node, so it never reaches `components`
    out, loaded = run_fresh(
        "from pairkey import montecarlo as mc\n"
        "cfg = mc.ExperimentConfig(n=200, K_grid=(1,), p_grid=(0.2,), trials=1, seed=1)\n"
        "print(mc.sweep(cfg).rows[0].count_no_isolated)")
    assert out == "0"
    assert "scipy.sparse" in loaded


def test_validate_loads_scipy_special_but_not_scipy_sparse():
    _, loaded = run_fresh("from pairkey import cli\n"
                          "assert cli.main(['validate', '--samples', '2000', "
                          "'--seed', '1']) == 0")
    assert "scipy.special" in loaded and "scipy.sparse" not in loaded


def test_dump_instance_and_components_load_scipy_sparse_outside_a_sweep(tmp_path):
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    out, loaded = run_fresh(
        "import numpy as np\nimport pairkey\nfrom pairkey import cli\n"
        f"assert cli.main(['dump-instance', '--seed', '5', '--outdir', {str(fresh)!r}]) == 0\n"
        "print(pairkey.components(6, np.array([0, 1, 3]), np.array([1, 2, 4])))")
    assert "scipy.sparse" in loaded
    assert out == "3"  # {0, 1, 2}, {3, 4} and {5}
    assert cli.main(["dump-instance", "--seed", "5", "--outdir", str(here)]) == 0
    names = sorted(p.name for p in here.iterdir())
    assert len(names) == 5 and sorted(p.name for p in fresh.iterdir()) == names
    for name in names:
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name
