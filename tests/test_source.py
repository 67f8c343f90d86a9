import ast
import json
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rareflow"


def test_no_assert_statements():
    # python -O strips assert statements: invariants must be explicit checks
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert list(PACKAGE.glob("*.py"))
    assert found == []


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_function_is_reached():
    # a public function earns its place in the package by a caller in
    # another definition of it, or by a paper claim of the acceptance suite;
    # a reference that only the unit tests need lives in tests/oracles.py
    statements = [node for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    public = [node.name for node in statements if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    reached = _names(ast.parse((PACKAGE.parent.parent / "tests" / "test_acceptance.py").read_text())).union(
        *(_names(node) - {getattr(node, "name", None)} for node in statements))
    unreached = [name for name in public if name not in reached]
    assert len(public) > 50
    assert unreached == []


def _is_dataclass(node):
    return isinstance(node, ast.ClassDef) and any(
        "dataclass" in _names(decorator) for decorator in node.decorator_list)


def test_every_dataclass_field_is_read():
    # a result field earns its place by an attribute read in the package or
    # in the acceptance suite; one that only unit tests read is dead weight
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    fields = [f"{cls.name}.{stmt.target.id}"
              for tree in trees for cls in ast.walk(tree) if _is_dataclass(cls)
              for stmt in cls.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    acceptance = ast.parse((PACKAGE.parent.parent / "tests" / "test_acceptance.py").read_text())
    read = {node.attr for tree in trees + [acceptance] for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [field for field in fields if field.split(".")[1] not in read]
    assert len(fields) > 50
    assert unread == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def _imports_of(tree, module):
    return [node for node in ast.walk(tree)
            if any(name == module or name.startswith(module + ".") for name in _imported_modules(node))]


def _package_imports(module):
    return [(path.name, node.lineno)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in _imports_of(ast.parse(path.read_text(), filename=str(path)), module)]


def test_no_scipy_stats_import():
    # importing scipy.stats costs about half a second; scipy.special has
    # every distribution function the package needs
    assert _package_imports("scipy.stats") == []


def test_no_scipy_optimize_or_integrate_import():
    # scipy.integrate, with the scipy.optimize it loads, costs a cold start
    # about 0.3 s: the root finder is tilt._brent, the barrier call oracle is
    # a closed form, and the credit oracle a graded Gauss-Legendre rule
    assert _package_imports("scipy.optimize") == []
    assert _package_imports("scipy.integrate") == []


COLD_RUNS = ("barrier-bias-order", "fw-bond", "credit", "credit-ladder")


def test_cold_import_loads_neither_optimize_nor_integrate():
    script = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "import rareflow.cli\n"
        "runs = []\n"
        "for path in sys.argv[1:]:\n"
        "    with open(path) as handle:\n"
        "        sub = json.load(handle)['subcommand']\n"
        "    with redirect_stdout(io.StringIO()) as out:\n"
        "        code = rareflow.cli.main([sub, '--config', path, '--n', '256', '--oracle', '--threads', '1'])\n"
        "    runs.append([code, 'oracle' in out.getvalue()])\n"
        "print(json.dumps([runs, [m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules]]))\n"
    )
    configs = [str(PACKAGE.parent.parent / "configs" / f"{name}.json") for name in COLD_RUNS]
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script, *configs], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    runs, loaded = json.loads(out.stdout)
    assert runs == [[0, True]] * len(COLD_RUNS)
    assert loaded == []
