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


def _calls(names, node, where):
    # where each call of one of ``names`` is made: module, class and function
    for child in ast.iter_child_nodes(node):
        inner = f"{where}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
        if isinstance(child, ast.Call) and names & _names(child.func):
            yield inner
        yield from _calls(names, child, inner)


def test_threads_come_from_the_engine_pool_only():
    # the engine keeps its worker threads for the life of the process; a pool
    # made and joined on every call pays for threads it throws away
    made = [where for path in sorted(PACKAGE.glob("*.py"))
            for where in _calls({"ThreadPoolExecutor", "Thread"}, ast.parse(path.read_text()), path.stem)]
    assert made == ["mc._pool"]


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


DEPLOYMENT_OPTIONS = {"threads"}


def _options(module, tree):
    # (callee name, parameter, call-site position or None, where) for each
    # parameter with a default; a method's call sites skip self, and a
    # class's __init__ is called by the class name
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, ast.FunctionDef):
                continue
            method = isinstance(owner, ast.ClassDef) and "staticmethod" not in set().union(
                *map(_names, node.decorator_list))
            name = owner.name if method and node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            for index in range(len(positional) - len(node.args.defaults), len(positional)):
                yield name, positional[index].arg, index - method, f"{module}.{name}"
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None, f"{module}.{name}"


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _sets(call, parameter, position):
    # a *args or **kwargs call sets every parameter
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg in (None, parameter) for kw in call.keywords)
            or (position is not None and position < len(call.args)))


def test_every_keyword_option_is_set():
    # an option earns its place by a caller that sets it, in the package or
    # in the acceptance suite; a default that every run takes is the code,
    # and a second path that only unit tests reach is dead weight
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    acceptance = ast.parse((PACKAGE.parent.parent / "tests" / "test_acceptance.py").read_text())
    calls = [node for tree in [*trees.values(), acceptance] for node in ast.walk(tree) if isinstance(node, ast.Call)]
    options = [option for module, tree in trees.items() for option in _options(module, tree)]
    unset = [f"{where}({parameter})" for name, parameter, position, where in options
             if parameter not in DEPLOYMENT_OPTIONS
             and not any(_callee(call) == name and _sets(call, parameter, position) for call in calls)]
    assert len(options) > 20
    assert unset == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def _imports_of(tree, module):
    return [node for node in ast.walk(tree)
            if any(name == module or name.startswith(module + ".") for name in _imported_modules(node))]


def _unused_imports(path):
    # a line marked noqa, like the package's re-exports, is exempt
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.parent.name}/{path.name}:{node.lineno} {alias.asname or alias.name.split('.')[0]}"
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__" and "# noqa" not in lines[node.lineno - 1]
            for alias in node.names if (alias.asname or alias.name.split(".")[0]) not in used]


def test_no_unused_imports():
    # a removal must take the imports only it needed along with it
    paths = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parent.parent / "tests").glob("*.py"))
    assert len(paths) > 20
    assert [found for path in paths for found in _unused_imports(path)] == []


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
