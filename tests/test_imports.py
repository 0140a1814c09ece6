"""Package structure: no module reaches into another module's private
names, every name the benchmark looks up exists, every option field and
defaulted parameter is set by some caller, every exception class is raised
and has an exit code, every module constant is read, and every public
function and class is read by the package or the benchmark."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gptw"
MODULES = sorted(SRC.glob("*.py"))
PERFBENCH = ROOT / "perfbench"
# Entries of the tracer's TRACED table whose functions no longer exist;
# their metrics (minimize.finalize_s, field.lift_calls, field.lift_s) read 0.
STALE_TRACED = {("gptw.minimize", "_finalize"), ("gptw.spectrum", "_lanczos_pass"),
                ("gptw.field", "lift")}
# Names the workloads look up as strings: the scan wraps the start
# builders where constancy_scan finds them.
LOOKED_UP = [("gptw.spectrum", "perturb"), ("gptw.spectrum", "vortex_test_function")]


def _private_imports(path):
    """(line, module, name) of every `from .x import _name` or
    `from gptw.x import _name` in the file at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "gptw":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert _private_imports(path) == []


def test_detects_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .minimize import _finalize, classify\n"
                     "from gptw.field import _same_grid\n"
                     "from __future__ import annotations\n"
                     "from numpy import _core\n")
    assert _private_imports(probe) == [(1, ".minimize", "_finalize"),
                                       (2, "gptw.field", "_same_grid")]


def _traced_names():
    """(module, attribute) of each entry of perfbench/tracer.py's TRACED."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("no TRACED table in perfbench/tracer.py")


def _called_names(path):
    """(module, attribute) of every gptw.<name> and gptw.<module>.<name>
    attribute read in the file at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "gptw":
            found.add(("gptw", node.attr))
        elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
              and owner.value.id == "gptw"):
            found.add((f"gptw.{owner.attr}", node.attr))
    return found


def test_benchmark_names_resolve():
    # the tracer skips a name it cannot find, and its metric then reads 0
    traced = set(_traced_names()) - STALE_TRACED
    called = set(LOOKED_UP)
    for script in ("run.py", "workloads.py"):
        called |= _called_names(PERFBENCH / script)
    assert {("gptw", "transform_forward"), ("gptw", "gradient"), ("gptw", "action"),
            ("gptw", "hessian_apply"), ("gptw.minimize", "minimize_action")} <= called
    missing = [(module, attr) for module, attr in sorted(traced | called)
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


# Option classes whose every field some caller outside the tests must set
OPTION_CLASSES = [("gptw.functionals", "Params"), ("gptw.minimize", "MinimizeOptions"),
                  ("gptw.mountainpass", "RelaxOptions"), ("gptw.mountainpass", "SaddleOptions")]


def _names_set(paths):
    """{class name: keywords} of every call by name in the files at
    `paths`, and the attribute names assigned on anything but self."""
    keywords, attributes = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                attributes.update(t.attr for t in targets if isinstance(t, ast.Attribute)
                                  and getattr(t.value, "id", None) != "self")
    return keywords, attributes


def test_every_option_is_set_outside_the_tests():
    # a field that only its default ever fills is a knob nothing turns
    keywords, attributes = _names_set(MODULES + sorted(PERFBENCH.glob("*.py")))
    unset = [(cls, field.name) for module, cls in OPTION_CLASSES
             for field in dataclasses.fields(getattr(importlib.import_module(module), cls))
             if field.name not in keywords.get(cls, set()) | attributes]
    assert unset == []


# Defaulted parameters that only the tests pass: the tests drive the CLI
# through main(argv).
CALLED_FROM_TESTS = {("cli", "main", "argv")}


def _defaulted_parameters(paths):
    """(module, function, parameter, position) of every parameter with a
    default of a function or method defined in the files at `paths`; the
    position counts call arguments (self and cls excluded) and is None for a
    keyword-only parameter."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for owner in ast.walk(tree):
            body = getattr(owner, "body", None)
            for node in body if isinstance(body, list) else []:
                if not isinstance(node, ast.FunctionDef):
                    continue
                bound = isinstance(owner, ast.ClassDef) and not any(
                    getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                args = node.args.posonlyargs + node.args.args
                for i in range(len(args) - len(node.args.defaults), len(args)):
                    found.append((path.stem, node.name, args[i].arg, i - bound))
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        found.append((path.stem, node.name, arg.arg, None))
    return found


def test_every_defaulted_parameter_is_passed():
    # a default that no call overrides is a knob nothing turns; a call
    # passes a parameter by its keyword or by as many positional arguments
    calls = {}
    for path in MODULES + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = {(module, func, arg)
                for module, func, arg, position in _defaulted_parameters(MODULES)
                if not any(any(k.arg == arg for k in call.keywords)
                           or (position is not None and len(call.args) > position)
                           for call in calls.get(func, []))}
    assert unpassed == CALLED_FROM_TESTS


def test_detects_unpassed_default(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(a, b=1, *, c=2):\n    pass\n"
                     "class K:\n    def m(self, d=3):\n        pass\n")
    assert _defaulted_parameters([probe]) == [("probe", "f", "b", 1), ("probe", "f", "c", None),
                                              ("probe", "m", "d", 0)]


def _exceptions_and_raises(paths):
    """(names of the exception classes defined, names raised) in the files
    at `paths`; a class counts as an exception when one of its bases is a
    name ending in Error or Exception, or another such class."""
    defined, raised = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases}
                if any(b and b.endswith(("Error", "Exception")) for b in bases) or bases & defined:
                    defined.add(node.name)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return defined, raised


def test_every_exception_is_raised():
    # an exception class whose only raiser is gone is a name nothing can catch
    defined, raised = _exceptions_and_raises(MODULES)
    assert sorted(defined - raised) == []


def test_detects_unraised_exception(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class A(ValueError):\n    pass\n"
                     "class B(RuntimeError):\n    pass\n"
                     "class C(A):\n    pass\n"
                     "class D:\n    pass\n"
                     "def f():\n    raise B('x')\n")
    assert _exceptions_and_raises([probe]) == ({"A", "B", "C"}, {"B"})


def _class_bases(paths):
    """{name: names of its bases} of every class defined in the files at `paths`."""
    bases = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", None) or getattr(b, "attr", None)
                                    for b in node.bases}
    return bases


def _derives(name, base, bases):
    """Whether class `name` is `base` or derives from it, by the {name:
    bases} map of _class_bases."""
    return name == base or any(_derives(b, base, bases) for b in bases.get(name, ()))


def _main_exit_codes(path):
    """{exception name: returned constant} of the except clauses of the
    function main in the file at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    codes = {}
    for handler in ast.walk(main):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        returned = [node.value.value for node in ast.walk(handler)
                    if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)]
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        for t in types:
            codes[getattr(t, "id", None) or getattr(t, "attr", None)] = returned[0]
    return codes


def test_every_failure_has_an_exit_code():
    # cli.main alone maps failures to exit codes: a rejected input is a
    # ValueError (exit 2), a failed solve one of the names it returns 3 for;
    # any other exception would escape it as a traceback and exit 1
    codes = _main_exit_codes(SRC / "cli.py")
    assert codes["ValueError"] == 2
    mapped = {"ValueError"} | {name for name, code in codes.items() if code == 3}
    bases = _class_bases(MODULES)
    defined, _ = _exceptions_and_raises(MODULES)
    unmapped = [name for name in defined
                if not any(_derives(name, base, bases) for base in mapped)]
    assert sorted(unmapped) == []


def test_detects_unmapped_failure(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class A(ValueError):\n    pass\n"
                     "class B(A):\n    pass\n"
                     "class C(RuntimeError):\n    pass\n"
                     "def main():\n    try:\n        return 0\n"
                     "    except (C, mod.D) as exc:\n        return 3\n"
                     "    except ValueError:\n        return 2\n")
    bases = _class_bases([probe])
    assert bases == {"A": {"ValueError"}, "B": {"A"}, "C": {"RuntimeError"}}
    assert _derives("B", "ValueError", bases) and not _derives("C", "ValueError", bases)
    assert _main_exit_codes(probe) == {"C": 3, "D": 3, "ValueError": 2}


def _constants_and_loads(paths):
    """(names of the UPPER_CASE constants assigned at module level, names
    loaded anywhere, bare or as an attribute) in the files at `paths`."""
    assigned, loaded = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned.update(t.id for t in targets
                                if isinstance(t, ast.Name) and t.id.isupper())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return assigned, loaded


def test_every_constant_is_read():
    # a constant whose reader is gone is a knob nothing turns
    assigned, loaded = _constants_and_loads(MODULES)
    assert sorted(assigned - loaded) == []


def test_detects_unread_constant(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("A = 1\nB: int = 2\nC = 3\nD = 4\nlower = 5\n"
                     "def f(x=A):\n    E = 6\n    return x + mod.C + E\n")
    assert _constants_and_loads([probe]) == ({"A", "B", "C", "D"},
                                             {"A", "int", "mod", "C", "E", "x"})


# Public names that only the tests read: the oracles and paper quantities
# that the tests compare the solvers against.
TEST_ORACLES = {"plane_wave", "plane_wave_action_density", "symbol_eigenvalues",
                "dense_hessian", "poincare_constant", "weighted_eigenvalue", "l2_product"}


def _public_definitions(paths):
    """Names of the public functions and classes defined at module level in
    the files at `paths`."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names.update(node.name for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and not node.name.startswith("_"))
    return names


def test_every_public_name_is_read_outside_the_tests():
    # a function or class that only the package's export list and the tests
    # name is code kept for its tests
    readers = [path for path in MODULES if path.name != "__init__.py"]
    _, loaded = _constants_and_loads(readers + sorted(PERFBENCH.glob("*.py")))
    unread = _public_definitions(MODULES) - loaded - TEST_ORACLES
    assert sorted(unread) == []


def test_detects_unread_public_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class A:\n    def m(self):\n        pass\n"
                     "def f():\n    def g():\n        pass\n    return A\n"
                     "def _h():\n    pass\n")
    assert _public_definitions([probe]) == {"A", "f"}
    assert {"A", "f"} - _constants_and_loads([probe])[1] == {"f"}
