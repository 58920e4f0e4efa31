"""The rewrite kernel is one interpreter module, git holds only sources (no
generated C, no built extensions, no stale test logs), no module is longer
than 700 lines, every exception class of the package is a `coeq.Error`, and
every definition in the package is used by the package or the benchmark, or
is on the short list of paper definitions that only a test checks."""
import ast
import fnmatch
import importlib
import pathlib
import shutil
import subprocess

import pytest

import coeq
import coeq.kernel

ROOT = pathlib.Path(__file__).resolve().parents[1]
GENERATED = ("*.c", "*.so", "test_output.txt")


def test_kernel_is_one_pure_module():
    assert coeq.KERNEL_BACKEND == "pure"
    assert coeq.kernel.__file__.endswith("kernel.py")


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="not a git checkout")
def test_no_generated_artifacts_in_git():
    listed = subprocess.run(["git", "ls-files"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.splitlines()
    generated = [path for path in listed
                 if any(fnmatch.fnmatch(pathlib.PurePath(path).name, pattern)
                        for pattern in GENERATED)]
    assert generated == []


def test_every_exception_class_is_an_input_error():
    """`coeq` reports a `coeq.Error` as the input's fault and any other
    exception as an internal error, so a module raises no exception class
    of its own outside that base.  The recognizer's `_Reject` never leaves
    `check_primitive_corecursive`."""
    outside = []
    for path in sorted((ROOT / "src" / "coeq").glob("[!_]*.py")):
        module = importlib.import_module(f"coeq.{path.stem}")
        for name, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, BaseException) \
                    and value.__module__ == module.__name__ \
                    and not issubclass(value, coeq.Error):
                outside.append(f"{path.name} {name}")
    assert outside == ["corec.py _Reject"]


MAX_MODULE_LINES = 700


def test_no_module_is_longer_than_700_lines():
    """Under PYTHONDONTWRITEBYTECODE=1, as the benchmark runs, a process
    compiles all of src/coeq from source before it reaches a verdict, and
    CPython's parser holds a module's whole token stream and AST while it
    compiles it (PEP 617).  So the longest module sets the peak of that
    start-up.  Under tracemalloc (CPython 3.11), compiling logic.py at
    1,152 lines peaked at 4.21 MB, extract.py at 1,120 at 4.12 MB, cli.py
    at 1,071 at 3.62 MB, and corec.py at 592 at 2.11 MB.  Splitting the
    three longest lowered the RSS high-water after `import coeq, coeq.cli`
    from 18.35 to 16.77 MB, and the benchmark's median prove `peak_rss_mb`
    from 21.31 to 20.62 MB."""
    long = {path.name: n for path in sorted((ROOT / "src" / "coeq").glob("*.py"))
            if (n := len(path.read_text(encoding="utf-8").splitlines())) > MAX_MODULE_LINES}
    assert long == {}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of top-level
    classes: (name, first line, last line, whether a method)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]):
                    yield item.name, item.lineno, item.end_lineno, True


def _references(tree: ast.Module):
    """Names a module mentions: (name, line, whether a method could be
    meant).  A method is reached only through an attribute, or by a
    string that getattr dispatch looks up; a bare name or an import
    means a module-level definition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, True


def _exempt(name: str) -> bool:
    # dunders are called by the interpreter; checker and extractor rule
    # handlers are looked up by name with getattr
    return (name.startswith("__") and name.endswith("__")) \
        or name.startswith(("_r_", "_x_"))


# Paper definitions that no command, module or benchmark calls, kept
# because the named test checks them.
CHECKED_BY_TESTS = {
    ("system.py", "syntactic_class"): "test_system.py::test_syntactic_class",
    ("system.py", "canonical_member"):
        "test_system.py::test_inductive_membership_agrees_with_enumeration",
    ("evaluation.py", "restrict"):
        "test_acceptance.py::test_criterion_10_approximation_consistency",
    ("program.py", "deep_destructor"):
        "test_spec_examples.py::test_deep_destructor_two_steps_reaches_tail",
    ("formulas.py", "all_intro"): "test_logic.py::test_forall_detour",
    ("formulas.py", "all_elim"): "test_logic.py::test_all_elim_instantiates_without_capture",
    ("formulas.py", "inj"): "test_logic.py::test_separation_and_injectivity",
    ("formulas.py", "sep"): "test_logic.py::test_separation_and_injectivity",
}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _mentions(test: str, name: str) -> bool:
    """Whether the test function `file::function` refers to `name`."""
    file, function = test.split("::")
    for node in _parse(ROOT / "tests" / file).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return any(seen == name for seen, _line, _method in _references(node))
    return False


def test_every_definition_is_referenced():
    """A definition counts as used when a module of the package other than
    the re-exporting `__init__.py`, or the benchmark, refers to it, a method
    through an attribute or a string; a test's reference counts only for
    the definitions in CHECKED_BY_TESTS."""
    modules = {path: _parse(path) for path in sorted((ROOT / "src" / "coeq").glob("*.py"))
               if path.name != "__init__.py"}
    users = dict(modules)
    users.update((path, _parse(path)) for path in sorted((ROOT / "perfbench").rglob("*.py")))
    seen: dict[str, list[tuple[pathlib.Path, int, bool]]] = {}
    for path, tree in users.items():
        for name, line, method in _references(tree):
            seen.setdefault(name, []).append((path, line, method))
    dead, kept = [], set()
    for path, tree in modules.items():
        for name, first, last, is_method in _definitions(tree):
            if _exempt(name) or any((where != path or not first <= line <= last)
                                    and (method or not is_method)
                                    for where, line, method in seen.get(name, ())):
                continue
            if (path.name, name) in CHECKED_BY_TESTS:
                kept.add((path.name, name))
            else:
                dead.append(f"{path.name}:{first} {name}")
    assert not dead, "used by no command, module or benchmark:\n" + "\n".join(dead)
    assert kept == set(CHECKED_BY_TESTS), "allowlisted but used elsewhere or gone"
    unchecked = [key for key, test in CHECKED_BY_TESTS.items() if not _mentions(test, key[1])]
    assert not unchecked, f"allowlisted but not checked by the named test: {unchecked}"


def test_no_nested_function_refers_to_itself_or_a_sibling():
    """A nested function that names itself or another function nested in the
    same body holds a closure cell that points back at a function, a
    reference cycle that each call would leave for the cyclic collector.
    Such helpers live at module level, or the walk is a loop."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    cyclic = []
    for path in sorted((ROOT / "src" / "coeq").glob("*.py")):
        for outer in ast.walk(_parse(path)):
            if not isinstance(outer, functions):
                continue
            nested = [node for stmt in outer.body for node in ast.walk(stmt)
                      if isinstance(node, functions)]
            names = {node.name for node in nested}
            for node in nested:
                named = names & {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                if named:
                    cyclic.append(f"{path.name}:{node.lineno} {outer.name}.{node.name} "
                                  f"names {sorted(named)}")
    assert not cyclic, "\n".join(cyclic)
