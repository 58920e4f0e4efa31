"""The rewrite kernel is one interpreter module, git holds only sources (no
generated C, no built extensions, no stale test logs), and every definition
in the package is used somewhere."""
import ast
import fnmatch
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


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of top-level
    classes: (name, first line, last line)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree: ast.Module):
    """Names a module mentions: (name, line)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _exempt(name: str) -> bool:
    # dunders are called by the interpreter; checker and extractor rule
    # handlers are looked up by name with getattr
    return (name.startswith("__") and name.endswith("__")) \
        or name.startswith(("_r_", "_x_"))


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    seen: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            seen.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted((ROOT / "src" / "coeq").glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            if _exempt(name):
                continue
            if not any(where != path or not first <= line <= last
                       for where, line in seen.get(name, ())):
                dead.append(f"{path.name}:{first} {name}")
    assert not dead, "referenced nowhere:\n" + "\n".join(dead)
