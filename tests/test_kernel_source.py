"""The rewrite kernel is one interpreter module, and git holds only sources:
no generated C, no built extensions, no stale test logs."""
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
