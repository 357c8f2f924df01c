"""Rules that hold for every module of the sleepstage package."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import sleepstage


def test_runtime_imports_are_numpy_and_the_standard_library():
    """numpy is the only runtime dependency: every import of a module under
    src/sleepstage is relative, numpy, or part of the standard library."""
    modules = sorted(Path(sleepstage.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] != "numpy"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_cli_import_leaves_the_network_stack_unloaded():
    """`fetch`, with urllib.request and http.client, loads only for the fetch
    command, so no other command pays for it."""
    code = ("import sys, sleepstage.cli; "
            "print([m for m in ('urllib.request', 'http.client') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(sleepstage.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
