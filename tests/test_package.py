"""Rules that hold for every module of the sleepstage package."""
import ast
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
