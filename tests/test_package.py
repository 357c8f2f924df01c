"""Rules that hold for every module of the sleepstage package."""
import ast
import os
import re
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


def test_every_engine_op_is_one_the_network_calls():
    """Each function of `autograd` that records an op (calls `make_op`) is
    referenced as `ag.<name>` by the model, the training loop or evaluation,
    so the engine carries no op the network does not use."""
    package = Path(sleepstage.__file__).parent
    engine = ast.parse((package / "autograd.py").read_text())
    ops = {node.name for node in engine.body if isinstance(node, ast.FunctionDef)
           and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id == "make_op" for call in ast.walk(node))}
    used = {node.attr for name in ("model.py", "training.py", "evaluation.py")
            for node in ast.walk(ast.parse((package / name).read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ag"}
    assert len(ops) > 10
    assert sorted(ops - used) == []


def _names(tree: ast.AST, skip=()) -> set[str]:
    """Every name that `tree` reads, imports or looks up as an attribute,
    outside the subtrees in `skip`."""
    skipped = {id(node) for node in skip}
    found, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_function_and_class_has_a_user():
    """Each public top-level function or class of the package is named by the
    package outside its own definition, or by perfbench. Code that only the
    tests call lives in tests/helpers.py."""
    package = Path(sleepstage.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    benched = set().union(*(_names(ast.parse(path.read_text(), str(path)))
                            for path in sorted(perfbench.rglob("*.py"))))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in benched
                    and not any(node.name in _names(other, skip=[node])
                                for other in trees.values())):
                unused.append(f"{module}: {node.name}")
    assert len(trees) > 10 and benched
    assert unused == []


def test_every_error_class_is_told_apart():
    """Each class of `errors` sets its own `exit_code` or `kind`, or some code
    tells it apart from its base: an `except` clause of the package, or
    perfbench outside its imports and `raise` statements. Any other class
    ends as its base does, so a failure raises the base with a message."""
    package = Path(sleepstage.__file__).parent
    classes = [node for node in ast.parse((package / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    own = {node.name for node in classes for stmt in node.body
           if isinstance(stmt, ast.Assign)
           and {"exit_code", "kind"} & {t.id for t in stmt.targets if isinstance(t, ast.Name)}}
    caught = set().union(*(_names(node.type)
                           for path in sorted(package.glob("*.py"))
                           for node in ast.walk(ast.parse(path.read_text(), str(path)))
                           if isinstance(node, ast.ExceptHandler) and node.type is not None))
    benched = set()
    for path in sorted((Path(__file__).resolve().parent.parent / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        benched |= _names(tree, skip=[node for node in ast.walk(tree) if isinstance(
            node, (ast.Import, ast.ImportFrom, ast.Raise))])
    assert len(classes) >= 3 and caught and benched
    assert [node.name for node in classes
            if node.name not in own | caught | benched] == []


def test_the_engine_does_no_file_io():
    """`autograd` is pure compute: it imports neither `struct` nor the
    package's `files` module, and calls no `open`; checkpoints are
    `sleepstage.checkpoint`'s."""
    path = Path(sleepstage.__file__).parent / "autograd.py"
    engine = list(ast.walk(ast.parse(path.read_text())))
    imported = {alias.name for node in engine if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module for node in engine if isinstance(node, ast.ImportFrom)}
    called = {node.func.id for node in engine
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert sorted(imported & {"struct", "files"}) == [] and "open" not in called


def test_the_engine_keeps_no_process_wide_mode():
    """`autograd` rebinds no module global: whether an op records depends on
    its inputs alone. Per-thread state lives in the thread-local `_REPLICA`."""
    path = Path(sleepstage.__file__).parent / "autograd.py"
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert lines == []


def test_every_import_is_used():
    """Each name a module imports is read in that module, outside
    `from __future__` and the package's re-exports: `__init__.py`'s and the
    `EXIT_*` codes that `cli` hands to callers of `main()`."""
    unused = []
    for path in sorted(Path(sleepstage.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported)
                   if name not in read
                   and not (path.name == "cli.py" and name.startswith("EXIT_"))]
    assert unused == []


def test_layer_names_are_built_only_by_the_model():
    """No module but `model` builds a layer name (`branch{k}`, `block{i}` or
    `head.fc` in a string literal): `model.layers` is the one place a layer
    and its shape are spelled, and the rest of the package reads the model's
    arrays by the names it holds."""
    layer_name = re.compile(r"\b(branch|block)[{\d]|head\.fc")
    found = []
    for path in sorted(Path(sleepstage.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if (isinstance(node, ast.JoinedStr) or isinstance(node, ast.Constant)
                      and isinstance(node.value, str))
                  and layer_name.search(ast.unparse(node))]
    assert found == []


def test_the_engine_holds_no_model_state():
    """`autograd`'s public classes are exactly `Tensor` and `ReplicaGroup`: a
    model's learnable arrays and running stats are tensors by name in
    `model.ModelParams`, so no class that holds model state moves back into
    the engine."""
    path = Path(sleepstage.__file__).parent / "autograd.py"
    classes = [node.name for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    assert classes == ["Tensor", "ReplicaGroup"]


def _defaulted_parameters(tree: ast.AST) -> list[tuple[str, int | None, str]]:
    """(callee name, positional index or None, name) of each defaulted
    parameter of each function in `tree`. A method's index leaves out `self`
    or `cls`, and `__init__` is called by its class's name."""
    owners = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        owner = owners.get(id(node))
        positional = (node.args.posonlyargs + node.args.args)[owner is not None:]
        name = owner.name if owner is not None and node.name == "__init__" else node.name
        first = len(positional) - len(node.args.defaults)
        found += [(name, i, arg.arg) for i, arg in enumerate(positional) if i >= first]
        found += [(name, None, arg.arg)
                  for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                  if default is not None]
    return found


def test_every_parameter_is_set_by_a_caller():
    """Each defaulted parameter of a function of the package is passed, by
    position or by keyword, in some call of the package or of perfbench: a
    default that no caller overrides is a constant, and is written as one.
    A call counts for every function of its name."""
    package = [ast.parse(path.read_text(), str(path))
               for path in sorted(Path(sleepstage.__file__).parent.glob("*.py"))]
    perfbench = [ast.parse(path.read_text(), str(path)) for path in sorted(
        (Path(__file__).resolve().parent.parent / "perfbench").rglob("*.py"))]
    positions: dict[str, int] = {}  # the most positional arguments a call passes
    keywords: dict[str, set[str]] = {}  # "**" for a call that passes **kwargs
    for call in (node for tree in package + perfbench for node in ast.walk(tree)
                 if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        positions[name] = max(positions.get(name, 0), 1 << 30 if starred else len(call.args))
        keywords.setdefault(name, set()).update(kw.arg or "**" for kw in call.keywords)
    exempt = {
        # the console-script entry point, called with no argument
        ("main", "argv"),
        # the float64 reference that the tests fold against
        ("inference_params", "dtype"),
    }
    unset = [f"{name}.{parameter}" for tree in package
             for name, index, parameter in _defaulted_parameters(tree)
             if (index is None or index >= positions.get(name, 0))
             and not {parameter, "**"} & keywords.get(name, set())
             and (name, parameter) not in exempt]
    assert sorted(unset) == [], sorted(unset)


def test_only_the_cache_knows_its_files_and_cli_reads_no_night():
    """`cache` is the one module that names a cache entry's files: no other
    module refers to `EPOCH_SUFFIX` or `STATS_SUFFIX` or holds an `.epochs`,
    `.src` or `.stats` literal. `cli` calls none of the functions that read,
    normalize or cut a night; it goes through `cache.ingest_night` and
    `evaluation.stage_night`."""
    suffix = re.compile(r"\.(epochs|src|stats)\b")
    night = {"read_recording", "parse_hypnogram", "compute_stats", "normalize",
             "epoch_recording", "windows", "scored_windows"}
    found = []
    for path in sorted(Path(sleepstage.__file__).parent.glob("*.py")):
        if path.name == "cache.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and suffix.search(node.value)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
            elif (isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                  and _names(node) & {"EPOCH_SUFFIX", "STATS_SUFFIX"}):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: suffix name")
            elif (path.name == "cli.py" and isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in night):
                found.append(f"cli.py:{node.lineno}: calls {ast.unparse(node.func)}")
    assert found == []
