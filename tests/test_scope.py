"""What ``src/advseg`` holds: the code that an ``advseg`` command runs.

Three guards keep it that way. Every definition must be reachable by name
from ``cli.main`` or from module-level code; every module-level import in
``src/advseg`` and ``tests`` must be read by its module; and every op kind
a training turn records must have a gradcheck case, with no case for an op
kind that no training turn records.
"""

import ast
from pathlib import Path

import pytest

import advseg
import advseg.gradcheck as G
import advseg.tensor as T
import advseg.training as TR
from advseg.encodings import EncodingKind
from advseg.toyscenes import SceneSpec, make_dataset

SRC = Path(advseg.__file__).parent
TESTS = Path(__file__).parent


def _read_names(node):
    """The identifiers and attribute names that ``node`` reads, type
    annotations left out."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _read_names(child)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def unreached_definitions(src=SRC):
    """Qualified names of the top-level definitions and methods in ``src``
    that no name read from ``cli.main`` or from module-level code reaches.

    A definition is reached when a reached body reads its name, as an
    identifier or as an attribute; names are matched without regard to
    the module or class they belong to. A reached class's body statements,
    bases, decorators and dunder methods are read as well; dunders are
    never reported."""
    defs, pending, reached, read = {}, [], set(), set()
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not _is_def(node):
                pending.append(node)
                continue
            qual = f"{module}.{node.name}"
            defs.setdefault(node.name, []).append((qual, node))
            if qual == "cli.main":
                reached.add(qual)
                pending.append(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _is_def(item):
                        qual = f"{module}.{node.name}.{item.name}"
                        defs.setdefault(item.name, []).append((qual, item))
    while pending:
        node = pending.pop()
        if isinstance(node, ast.ClassDef):
            parts = node.decorator_list + node.bases + node.keywords
            parts += [item for item in node.body
                      if not _is_def(item) or _is_dunder(item.name)]
        else:
            parts = [node]
        for part in parts:
            for name in _read_names(part):
                if name in read:
                    continue
                read.add(name)
                for qual, definition in defs.get(name, ()):
                    reached.add(qual)
                    pending.append(definition)
    return sorted(qual for name, entries in defs.items() if not _is_dunder(name)
                  for qual, _ in entries if qual not in reached)


def test_every_definition_in_src_is_reached_from_the_cli():
    unreached = unreached_definitions()
    assert not unreached, ("definitions in src/advseg that no advseg command "
                           f"reaches: {', '.join(unreached)}")


def test_reachability_walk_reports_an_unused_definition(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import helpers\n\n\ndef main():\n    return helpers.used()\n")
    (tmp_path / "helpers.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.v = inner()\n\n"
        "    def unused_method(self):\n        return 0\n\n\n"
        "def inner():\n    return 1\n\n\n"
        "def used():\n    return Box().v\n\n\n"
        "def unused(x: Box) -> Box:\n    return x\n")
    assert unreached_definitions(tmp_path) == ["helpers.Box.unused_method",
                                               "helpers.unused"]


def unused_imports(paths):
    """'<module>.<name>' for every name that a module-level import of one of
    ``paths`` binds and that its module never reads. Names listed in the
    module's ``__all__`` count as read, and ``from __future__`` imports are
    exempt."""
    unused = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                read.update(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.stem}.{bound}")
    return unused


def test_every_module_level_import_is_read():
    unused = unused_imports([*SRC.glob("*.py"), *TESTS.glob("*.py")])
    assert not unused, f"imports that their module never reads: {', '.join(unused)}"


def test_import_scan_reports_an_unread_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport json as js\nfrom math import pi, tau\n"
        "from pathlib import Path\nimport sys\n\n"
        "__all__ = [\"sys\"]\n\n\n"
        "def f(p: Path) -> float:\n    return os.path.join(str(p)) and pi\n")
    assert unused_imports([tmp_path / "mod.py"]) == ["mod.js", "mod.tau"]


# one segmenter turn and one adversary turn of each configuration; at
# lambda 0 training runs no adversary pass
TRAINING_CONFIGS = {
    "basic": {},
    "product with image branch": {"encoding": EncodingKind("product", include_image=True)},
    "scaling": {"encoding": EncodingKind("scaling")},
    "basic with image branch": {"encoding": EncodingKind("basic", include_image=True)},
    "original update": {"modified_update": False},
    "lambda 0": {"lam": 0.0},
    "local contrast normalization": {"lcn_window": 3},
}


def _suite_op_kinds():
    """The op kinds that the suite's analytic passes record, from the scan
    ``run_suite`` makes before a negative control."""
    with pytest.raises(G.UnknownOpKind) as raised:
        G.run_suite(corrupt_op="")
    return set(str(raised.value).split("the op kinds ")[1].split(", "))


def test_training_records_exactly_the_op_kinds_the_suite_checks(monkeypatch):
    trained = set()

    def recording_backward(root):
        trained.update(t.node.op_kind for t in T.graph_order(root)
                       if t.node is not None)
        T.backward(root)

    monkeypatch.setattr(TR, "backward", recording_backward)
    dataset = make_dataset(SceneSpec(height=16, width=16), n_train=2, n_val=1)
    for name, overrides in TRAINING_CONFIGS.items():
        cfg = TR.TrainConfig(**{"lam": 1.0, "channels_base": 4, "batch_size": 2,
                                "max_iters": 2, "eval_every": 2, **overrides})
        assert TR.train_run(cfg, dataset).status == "completed", name

    # slice_batch splits the adversary cases' stacked pass; training runs
    # two passes instead
    checked = _suite_op_kinds() - {"slice_batch"}
    assert trained == checked, (
        f"checked but never trained: {sorted(checked - trained)}; "
        f"trained but not checked: {sorted(trained - checked)}")
