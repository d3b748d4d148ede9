"""Every public name has a caller in the package or the demos, every
private module-level name a reader in the package, every defaulted
parameter a call that sets it, and every error type has a reason to be
its own type.

A name in ``labelcal.__all__`` that nothing outside the tests uses is
surface to keep without a purpose, and a private helper nothing reads is
code a refactor left behind; these checks keep them from regrowing.
"""

import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

import labelcal

ROOT = Path(__file__).resolve().parents[1]


def referenced_names(paths) -> set[str]:
    """Every name, attribute and imported name used in ``paths``, and the
    last part of each module a ``from ... import`` reads."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller():
    package = [p for p in (ROOT / "src" / "labelcal").glob("*.py") if p.name != "__init__.py"]
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(package) > 10 and len(demos) > 5
    used = referenced_names([*package, *demos])
    assert [name for name in labelcal.__all__ if name not in used] == []


def test_every_private_name_has_a_reader():
    """A module-level private function, class or constant that no code in
    ``src/`` reads is left over; dunders are the language's."""
    package = sorted((ROOT / "src" / "labelcal").glob("*.py"))
    read, defined = set(), []
    for path in package:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [f"{path.stem}.{name}" for name in names
                        if name.startswith("_") and not name.endswith("__")]
    assert len(defined) > 20
    assert [name for name in defined if name.rsplit(".", 1)[1] not in read] == []


def subclasses(cls) -> set[type]:
    return {sub for child in cls.__subclasses__() for sub in (child, *subclasses(child))}


def test_each_error_type_has_a_reason():
    for module in pkgutil.iter_modules(labelcal.__path__):
        if module.name != "__main__":  # running it is the command line
            vars(importlib.import_module(f"labelcal.{module.name}"))  # runs a lazy module
    defined = {cls.__name__ for cls in subclasses(labelcal.LabelcalError)
               if cls.__module__.startswith("labelcal.")}
    assert defined == {
        "MatrixFormatError",  # one type per input format: matrix files
        "OcrFormatError",  # one type per input format: OCR TSV pages
        "UndefinedMetricError",  # caught by metrics.mean_roc_auc, which skips that label
        "UsageError",  # exit 1, where every other error exits 2
    }


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A default no call overrides is a knob nothing turns.  The oracles
    count as callers: they are the judge of the package's behaviour."""
    package = sorted((ROOT / "src" / "labelcal").glob("*.py"))
    defaulted = []  # (module, function, parameter, position or None if keyword-only)
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                defaulted += [(path.stem, node.name, arg.arg, first + i)
                              for i, arg in enumerate(positional[first:])]
                defaulted += [(path.stem, node.name, arg.arg, None)
                              for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
    # per called name: the positions and keywords some call passes; "*" and
    # "**" stand for an unpacked argument, which may set any of them
    passed = defaultdict(set)
    callers = [*package, *(ROOT / "demos").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed[name].update(range(len(node.args)))
                passed[name].update("*" for arg in node.args if isinstance(arg, ast.Starred))
                passed[name].update(kw.arg or "**" for kw in node.keywords)
    assert len(defaulted) > 20
    assert [f"{module}.{function}({param})" for module, function, param, position in defaulted
            if not {param, position, "*", "**"} & passed[function]] == []
