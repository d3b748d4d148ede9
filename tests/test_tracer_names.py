"""The bench tracer names functions by "<module>.<function>"; a name that
no longer resolves makes its metric read zero without any error.  This
pins the names that resolve, and the ones that do not."""

import importlib
import importlib.util
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# gone from the package, with metrics that read zero until the bench drops them
UNRESOLVED = {"core.save_texts", "sampling.bootstrap_std", "segmentation.bow_match",
              "pbt._batched_multiclass_loss"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(name):
    """Whether "<module>.<path>" is a function that module defines, as the
    tracer names it."""
    module_name, path = name.split(".", 1)
    module = importlib.import_module(f"labelcal.{module_name}")
    value = module
    for attr in path.split("."):
        value = getattr(value, attr, None)
    return isinstance(value, types.FunctionType) and value.__module__ == module.__name__


def test_every_traced_name_resolves_but_the_known_four():
    tracer = load_tracer()
    names = {name for names in [*tracer.INCLUSIVE.values(), *tracer.CALLS.values()]
             for name in names}
    names |= set(tracer.COUNTERS)
    names |= {f"{module.rsplit('.', 1)[-1]}.{path}" for module, path in tracer.EXTRA}
    assert {name for name in names if not resolves(name)} == UNRESOLVED
    assert len(names) > len(UNRESOLVED) + 20  # the tables were read, not left empty
