"""The benchmark tracer patches package functions by name; every name it
lists must exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_entry_resolves():
    missing = []
    for layer, attrs in _load_tracer().LAYERS.items():
        home = importlib.import_module(f"verlinde.{layer}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                ok = callable(vars(getattr(home, cls_name, object)).get(meth))
            else:
                ok = callable(getattr(home, attr, None))
            if not ok:
                missing.append(f"{layer}.{attr}")
    assert missing == []
