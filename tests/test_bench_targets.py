"""The benchmark's span recorder (perfbench/spans.py) wraps library functions
by module and attribute name.  A rename in the library would drop that layer
from the benchmark's trace, so every target must still resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    missing = []
    for _layer, module_name, attr, _hook in _load_spans().TARGETS:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = vars(owner).get(part)
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
