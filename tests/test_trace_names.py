"""Every layer the benchmark's trace wraps must still exist in bosonpe.

``perfbench/layertrace.py`` looks each name up with ``getattr`` when a
traced run starts, so renaming a wrapped function would break the traced
benchmark without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    layertrace = _load_layertrace()
    assert layertrace.FUNCTIONS
    for mod_name, attr, span in layertrace.FUNCTIONS:
        obj = importlib.import_module(mod_name)
        for part in attr.split("."):
            assert hasattr(obj, part), f"span {span}: {mod_name}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), f"span {span}: {mod_name}.{attr} is not callable"
