"""The functions the benchmark's tracer wraps exist in the package.

perfbench/tracing.py wraps every name of its FUNCTIONS list with an unguarded
getattr, so a deleted or renamed function makes ``perfbench/run.py --trace 1``
raise.  The list is read from perfbench, not copied here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_functions() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.FUNCTIONS


@pytest.mark.parametrize("name", _traced_functions())
def test_traced_function_is_callable(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"twomode_dicke.{layer}")
    assert callable(getattr(module, attr, None)), name
