"""The benchmark's tracer wraps names it looks up in module namespaces.

perfbench/tracing.py replaces each (module, attribute) in its TARGETS table
through ``owner.__dict__``; a refactor that drops or renames one of those
names would only surface as a crash of a traced benchmark run.  This reads
the table (without importing anything else from the benchmark) and checks
that every name is still defined where the tracer looks for it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module, attr", [(t[0], t[1]) for t in _targets()], ids=lambda v: v
)
def test_traced_name_defined(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    assert attr in owner.__dict__, f"{module}: tracer target {attr!r} is missing"
