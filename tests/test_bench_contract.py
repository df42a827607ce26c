"""The benchmark reads package names by attribute: the tracer patches
them and the workloads call them.  Every such name must exist, or a traced
run fails before it starts and a workload fails at its first use of the
name, perhaps only inside a failure message."""

import importlib
import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import formbench.bbf
import formbench.dga
import formbench.exterior
import formbench.linalg
import formbench.models
import formbench.scalars

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
WORKLOAD_NAME = re.compile(
    r"\b(?:pkg\.)?(bbf|dga|models|scalars|linalg|exterior|scenarios|cli)"
    r"\.([A-Za-z_]\w*)")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layout_names_exist():
    tracing = _load_tracing()
    pkg = SimpleNamespace(
        scalars=formbench.scalars,
        exterior=formbench.exterior,
        linalg=formbench.linalg,
        dga=formbench.dga,
        bbf=formbench.bbf,
        models=formbench.models,
    )
    entries = tracing.layout(tracing.Tracer(), pkg)
    assert entries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in entries
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_workload_package_names_exist():
    text = (BENCH / "workloads.py").read_text()
    names = sorted(set(WORKLOAD_NAME.findall(text)))
    assert ("bbf", "gram_discrepancies") in names
    missing = [
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"formbench.{module}"), name)
    ]
    assert missing == []
