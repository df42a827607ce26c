"""The benchmark tracer patches package names by attribute; every name it
lists must exist, or a traced run fails before it starts."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import formbench.bbf
import formbench.dga
import formbench.exterior
import formbench.linalg
import formbench.models
import formbench.scalars

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
