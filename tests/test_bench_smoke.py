"""The benchmark calls package names that no unit test may reach, so a
removal it needs would first show as failed operations in a benchmark run.
The smoke test runs the benchmark's own code once, in a subprocess started
from the checkout: bench/run.py re-imports the package from src/, which
replaces the formbench modules this test process has loaded.  Names the
benchmark reaches only when a check fails are looked up statically."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import formbench

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = {module.name for module in pkgutil.iter_modules(formbench.__path__)}

SMOKE = """
import sys
import unittest

import run
import selftest
import workloads as wl

result = unittest.main(module=selftest, argv=["selftest"], exit=False).result
if not result.wasSuccessful():
    sys.exit("bench/selftest.py failed")
for name in ("gram", "cohomology", "classes"):
    workload = wl.WORKLOADS[name](run.import_package(), 1)
    workload.prepare()
    _, operation = workload.op(0)
    operation()
problems = wl.scenario_gate(run.import_package())
if problems:
    sys.exit("scenario gate: " + "; ".join(problems))
"""


def test_benchmark_workloads_run_one_operation_each():
    done = subprocess.run(
        [sys.executable, "-c", SMOKE],
        cwd=BENCH, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _traced_pass(workload):
    """The result line of one traced pass of a workload."""
    done = subprocess.run(
        [sys.executable, "run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_traced_cohomology_pass_is_correct():
    # the tracer wraps linalg and dga functions by name and reads their
    # arguments, which no other test exercises
    result = _traced_pass("cohomology")
    assert result["correct"] is True and result["failed"] == 0, result


def test_traced_gram_pass_is_correct():
    # the tracer wraps ScalarFraction and GramMatrix.matches by name
    result = _traced_pass("gram")
    assert result["correct"] is True and result["failed"] == 0, result


def _dotted(node):
    """["a", "b", "c"] for the expression a.b.c, None for anything else."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else None


def _module_paths(tree):
    """(module, attribute path) for each pkg.<module>.<path> in the tree,
    and each <module>.<path> where a local <module> is bound to pkg.<module>."""
    aliases = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            pairs = zip(target.elts, value.elts)
        else:
            pairs = [(target, value)]
        for name, value in pairs:
            dotted = _dotted(value) or []
            if isinstance(name, ast.Name) and dotted[-2:] in (
                    ["pkg", name.id], ["PKG", name.id]):
                aliases.add(name.id)
    for node in ast.walk(tree):
        dotted = _dotted(node)
        for k, name in enumerate(dotted or ()):
            if name in MODULES and k + 1 < len(dotted) and (
                    (k == 0 and name in aliases)
                    or (k > 0 and dotted[k - 1] in ("pkg", "PKG"))):
                yield name, dotted[k + 1:]


def test_package_names_in_bench_sources_exist():
    missing = set()
    seen = 0
    for path in sorted(BENCH.glob("*.py")):
        for module, attrs in _module_paths(ast.parse(path.read_text())):
            seen += 1
            owner = importlib.import_module(f"formbench.{module}")
            for attr in attrs:
                owner = getattr(owner, attr, None)
            if owner is None:
                missing.add(f"{path.name}: {module}.{'.'.join(attrs)}")
    assert seen
    assert sorted(missing) == []
