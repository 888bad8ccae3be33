"""The functions that the benchmark's traced run wraps still exist.

``bench/layers.py`` names each traced stage by module and attribute path.  A
target that no longer resolves is reported absent, and its time folds into
its parent's self time.  This test resolves every target by import and
``getattr`` alone, without installing the tracer, so that renaming a traced
stage fails here rather than quietly moving a layer's time.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Lookup sites that no attribute of their module answers today, so the trace
# lists them as absent; the set is pinned, so a new absence fails.
ABSENT = {
    "qcforge.acceptance.catalog",
    "qcforge.acceptance.ode_residual",
    "qcforge.evolution.build_diagonal",
    "qcforge.evolution.build_qk",
    "qcforge.evolution.build_spin7",
    "qcforge.evolution.catalog",
}


def _layers():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))


def _resolves(module: str, path: str) -> bool:
    try:
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name)
    except (ImportError, AttributeError):
        return False
    return True


def test_bench_trace_targets_resolve():
    sites = [(module, path) for _, module, path, _ in _layers().targets()]
    sites += [("qcforge.acceptance", "CRITERIA"), ("qcforge.scalars", "Jet.__init__")]
    assert {f"{module}.{path}" for module, path in sites
            if not _resolves(module, path)} == ABSENT
