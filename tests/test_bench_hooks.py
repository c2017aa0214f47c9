"""The names that the benchmark under ``e2ebench/`` looks up in the package.

The tracer wraps functions under the names their callers look up and lists
a name it cannot find as missing, so a renamed or deleted function would
show there only as a layer that reads zero. These tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import consmax

E2EBENCH = Path(__file__).resolve().parents[1] / "e2ebench"

# (module, layer) of the wrap points whose functions the package no longer
# has: register_clusters writes the labels itself, and P3P and pose
# agreement run batched under other names
KNOWN_MISSING = {
    ("consmax.isometric", "core.aggregate"),
    ("consmax.template", "core.aggregate"),
    ("consmax.template", "pose.p3p"),
    ("consmax.template", "pose.agreement"),
}


def wrap_points():
    spec = importlib.util.spec_from_file_location("e2ebench_tracing", E2EBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAP_POINTS


def resolves(mod_name: str, attr: str) -> bool:
    """Whether the tracer finds ``attr`` in ``mod_name``, as it looks."""
    try:
        module = importlib.import_module(mod_name)
    except ModuleNotFoundError:
        return False
    return getattr(module, attr, None) is not None


def test_wrap_points_resolve_but_the_known_missing():
    missing = {(m, layer) for m, a, layer in wrap_points() if not resolves(m, a)}
    assert missing <= KNOWN_MISSING


@pytest.mark.parametrize("mod_name", ["consmax.isometric", "consmax.template"])
def test_names_that_prove_captures(mod_name):
    # prove.py replaces these two under the names the pipeline looks up
    module = importlib.import_module(mod_name)
    assert callable(module.kmeans_partition)
    assert callable(module.build_covering_program)


def test_backend_flag_that_run_reads():
    assert isinstance(consmax.NUMBA_ENABLED, bool)
