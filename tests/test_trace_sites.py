"""Every call site the benchmark's traced run wraps still exists.

``bench/tracer.py::Tracer.patched`` looks each ``TRACE_SITES`` entry up as
``owner.__dict__[attr]``, so a site that a change deletes, renames or moves
to another module fails only when a traced benchmark run starts. This test
makes the same lookup without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _trace_sites():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_SITES


TRACE_SITES = _trace_sites()


@pytest.mark.parametrize(
    ("owner", "attr"),
    [(owner, attr) for owner, attr, _, _ in TRACE_SITES],
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in TRACE_SITES],
)
def test_trace_site_is_an_attribute_of_its_owner(owner, attr):
    assert attr in owner.__dict__
