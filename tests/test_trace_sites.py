"""Every call site the benchmark's traced run wraps still exists.

``bench/tracer.py::Tracer.patched`` looks each ``TRACE_SITES`` entry up as
``owner.__dict__[attr]``, so a site that a change deletes, renames or moves
to another module fails only when a traced benchmark run starts. This test
makes the same lookup without running the benchmark.
"""

import pytest
from toolenv import ROOT, load

TRACE_SITES = load(ROOT / "bench" / "workloads.py").TRACE_SITES


@pytest.mark.parametrize(
    ("owner", "attr"),
    [(owner, attr) for owner, attr, _, _ in TRACE_SITES],
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in TRACE_SITES],
)
def test_trace_site_is_an_attribute_of_its_owner(owner, attr):
    assert attr in owner.__dict__
