"""Every library name the benchmark's traced run wraps still exists.

`perfbench/tracing.install` wraps functions by name in the package's modules
and in the benchmark's `workloads` module, so deleting or renaming one of
them (say `complexes.spans_equal` or `alexobstruct.d_rec`) would crash
`perfbench/run.py --trace 1`.  This test fails instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from lenslab.f2homalg import complexes  # noqa: E402


def test_tracer_installs_and_uninstalls():
    original = complexes.octet_verify
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, workloads)
        assert complexes.octet_verify is not original
    finally:
        tracer.uninstall()
    assert complexes.octet_verify is original
