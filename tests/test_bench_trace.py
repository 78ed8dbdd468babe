"""The benchmark's traced run against the library.

benchmarks/tracer.py wraps latdec functions at the module attributes their
callers resolve at call time, so renaming or inlining one of them silently
breaks ``benchmarks/run.py --trace 1``.  This sweeps one short block of each
gated workload under the tracer and runs the benchmark's own wrap-point
check on it, and checks that the traced sweep writes the untraced one's
CSV.  The benchmark files are imported, never changed.
"""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
FRAMES = 4


@pytest.mark.parametrize("name", ["mimo_lll", "isi_static"])
def test_traced_sweep_meets_every_wrap_point(name, monkeypatch):
    # run.py pins BLAS to one thread at import; setenv puts them back afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(BENCH)
    import run

    cfgs = run.libpath.configs(run.WORKLOADS[name], run.block_seed(1, 0), FRAMES)
    with run.tracing.Tracer() as tr:
        reports, _ = run.sweep(cfgs, 1)
    records = list(run.frame_records(reports).values())
    assert run.wrap_point_errors(tr, cfgs, 1, FRAMES, records) == []
    assert run.csv_text(reports) == run.csv_text(run.sweep(cfgs, 1)[0])
