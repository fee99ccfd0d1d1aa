"""What the benchmark reads from the package still exists.

``bench/spans.py`` patches package functions by their dotted names, and
``bench/worker.py`` reads solver state into every report; a rename in
``src/`` would otherwise surface only when a benchmark run fails.  The
files are loaded by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS_FILE = BENCH / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for group in spans.SPANS.values() for target in group]
    assert targets
    for target in targets:
        owner, attribute = spans._resolve(target)
        assert callable(getattr(owner, attribute))


def test_worker_environment_reads_the_backend(monkeypatch):
    # worker.py imports its sibling modules by bare name.
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert worker.environment()["lp_backend"] == "builtin"


@pytest.mark.parametrize(
    "name", ["rsd-maximin", "adversarial-bisect", "eating-bvn", "margin-bisect"]
)
def test_required_spans_record_calls(monkeypatch, name):
    # A traced benchmark run fails when a required span records no calls,
    # as when a refactor stops calling a traced binding.  The workload's
    # first market runs its chain and checks here under the tracer; on
    # adversarial-bisect that includes pricing, and on eating-bvn the
    # extraction, step size and tau of the exact decomposition.
    loaded = {}
    for module, file in (("bench_spans", "spans.py"), ("bench_workloads", "workloads.py")):
        spec = importlib.util.spec_from_file_location(module, BENCH / file)
        loaded[module] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, module, loaded[module])
        spec.loader.exec_module(loaded[module])
    spans, workload = loaded["bench_spans"], loaded["bench_workloads"].WORKLOADS[name]
    tracer = spans.Tracer()
    market = workload.make(0, 0)
    with spans.installed(tracer):
        workload.solve(market)
    assert [span for span in workload.required_spans if tracer.calls[span] == 0] == []
