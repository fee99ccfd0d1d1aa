"""Every trace target of the benchmark still names a module attribute.

``bench/spans.py`` patches package functions by their dotted names; a
rename in ``src/`` would otherwise surface only when a traced benchmark
run fails.  The file is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for group in spans.SPANS.values() for target in group]
    assert targets
    for target in targets:
        owner, attribute = spans._resolve(target)
        assert callable(getattr(owner, attribute))
