"""Spans and counters recorded at the package's module boundaries.

The tracer wraps public functions of ``matchlot`` where they are looked up:
a module that did ``from .lp import backend_solve_mip`` holds its own
binding, so the wrapper is installed on that module's attribute, not only
on the defining one.  Nothing under ``src/`` knows about the tracer; the
wrappers exist only while :func:`installed` is active.

Every span yields its call count, inclusive seconds, and self seconds
(inclusive time minus the time of spans opened inside it).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# Span name -> the (module, attribute) bindings it wraps.  A class is named
# as ``module:Class`` and its method patched on the class.
SPANS: dict[str, tuple[str, ...]] = {
    "mechanisms.rsd": ("matchlot.mechanisms.rsd_sampled",),
    "mechanisms.sd_sample": (
        "matchlot.colgen.sample_sd_matchings",
        "matchlot.popularity.sample_sd_matchings",
    ),
    "mechanisms.ps": ("matchlot.mechanisms.probabilistic_serial",),
    "colgen.search": ("matchlot.colgen.binary_search_z",),
    "colgen.master": (
        "matchlot.colgen.solve_rmp",
        "matchlot.colgen.solve_alpha_master",
        "matchlot.popularity.solve_rmp",
    ),
    "colgen.pricing": ("matchlot.colgen.price_pe_matching",),
    "pe_program.p_minus": ("matchlot.pe_program.extreme_pe_cardinality",),
    "pe_program.build": (
        "matchlot.pe_program.build_matching_program",
        "matchlot.colgen.build_matching_program",
        "matchlot.popularity.build_matching_program",
    ),
    "lp.mip": (
        "matchlot.pe_program.backend_solve_mip",
        "matchlot.colgen.backend_solve_mip",
        "matchlot.popularity.backend_solve_mip",
    ),
    "lp.lp": ("matchlot.colgen.solve_lp", "matchlot.popularity.solve_lp"),
    "bvn.decompose": ("matchlot.bvn.decompose_robust",),
    "bvn.extract": ("matchlot.bvn.budish_extract",),
    "bvn.lambda_max": ("matchlot.bvn.lambda_max",),
    "bvn.tau": ("matchlot.core:ConstraintStructure.tau",),
    "core.pe_check": (
        "matchlot.core.is_pareto_efficient",
        "matchlot.bvn.is_pareto_efficient",
        "matchlot.colgen.is_pareto_efficient",
        "matchlot.popularity.is_pareto_efficient",
    ),
    "core.recompose": ("matchlot.core.recompose",),
    "popularity.search": ("matchlot.popularity.binary_search_margin",),
    "popularity.margin": ("matchlot.popularity.unpopularity_margin",),
}

# Counters that must repeat exactly across two traced runs on one seed.
EXACT_COUNTERS = (
    "lp.mip.nodes",
    "lp.mip.branches",
    "colgen.k_tried",
    "colgen.rounds",
    "colgen.columns_added",
    "bvn.terms",
)


def _count_mip(counters, result) -> None:
    counters["lp.mip.nodes"] += result.nodes
    counters["lp.mip.branches"] += result.branches


def _count_pricing(counters, outcome) -> None:
    counters["colgen.pricing.hits"] += outcome.matching is not None


def _count_search(counters, result) -> None:
    counters["colgen.k_tried"] += len(result.trace)
    counters["colgen.rounds"] += sum(t.iterations for t in result.trace)
    counters["colgen.columns_added"] += sum(t.columns_added for t in result.trace)


def _count_terms(counters, decomposition) -> None:
    counters["bvn.terms"] += len(decomposition.terms)


ON_RESULT = {
    "lp.mip": _count_mip,
    "colgen.pricing": _count_pricing,
    "colgen.search": _count_search,
    "bvn.decompose": _count_terms,
}


class Tracer:
    """Per-span call counts and times, plus result-derived counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []

    def wrap(self, name: str, fn):
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - children
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Flat ``<span>.s`` / ``.self_s`` / ``.calls`` plus the counters."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.s"] = self.seconds[name]
            out[f"{name}.self_s"] = self.self_seconds[name]
            out[f"{name}.calls"] = self.calls[name]
        for name in EXACT_COUNTERS + ("colgen.pricing.hits",):
            out[name] = self.counters[name]
        pricing = self.calls["colgen.pricing"]
        out["colgen.pricing.hit_ratio"] = (
            self.counters["colgen.pricing.hits"] / pricing if pricing else 0.0
        )
        return out


def _resolve(target: str):
    """Return ``(owner, attribute)`` for a dotted or ``module:Class.attr`` path."""
    if ":" in target:
        module_name, rest = target.split(":")
        class_name, attribute = rest.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
    else:
        module_name, attribute = target.rsplit(".", 1)
        owner = importlib.import_module(module_name)
    if attribute not in vars(owner):
        raise AttributeError(f"trace target {target} no longer exists")
    return owner, attribute


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every span's bindings for the duration of the block."""
    saved = []
    try:
        for name, targets in SPANS.items():
            for target in targets:
                owner, attribute = _resolve(target)
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
