"""The benchmark's markets, the solver chain each one runs, and its checks.

A workload turns ``(seed, index)`` into one market: an ``Instance`` plus the
seed handed to the sampling mechanisms.  Seed ``n`` moves market ``i`` to
index ``10000 n + i``; the sampling seed moves with it, and so does the
instance where the workload generates a fresh one per market.  Seed 0 is
the reference seed set, whose outputs are recorded in ``reference.json``;
other seeds are checked by certificates alone.

Every market gets an ``Instance`` object of its own, built when the market
is made, so state cached on an instance never carries over between
markets.  Instances are built only for the workload that runs.

Every call into the package goes through a module attribute
(``colgen.binary_search_z``, not a bare imported name), so the tracer's
wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from matchlot import bvn, colgen, core, datagen, mechanisms, popularity

SEED_SHIFT = 10_000  # markets per seed before two seed sets could overlap

# Market sizes are set so that a 25-second run holds enough markets for its
# medians to repeat.  On a 2-vCPU virtual machine, 50-agent criterion-7
# markets take 8-21 s each, and family_lb(5) and (6) take 17 s and 119 s.
MAXIMIN_AGENTS = 30
MAXIMIN_PANEL = 8
MAXIMIN_SAMPLES = 10_000
LOWER_FAMILY_K = 4
# One size keeps the median market time unimodal.  Each seed draws new
# markets, so the run median moves with the draw: 160 21-agent markets per
# run spread it by 0.10 over seeds; about 700 15-agent markets fit instead.
EATING_SHAPE = (15, 3.0)
MARGIN_FAMILY_K = 3  # generated 16-agent markets range from 0.05 s to over 10 s
MARGIN_SAMPLES = 1_000


class MarketFailure(Exception):
    """A market returned, but its output failed a check."""


@dataclass(frozen=True)
class Market:
    instance: core.Instance
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # markets generated at set-up; a run stops early if it uses all
    make: Callable[[int, int], Market]
    solve: Callable[[Market], tuple[dict, float]]
    required_spans: tuple[str, ...]  # spans with zero calls fail the traced run


def _check_lottery(instance, decomposition) -> None:
    if not decomposition.terms:
        raise MarketFailure("empty lottery")
    if any(w <= 0 for w in decomposition.weights()):
        raise MarketFailure("non-positive lottery weight")
    if sum(decomposition.weights(), Fraction(0)) != 1:
        raise MarketFailure("weights do not sum to one")
    for matching in decomposition.matchings():
        if not core.is_pareto_efficient(instance, matching):
            raise MarketFailure("lottery holds an inefficient matching")


def _recompose_error(instance, decomposition, target) -> float:
    rebuilt = core.recompose(instance, decomposition).probs
    return max(
        abs(float(a - b))
        for got, want in zip(rebuilt, target.probs)
        for a, b in zip(got, want)
    )


def _check_colgen(instance, assignment, result) -> float:
    """Certificates for a ``binary_search_z`` lottery; returns its recompose error."""
    if result.status != "optimal":
        raise MarketFailure(f"search ended {result.status}")
    decomposition = result.decomposition
    _check_lottery(instance, decomposition)
    if core.worst_case_cardinality(decomposition) < result.z:
        raise MarketFailure("a matching falls below z")
    if not result.lower_bound <= result.z <= result.floor_mu:
        raise MarketFailure("z outside [p-, floor(mu)]")
    error = _recompose_error(instance, decomposition, assignment)
    if error > colgen.TOLERANCE:
        raise MarketFailure(f"recomposition off by {error:.3g}")
    return error


def _maximin(market: Market) -> tuple[dict, float]:
    instance = market.instance
    estimate = mechanisms.rsd_sampled(instance, MAXIMIN_SAMPLES, market.seed)
    result = colgen.binary_search_z(
        instance,
        estimate.assignment,
        "rmp",
        samples=MAXIMIN_SAMPLES,
        seed=market.seed,
        known_decomposable=True,
    )
    error = _check_colgen(instance, estimate.assignment, result)
    outcome = {
        "z": result.z,
        "floor_mu": result.floor_mu,
        "p_minus": result.lower_bound,
    }
    return outcome, error


def _eating_bvn(market: Market) -> tuple[dict, float]:
    instance = market.instance
    assignment = mechanisms.probabilistic_serial(instance)
    decomposition = bvn.decompose_robust(instance, assignment)
    _check_lottery(instance, decomposition)
    lo = bvn.md_upper_bound(assignment)
    hi = lo if core.mu(assignment).denominator == 1 else lo + 1
    if any(not lo <= m.cardinality() <= hi for m in decomposition.matchings()):
        raise MarketFailure("matching outside [floor(mu), ceil(mu)]")
    if core.recompose(instance, decomposition).probs != assignment.probs:
        raise MarketFailure("recomposition is not exact")
    return {"terms": len(decomposition.terms)}, 0.0


def _margin_bisect(market: Market) -> tuple[dict, float]:
    instance = market.instance
    estimate = mechanisms.rsd_sampled(instance, MARGIN_SAMPLES, market.seed)
    omega, decomposition = popularity.binary_search_margin(
        instance,
        estimate.assignment,
        samples=MARGIN_SAMPLES,
        seed=market.seed,
    )
    _check_lottery(instance, decomposition)
    for matching in decomposition.matchings():
        if popularity.unpopularity_margin(instance, matching) > omega:
            raise MarketFailure("a matching exceeds the margin bound")
    error = _recompose_error(instance, decomposition, estimate.assignment)
    if error > colgen.TOLERANCE:
        raise MarketFailure(f"recomposition off by {error:.3g}")
    return {"omega": omega}, error


def _generated(n_agents: int, ratio: float, base: int, stride: int):
    def make(seed: int, index: int) -> Market:
        market_seed = base + stride * (SEED_SHIFT * seed + index)
        params = datagen.GenParams(n_agents=n_agents, ratio=ratio, seed=market_seed)
        return Market(datagen.generate(params), market_seed)

    return make


def _panel(size: int, n_agents: int, ratio: float, base: int, stride: int):
    """A fixed panel of generated markets; the seed shifts only the sampling seeds.

    Generated markets differ widely in ``p-`` cost, and a run sees too few
    of them for that to average out: with a fresh market set per seed the
    run's median market time moved by about a quarter between seeds.  So
    held-out seeds do not hold out the ``p-`` inputs, and the same panel
    market comes back every ``size`` markets (as a new object).
    """

    def make(seed: int, index: int) -> Market:
        panel_seed = base + stride * (index % size)
        params = datagen.GenParams(n_agents=n_agents, ratio=ratio, seed=panel_seed)
        sampling_seed = base + stride * (SEED_SHIFT * seed + index)
        return Market(datagen.generate(params), sampling_seed)

    return make


def _lower_family(k: int, base: int, stride: int):
    def make(seed: int, index: int) -> Market:
        sampling_seed = base + stride * (SEED_SHIFT * seed + index)
        return Market(datagen.family_lb(k), sampling_seed)

    return make


_COLGEN_SPANS = (
    "mechanisms.rsd",
    "mechanisms.sd_sample",
    "colgen.search",
    "colgen.master",
    "pe_program.p_minus",
    "pe_program.build",
    "lp.mip",
    "lp.lp",
    "core.pe_check",
    "core.recompose",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rsd-maximin",
            pool=40,
            make=_panel(MAXIMIN_PANEL, MAXIMIN_AGENTS, 10.0, 70_000, 7919),
            solve=_maximin,
            required_spans=_COLGEN_SPANS,
        ),
        Workload(
            name="adversarial-bisect",
            pool=40,
            make=_lower_family(LOWER_FAMILY_K, 0, 7919),
            solve=_maximin,
            required_spans=_COLGEN_SPANS + ("colgen.pricing",),
        ),
        Workload(
            name="eating-bvn",
            pool=1500,
            make=_generated(*EATING_SHAPE, 60_000, 1),
            solve=_eating_bvn,
            required_spans=(
                "mechanisms.ps",
                "bvn.decompose",
                "bvn.extract",
                "bvn.lambda_max",
                "bvn.tau",
                "core.pe_check",
                "core.recompose",
            ),
        ),
        Workload(
            name="margin-bisect",
            pool=60,
            make=_lower_family(MARGIN_FAMILY_K, 80_000, 7919),
            solve=_margin_bisect,
            required_spans=(
                "mechanisms.rsd",
                "mechanisms.sd_sample",
                "popularity.search",
                "popularity.margin",
                "colgen.master",
                "pe_program.build",
                "lp.mip",
                "lp.lp",
                "core.pe_check",
                "core.recompose",
            ),
        ),
    )
}
