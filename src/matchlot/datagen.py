"""Parameterised instance generation and the two adversarial families.

The generator models a school-choice-like market: preference list lengths
are truncated-normal, object capacities and popularities are correlated
normals, and preference lists are filled by drawing objects with
probability proportional to popularity times capacity, with a tunable bias
toward the popular group that grows with list length and with a popular
first choice.

Two quantities are only loosely pinned down by their published summary
statistics, so the concrete forms used here are documented inline: the
popularity scale (popularities are kept on a mean-10 integer scale so that
rounding preserves their dispersion) and the popular-group probability
(linear in list length, anchored so that the gap between a length-one list
and a list of length ``(max_i l_i + 1) / 2`` equals ``delta1``, shifted by
``+/- delta2 / 2`` from the second position on depending on whether the
first choice was popular).

Each object's weight ``eta * capacity`` is an integer, so each group's
remaining mass is kept as a running integer sum that drops by the weight
of every pick: the same values as re-summing the group at each position.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .core import Instance, MatchlotError
from .prng import SplitMix64

ETA_MEAN = 10.0
"""Integer scale for popularity scores before rounding."""


class GenParamError(MatchlotError):
    """Invalid or mutually infeasible generator parameters."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass(frozen=True)
class GenParams:
    """Market-generator parameters; defaults follow the reference setting."""

    n_agents: int
    ratio: float = 10.0  # agents per object
    capacity_ratio: float = 1.20  # total capacity / number of agents
    list_mean: float = 2.42
    list_sd: float = 1.05
    popular_fraction: float = 0.10
    rho: float = 0.21  # correlation between capacity and popularity
    cv_capacity: float = 0.80
    cv_popularity: float = 0.60
    delta1: float = 0.14
    delta2: float = 0.01
    seed: int = 0

    @property
    def n_objects(self) -> int:
        return max(1, round(self.n_agents / self.ratio))


def _validate(params: GenParams) -> None:
    problems = []
    for name, value in vars(params).items():
        # Plain int and float first: an ABC check alone costs a microsecond.
        integral = name in ("n_agents", "seed")
        kinds = (int, numbers.Integral) if integral else (int, float, numbers.Real)
        if isinstance(value, bool) or not isinstance(value, kinds):
            noun = "an integer" if integral else "a number"
            problems.append(f"{name} must be {noun}, not {value!r}")
    if problems:
        raise GenParamError(problems)
    if params.n_agents < 1:
        problems.append("n_agents must be at least 1")
    if params.ratio <= 0:
        problems.append("ratio must be positive")
    if params.capacity_ratio <= 0:
        problems.append("capacity_ratio must be positive")
    if params.list_mean < 1:
        problems.append("list_mean must be at least 1")
    if params.list_sd < 0:
        problems.append("list_sd must be non-negative")
    if not 0.0 <= params.popular_fraction <= 1.0:
        problems.append("popular_fraction must lie in [0, 1]")
    if not -1.0 <= params.rho <= 1.0:
        problems.append("rho must lie in [-1, 1]")
    if params.cv_capacity < 0 or params.cv_popularity < 0:
        problems.append("coefficients of variation must be non-negative")
    if params.n_agents >= 1 and params.ratio > 0:
        if params.list_mean > params.n_objects:
            problems.append(
                f"mean list length {params.list_mean} exceeds the "
                f"{params.n_objects} available objects"
            )
    if problems:
        raise GenParamError(problems)


def _round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


def _truncated_gauss(rng: SplitMix64, mean: float, sd: float, floor: float) -> float:
    if sd == 0:
        if mean < floor:
            raise GenParamError([f"degenerate distribution below its floor {floor}"])
        return mean
    while True:
        value = mean + sd * rng.gauss()
        if value >= floor:
            return value


@dataclass(frozen=True)
class GenScores:
    """Generated per-object scores behind an instance, for diagnostics.

    ``eta`` is the popularity score that drove preference sampling;
    ``popular`` the indices of the boosted group.  The realised listing
    ratio of an instance differs from ``eta`` through sampling noise and
    the without-replacement saturation of heavy objects.
    """

    capacities: tuple[int, ...]
    eta: tuple[int, ...]
    popular: frozenset[int]


def generate(params: GenParams) -> Instance:
    """Draw one instance from the parameterised market distribution."""
    instance, _ = generate_with_scores(params)
    return instance


def generate_with_scores(params: GenParams) -> tuple[Instance, GenScores]:
    """Like :func:`generate`, also returning the generated score vectors."""
    _validate(params)
    rng = SplitMix64(params.seed)
    n = params.n_agents
    o = params.n_objects

    lengths = []
    for _ in range(n):
        draw = _truncated_gauss(rng, params.list_mean, params.list_sd, 1.0)
        lengths.append(min(o, max(1, _round_half_up(draw))))

    # Correlated standard scores: capacities from z1, popularities from the
    # Cholesky mix rho * z1 + sqrt(1 - rho^2) * z2 of truncated normals.
    z_cap = [_truncated_gauss(rng, 0.0, 1.0, 0.0) for _ in range(o)]
    z_mix = [_truncated_gauss(rng, 0.0, 1.0, 0.0) for _ in range(o)]
    mix = math.sqrt(max(0.0, 1.0 - params.rho * params.rho))
    g_cap = z_cap
    g_eta = [params.rho * z_cap[j] + mix * z_mix[j] for j in range(o)]

    def rescale(scores: list[float], mean: float, sd: float) -> list[int]:
        mu_s = sum(scores) / len(scores)
        var = sum((s - mu_s) ** 2 for s in scores) / len(scores)
        std = math.sqrt(var)
        out = []
        for s in scores:
            unit = 0.0 if std == 0 else (s - mu_s) / std
            out.append(max(1, _round_half_up(mean + sd * unit)))
        return out

    cap_mean = params.capacity_ratio * n / o
    capacities = rescale(g_cap, cap_mean, params.cv_capacity * cap_mean)
    eta = rescale(g_eta, ETA_MEAN, params.cv_popularity * ETA_MEAN)

    n_popular = min(o, max(0, _round_half_up(params.popular_fraction * o)))
    by_popularity = sorted(range(o), key=lambda j: (-eta[j], j))
    popular = sorted(by_popularity[:n_popular])
    unpopular = sorted(by_popularity[n_popular:])

    # Integer masses: a group's mass is the sum of its members' weights, and
    # subtracting a pick's weight keeps it exact.
    weights = [eta[j] * capacities[j] for j in range(o)]
    total_mass = sum(weights)
    popular_mass = sum(weights[j] for j in popular)
    base_share = popular_mass / total_mass if total_mass else 0.0
    max_len = max(lengths)
    half_len = (max_len + 1) / 2.0
    slope = params.delta1 / (half_len - 1.0) if half_len > 1.0 else 0.0
    shift = params.delta2 / 2.0

    names = tuple(f"o{j + 1}" for j in range(o))
    preferences = []
    for i in range(n):
        base = min(1.0, max(0.0, base_share + slope * (lengths[i] - 1)))
        available_pop = popular.copy()
        available_unpop = unpopular.copy()
        q_pop = popular_mass
        q_unpop = total_mass - popular_mass
        chosen: list[str] = []
        pi = base
        for position in range(lengths[i]):
            if q_unpop == 0:
                chance = 1.0
            elif q_pop == 0:
                chance = 0.0
            else:
                chance = pi
            take_popular = rng.random() < chance
            group = available_pop if take_popular else available_unpop
            mass = q_pop if take_popular else q_unpop
            r = rng.random() * mass
            acc = 0.0
            pick = group[-1]
            for j in group:
                acc += weights[j]
                if r < acc:
                    pick = j
                    break
            group.remove(pick)
            if take_popular:
                q_pop -= weights[pick]
            else:
                q_unpop -= weights[pick]
            chosen.append(names[pick])
            if position == 0:
                # From the second position on, a popular first choice
                # shifts the popular-group probability up, else down.
                pi = min(1.0, max(0.0, base + (shift if take_popular else -shift)))
        preferences.append(tuple(chosen))

    instance = Instance(
        agents=tuple(str(i + 1) for i in range(n)),
        objects=names,
        capacities=tuple(capacities),
        preferences=tuple(preferences),
    )
    scores = GenScores(
        capacities=tuple(capacities),
        eta=tuple(eta),
        popular=frozenset(popular),
    )
    return instance, scores


def family_lb(k: int) -> Instance:
    """Adversarial family with no maximin improvement over the status quo.

    ``k**2`` agents and ``k + 1`` objects; the hub object holds ``k`` seats
    and everyone ranks it first, but only the first ``k`` agents accept the
    unit-capacity spill-over objects.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    objects = tuple(f"o{j + 1}" for j in range(k + 1))
    full_list = objects
    hub_only = (objects[0],)
    return Instance(
        agents=tuple(str(i + 1) for i in range(k * k)),
        objects=objects,
        capacities=(k,) + (1,) * k,
        preferences=tuple(
            full_list if i < k else hub_only for i in range(k * k)
        ),
    )


def family_ub(l: int) -> Instance:
    """Adversarial family achieving the largest maximin improvement.

    ``l**2`` agents and two objects of capacity ``l``; everyone wants the
    first object, only the first ``l`` agents accept the second.
    """
    if l < 2:
        raise ValueError("l must be at least 2")
    return Instance(
        agents=tuple(str(i + 1) for i in range(l * l)),
        objects=("o1", "o2"),
        capacities=(l, l),
        preferences=tuple(
            ("o1", "o2") if i < l else ("o1",) for i in range(l * l)
        ),
    )
