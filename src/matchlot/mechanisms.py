"""Random Serial Dictatorship (exact and sampled) and Probabilistic Serial.

``rsd_exact`` enumerates every agent ordering, which is viable only for
small markets; ``rsd_sampled`` estimates the same matrix from a seeded
sample of orderings.  Both keep exact rational entries (denominator ``n!``
resp. the sample size) so downstream decomposition code never sees floats.

Both, and ``sample_sd_matchings``, run one serial-dictatorship kernel over
an array of orderings, one row per ordering, vectorised across the rows;
``sample_sd_matchings`` returns the distinct outcome rows as an ``int32``
array rather than ``Matching`` objects.  The sampled orderings come from
``prng.batch_permutations``, which reproduces the scalar SplitMix64 stream
bit for bit: a seed yields the same orderings, matrices and outcomes as
drawing ``SplitMix64(seed).permutation(n)`` once per sample did.
``core.serial_dictatorship`` stays the one-ordering reference.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    EnumerationLimitError,
    Instance,
    ProbabilisticAssignment,
)
from .prng import batch_permutations

RSD_ENUMERATION_LIMIT = 9
DEFAULT_SAMPLE_SIZE = 10_000
_EXACT_CHUNK_ROWS = 40_320  # orderings per kernel call in rsd_exact (8!)


@dataclass(frozen=True)
class RsdEstimate:
    """An RSD assignment matrix plus how it was obtained.

    ``exact`` is True only for full enumeration, in which case
    ``sample_count`` equals the number of orderings ``n!``.
    """

    assignment: ProbabilisticAssignment
    sample_count: int
    seed: int | None
    exact: bool


def _sd_outcomes(instance: Instance, orderings: np.ndarray) -> np.ndarray:
    """Serial dictatorship under each row of ``orderings``.

    Returns a ``(rows, n_agents)`` array holding each agent's object index,
    or -1 where the agent stays unassigned.

    Each order position is one pass over the preference ranks, vectorised
    across the rows still pending at that position.  Capacities live in one
    flat ``rows * (o + 1)`` array and outcomes in one flat ``rows * n``
    array, so every read and write goes through one flat index.
    """
    rows, n = orderings.shape
    o = instance.n_objects
    pref_idx = instance.pref_idx
    width = max((len(prefs) for prefs in pref_idx), default=0)
    # Rank-major lists, padded with the extra object o, whose capacity is 0.
    table = np.full((width, n), o, dtype=np.intp)
    for i, prefs in enumerate(pref_idx):
        table[: len(prefs), i] = prefs
    remaining = np.zeros((rows, o + 1), dtype=np.int32)
    remaining[:, :o] = instance.capacities
    remaining = remaining.ravel()
    outcome = np.full(rows * n, -1, dtype=np.int32)
    row_cells = np.arange(rows) * (o + 1)
    row_slots = np.arange(rows) * n
    by_position = np.ascontiguousarray(orderings.T, dtype=np.intp)
    for agents in by_position:
        cells, slots = row_cells, row_slots + agents
        for rank in range(width):
            wanted = table[rank].take(agents)
            at = cells + wanted
            free = remaining.take(at) > 0
            if free.all():
                remaining[at] -= 1
                outcome[slots] = wanted
                break
            got = np.flatnonzero(free)
            remaining[at.take(got)] -= 1
            outcome[slots.take(got)] = wanted.take(got)
            left = np.flatnonzero(~free)
            agents, cells, slots = agents.take(left), cells.take(left), slots.take(left)
    return outcome.reshape(rows, n)


def _sd_average(
    instance: Instance, batches: Iterable[np.ndarray], total: int
) -> ProbabilisticAssignment:
    """Per cell, the share of the ``total`` orderings that assign agent i to object j."""
    n, o = instance.n_agents, instance.n_objects
    # Bin i * (o + 1) + 1 + j counts agent i on object j, and bin
    # i * (o + 1) counts agent i unassigned (outcome -1).
    offsets = np.arange(n) * (o + 1) + 1
    counts = np.zeros(n * (o + 1), dtype=np.int64)
    for orderings in batches:
        outcome = _sd_outcomes(instance, orderings)
        counts += np.bincount((outcome + offsets).ravel(), minlength=n * (o + 1))
    return ProbabilisticAssignment(
        tuple(
            tuple(Fraction(c, total) for c in row)
            for row in counts.reshape(n, o + 1)[:, 1:].tolist()
        )
    )


def _all_orderings(n: int) -> Iterator[np.ndarray]:
    orderings = itertools.permutations(range(n))
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(
                itertools.islice(orderings, _EXACT_CHUNK_ROWS)
            ),
            dtype=np.int32,
        )
        if not flat.size:  # also ends n = 0, whose one ordering is empty
            return
        yield flat.reshape(-1, n)


def rsd_exact(instance: Instance) -> RsdEstimate:
    """Average serial dictatorship over every ordering of the agents."""
    n = instance.n_agents
    if n > RSD_ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{n} agents would require {n}! orderings; limit is {RSD_ENUMERATION_LIMIT}"
        )
    total = math.factorial(n)
    return RsdEstimate(
        assignment=_sd_average(instance, _all_orderings(n), total),
        sample_count=total,
        seed=None,
        exact=True,
    )


def rsd_sampled(
    instance: Instance, samples: int = DEFAULT_SAMPLE_SIZE, seed: int = 0
) -> RsdEstimate:
    """Average serial dictatorship over ``samples`` seeded random orderings."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    orderings = batch_permutations(seed, samples, instance.n_agents)
    return RsdEstimate(
        assignment=_sd_average(instance, [orderings], samples),
        sample_count=samples,
        seed=seed,
        exact=False,
    )


def sample_sd_matchings(
    instance: Instance, samples: int, seed: int
) -> np.ndarray:
    """The distinct serial dictatorship outcomes of the seeded ordering sample.

    Uses the same generator stream as :func:`rsd_sampled`.  Returns a
    ``(outcomes, n_agents)`` ``int32`` array of object indices (-1 where an
    agent stays unassigned), one row per distinct outcome, in the order of
    first occurrence in the sample.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = instance.n_agents
    outcome = _sd_outcomes(instance, batch_permutations(seed, samples, n))
    if n == 0:  # rows of width 0 are all equal and have no void view
        return outcome[:1]
    rows = outcome.view(np.dtype((np.void, outcome.itemsize * n))).ravel()
    _, first = np.unique(rows, return_index=True)
    return outcome[np.sort(first)]


def probabilistic_serial(instance: Instance) -> ProbabilisticAssignment:
    """Simultaneous eating with unit speeds, in exact rational time.

    Every agent eats probability mass from her best not-yet-exhausted listed
    object; when an object runs out, its eaters move on.  An agent whose
    whole list is exhausted stops eating (she keeps the outside option for
    the remaining time).  The simulation is event-driven: each step jumps to
    the next exhaustion time or to t = 1.
    """
    n, o = instance.n_agents, instance.n_objects
    probs = [[Fraction(0)] * o for _ in range(n)]
    remaining = [Fraction(c) for c in instance.capacities]
    pref_idx = instance.pref_idx
    cursor = [0] * n  # position in each agent's list

    def retarget(i: int) -> int | None:
        prefs = pref_idx[i]
        while cursor[i] < len(prefs) and remaining[prefs[cursor[i]]] == 0:
            cursor[i] += 1
        return prefs[cursor[i]] if cursor[i] < len(prefs) else None

    target: list[int | None] = [retarget(i) for i in range(n)]
    t = Fraction(0)
    while t < 1:
        eaters = [0] * o
        for i in range(n):
            if target[i] is not None:
                eaters[target[i]] += 1
        if not any(eaters):
            break
        step = Fraction(1) - t
        for j in range(o):
            if eaters[j] and remaining[j] > 0:
                step = min(step, remaining[j] / eaters[j])
        for i in range(n):
            j = target[i]
            if j is not None:
                probs[i][j] += step
        for j in range(o):
            if eaters[j]:
                remaining[j] -= step * eaters[j]
        t += step
        for i in range(n):
            j = target[i]
            if j is not None and remaining[j] == 0:
                target[i] = retarget(i)
    return ProbabilisticAssignment(tuple(tuple(row) for row in probs))


def is_envy_free(instance: Instance, assignment: ProbabilisticAssignment) -> bool:
    """First-order stochastic dominance of own row over every other row.

    Agent i is envy-free iff for every other agent i' and every prefix of
    i's preference list, i's cumulative probability over the prefix is at
    least i''s.
    """
    probs = assignment.probs
    n = instance.n_agents
    for i in range(n):
        prefs = instance.pref_idx[i]
        for other in range(n):
            if other == i:
                continue
            own = Fraction(0)
            theirs = Fraction(0)
            for j in prefs:
                own += probs[i][j]
                theirs += probs[other][j]
                if own < theirs:
                    return False
    return True
