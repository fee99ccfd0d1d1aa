"""Random Serial Dictatorship (exact and sampled) and Probabilistic Serial.

``rsd_exact`` enumerates every agent ordering, which is viable only for
small markets; ``rsd_sampled`` estimates the same matrix from a seeded
sample of orderings.  Both hand over exact rational entries, the outcome
counts as integer numerators over ``n!`` resp. the sample size, so
downstream decomposition code never sees floats.

Both, and ``sample_sd_matchings``, run one serial-dictatorship kernel over
an array of orderings, one row per ordering, vectorised across the rows;
``sample_sd_matchings`` returns the distinct outcome rows as an ``int32``
array rather than ``Matching`` objects.  The sampled orderings come from
``prng.batch_permutations``, which reproduces the scalar SplitMix64 stream
bit for bit: a seed yields the same orderings, matrices and outcomes as
drawing ``SplitMix64(seed).permutation(n)`` once per sample did.  Those
orderings are stored position-major, so the kernel reads them as they are.
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
    across the rows still pending at that position: a row leaves the pass
    once its agent is placed or its list is exhausted.  Capacities live in
    one flat ``rows * (o + 1)`` array and outcomes in one flat ``rows * n``
    array, so every read and write goes through one flat index.

    The passes walk ``orderings.T`` row by row.  Position-major orderings,
    whose transpose is C-contiguous (as ``batch_permutations`` returns
    them), are read in place; row-major ones, such as ``rsd_exact``'s
    chunks, are transposed into one copy first.
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
    by_position = np.ascontiguousarray(orderings.T)
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
            # A row that reached the padding has run out of listed objects.
            left = np.flatnonzero(~free & (wanted != o))
            if not left.size:
                break
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
    return ProbabilisticAssignment.from_numerators(
        counts.reshape(n, o + 1)[:, 1:].tolist(), total
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

    Each outcome row is packed into integer keys, digit ``outcome + 1`` in
    base ``n_objects + 1``, as many digits to an ``int64`` word as cannot
    overflow it.  One stable ``np.lexsort`` over the words groups equal rows
    with the earliest first, which marks each row's first occurrence.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = instance.n_agents
    outcome = _sd_outcomes(instance, batch_permutations(seed, samples, n))
    base = instance.n_objects + 1
    per_word = 1
    while per_word < n and base ** (per_word + 1) <= 1 << 63:
        per_word += 1
    words = max(1, -(-n // per_word))  # with no agents, one all-zero word
    digits = np.zeros((samples, words * per_word), dtype=np.int64)
    np.add(outcome, 1, out=digits[:, :n])
    powers = base ** np.arange(per_word - 1, -1, -1, dtype=np.int64)
    keys = digits.reshape(samples, words, per_word) @ powers
    order = np.lexsort(keys.T)
    ranked = keys[order]
    first = np.ones(samples, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    keep = np.zeros(samples, dtype=bool)
    keep[order[first]] = True
    return outcome[keep]


def probabilistic_serial(instance: Instance) -> ProbabilisticAssignment:
    """Simultaneous eating with unit speeds, in exact rational time.

    Every agent eats probability mass from its best not-yet-exhausted listed
    object; when an object runs out, its eaters move on.  An agent whose
    whole list is exhausted stops eating (it keeps the outside option for
    the remaining time).  The simulation is event-driven: each step jumps to
    the next exhaustion time or to t = 1.

    An agent eats each object in one stretch between two event times, so
    its cell is their difference.  The cells are handed over as numerators
    over the event times' common denominator, and no ``Fraction`` cell is
    built.
    """
    n, o = instance.n_agents, instance.n_objects
    remaining = [Fraction(c) for c in instance.capacities]
    pref_idx = instance.pref_idx
    cursor = [0] * n  # position in each agent's list

    def retarget(i: int) -> int | None:
        prefs = pref_idx[i]
        while cursor[i] < len(prefs) and remaining[prefs[cursor[i]]] == 0:
            cursor[i] += 1
        return prefs[cursor[i]] if cursor[i] < len(prefs) else None

    target: list[int | None] = [retarget(i) for i in range(n)]
    times = [Fraction(0)]  # event times
    started = [0] * n  # the event at which each agent took up its target
    stretches: list[tuple[int, int, int, int]] = []  # (agent, object, from, to)
    t = times[0]
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
        for j in range(o):
            if eaters[j]:
                remaining[j] -= step * eaters[j]
        t += step
        times.append(t)
        now = len(times) - 1
        for i in range(n):
            j = target[i]
            if j is not None and remaining[j] == 0:
                stretches.append((i, j, started[i], now))
                started[i] = now
                target[i] = retarget(i)
    now = len(times) - 1
    stretches += [(i, j, started[i], now) for i, j in enumerate(target) if j is not None]
    d = math.lcm(*(moment.denominator for moment in times))
    ticks = [moment.numerator * (d // moment.denominator) for moment in times]
    cells = [[0] * o for _ in range(n)]
    for i, j, begin, end in stretches:
        cells[i][j] = ticks[end] - ticks[begin]
    return ProbabilisticAssignment.from_numerators(cells, d)

