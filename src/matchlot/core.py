"""Domain model for one-sided matching.

An instance consists of agents with strict, truncated preference lists over
capacitated objects.  A preference list contains exactly the objects an
agent prefers to staying unassigned, most-preferred first; anything not
listed is worse than the outside option and is never assigned by the
mechanisms in this package.

Probabilities and lottery weights are exact rationals throughout this
module, so recomposition of a decomposition is exact.  A
:class:`ProbabilisticAssignment` is held as its ``bordered`` form, the cells
and their sums as integer numerators over their least common denominator;
its :class:`fractions.Fraction` cells (``probs``) and the read-only arrays of
``flat_cells`` are views built on first read.  The sums, the total, the
feasibility check and :func:`recompose` compute on integers, not in
:class:`Fraction` arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

Rational = int | Fraction


class MatchlotError(Exception):
    """Base class for errors raised by this package."""


class InstanceValidationError(MatchlotError):
    """Raised by :func:`validate_instance`; carries every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class EnumerationLimitError(MatchlotError):
    """Instance too large for an operation that enumerates agent orderings."""


class BudgetExhaustedError(MatchlotError):
    """The time or round budget ran out before a result was proven."""


@dataclass(frozen=True)
class Instance:
    """A one-sided matching market.

    Attributes:
        agents: agent identifiers, in a fixed order (row order of matrices).
        objects: object identifiers, in a fixed order (column order).
        capacities: per-object capacities, aligned with ``objects``.
        preferences: per-agent tuples of object identifiers, most-preferred
            first, truncated at the outside option.  May be empty.
    """

    agents: tuple[str, ...]
    objects: tuple[str, ...]
    capacities: tuple[int, ...]
    preferences: tuple[tuple[str, ...], ...]

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @cached_property
    def object_index(self) -> dict[str, int]:
        return {obj: j for j, obj in enumerate(self.objects)}

    @cached_property
    def agent_index(self) -> dict[str, int]:
        return {agent: i for i, agent in enumerate(self.agents)}

    @cached_property
    def pref_idx(self) -> tuple[tuple[int, ...], ...]:
        """Preference lists as object indices."""
        oi = self.object_index
        return tuple(tuple(oi[o] for o in prefs) for prefs in self.preferences)

    @cached_property
    def rank_table(self) -> np.ndarray:
        """Read-only ``(n_agents, n_objects + 1)`` ``int64`` ranks of every outcome.

        An agent strictly prefers one outcome to another exactly when its
        rank is lower.  An object ranks at its position in the agent's list
        and the outside option, in the last column that an outcome of -1
        reads, at the list's length; an unlisted object ranks one past that,
        below the outside option and tied with every other unlisted object.
        """
        table = np.empty((self.n_agents, self.n_objects + 1), dtype=np.int64)
        for i, prefs in enumerate(self.pref_idx):
            table[i] = len(prefs) + 1
            table[i, list(prefs)] = range(len(prefs))
            table[i, -1] = len(prefs)
        table.flags.writeable = False
        return table

    @cached_property
    def list_ids(self) -> np.ndarray:
        """Read-only ``int64`` array: per agent, the first agent with its list."""
        first: dict[tuple[int, ...], int] = {}
        ids = np.array(
            [first.setdefault(prefs, i) for i, prefs in enumerate(self.pref_idx)],
            dtype=np.int64,
        )
        ids.flags.writeable = False
        return ids


@dataclass(frozen=True)
class Matching:
    """An integral assignment: per agent, an object index or ``None``."""

    assignment: tuple[int | None, ...]

    def cardinality(self) -> int:
        """Number of assigned agents."""
        return sum(1 for j in self.assignment if j is not None)

    def object_loads(self, n_objects: int) -> list[int]:
        loads = [0] * n_objects
        for j in self.assignment:
            if j is not None:
                loads[j] += 1
        return loads

    def as_pairs(self, instance: Instance) -> dict[str, str]:
        """Identifier form, omitting unassigned agents."""
        return {
            instance.agents[i]: instance.objects[j]
            for i, j in enumerate(self.assignment)
            if j is not None
        }


@dataclass(frozen=True, init=False, repr=False)
class ProbabilisticAssignment:
    """Exact rational matrix of assignment probabilities, agents x objects.

    Its one exact form is :attr:`bordered`: the cells as integer numerators
    over their least common denominator ``D``, bordered by their sums.  Two
    assignments are equal exactly when their bordered forms are.
    :attr:`probs`, the cells as :class:`Fraction` values, is a view built
    from that form on first read and then cached, and so are the arrays of
    :attr:`flat_cells`.

    ``ProbabilisticAssignment(probs)`` takes the cells as rationals;
    :meth:`from_numerators` takes integer numerators over a denominator and
    builds no :class:`Fraction`.
    """

    bordered: tuple[tuple[tuple[int, ...], ...], int]
    """The matrix bordered by its sums, as integer numerators over the least
    common denominator ``D`` of its cells: ``(numerators, D)``.

    The ``(n+1) x (o+1)`` numerators hold the cells, the agents' row sums in
    column ``o``, the objects' column sums in row ``n`` and, in the corner,
    the cardinality slack ``ceil(mu) - mu``.  A value is an integer exactly
    when its numerator is a multiple of ``D``.  A matrix with no rows borders
    to the corner alone.
    """

    def __init__(self, probs: Iterable[Iterable[Rational]]):
        cells = tuple(tuple(Fraction(v) for v in row) for row in probs)
        d = math.lcm(*(v.denominator for row in cells for v in row))
        numerators = [[v.numerator * (d // v.denominator) for v in row] for row in cells]
        object.__setattr__(self, "bordered", _border(numerators, d))
        # The cells given are the view itself.
        self.__dict__["probs"] = cells

    def __repr__(self) -> str:
        return f"ProbabilisticAssignment(probs={self.probs!r})"

    @property
    def n_agents(self) -> int:
        return len(self.bordered[0]) - 1

    @property
    def n_objects(self) -> int:
        return len(self.bordered[0][-1]) - 1

    @staticmethod
    def from_numerators(
        numerators: Sequence[Sequence[int]], denominator: int
    ) -> "ProbabilisticAssignment":
        """The matrix ``numerators / denominator``, held as given once divided
        by the gcd of the denominator and every numerator, which leaves the
        least common denominator of the cells.

        Raises:
            ValueError: the denominator is not positive.
        """
        if denominator <= 0:
            raise ValueError(f"denominator must be positive, not {denominator}")
        g = math.gcd(denominator, *itertools.chain.from_iterable(numerators))
        cells = [[v // g for v in row] for row in numerators]
        assignment = object.__new__(ProbabilisticAssignment)
        object.__setattr__(assignment, "bordered", _border(cells, denominator // g))
        return assignment

    @cached_property
    def probs(self) -> tuple[tuple[Fraction, ...], ...]:
        """The cells as :class:`Fraction` values, rows in agent order."""
        numerators, d = self.bordered
        # Most cells are 0 or 1, which share one Fraction each.
        zero, one = Fraction(0), Fraction(1)
        return tuple(
            tuple(zero if not v else one if v == d else Fraction(v, d) for v in row[:-1])
            for row in numerators[:-1]
        )

    @cached_property
    def flat_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-major cells as read-only arrays: the probabilities as floats,
        and masks of the cells above 0 and below 1.

        A float is ``N / D`` in integer true division, which rounds the exact
        value correctly, as ``float(Fraction)`` does; the masks compare the
        numerators.
        """
        numerators, d = self.bordered
        cells = [v for row in numerators[:-1] for v in row[:-1]]
        arrays = (
            np.array([v / d for v in cells], dtype=float),
            np.array([v > 0 for v in cells], dtype=bool),
            np.array([v < d for v in cells], dtype=bool),
        )
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def support(self) -> set[tuple[int, int]]:
        return {
            (i, j)
            for i, row in enumerate(self.bordered[0][:-1])
            for j, v in enumerate(row[:-1])
            if v > 0
        }


def _border(
    cells: list[list[int]], d: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Numerators ``cells`` over ``d`` bordered by their sums and the slack
    corner, as :attr:`ProbabilisticAssignment.bordered` holds them."""
    col_sums = [sum(col) for col in zip(*cells)]
    rows = tuple((*row, sum(row)) for row in cells)
    return (*rows, (*col_sums, -sum(col_sums) % d)), d


@dataclass(frozen=True)
class Decomposition:
    """A lottery over matchings: positive weights summing to one."""

    terms: tuple[tuple[Fraction, Matching], ...]

    def weights(self) -> list[Fraction]:
        return [w for w, _ in self.terms]

    def matchings(self) -> list[Matching]:
        return [m for _, m in self.terms]


class ConstraintStructure:
    """The quota system whose box constraints define feasible assignments.

    Contains one set per cell (quota 1), one per agent row (quota 1) and one
    per object column (quota = capacity).  ``tau`` counts how many of these
    sets currently hold an integer value; it reaches ``size`` exactly on
    integral matrices.  It is ``size`` less the fractional sets, so that a
    matrix with no rows, which has no column sums to read, counts as
    integral.  It reads the integer :attr:`ProbabilisticAssignment.bordered`
    form, whose cells other than the corner are exactly these sets.
    """

    def __init__(self, instance: Instance):
        self.instance = instance

    @property
    def size(self) -> int:
        n, o = self.instance.n_agents, self.instance.n_objects
        return n * o + n + o

    def tau(self, assignment: ProbabilisticAssignment) -> int:
        numerators, d = assignment.bordered
        fractional = sum(v % d != 0 for row in numerators for v in row)
        # The corner, the total's slack, is not one of the sets.
        return self.size - fractional + (numerators[-1][-1] != 0)


def validate_instance(raw: Mapping) -> Instance:
    """Parse and validate the mapping form of an instance.

    Expected shape::

        {"objects": [{"id": ..., "capacity": ...}],
         "agents": [{"id": ..., "prefs": [object ids, most-preferred first]}]}

    Every entry needs an ``id`` that is a JSON string or number, read
    through ``str()``.  A capacity is an integer from 1 to ``2**31 - 1``,
    the largest the ``int32`` kernels hold.

    Raises:
        InstanceValidationError: listing every violation found, not just the
            first one.
    """
    if not isinstance(raw, Mapping):
        raise InstanceValidationError(
            [f"expected a JSON object at the top level, got {type(raw).__name__}"]
        )
    violations: list[str] = []

    def entries(key: str) -> list[Mapping]:
        """The JSON objects with an id listed under ``key``; any other shape,
        or an entry whose ``id`` is missing, null or not a string or number,
        is a violation."""
        listed = raw.get(key, [])
        if not isinstance(listed, list):
            violations.append(f"{key!r} must be a list, got {type(listed).__name__}")
            return []
        kept = []
        for k, entry in enumerate(listed):
            if not isinstance(entry, Mapping):
                violations.append(
                    f"{key} entry {k} must be a JSON object, got {type(entry).__name__}"
                )
            elif entry.get("id") is None:
                violations.append(f"{key} entry {k} has no id")
            elif isinstance(entry["id"], bool) or not isinstance(
                entry["id"], (str, int, float)
            ):
                violations.append(
                    f"{key} entry {k} has id {entry['id']!r}, "
                    "expected a JSON string or number"
                )
            else:
                kept.append(entry)
        return kept

    objects: list[str] = []
    capacities: list[int] = []
    seen_objects: set[str] = set()
    for entry in entries("objects"):
        oid = str(entry.get("id"))
        cap = entry.get("capacity")
        if oid in seen_objects:
            violations.append(f"duplicate object id {oid!r}")
            continue
        seen_objects.add(oid)
        if isinstance(cap, bool) or not isinstance(cap, int) or not 1 <= cap < 2**31:
            violations.append(
                f"object {oid!r} has capacity {cap!r}, expected integer in [1, 2**31 - 1]"
            )
            cap = 1
        objects.append(oid)
        capacities.append(cap)

    agents: list[str] = []
    preferences: list[tuple[str, ...]] = []
    seen_agents: set[str] = set()
    for entry in entries("agents"):
        aid = str(entry.get("id"))
        if aid in seen_agents:
            violations.append(f"duplicate agent id {aid!r}")
            continue
        seen_agents.add(aid)
        prefs = entry.get("prefs", [])
        if not isinstance(prefs, list):
            violations.append(
                f"agent {aid!r} has prefs {prefs!r}, expected a list of object ids"
            )
            prefs = []
        cleaned: list[str] = []
        listed: set[str] = set()
        for obj in prefs:
            obj = str(obj)
            if obj not in seen_objects:
                violations.append(f"agent {aid!r} lists unknown object {obj!r}")
                continue
            if obj in listed:
                violations.append(f"agent {aid!r} has duplicate preference {obj!r}")
                continue
            listed.add(obj)
            cleaned.append(obj)
        agents.append(aid)
        preferences.append(tuple(cleaned))

    if violations:
        raise InstanceValidationError(violations)
    return Instance(
        agents=tuple(agents),
        objects=tuple(objects),
        capacities=tuple(capacities),
        preferences=tuple(preferences),
    )


def serial_dictatorship(instance: Instance, sigma: Sequence[int]) -> Matching:
    """Run the serial dictatorship rule under agent ordering ``sigma``.

    Each agent, in order, takes its most-preferred object with remaining
    capacity, or stays unassigned if its whole list is exhausted.
    """
    n = instance.n_agents
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma must be a permutation of the agent indices")
    remaining = list(instance.capacities)
    assignment: list[int | None] = [None] * n
    pref_idx = instance.pref_idx
    for i in sigma:
        for j in pref_idx[i]:
            if remaining[j] > 0:
                remaining[j] -= 1
                assignment[i] = j
                break
    return Matching(tuple(assignment))


def is_feasible(instance: Instance, matching: Matching) -> bool:
    """Capacity check; each agent holds at most one object by construction."""
    if len(matching.assignment) != instance.n_agents:
        raise ValueError("matching dimension does not match the instance")
    loads = [0] * instance.n_objects
    for j in matching.assignment:
        if j is not None:
            if j < 0 or j >= instance.n_objects:
                return False
            loads[j] += 1
    return all(loads[j] <= instance.capacities[j] for j in range(instance.n_objects))


def is_feasible_assignment(
    instance: Instance, assignment: ProbabilisticAssignment
) -> bool:
    if assignment.n_agents != instance.n_agents or (
        assignment.n_agents and assignment.n_objects != instance.n_objects
    ):
        raise ValueError("assignment dimensions do not match the instance")
    numerators, d = assignment.bordered
    *rows, col_sums = numerators
    # Each row holds its cells and then its sum, all within [0, 1].
    if any(not 0 <= v <= d for row in rows for v in row):
        return False
    return all(s <= cap * d for s, cap in zip(col_sums, instance.capacities))


def mu(assignment: ProbabilisticAssignment) -> Fraction:
    """Expected number of assigned agents: the sum of all entries."""
    numerators, d = assignment.bordered
    return Fraction(sum(row[-1] for row in numerators[:-1]), d)


def is_pareto_efficient(instance: Instance, matching: Matching) -> bool:
    """Efficiency certificate: maximality plus supporting integer prices.

    A matching is efficient exactly when it is feasible, assigns every agent
    an object on its list or nothing, leaves no unassigned agent a listed
    object with free capacity, and admits integer object prices, zero on
    objects with free capacity and strictly increasing from each held
    object to every object its holder prefers.  All four are taken in one
    pass over the agents after the loads are counted.  A matching that
    exceeds a capacity is not a matching of the instance, and one that
    assigns an agent an object missing from its list is never efficient (it
    prefers the outside option).  An unassigned agent must find every listed
    object full, and an assigned one every object it prefers to its own
    (its envy list); the prices then exist exactly when the envy lists hold
    no cycle, which Kahn's algorithm decides.

    Raises:
        ValueError: the matching's length is not the number of agents.
    """
    assignment = matching.assignment
    if len(assignment) != instance.n_agents:
        raise ValueError("matching dimension does not match the instance")
    o = instance.n_objects
    free = list(instance.capacities)
    for j in assignment:
        if j is not None:
            if not 0 <= j < o:
                return False
            free[j] -= 1
    if any(f < 0 for f in free):
        return False
    # envies[j]: the objects that the holders of j prefer to it.
    envies: list[list[int]] = [[] for _ in range(o)]
    indegree = [0] * o
    for prefs, j in zip(instance.pref_idx, assignment):
        if j is None:
            if any(free[k] for k in prefs):
                return False
            continue
        if j not in prefs:
            return False
        above = prefs[: prefs.index(j)]
        for k in above:
            if free[k]:
                return False
            indegree[k] += 1
        envies[j] += above
    queue = [j for j in range(o) if not indegree[j]]
    for j in queue:  # the queue grows while it is walked
        for k in envies[j]:
            indegree[k] -= 1
            if not indegree[k]:
                queue.append(k)
    # An envy cycle keeps its objects out of the order.
    return len(queue) == o


def recompose(
    instance: Instance, decomposition: Decomposition
) -> ProbabilisticAssignment:
    """Exact convex combination of the decomposition's matchings.

    The weights are summed as integer shares of their common denominator
    ``W``, and the result is the numerators over ``W``.
    """
    if not decomposition.terms:
        raise ValueError("decomposition is empty")
    w = math.lcm(*(weight.denominator for weight, _ in decomposition.terms))
    cells = [[0] * instance.n_objects for _ in range(instance.n_agents)]
    total = 0
    for weight, matching in decomposition.terms:
        share = weight.numerator * (w // weight.denominator)
        total += share
        for row, j in zip(cells, matching.assignment):
            if j is not None:
                row[j] += share
    if total != w:
        raise ValueError(f"weights sum to {Fraction(total, w)}, expected exactly 1")
    return ProbabilisticAssignment.from_numerators(cells, w)


def worst_case_cardinality(decomposition: Decomposition) -> int:
    """Minimum number of assigned agents over the lottery's support."""
    if not decomposition.terms:
        raise ValueError("decomposition is empty")
    return min(m.cardinality() for _, m in decomposition.terms)
