"""Domain model for one-sided matching.

An instance consists of agents with strict, truncated preference lists over
capacitated objects.  A preference list contains exactly the objects an
agent prefers to staying unassigned, most-preferred first; anything not
listed is worse than the outside option and is never assigned by the
mechanisms in this package.

Probabilities and lottery weights are :class:`fractions.Fraction` values
throughout this module, so recomposition of a decomposition is exact.  A
:class:`ProbabilisticAssignment` is frozen, so its ``row_sums`` and
``col_sums`` are cached tuple properties, summed once per matrix, and so
are the read-only arrays of ``flat_cells``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

ENUMERATION_LIMIT = 8
"""Largest agent count for which full permutation enumeration is allowed."""

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
    def rank(self) -> tuple[dict[int, int], ...]:
        """``rank[i][j]`` is the position of object ``j`` in agent ``i``'s list."""
        return tuple({j: t for t, j in enumerate(prefs)} for prefs in self.pref_idx)

    def prefers(self, agent: int, j: int | None, k: int | None) -> bool:
        """True iff agent strictly prefers outcome ``j`` to outcome ``k``.

        Outcomes are object indices or ``None`` (the outside option).
        Unlisted objects rank below the outside option; two distinct
        unlisted objects compare as indifferent.
        """
        ranks = self.rank[agent]
        unlisted = len(ranks)  # rank of the outside option
        rj = ranks.get(j, unlisted + 1) if j is not None else unlisted
        rk = ranks.get(k, unlisted + 1) if k is not None else unlisted
        return rj < rk


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


@dataclass(frozen=True)
class ProbabilisticAssignment:
    """Exact rational matrix of assignment probabilities, agents x objects."""

    probs: tuple[tuple[Fraction, ...], ...]

    @property
    def n_agents(self) -> int:
        return len(self.probs)

    @property
    def n_objects(self) -> int:
        return len(self.probs[0]) if self.probs else 0

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Rational]]) -> "ProbabilisticAssignment":
        return ProbabilisticAssignment(
            tuple(tuple(Fraction(v) for v in row) for row in rows)
        )

    @staticmethod
    def from_matching(matching: Matching, n_objects: int) -> "ProbabilisticAssignment":
        rows = []
        for j in matching.assignment:
            row = [Fraction(0)] * n_objects
            if j is not None:
                row[j] = Fraction(1)
            rows.append(tuple(row))
        return ProbabilisticAssignment(tuple(rows))

    @cached_property
    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.probs)

    @cached_property
    def col_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(col, Fraction(0)) for col in zip(*self.probs))

    @cached_property
    def flat_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-major cells as read-only arrays: the probabilities as floats,
        and masks of the cells above 0 and below 1.

        The masks compare the exact probabilities.
        """
        cells = [v for row in self.probs for v in row]
        arrays = (
            np.array([float(v) for v in cells], dtype=float),
            np.array([v > 0 for v in cells], dtype=bool),
            np.array([v < 1 for v in cells], dtype=bool),
        )
        for array in arrays:
            array.flags.writeable = False
        return arrays

    def support(self) -> set[tuple[int, int]]:
        return {
            (i, j)
            for i, row in enumerate(self.probs)
            for j, v in enumerate(row)
            if v > 0
        }


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
    integral.
    """

    def __init__(self, instance: Instance):
        self.instance = instance

    @property
    def size(self) -> int:
        n, o = self.instance.n_agents, self.instance.n_objects
        return n * o + n + o

    def tau(self, assignment: ProbabilisticAssignment) -> int:
        fractional = sum(v.denominator != 1 for row in assignment.probs for v in row)
        sums = assignment.row_sums + assignment.col_sums
        return self.size - fractional - sum(s.denominator != 1 for s in sums)


def validate_instance(raw: Mapping) -> Instance:
    """Parse and validate the mapping form of an instance.

    Expected shape::

        {"objects": [{"id": ..., "capacity": ...}],
         "agents": [{"id": ..., "prefs": [object ids, most-preferred first]}]}

    Raises:
        InstanceValidationError: listing every violation found, not just the
            first one.
    """
    violations: list[str] = []
    objects: list[str] = []
    capacities: list[int] = []
    seen_objects: set[str] = set()
    for entry in raw.get("objects", []):
        oid = str(entry.get("id"))
        cap = entry.get("capacity")
        if oid in seen_objects:
            violations.append(f"duplicate object id {oid!r}")
            continue
        seen_objects.add(oid)
        if not isinstance(cap, int) or cap < 1:
            violations.append(f"object {oid!r} has capacity {cap!r}, expected integer >= 1")
            cap = 1
        objects.append(oid)
        capacities.append(cap)

    agents: list[str] = []
    preferences: list[tuple[str, ...]] = []
    seen_agents: set[str] = set()
    for entry in raw.get("agents", []):
        aid = str(entry.get("id"))
        if aid in seen_agents:
            violations.append(f"duplicate agent id {aid!r}")
            continue
        seen_agents.add(aid)
        prefs = entry.get("prefs", [])
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

    Each agent, in order, takes her most-preferred object with remaining
    capacity, or stays unassigned if her whole list is exhausted.
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
    for row in assignment.probs:
        for v in row:
            if v < 0 or v > 1:
                return False
    if any(s > 1 for s in assignment.row_sums):
        return False
    return all(s <= cap for s, cap in zip(assignment.col_sums, instance.capacities))


def mu(assignment: ProbabilisticAssignment) -> Fraction:
    """Expected number of assigned agents: the sum of all entries."""
    return sum(assignment.row_sums, Fraction(0))


def envy_graph(instance: Instance, matching: Matching) -> dict[int, set[int]]:
    """Directed envy edges between objects.

    There is an edge ``j -> k`` iff some agent assigned to ``j`` prefers
    ``k`` to ``j``.
    """
    edges: dict[int, set[int]] = {}
    for i, j in enumerate(matching.assignment):
        if j is None:
            continue
        for k in instance.pref_idx[i]:
            if k == j:
                break
            edges.setdefault(j, set()).add(k)
    return edges


def competitive_prices(instance: Instance, matching: Matching) -> list[int] | None:
    """Integer object prices certifying efficiency, or ``None``.

    Prices must be zero on objects with unused capacity and strictly
    increasing along envy edges.  Such prices exist iff the envy graph is
    acyclic and no envy edge points at an object with free capacity; the
    returned price of an object is then the length of the longest envy path
    ending there.
    """
    loads = matching.object_loads(instance.n_objects)
    free = [loads[j] < instance.capacities[j] for j in range(instance.n_objects)]
    edges = envy_graph(instance, matching)
    for targets in edges.values():
        if any(free[k] for k in targets):
            return None
    # Kahn's algorithm leaves the nodes of an envy cycle out of the order.
    n = instance.n_objects
    order = _topological_order(n, edges)
    if len(order) < n:
        return None
    # Relax in topological order: price[k] >= price[j] + 1 on j -> k.
    price = [0] * n
    for j in order:
        for k in edges.get(j, ()):
            price[k] = max(price[k], price[j] + 1)
    return price


def _topological_order(n: int, edges: dict[int, set[int]]) -> list[int]:
    indeg = [0] * n
    for targets in edges.values():
        for k in targets:
            indeg[k] += 1
    queue = [j for j in range(n) if indeg[j] == 0]
    order: list[int] = []
    while queue:
        j = queue.pop()
        order.append(j)
        for k in edges.get(j, ()):
            indeg[k] -= 1
            if indeg[k] == 0:
                queue.append(k)
    return order


def is_maximal(instance: Instance, matching: Matching) -> bool:
    """No unassigned agent has an acceptable object with free capacity."""
    loads = matching.object_loads(instance.n_objects)
    for i, j in enumerate(matching.assignment):
        if j is not None:
            continue
        for k in instance.pref_idx[i]:
            if loads[k] < instance.capacities[k]:
                return False
    return True


def is_pareto_efficient(instance: Instance, matching: Matching) -> bool:
    """Efficiency certificate: maximality plus supporting integer prices.

    A matching that exceeds a capacity is not a matching of the instance,
    and one that assigns an agent an object missing from her list is never
    efficient (she prefers the outside option), so both are rejected up
    front.
    """
    if not is_feasible(instance, matching):
        return False
    for i, j in enumerate(matching.assignment):
        if j is not None and j not in instance.rank[i]:
            return False
    if not is_maximal(instance, matching):
        return False
    return competitive_prices(instance, matching) is not None


def enumerate_pe_matchings(instance: Instance) -> set[Matching]:
    """All Pareto-efficient matchings, via serial dictatorship over all orders."""
    n = instance.n_agents
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{n} agents exceeds the enumeration limit of {ENUMERATION_LIMIT}"
        )
    found: set[Matching] = set()
    for sigma in itertools.permutations(range(n)):
        found.add(serial_dictatorship(instance, sigma))
    return found


def recompose(
    instance: Instance, decomposition: Decomposition
) -> ProbabilisticAssignment:
    """Exact convex combination of the decomposition's matchings."""
    if not decomposition.terms:
        raise ValueError("decomposition is empty")
    total = sum((w for w, _ in decomposition.terms), Fraction(0))
    if total != 1:
        raise ValueError(f"weights sum to {total}, expected exactly 1")
    n, o = instance.n_agents, instance.n_objects
    rows = [[Fraction(0)] * o for _ in range(n)]
    for weight, matching in decomposition.terms:
        for i, j in enumerate(matching.assignment):
            if j is not None:
                rows[i][j] += weight
    return ProbabilisticAssignment(tuple(tuple(row) for row in rows))


def worst_case_cardinality(decomposition: Decomposition) -> int:
    """Minimum number of assigned agents over the lottery's support."""
    if not decomposition.terms:
        raise ValueError("decomposition is empty")
    return min(m.cardinality() for _, m in decomposition.terms)
