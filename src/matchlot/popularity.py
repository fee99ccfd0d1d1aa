"""Vote-based comparison of matchings and margin-bounded decompositions.

A matching's unpopularity margin is the largest vote advantage any rival
matching achieves against it, where every agent votes for the outcome it
prefers.  The margin of a fixed matching is an integer maximum-weight
b-matching.  An agent's vote gains depend only on its preference list and
the position it holds, so agents fall into vote types, and the margins of a
whole stack of outcome rows come from one pass: each row's multiset of types
is its profile, and each distinct profile is solved once as a min-cost flow
whose paths carry as many agents of a type as they can.  Bounding the margin
of a matching that is itself being optimised uses the dual of the
equivalent transportation LP, which is linear in the matching variables and
can replace the cardinality floor inside the pricing MIP.
"""

from __future__ import annotations

import collections
import sys
import time

import numpy as np

# is_pareto_efficient, backend_solve_mip, solve_lp, solve_rmp,
# sample_sd_matchings and build_matching_program are not called here; they
# stay bound because bench/spans.py traces them as attributes of this module.
from .core import (
    BudgetExhaustedError,
    Decomposition,
    Instance,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    is_feasible_assignment,
    is_pareto_efficient,
)
from .lp import backend_solve_mip, solve_lp
from .colgen import bound_search, initial_columns, solve_rmp
from .mechanisms import DEFAULT_SAMPLE_SIZE, sample_sd_matchings
from .pe_program import build_matching_program


class MarginNotDecomposableError(MatchlotError):
    """No decomposition over efficient matchings exists at any margin."""


def unpopularity_margins(instance: Instance, rows: np.ndarray) -> np.ndarray:
    """Worst vote deficit of each outcome row against any rival matching.

    ``rows`` is ``(T, n_agents)``: an object index per agent, -1 for an
    unassigned agent.  A rival sends every agent to an object within its
    capacity or to the outside option, which has no capacity.  With
    ``v[i, j]`` the agent's vote for option ``j`` (+1 if it prefers ``j`` to
    its current outcome, -1 if it prefers its current outcome, 0 on a tie),
    a row's margin is the sum of the outside votes ("stay" votes, read from
    ``Instance.rank_table``) plus a maximum-weight b-matching over the cells
    whose gain ``v[i, j] - v[i, None]`` is positive.  Such a gain exists
    only for an agent that holds a listed object (2 on each object it ranks
    higher, 1 on its own) or is unassigned with a non-empty list (1 on each
    listed object), so an agent's gains depend only on its list and its
    held position, and agents that share both are interchangeable.

    Each agent gets the integer type key ``list_id * (n_objects + 1) +
    position``, from ``Instance.list_ids`` (-1 for an unlisted holding,
    which has no gain); each row's sorted keys are its profile, and each
    distinct profile is solved once by :func:`_max_gain`.  The margin is
    never negative when the row respects capacities, since it is then a
    rival of itself.  Returns an ``int64`` array with one margin per row.
    """
    n, o = instance.n_agents, instance.n_objects
    ranks = instance.rank_table
    lengths = ranks[:, -1]
    held = ranks[np.arange(n), rows]
    margins = np.sign(held - lengths).sum(axis=1)
    keys = np.where(held <= lengths, instance.list_ids * (o + 1) + held, -1)
    profiles = [tuple(sorted(row)) for row in keys.tolist()]
    best = {profile: _max_gain(instance, profile) for profile in dict.fromkeys(profiles)}
    return margins + np.array([best[profile] for profile in profiles], dtype=np.int64)


def _max_gain(instance: Instance, profile: tuple[int, ...]) -> int:
    """Largest total gain a rival collects from one sorted profile of type keys.

    A min-cost flow source -> type -> object -> sink: each type supplies as
    many units as agents share its key, each object takes up to its
    capacity, and a unit on arc type -> object earns the type's gain there.
    It is solved by successive shortest paths, each pushing its bottleneck
    amount.  Path costs never fall, and no path costs less than -2, so the
    paths come in two phases, of cost -2 and then -1.  Each phase first
    pushes along the direct arcs of its gain, which are shortest paths, and
    then along the residual paths :func:`_shortest_path` finds, until the
    shortest one costs more than the phase.
    """
    o = instance.n_objects
    supply: list[int] = []
    gains: list[dict[int, int]] = []
    for key, count in collections.Counter(profile).items():
        if key < 0:
            continue
        agent, held = divmod(key, o + 1)
        prefs = instance.pref_idx[agent]
        if held < len(prefs):
            gain = dict.fromkeys(prefs[:held], 2)
            gain[prefs[held]] = 1
        else:
            gain = dict.fromkeys(prefs, 1)
        gains.append(gain)
        supply.append(count)
    room = list(instance.capacities)
    holders: list[dict[int, int]] = [{} for _ in range(o)]  # per object: type -> units

    def augment(path: list[tuple[int, int, int]]) -> int:
        """Push the path's bottleneck amount along it, and return that amount."""
        start, end = path[-1][0], path[0][1]
        push = min([supply[start], room[end]] + [holders[j][t] for t, _, j in path[:-1]])
        supply[start] -= push
        room[end] -= push
        for t, into, left in path:
            holders[into][t] = holders[into].get(t, 0) + push
            if left >= 0:
                holders[left][t] -= push
                if not holders[left][t]:
                    del holders[left][t]
        return push

    total = 0
    for phase in (2, 1):
        for t, gain in enumerate(gains):
            for j, g in gain.items():
                if g == phase and supply[t] and room[j]:
                    total += phase * augment([(t, j, -1)])
        while (path := _shortest_path(gains, holders, supply, room, -phase)) is not None:
            total += phase * augment(path)
    return total


def _shortest_path(
    gains: list[dict[int, int]],
    holders: list[dict[int, int]],
    supply: list[int],
    room: list[int],
    cost: int,
) -> list[tuple[int, int, int]] | None:
    """A residual path of at most ``cost`` from a type with supply to an
    object with room, by a queue-based Bellman-Ford, or None if there is none.

    The path is listed from its end as ``(type, object it moves into, object
    it leaves or -1)``; the last entry's type is the one with supply.
    """
    unreached = sys.maxsize
    to_type = [0 if units else unreached for units in supply]
    to_object = [unreached] * len(room)
    via_type = [-1] * len(gains)  # the object each type is reached back from
    via_object = [-1] * len(room)  # the type each object is reached from
    queue = [t for t, units in enumerate(supply) if units]  # grows as it is read
    queued = [bool(units) for units in supply]
    for t in queue:
        queued[t] = False
        for j, g in gains[t].items():
            if to_type[t] - g >= to_object[j]:
                continue
            to_object[j] = to_type[t] - g
            via_object[j] = t
            for back in holders[j]:
                if to_object[j] + gains[back][j] < to_type[back]:
                    to_type[back] = to_object[j] + gains[back][j]
                    via_type[back] = j
                    if not queued[back]:
                        queued[back] = True
                        queue.append(back)
    ends = [j for j, free in enumerate(room) if free and to_object[j] <= cost]
    if not ends:
        return None
    path = []
    j = ends[0]
    while j >= 0:
        t = via_object[j]
        path.append((t, j, via_type[t]))
        j = via_type[t]
    return path


def unpopularity_margin(instance: Instance, matching: Matching) -> int:
    """Worst vote deficit of the matching against any rival matching.

    The one-row case of :func:`unpopularity_margins`.
    """
    row = [-1 if j is None else j for j in matching.assignment]
    return int(unpopularity_margins(instance, np.array([row], dtype=np.int32))[0])


def binary_search_margin(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    *,
    samples: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    time_limit: float | None = None,
) -> tuple[int, Decomposition]:
    """Smallest worst-case unpopularity margin over efficient decompositions.

    Runs ``colgen.bound_search`` on the margin bound ``omega`` over
    ``[0, n_agents]``, so ``omega = n_agents`` is tried first and then
    bisected down.  At each bound the deviation master sees the pool rows
    inside the target's support of margin at most ``omega``, and the margin
    block replaces the cardinality floor in pricing, which searches the same
    support.  The pool's margins are computed once, and extended when
    pricing appends a column.

    Raises:
        ValueError: the target is not a feasible assignment of the
            instance.
        MarginNotDecomposableError: the assignment has no decomposition
            over efficient matchings at all (infeasible even unbounded).
        BudgetExhaustedError: ``time_limit`` seconds ran out before the
            search ended.
    """
    if not is_feasible_assignment(instance, assignment):
        raise ValueError("assignment is not feasible for the instance")
    deadline = None if time_limit is None else time.monotonic() + time_limit
    bank = initial_columns(instance, samples, seed)
    margins = unpopularity_margins(instance, bank.rows)

    def admits(omega: int, t: np.ndarray) -> np.ndarray:
        nonlocal margins
        if len(margins) < len(bank):  # pricing appended columns
            fresh = unpopularity_margins(instance, bank.rows[len(margins):])
            margins = np.concatenate([margins, fresh])
        return margins[t] <= omega

    status, omega, attempts = bound_search(
        instance, assignment, bank, 0, instance.n_agents,
        measure="margin", admits=admits, deadline=deadline,
    )
    if status == "budget-exhausted":
        raise BudgetExhaustedError("the time limit ran out before the margin search ended")
    if status == "not-decomposable":
        raise MarginNotDecomposableError("no decomposition over efficient matchings exists")
    return omega, attempts[omega][1]
