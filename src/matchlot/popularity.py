"""Vote-based comparison of matchings and margin-bounded decompositions.

A matching's unpopularity margin is the largest vote advantage any rival
matching achieves against it, where every agent votes for the outcome she
prefers.  The margin of a fixed matching is an integer maximum-weight
b-matching, solved exactly as a min-cost flow; bounding the margin of a
matching that is itself being optimised uses the dual of the equivalent
transportation LP, which is linear in the matching variables and can
replace the cardinality floor inside the pricing MIP.
"""

from __future__ import annotations

import collections
import functools
import sys
from dataclasses import dataclass

# solve_rmp, is_pareto_efficient, backend_solve_mip, solve_lp,
# sample_sd_matchings and build_matching_program are no longer called here;
# they stay bound because bench/spans.py traces them as attributes of this
# module.
from .core import (
    BudgetExhaustedError,
    Decomposition,
    Instance,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    is_pareto_efficient,
)
from .lp import Constraint, Variable, backend_solve_mip, solve_lp
from .colgen import TOLERANCE, Budget, initial_columns, solve_margin_rmp, solve_rmp
from .mechanisms import DEFAULT_SAMPLE_SIZE, sample_sd_matchings
from .pe_program import build_matching_program, margin_block


class MarginNotDecomposableError(MatchlotError):
    """No decomposition over efficient matchings exists at any margin."""


@dataclass(frozen=True)
class ComparisonWeights:
    """Per (agent, object-or-outside) vote weights relative to a matching.

    ``+1`` when the agent prefers the alternative to her current outcome,
    ``-1`` when she prefers her current outcome, ``0`` on ties.
    """

    nu: dict[tuple[int, int | None], int]


def comparison_weights(instance: Instance, matching: Matching) -> ComparisonWeights:
    nu: dict[tuple[int, int | None], int] = {}
    for i in range(instance.n_agents):
        current = matching.assignment[i]
        options: list[int | None] = [*range(instance.n_objects), None]
        for j in options:
            if instance.prefers(i, j, current):
                nu[i, j] = 1
            elif instance.prefers(i, current, j):
                nu[i, j] = -1
            else:
                nu[i, j] = 0
    return ComparisonWeights(nu)


def phi(instance: Instance, first: Matching, second: Matching) -> int:
    """Number of agents strictly preferring their outcome in ``first``."""
    return sum(
        1
        for i in range(instance.n_agents)
        if instance.prefers(i, first.assignment[i], second.assignment[i])
    )


def unpopularity_margin(instance: Instance, matching: Matching) -> int:
    """Worst vote deficit of the matching against any rival matching.

    A rival sends every agent to an object within its capacity or to the
    outside option, which has no capacity.  With ``v[i, j]`` the agent's
    vote for option ``j`` (as in :func:`comparison_weights`), the margin is
    the sum of the outside votes plus a maximum-weight b-matching over the
    cells whose gain ``v[i, j] - v[i, None]`` is positive; every such gain
    is 1 or 2, and no unlisted object has one.  The b-matching is an
    integer min-cost flow source -> agent -> object -> sink, solved by
    successive shortest paths (queue-based Bellman-Ford on the residual
    graph) until no path of negative cost remains.  The margin is never
    negative when the matching respects capacities, since it is then a
    rival of itself.
    """
    n = instance.n_agents
    source, sink = n + instance.n_objects, n + instance.n_objects + 1
    # Residual arcs in pairs: arc ``e`` and its reverse ``e ^ 1``.
    out_arcs: list[list[int]] = [[] for _ in range(sink + 1)]
    heads: list[int] = []
    caps: list[int] = []
    costs: list[int] = []

    def add_arc(tail: int, head: int, cap: int, cost: int) -> None:
        for u, v, c, w in ((tail, head, cap, cost), (head, tail, 0, -cost)):
            out_arcs[u].append(len(heads))
            heads.append(v)
            caps.append(c)
            costs.append(w)

    margin = 0
    for i in range(n):
        ranks = instance.rank[i]
        outside = len(ranks)  # rank of the outside option, as in prefers
        current = matching.assignment[i]
        held = outside if current is None else ranks.get(current, outside + 1)
        stay = (held > outside) - (held < outside)
        margin += stay
        gains = [
            (j, gain)
            for j, r in ranks.items()
            if (gain := (held > r) - (held < r) - stay) > 0
        ]
        if gains:
            add_arc(source, i, 1, 0)
            for j, gain in gains:
                add_arc(i, n + j, 1, -gain)
    for j, capacity in enumerate(instance.capacities):
        add_arc(n + j, sink, capacity, 0)

    unreached = sys.maxsize
    while True:
        dist = [unreached] * (sink + 1)
        via = [-1] * (sink + 1)
        queued = [False] * (sink + 1)
        dist[source] = 0
        queue = collections.deque([source])
        while queue:
            u = queue.popleft()
            queued[u] = False
            for e in out_arcs[u]:
                v = heads[e]
                if caps[e] and dist[u] + costs[e] < dist[v]:
                    dist[v] = dist[u] + costs[e]
                    via[v] = e
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
        if dist[sink] >= 0:
            return margin
        # Every path leaves the source on a unit arc, so it carries one unit.
        v = sink
        while v != source:
            e = via[v]
            caps[e] -= 1
            caps[e ^ 1] += 1
            v = heads[e ^ 1]
        margin -= dist[sink]


def bounded_margin_block(
    instance: Instance, omega: int
) -> tuple[list[Variable], list[Constraint]]:
    """Constraint block forcing a priced matching's margin to at most omega.

    The block references the standard matching variables ``m_i_j`` over all
    acceptable cells; attach it to a matching program built without a
    cardinality floor.  With ``omega >= |N|`` the block never binds, since
    no rival can muster more than one vote per agent.
    """
    if omega < 0:
        raise ValueError("omega must be non-negative")
    cells = [
        (i, j) for i in range(instance.n_agents) for j in instance.pref_idx[i]
    ]
    cell_var = {cell: f"m_{cell[0]}_{cell[1]}" for cell in cells}
    return margin_block(instance, cells, cell_var, omega)


def binary_search_margin(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    *,
    samples: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    budget: Budget | None = None,
    tolerance: float = TOLERANCE,
) -> tuple[int, Decomposition]:
    """Smallest worst-case unpopularity margin over efficient decompositions.

    Bisects the integer margin bound: at each candidate value the deviation
    master runs with the pool filtered to matchings of that margin or less
    and with the margin block replacing the cardinality floor in pricing.
    Only a proven infeasibility moves the lower end of the search.

    Raises:
        MarginNotDecomposableError: the assignment has no decomposition
            over efficient matchings at all (infeasible even unbounded).
        BudgetExhaustedError: the budget ran out, or the master stayed on a
            degenerate optimum, before some bound was proven or refuted.
    """
    budget = budget or Budget()
    deadline = budget.deadline()
    bank = initial_columns(instance, samples, seed)
    margin = functools.cache(lambda matching: unpopularity_margin(instance, matching))

    def attempt(omega: int) -> Decomposition | None:
        decomposition, proven = solve_margin_rmp(
            instance,
            assignment,
            omega,
            bank=bank,
            margin=margin,
            budget=budget,
            deadline=deadline,
            tolerance=tolerance,
        )
        if decomposition is None and not proven:
            raise BudgetExhaustedError(
                f"the budget ran out before margin bound {omega} was proven or refuted"
            )
        return decomposition

    n = instance.n_agents
    top = attempt(n)
    if top is None:
        raise MarginNotDecomposableError(
            "no decomposition over efficient matchings exists"
        )
    lo, hi = 0, n
    best = (n, top)
    while lo < hi:
        mid = (lo + hi) // 2
        found = attempt(mid)
        if found is not None:
            best = (mid, found)
            hi = mid
        else:
            lo = mid + 1
    return best

