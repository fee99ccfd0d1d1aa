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
import time

import numpy as np

# is_pareto_efficient, backend_solve_mip, solve_lp, sample_sd_matchings and
# build_matching_program are not called here; they stay bound because
# bench/spans.py traces them as attributes of this module.
from .core import (
    BudgetExhaustedError,
    Decomposition,
    Instance,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    is_pareto_efficient,
)
from .lp import backend_solve_mip, solve_lp
from .colgen import generate_columns, initial_columns, solve_rmp
from .mechanisms import DEFAULT_SAMPLE_SIZE, sample_sd_matchings
from .pe_program import build_matching_program


class MarginNotDecomposableError(MatchlotError):
    """No decomposition over efficient matchings exists at any margin."""


def unpopularity_margin(instance: Instance, matching: Matching) -> int:
    """Worst vote deficit of the matching against any rival matching.

    A rival sends every agent to an object within its capacity or to the
    outside option, which has no capacity.  With ``v[i, j]`` the agent's
    vote for option ``j`` (+1 if it prefers ``j`` to its current outcome,
    -1 if it prefers its current outcome, 0 on a tie), the margin is
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


def binary_search_margin(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    *,
    samples: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    time_limit: float | None = None,
) -> tuple[int, Decomposition]:
    """Smallest worst-case unpopularity margin over efficient decompositions.

    Bisects the integer margin bound: at each candidate value the deviation
    master runs with the pool filtered to matchings of that margin or less
    and with the margin block replacing the cardinality floor in pricing.
    Only a proven infeasibility moves the lower end of the search.

    Raises:
        MarginNotDecomposableError: the assignment has no decomposition
            over efficient matchings at all (infeasible even unbounded).
        BudgetExhaustedError: ``time_limit`` seconds or the round cap ran
            out, or the master stayed on a degenerate optimum, before some
            bound was proven or refuted.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    bank = initial_columns(instance, samples, seed)

    @functools.cache
    def margin(t: int) -> int:
        return unpopularity_margin(instance, bank.matching(t))

    def attempt(omega: int) -> Decomposition | None:
        _, decomposition, proven = generate_columns(
            instance,
            assignment,
            bank,
            0,
            master=solve_rmp,
            admits=lambda t: np.array([margin(s) for s in t.tolist()]) <= omega,
            margin_limit=omega,
            deadline=deadline,
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

