"""Vote-based comparison of matchings and margin-bounded decompositions.

A matching's unpopularity margin is the largest vote advantage any rival
matching achieves against it, where every agent votes for the outcome she
prefers.  The margin of a fixed matching is the optimum of a small
transportation LP; bounding the margin of a matching that is itself being
optimised uses the dual of that LP, which is linear in the matching
variables and can replace the cardinality floor inside the pricing MIP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

# solve_rmp, is_pareto_efficient, backend_solve_mip, sample_sd_matchings and
# build_matching_program are no longer called here; they stay bound because
# bench/spans.py traces them as attributes of this module.
from .core import (
    Decomposition,
    Instance,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    is_pareto_efficient,
)
from .lp import EQ, LE, Constraint, LinearProgram, Variable, backend_solve_mip, solve_lp
from .colgen import TOLERANCE, Budget, initial_columns, solve_margin_rmp, solve_rmp
from .mechanisms import DEFAULT_SAMPLE_SIZE, sample_sd_matchings
from .pe_program import build_matching_program, margin_block


class MarginNotDecomposableError(MatchlotError):
    """No decomposition over efficient matchings exists at any margin."""


class BudgetExhaustedError(MatchlotError):
    """The budget ran out before a margin bound was proven or refuted."""


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

    Maximises the net vote weight of a rival over the transportation
    polytope in which every agent is assigned to an object or the outside
    option (capacity ``|N|``).  The polytope is integral, so the LP optimum
    is the exact margin; it is never negative because the matching itself
    is a feasible rival.
    """
    n, o = instance.n_agents, instance.n_objects
    weights = comparison_weights(instance, matching).nu
    variables = []
    objective: dict[str, float] = {}
    for i in range(n):
        for j in [*range(o), None]:
            name = f"mp_{i}_{'null' if j is None else j}"
            variables.append(Variable(name, 0.0))
            if weights[i, j]:
                objective[name] = float(weights[i, j])
    constraints = []
    for i in range(n):
        coeffs = {f"mp_{i}_{'null' if j is None else j}": 1.0 for j in [*range(o), None]}
        constraints.append(Constraint(f"row_{i}", coeffs, EQ, 1.0))
    for j in range(o):
        coeffs = {f"mp_{i}_{j}": 1.0 for i in range(n)}
        constraints.append(Constraint(f"col_{j}", coeffs, LE, float(instance.capacities[j])))
    constraints.append(
        Constraint("col_null", {f"mp_{i}_null": 1.0 for i in range(n)}, LE, float(n))
    )
    program = LinearProgram(
        sense="max",
        objective=objective,
        variables=tuple(variables),
        constraints=tuple(constraints),
        name="margin",
    )
    result = solve_lp(program)
    if result.status != "optimal":
        raise MatchlotError(f"margin program ended with status {result.status!r}")
    value = result.objective
    rounded = round(value)
    if abs(value - rounded) > 1e-6:
        raise MatchlotError(f"margin optimum {value} is not integral")
    return int(rounded)


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
    bank = initial_columns(instance, 0, samples, seed)
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
    if best[0] != lo:
        found = attempt(lo)
        if found is None:
            raise MatchlotError("margin bisection lost feasibility")
        best = (lo, found)
    return best

