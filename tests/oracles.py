"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately naive: full enumeration of feasible
matchings, pairwise Pareto-domination scans, exhaustive vote counting, and
the unpopularity margin as a transportation LP on the package's simplex
(``solve_lp``).  None of it shares code with the implementations it checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from matchlot.core import Instance, Matching
from matchlot.lp import EQ, LE, Constraint, LinearProgram, Variable, solve_lp
from matchlot.prng import SplitMix64


def enumerate_feasible_matchings(instance: Instance) -> list[Matching]:
    """Every capacity-respecting matching using acceptable objects only."""
    n, o = instance.n_agents, instance.n_objects
    out: list[Matching] = []
    loads = [0] * o

    def rec(i: int, current: list[int | None]) -> None:
        if i == n:
            out.append(Matching(tuple(current)))
            return
        current.append(None)
        rec(i + 1, current)
        current.pop()
        for j in instance.pref_idx[i]:
            if loads[j] < instance.capacities[j]:
                loads[j] += 1
                current.append(j)
                rec(i + 1, current)
                current.pop()
                loads[j] -= 1

    rec(0, [])
    return out


def rank_vectors(instance: Instance, matchings: list[Matching]) -> np.ndarray:
    """Outcome ranks per agent (lower is better; outside option ranks last)."""
    n = instance.n_agents
    table = np.empty((len(matchings), n), dtype=np.int16)
    for row, matching in enumerate(matchings):
        for i in range(n):
            j = matching.assignment[i]
            if j is None:
                table[row, i] = len(instance.pref_idx[i])
            else:
                table[row, i] = instance.rank[i][j]
    return table


def pareto_efficient_mask(instance: Instance, matchings: list[Matching]) -> np.ndarray:
    """Per-matching flag: no other enumerated matching dominates it."""
    ranks = rank_vectors(instance, matchings)
    count = len(matchings)
    mask = np.ones(count, dtype=bool)
    for row in range(count):
        better_eq = (ranks <= ranks[row]).all(axis=1)
        strictly = (ranks < ranks[row]).any(axis=1)
        if (better_eq & strictly).any():
            mask[row] = False
    return mask


def brute_force_pe_set(instance: Instance) -> set[Matching]:
    matchings = enumerate_feasible_matchings(instance)
    mask = pareto_efficient_mask(instance, matchings)
    return {m for m, keep in zip(matchings, mask) if keep}


def brute_force_margin(instance: Instance, matching: Matching) -> int:
    """max over rivals of (votes for rival) - (votes for the matching)."""
    rivals = enumerate_feasible_matchings(instance)
    ranks = rank_vectors(instance, rivals)
    base = rank_vectors(instance, [matching])[0]
    wins = (ranks < base).sum(axis=1)
    losses = (ranks > base).sum(axis=1)
    return int((wins - losses).max())


def lp_margin(instance: Instance, matching: Matching) -> int:
    """Unpopularity margin as a float transportation LP.

    Maximises the net vote of a rival over the polytope in which every agent
    takes one object within capacity or the outside option (capacity
    ``|N|``).  The polytope is integral, so the optimum is the exact margin.
    """
    n, o = instance.n_agents, instance.n_objects
    options: list[int | None] = [*range(o), None]

    def name(i: int, j: int | None) -> str:
        return f"mp_{i}_{'null' if j is None else j}"

    objective: dict[str, float] = {}
    for i in range(n):
        current = matching.assignment[i]
        for j in options:
            vote = instance.prefers(i, j, current) - instance.prefers(i, current, j)
            if vote:
                objective[name(i, j)] = float(vote)
    constraints = [
        Constraint(f"row_{i}", {name(i, j): 1.0 for j in options}, EQ, 1.0)
        for i in range(n)
    ]
    constraints += [
        Constraint(
            f"col_{j}",
            {name(i, j): 1.0 for i in range(n)},
            LE,
            float(instance.capacities[j]),
        )
        for j in range(o)
    ]
    constraints.append(
        Constraint("col_null", {name(i, None): 1.0 for i in range(n)}, LE, float(n))
    )
    program = LinearProgram(
        sense="max",
        objective=objective,
        variables=tuple(Variable(name(i, j), 0.0) for i in range(n) for j in options),
        constraints=tuple(constraints),
        name="margin",
    )
    result = solve_lp(program)
    assert result.status == "optimal", result.status
    value = result.objective
    assert abs(value - round(value)) <= 1e-6, value
    return int(round(value))


def random_instance(
    rng: SplitMix64,
    max_agents: int = 5,
    max_objects: int = 4,
    max_capacity: int = 2,
) -> Instance:
    n = 1 + rng.randbelow(max_agents)
    o = 1 + rng.randbelow(max_objects)
    capacities = tuple(1 + rng.randbelow(max_capacity) for _ in range(o))
    preferences = []
    for _ in range(n):
        objs = list(range(o))
        rng.shuffle(objs)
        length = rng.randbelow(o + 1)
        preferences.append(tuple(chr(97 + j) for j in objs[:length]))
    return Instance(
        agents=tuple(str(i + 1) for i in range(n)),
        objects=tuple(chr(97 + j) for j in range(o)),
        capacities=capacities,
        preferences=tuple(preferences),
    )


def random_feasible_assignment(
    rng: SplitMix64, instance: Instance, denominator: int = 12
):
    """Random exact-rational feasible assignment supported on acceptable cells."""
    from matchlot.core import ProbabilisticAssignment

    n, o = instance.n_agents, instance.n_objects
    rows = [[Fraction(0)] * o for _ in range(n)]
    col_used = [Fraction(0)] * o
    for i in range(n):
        row_left = Fraction(1)
        for j in instance.pref_idx[i]:
            cap_left = Fraction(instance.capacities[j]) - col_used[j]
            ceiling = min(row_left, cap_left, Fraction(1))
            if ceiling <= 0:
                continue
            numer = rng.randbelow(int(ceiling * denominator) + 1)
            value = Fraction(numer, denominator)
            rows[i][j] = value
            row_left -= value
            col_used[j] += value
    return ProbabilisticAssignment(tuple(tuple(r) for r in rows))


def lp_vertex_oracle(c, A_ub, b_ub):
    """Minimise ``c x`` over ``A x <= b, x >= 0`` by enumerating basic points.

    Brute force over all choices of active constraints; returns the best
    feasible vertex value, or None when the region is empty or no vertex
    exists.  Only suitable for tiny dense systems.
    """
    import numpy.linalg as la

    n = len(c)
    rows = [np.asarray(r, dtype=float) for r in A_ub]
    rows += [np.eye(n)[k] * -1.0 for k in range(n)]  # x_k >= 0 as -x_k <= 0
    rhs = list(map(float, b_ub)) + [0.0] * n
    best = None
    m = len(rows)
    for combo in itertools.combinations(range(m), n):
        A = np.stack([rows[k] for k in combo])
        b = np.array([rhs[k] for k in combo])
        if abs(la.det(A)) < 1e-9:
            continue
        x = la.solve(A, b)
        if all(np.dot(rows[k], x) <= rhs[k] + 1e-7 for k in range(m)):
            value = float(np.dot(c, x))
            if best is None or value < best:
                best = value
    return best


def factorial(n: int) -> int:
    return math.factorial(n)
