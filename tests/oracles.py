"""Independent brute-force oracles used to check the library's fast paths.

Everything here is deliberately naive: full enumeration of feasible
matchings, pairwise Pareto-domination scans, the efficient set as the
serial-dictatorship outcomes of every agent ordering, exhaustive vote
counting, the BvN step size as one scan per kind of quota set, the BvN
step and its integral quota sets cell by cell in ``Fraction``s, the
unpopularity margin as a transportation LP on the package's simplex
(``solve_lp``), Pareto efficiency as four separate checks ending in
envy-graph prices, envy-freeness as stochastic dominance summed in
``Fraction``s, and SplitMix64 mixed one output at a time in Python
integers.  Ranks are read as positions in the ``preferences`` lists.
None of it shares code with the implementations it checks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from matchlot.core import Instance, Matching, ProbabilisticAssignment
from matchlot.lp import EQ, LE, DenseProgram, solve_lp
from matchlot.prng import SplitMix64


class SplitMix64Oracle:
    """SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), one output per call.

    The state advances by the golden-ratio increment and each output is the
    state's mix, in Python integers reduced mod ``2**64``.  The methods
    consume outputs the way ``matchlot.prng.SplitMix64`` documents them.
    """

    def __init__(self, seed: int):
        self.state = seed % 2**64
        self.spare: float | None = None

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) / 2**53

    def randbelow(self, n: int) -> int:
        # Reject the top 2**64 mod n draws, so every residue is equally likely.
        while True:
            u = self.next_u64()
            if u < 2**64 - 2**64 % n:
                return u % n

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        for i in reversed(range(1, n)):
            j = self.randbelow(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def gauss(self) -> float:
        # Box-Muller: the cosine variate now, the sine variate on the next call.
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u1 = self.random()
        while u1 == 0.0:
            u1 = self.random()
        u2 = self.random()
        radius = math.sqrt(-2.0 * math.log(u1))
        self.spare = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


def list_rank(instance: Instance, agent: int, j: int | None) -> int:
    """Position of outcome ``j`` in the agent's list: the list's length for
    the outside option (``None``) and one past it for an unlisted object."""
    prefs = instance.preferences[agent]
    if j is None:
        return len(prefs)
    obj = instance.objects[j]
    return prefs.index(obj) if obj in prefs else len(prefs) + 1


def prefers(instance: Instance, agent: int, j: int | None, k: int | None) -> bool:
    """True iff the agent strictly prefers outcome ``j`` to outcome ``k``."""
    return list_rank(instance, agent, j) < list_rank(instance, agent, k)


def matching_matrix(matching: Matching, n_objects: int) -> ProbabilisticAssignment:
    """The 0/1 assignment matrix of ``matching``."""
    return ProbabilisticAssignment(
        [[int(j == k) for k in range(n_objects)] for j in matching.assignment]
    )


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
            table[row, i] = list_rank(instance, i, matching.assignment[i])
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


def sd_pe_set(instance: Instance) -> set[Matching]:
    """The efficient matchings as the serial-dictatorship outcomes of every
    agent ordering: every efficient matching is one (Abdulkadiroglu and
    Sonmez, Econometrica 1998).  Each agent in turn takes its best listed
    object with capacity left."""
    found: set[Matching] = set()
    for order in itertools.permutations(range(instance.n_agents)):
        left = dict(zip(instance.objects, instance.capacities))
        assignment: list[int | None] = [None] * instance.n_agents
        for i in order:
            for obj in instance.preferences[i]:
                if left[obj]:
                    left[obj] -= 1
                    assignment[i] = instance.objects.index(obj)
                    break
        found.add(Matching(tuple(assignment)))
    return found


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
    # Column i * (o + 1) + t is agent i taking options[t]; rows are one per
    # agent, then one per object and the outside option's.
    c = np.zeros(n * (o + 1))
    A = np.zeros((n + o + 1, n * (o + 1)))
    for i in range(n):
        current = matching.assignment[i]
        for t, j in enumerate(options):
            column = i * (o + 1) + t
            c[column] = prefers(instance, i, j, current) - prefers(instance, i, current, j)
            A[i, column] = 1.0
            A[n + t, column] = 1.0
    senses = np.array([EQ] * n + [LE] * (o + 1), dtype=np.int8)
    b = np.array([1.0] * n + [float(cap) for cap in instance.capacities] + [float(n)])
    bounds = np.zeros(c.size), np.full(c.size, math.inf)
    program = DenseProgram(c, A, senses, b, *bounds, sense="max")
    result = solve_lp(program)
    assert result.status == "optimal", result.status
    value = result.objective
    assert abs(value - round(value)) <= 1e-6, value
    return int(round(value))


def envy_prices(instance: Instance, matching: Matching) -> list[int] | None:
    """Integer object prices supporting the matching, or ``None``.

    Prices must be zero on objects with free capacity and rise by at least
    one along every envy edge ``j -> k`` (a holder of ``j`` prefers ``k``).
    They exist iff no envy edge points at an object with free capacity and
    the envy graph has no cycle.  Each price is the longest envy path into
    its object, found by relaxing every edge until nothing changes; prices
    still rising after ``o + 1`` rounds mean a cycle.
    """
    o = instance.n_objects
    loads = [0] * o
    edges = set()
    for i, j in enumerate(matching.assignment):
        if j is None:
            continue
        loads[j] += 1
        for obj in instance.preferences[i][: list_rank(instance, i, j)]:
            edges.add((j, instance.objects.index(obj)))
    if any(loads[k] < instance.capacities[k] for _, k in edges):
        return None
    price = [0] * o
    for _ in range(o + 1):
        changed = False
        for j, k in sorted(edges):
            if price[k] < price[j] + 1:
                price[k] = price[j] + 1
                changed = True
        if not changed:
            return price
    return None


def price_certificate(instance: Instance, matching: Matching) -> bool:
    """Pareto efficiency certified in four separate checks: the matching is
    feasible, every assigned object is on its agent's list, the matching
    is maximal, and ``envy_prices`` finds supporting integer prices.  A
    matching of the wrong length raises ``ValueError``."""
    if len(matching.assignment) != instance.n_agents:
        raise ValueError("matching dimension does not match the instance")
    o = instance.n_objects
    if any(j is not None and not 0 <= j < o for j in matching.assignment):
        return False
    loads = [sum(1 for j in matching.assignment if j == k) for k in range(o)]
    if any(load > cap for load, cap in zip(loads, instance.capacities)):
        return False
    for i, j in enumerate(matching.assignment):
        if j is not None and instance.objects[j] not in instance.preferences[i]:
            return False
    free = {
        obj
        for obj, load, cap in zip(instance.objects, loads, instance.capacities)
        if load < cap
    }
    for i, j in enumerate(matching.assignment):
        if j is None and free.intersection(instance.preferences[i]):
            return False
    return envy_prices(instance, matching) is not None


def is_envy_free(instance: Instance, assignment: ProbabilisticAssignment) -> bool:
    """Every agent's row stochastically dominates every other row on its own
    list: over each prefix of the list, the agent's own probability mass is
    at least the other agent's."""
    probs = assignment.probs
    for i, prefs in enumerate(instance.preferences):
        columns = [instance.objects.index(obj) for obj in prefs]
        for other in range(instance.n_agents):
            for t in range(1, len(columns) + 1):
                own = sum((probs[i][j] for j in columns[:t]), Fraction(0))
                theirs = sum((probs[other][j] for j in columns[:t]), Fraction(0))
                if own < theirs:
                    return False
    return True


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


@st.composite
def small_markets(draw):
    """Markets of 0-6 agents with possibly empty lists and capacities up to 8."""
    n = draw(st.integers(0, 6))
    o = draw(st.integers(1, 4))
    objects = tuple(chr(97 + j) for j in range(o))
    capacities = tuple(draw(st.lists(st.integers(1, 8), min_size=o, max_size=o)))
    preferences = tuple(
        tuple(draw(st.permutations(objects))[: draw(st.integers(0, o))])
        for _ in range(n)
    )
    return Instance(
        tuple(str(i + 1) for i in range(n)), objects, capacities, preferences
    )


def random_feasible_assignment(
    rng: SplitMix64, instance: Instance, denominator: int = 12
):
    """Random exact-rational feasible assignment supported on acceptable cells."""
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


def step_size_oracle(instance: Instance, assignment, matching: Matching) -> Fraction:
    """Largest ``lam`` keeping ``X + lam (X - M)`` feasible, by four scans.

    The cells (quota 1), the agent rows (quota 1), the object columns
    (quota = capacity) and the total (kept within ``[floor(mu), ceil(mu)]``)
    are scanned separately, each through ``bound``, with the sums taken
    straight from the cells.  Raises ValueError when no quota set moves, as
    when ``X = M``.
    """
    n, o = instance.n_agents, instance.n_objects
    probs, chosen = assignment.probs, matching.assignment

    def bound(value, direction, quota):
        if direction > 0:
            return (quota - value) / direction
        if direction < 0:
            return value / -direction
        return None

    bounds = []
    for i in range(n):
        for j in range(o):
            bounds.append(bound(probs[i][j], probs[i][j] - int(chosen[i] == j), 1))
    for i in range(n):
        row = sum(probs[i], Fraction(0))
        bounds.append(bound(row, row - int(chosen[i] is not None), 1))
    for j in range(o):
        col = sum((probs[i][j] for i in range(n)), Fraction(0))
        load = sum(1 for k in chosen if k == j)
        bounds.append(bound(col, col - load, instance.capacities[j]))
    total = sum((sum(row, Fraction(0)) for row in probs), Fraction(0))
    low, high = math.floor(total), math.ceil(total)
    assigned = sum(1 for k in chosen if k is not None)
    bounds.append(bound(total - low, total - assigned, high - low))
    finite = [b for b in bounds if b is not None]
    if not finite:
        raise ValueError("assignment equals the matching")
    return min(finite)


def tau_oracle(instance: Instance, assignment) -> int:
    """Integral quota sets of ``assignment``: cells, agent rows and object
    columns, each summed straight from the ``Fraction`` cells."""
    n, o = instance.n_agents, instance.n_objects
    probs = assignment.probs
    values = [probs[i][j] for i in range(n) for j in range(o)]
    values += [sum(probs[i], Fraction(0)) for i in range(n)]
    values += [sum((probs[i][j] for i in range(n)), Fraction(0)) for j in range(o)]
    return sum(1 for v in values if v.denominator == 1)


def step_oracle(assignment, matching: Matching, lam: Fraction):
    """The cells of ``X + lam (X - M)``, computed cell by cell in ``Fraction``s."""
    return tuple(
        tuple(x + lam * (x - (1 if chosen == j else 0)) for j, x in enumerate(row))
        for row, chosen in zip(assignment.probs, matching.assignment)
    )


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
