"""Maximin decomposition of a probabilistic assignment.

Implements the polynomial-time scheme that writes any feasible assignment
as a lottery over matchings each assigning ``floor(mu)`` or ``ceil(mu)``
agents: repeatedly extract a matching that preserves every
integer-valued quota set (cell, row or column), push as far as possible in
the direction away from that matching, and convert the step sizes into
lottery weights at the end.

All arithmetic here is exact rational; recomposition reproduces the input
bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    ConstraintStructure,
    Decomposition,
    Instance,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    is_feasible_assignment,
    is_pareto_efficient,
    mu,
)

DUMMY_AGENT = "__dummy_agent__"
DUMMY_OBJECT = "__dummy_object__"


class FractionalityDegreeError(MatchlotError):
    """A vertex of the fractionality graph has degree one.

    Cannot happen while the running assignment has an integer expected
    cardinality; raised defensively rather than silently looping.
    """


class NotRobustError(MatchlotError):
    """Decomposition produced a matching that is not Pareto-efficient.

    Certifies that the decomposed assignment was not robust ex-post
    efficient.  Carries the offending matching and its lottery weight.
    """

    def __init__(self, weight: Fraction, matching: Matching):
        self.weight = weight
        self.matching = matching
        super().__init__(
            f"matching with weight {weight} is not Pareto-efficient"
        )


def _fractionality_adjacency(
    rows: list[list[Fraction]],
    row_sums: list[Fraction],
    col_sums: list[Fraction],
) -> dict[int, list[int]]:
    """Adjacency lists of the fractionality graph, neighbours sorted.

    Vertices: agents ``0..n-1``, objects ``n..n+o-1``, then the row-sum hub
    ``S = n+o`` (an object-side vertex) and the column-sum hub
    ``T = n+o+1`` (an agent-side vertex).
    """
    n = len(rows)
    o = len(col_sums)
    s_vertex = n + o
    t_vertex = n + o + 1
    adj: dict[int, list[int]] = {}

    def add(u: int, v: int) -> None:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for i in range(n):
        for j in range(o):
            if rows[i][j].denominator != 1:
                add(i, n + j)
    for i in range(n):
        if row_sums[i].denominator != 1:
            add(s_vertex, i)
    for j in range(o):
        if col_sums[j].denominator != 1:
            add(n + j, t_vertex)
    for u, neighbours in adj.items():
        neighbours.sort()
        if len(neighbours) == 1:
            raise FractionalityDegreeError(
                f"fractionality graph vertex {u} has degree one"
            )
    return adj


def _find_cycle(adj: dict[int, list[int]], n: int, o: int) -> list[int]:
    """Deterministic cycle: walk from the lowest vertex, always leaving by
    the lowest-numbered edge other than the one just used."""
    start = min(adj)
    path = [start]
    position = {start: 0}
    prev = -1
    current = start
    while True:
        nxt = next(v for v in adj[current] if v != prev)
        if nxt in position:
            cycle = path[position[nxt]:]
            break
        position[nxt] = len(path)
        path.append(nxt)
        prev, current = current, nxt
    # Rotate so the cycle starts on the agent side (agents or the T hub).
    t_vertex = n + o + 1
    if not (cycle[0] < n or cycle[0] == t_vertex):
        cycle = cycle[1:] + cycle[:1]
    return cycle


def _push_cycle(
    instance: Instance,
    rows: list[list[Fraction]],
    row_sums: list[Fraction],
    col_sums: list[Fraction],
    cycle: list[int],
) -> None:
    """Shift the largest feasible amount alternately +/- around the cycle."""
    n, o = instance.n_agents, instance.n_objects
    plus_cells: list[tuple[int, int]] = []
    minus_cells: list[tuple[int, int]] = []
    size = len(cycle)
    for k in range(0, size, 2):
        i_k = cycle[k]
        j_k = cycle[(k + 1) % size]
        i_next = cycle[(k + 2) % size]
        if i_k < n and n <= j_k < n + o:
            plus_cells.append((i_k, j_k - n))
        if i_next < n and n <= j_k < n + o:
            minus_cells.append((i_next, j_k - n))

    net_row = [0] * n
    net_col = [0] * o
    bounds: list[Fraction] = []
    for i, j in plus_cells:
        bounds.append(1 - rows[i][j])
        net_row[i] += 1
        net_col[j] += 1
    for i, j in minus_cells:
        bounds.append(rows[i][j])
        net_row[i] -= 1
        net_col[j] -= 1
    for i in range(n):
        if net_row[i] > 0:
            bounds.append(1 - row_sums[i])
        elif net_row[i] < 0:
            bounds.append(row_sums[i])
    for j in range(o):
        if net_col[j] > 0:
            bounds.append(instance.capacities[j] - col_sums[j])
        elif net_col[j] < 0:
            bounds.append(col_sums[j])

    alpha = min(bounds)
    if alpha <= 0:
        raise FractionalityDegreeError("cycle push has no feasible step")
    for i, j in plus_cells:
        rows[i][j] += alpha
    for i, j in minus_cells:
        rows[i][j] -= alpha
    for i in range(n):
        if net_row[i]:
            row_sums[i] += net_row[i] * alpha
    for j in range(o):
        if net_col[j]:
            col_sums[j] += net_col[j] * alpha


def budish_extract(instance: Instance, assignment: ProbabilisticAssignment) -> Matching:
    """Round an assignment with integer expected cardinality to a matching.

    The result assigns exactly ``mu`` agents and agrees with the input on
    every quota set whose value is already integer.  Works by repeatedly
    cancelling a cycle of fractional entries; every push makes at least one
    more quota set integer, so at most ``|H|`` pushes happen.
    """
    total = mu(assignment)
    if total.denominator != 1:
        raise ValueError("expected an assignment with integer expected cardinality")
    rows = [list(r) for r in assignment.probs]
    row_sums = list(assignment.row_sums)
    col_sums = list(assignment.col_sums)
    n, o = instance.n_agents, instance.n_objects

    guard = n * o + n + o + 1  # one more than the number of quota sets
    edges: int | None = None
    while True:
        adj = _fractionality_adjacency(rows, row_sums, col_sums)
        if not adj:
            break
        # One edge per fractional quota set, listed at both ends: the count
        # is 2 (size - tau), so every push must lower it.
        count = sum(len(v) for v in adj.values())
        if edges is not None and count >= edges:
            raise FractionalityDegreeError("integrality count failed to increase")
        edges = count
        _push_cycle(instance, rows, row_sums, col_sums, _find_cycle(adj, n, o))
        guard -= 1
        if guard <= 0:
            raise FractionalityDegreeError("extraction exceeded its iteration bound")

    result: list[int | None] = [None] * n
    for i in range(n):
        for j in range(o):
            if rows[i][j] == 1:
                if result[i] is not None:
                    raise FractionalityDegreeError("agent rounded to two objects")
                result[i] = j
    matching = Matching(tuple(result))
    _check_extraction(instance, assignment, matching, total)
    return matching


def _check_extraction(
    instance: Instance,
    original: ProbabilisticAssignment,
    matching: Matching,
    total: Fraction,
) -> None:
    """Verify cardinality preservation and integer-quota agreement."""
    if matching.cardinality() != total:
        raise FractionalityDegreeError(
            f"extracted matching assigns {matching.cardinality()}, expected {total}"
        )
    loads = matching.object_loads(instance.n_objects)
    for j, load in enumerate(loads):
        if load > instance.capacities[j]:
            raise FractionalityDegreeError("extracted matching violates a capacity")
    probs = original.probs
    for i, row in enumerate(probs):
        for j, v in enumerate(row):
            if v.denominator == 1 and (1 if matching.assignment[i] == j else 0) != v:
                raise FractionalityDegreeError("integral cell was not preserved")
    for i, s in enumerate(original.row_sums):
        if s.denominator == 1 and (matching.assignment[i] is not None) != bool(s):
            raise FractionalityDegreeError("integral row sum was not preserved")
    for j, s in enumerate(original.col_sums):
        if s.denominator == 1 and loads[j] != s:
            raise FractionalityDegreeError("integral column sum was not preserved")


def lambda_max(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    matching: Matching,
) -> Fraction:
    """Largest step ``lam`` keeping ``X + lam (X - M)`` feasible.

    Scans every quota set (cells, rows, columns) for the first one to become
    binding in the direction away from the matching.
    """
    n, o = instance.n_agents, instance.n_objects
    probs = assignment.probs
    best: Fraction | None = None

    def bound(value: Fraction, direction: Fraction, quota: int) -> Fraction | None:
        if direction > 0:
            return (quota - value) / direction
        if direction < 0:
            return value / -direction
        return None

    for i in range(n):
        for j in range(o):
            x = probs[i][j]
            d = x - (1 if matching.assignment[i] == j else 0)
            b = bound(x, d, 1)
            if b is not None and (best is None or b < best):
                best = b
    row_sums = assignment.row_sums
    col_sums = assignment.col_sums
    loads = matching.object_loads(o)
    for i in range(n):
        d = row_sums[i] - (0 if matching.assignment[i] is None else 1)
        b = bound(row_sums[i], d, 1)
        if b is not None and (best is None or b < best):
            best = b
    for j in range(o):
        d = col_sums[j] - loads[j]
        b = bound(col_sums[j], d, instance.capacities[j])
        if b is not None and (best is None or b < best):
            best = b
    if best is None:
        raise ValueError("assignment equals the matching; no step direction")
    return best


def md_upper_bound(assignment: ProbabilisticAssignment) -> int:
    """Ceiling on the worst-case cardinality of any decomposition."""
    total = mu(assignment)
    return total.numerator // total.denominator


def _augment_with_dummy(
    instance: Instance, assignment: ProbabilisticAssignment
) -> tuple[Instance, ProbabilisticAssignment]:
    """Add a dummy agent/object cell absorbing the fractional part of mu."""
    total = mu(assignment)
    slack = Fraction(md_upper_bound(assignment) + 1) - total
    aug_instance = Instance(
        agents=instance.agents + (DUMMY_AGENT,),
        objects=instance.objects + (DUMMY_OBJECT,),
        capacities=instance.capacities + (1,),
        preferences=instance.preferences + ((DUMMY_OBJECT,),),
    )
    zero = Fraction(0)
    rows = [row + (zero,) for row in assignment.probs]
    rows.append(tuple([zero] * instance.n_objects) + (slack,))
    return aug_instance, ProbabilisticAssignment(tuple(rows))


def decompose_md(
    instance: Instance, assignment: ProbabilisticAssignment
) -> Decomposition:
    """Decompose an assignment into matchings of near-expected cardinality.

    Every matching in the result assigns ``floor(mu)`` or ``ceil(mu)``
    agents (exactly ``mu`` when it is an integer), weights are positive
    rationals summing to one, and the weighted sum of the matchings equals
    the input exactly.
    """
    if not is_feasible_assignment(instance, assignment):
        raise ValueError("assignment is not feasible for the instance")
    total = mu(assignment)
    work_instance, current = instance, assignment
    dummy = total.denominator != 1
    if dummy:
        work_instance, current = _augment_with_dummy(instance, assignment)

    structure = ConstraintStructure(work_instance)
    steps: list[tuple[Fraction, Matching]] = []
    tau = structure.tau(current)
    for _ in range(structure.size + 1):
        extracted = budish_extract(work_instance, current)
        if all(v.denominator == 1 for row in current.probs for v in row):
            steps.append((Fraction(0), extracted))
            break
        lam = lambda_max(work_instance, current, extracted)
        steps.append((lam, extracted))
        current = ProbabilisticAssignment(
            tuple(
                tuple(x + lam * (x - (1 if m == j else 0)) for j, x in enumerate(row))
                for row, m in zip(current.probs, extracted.assignment)
            )
        )
        new_tau = structure.tau(current)
        if new_tau <= tau:
            raise FractionalityDegreeError("decomposition failed to make progress")
        tau = new_tau
    else:
        raise FractionalityDegreeError("decomposition exceeded its iteration bound")

    # Convert step sizes into lottery weights: unrolling
    # X^t = (X^{t+1} + lam^t M^t) / (1 + lam^t) telescopes into a convex
    # combination whose trailing weight is the running product of the
    # 1 / (1 + lam^u) factors.
    weights: list[Fraction] = []
    prefix = Fraction(1)
    last = len(steps) - 1
    for t, (lam, _) in enumerate(steps):
        if t == last:
            weights.append(prefix)
        else:
            weights.append(prefix * lam / (1 + lam))
            prefix /= 1 + lam

    merged: dict[tuple[int | None, ...], Fraction] = {}
    order: list[tuple[int | None, ...]] = []
    n_real = instance.n_agents
    dummy_obj = instance.n_objects
    for weight, matching in zip(weights, (m for _, m in steps)):
        if weight == 0:
            continue
        kept = matching.assignment[:n_real] if dummy else matching.assignment
        if dummy and any(j == dummy_obj for j in kept):
            raise FractionalityDegreeError("dummy object leaked into a matching")
        if kept not in merged:
            merged[kept] = Fraction(0)
            order.append(kept)
        merged[kept] += weight

    decomposition = Decomposition(
        tuple((merged[key], Matching(key)) for key in order)
    )
    _check_decomposition(instance, assignment, decomposition)
    return decomposition


def _check_decomposition(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    decomposition: Decomposition,
) -> None:
    from .core import recompose

    total = sum((w for w, _ in decomposition.terms), Fraction(0))
    if total != 1:
        raise FractionalityDegreeError("weights do not sum to one")
    lo = md_upper_bound(assignment)
    hi = lo if mu(assignment).denominator == 1 else lo + 1
    for _, matching in decomposition.terms:
        if not lo <= matching.cardinality() <= hi:
            raise FractionalityDegreeError("matching cardinality out of range")
    if recompose(instance, decomposition).probs != assignment.probs:
        raise FractionalityDegreeError("recomposition does not reproduce the input")


def decompose_robust(
    instance: Instance, assignment: ProbabilisticAssignment
) -> Decomposition:
    """Decompose and certify that every matching is Pareto-efficient.

    Intended for assignments that are robust ex-post efficient (for
    example the output of the simultaneous-eating mechanism), where the
    certificate always succeeds.  For other inputs the raised
    :class:`NotRobustError` carries a witness matching.
    """
    decomposition = decompose_md(instance, assignment)
    for weight, matching in decomposition.terms:
        if not is_pareto_efficient(instance, matching):
            raise NotRobustError(weight, matching)
    return decomposition
