"""Maximin decomposition of a probabilistic assignment.

Implements the polynomial-time scheme that writes any feasible assignment
as a lottery over matchings each assigning ``floor(mu)`` or ``ceil(mu)``
agents: repeatedly extract a matching that preserves every
integer-valued quota set (cell, row, column or total), push as far as
possible in the direction away from that matching, and convert the step
sizes into lottery weights at the end.

Extraction, its check and the step size read the assignment bordered by
its sums, an ``(n+1) x (o+1)`` matrix whose column ``o`` holds the agents'
row sums, whose row ``n`` holds the objects' column sums and whose corner
holds the cardinality slack ``ceil(mu) - mu``, so that every quota set is
one cell.  In the fractionality graph the row-sum hub ``S`` is that border
column and the column-sum hub ``T`` that border row; the corner is the
edge ``S``--``T``.

All arithmetic here is exact rational; recomposition reproduces the input
bit for bit.
"""

from __future__ import annotations

import math
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
    recompose,
)


class FractionalityDegreeError(MatchlotError):
    """A vertex of the fractionality graph has degree one.

    Cannot happen, as every row and column of the bordered matrix, border
    included, has an integer total; raised defensively rather than
    silently looping.
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


def _bordered(
    instance: Instance, assignment: ProbabilisticAssignment
) -> list[list[Fraction]]:
    """The assignment bordered by its row sums (column ``o``) and column
    sums (row ``n``), with the cardinality slack ``ceil(mu) - mu`` in the
    corner.  Each bordered cell is a quota set of quota 1, or in row ``n``
    of the quota :func:`_border_quotas` gives."""
    total = mu(assignment)
    # A matrix with no rows has no columns to sum.
    col_sums = assignment.col_sums or (Fraction(0),) * instance.n_objects
    bordered = [[*row, s] for row, s in zip(assignment.probs, assignment.row_sums)]
    bordered.append([*col_sums, math.ceil(total) - total])
    return bordered


def _border_quotas(instance: Instance, total: Fraction) -> list[int]:
    """Quotas of border row ``n``: each object's capacity, then the corner's
    ``ceil(mu) - floor(mu)`` (1 when ``mu`` is fractional, else 0)."""
    return [*instance.capacities, math.ceil(total) - math.floor(total)]


def _bordered_matching(
    instance: Instance, matching: Matching, total: Fraction
) -> list[list[int]]:
    """A matching's 0/1 matrix, bordered by its sums as in :func:`_bordered`,
    with ``ceil(total) - |M|`` in the corner."""
    o = instance.n_objects
    bordered = [[0] * (o + 1) for _ in matching.assignment]
    for row, j in zip(bordered, matching.assignment):
        if j is not None:
            row[j] = row[o] = 1
    bordered.append(
        matching.object_loads(o) + [math.ceil(total) - matching.cardinality()]
    )
    return bordered


def _fractionality_adjacency(bordered: list[list[Fraction]]) -> dict[int, list[int]]:
    """Adjacency lists of the fractionality graph, neighbours sorted.

    One edge per fractional bordered cell, joining its row's vertex to its
    column's.  Rows are the agents ``0..n-1`` and then the column-sum hub
    ``T = n+o+1`` (border row ``n``, on the agent side); columns are the
    objects ``n..n+o-1`` and then the row-sum hub ``S = n+o`` (border
    column ``o``, on the object side).
    """
    n, o = len(bordered) - 1, len(bordered[-1]) - 1
    adj: dict[int, list[int]] = {}
    for r, row in enumerate(bordered):
        u = r if r < n else n + o + 1
        for c, value in enumerate(row):
            if value.denominator != 1:
                adj.setdefault(u, []).append(n + c)
                adj.setdefault(n + c, []).append(u)
    for u, neighbours in adj.items():
        neighbours.sort()
        if len(neighbours) == 1:
            raise FractionalityDegreeError(
                f"fractionality graph vertex {u} has degree one"
            )
    return adj


def _find_cycle(adj: dict[int, list[int]]) -> list[int]:
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
            return path[position[nxt]:]
        position[nxt] = len(path)
        path.append(nxt)
        prev, current = current, nxt


def _push_cycle(
    bordered: list[list[Fraction]], quotas: list[int], cycle: list[int]
) -> None:
    """Shift the largest feasible amount around the cycle, in place.

    Edges walked from the agent side gain, the others lose.  An edge at a
    hub stands for the slack of a row or column sum, and its border cell
    holds the sum itself, so a border cell moves against its edge; the
    corner, the slack of the total, lies on both borders and moves with it.
    """
    n, o = len(bordered) - 1, len(quotas) - 1
    moves: list[tuple[int, int, bool]] = []  # (row, column, gains)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        forward = not n <= u <= n + o  # u is an agent or T, v an object or S
        # The agent-side end gives the row (T: row n), the other the column.
        r, c = (min(u, n), v - n) if forward else (min(v, n), u - n)
        moves.append((r, c, forward != (r == n or c == o)))

    alpha = min(
        (1 if r < n else quotas[c]) - bordered[r][c] if gains else bordered[r][c]
        for r, c, gains in moves
    )
    if alpha <= 0:
        raise FractionalityDegreeError("cycle push has no feasible step")
    for r, c, gains in moves:
        if gains:
            bordered[r][c] += alpha
        else:
            bordered[r][c] -= alpha


def budish_extract(instance: Instance, assignment: ProbabilisticAssignment) -> Matching:
    """Round an assignment to a matching of ``floor(mu)`` or ``ceil(mu)`` agents.

    The result agrees with the input on every quota set whose value is
    already integer, so it assigns exactly ``mu`` agents when ``mu`` is an
    integer.  Works by repeatedly cancelling a cycle of fractional entries;
    every push makes at least one more quota set integer, so at most
    ``|H| + 1`` pushes happen (the total is the extra quota set).
    """
    total = mu(assignment)
    original = _bordered(instance, assignment)
    bordered = [row.copy() for row in original]  # pushed in place
    quotas = _border_quotas(instance, total)
    edges: int | None = None
    while adj := _fractionality_adjacency(bordered):
        # One edge per fractional quota set, listed at both ends: the count
        # is twice the fractional sets, so every push must lower it.
        count = sum(len(v) for v in adj.values())
        if edges is not None and count >= edges:
            raise FractionalityDegreeError("integrality count failed to increase")
        edges = count
        _push_cycle(bordered, quotas, _find_cycle(adj))

    n, o = instance.n_agents, instance.n_objects
    result: list[int | None] = [None] * n
    for i in range(n):
        for j in range(o):
            if bordered[i][j] == 1:
                if result[i] is not None:
                    raise FractionalityDegreeError("agent rounded to two objects")
                result[i] = j
    matching = Matching(tuple(result))
    _check_extraction(instance, original, matching, total)
    return matching


def _check_extraction(
    instance: Instance,
    original: list[list[Fraction]],
    matching: Matching,
    total: Fraction,
) -> None:
    """Verify the border row's quotas, so the capacities and the bounds
    ``floor(mu) <= |M| <= ceil(mu)``, and every integral quota set of the
    bordered assignment ``original``."""
    rounded = _bordered_matching(instance, matching, total)
    quotas = _border_quotas(instance, total)
    if not all(0 <= m <= quota for m, quota in zip(rounded[-1], quotas)):
        raise FractionalityDegreeError(
            "extracted matching violates a capacity or the cardinality bounds"
        )
    for row, matched in zip(original, rounded):
        for value, m in zip(row, matched):
            if value.denominator == 1 and value != m:
                raise FractionalityDegreeError("integral quota set was not preserved")


def lambda_max(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    matching: Matching,
) -> Fraction:
    """Largest step ``lam`` keeping ``X + lam (X - M)`` feasible.

    Scans the bordered cells of ``X - M``, so every quota set (cell, row,
    column and the total), for the first to become binding in the
    direction away from the matching.  The step thus also keeps the total
    within ``[floor(mu), ceil(mu)]``: for an integral ``mu`` and
    ``|M| != mu`` it is 0.
    """
    n = instance.n_agents
    total = mu(assignment)
    quotas = _border_quotas(instance, total)
    rounded = _bordered_matching(instance, matching, total)
    best: Fraction | None = None
    for r, (row, matched) in enumerate(zip(_bordered(instance, assignment), rounded)):
        for c, (x, m) in enumerate(zip(row, matched)):
            d = x - m if m else x  # x - 0 would build a new Fraction
            if d > 0:
                bound = ((1 if r < n else quotas[c]) - x) / d
            elif d < 0:
                bound = x / -d
            else:
                continue
            if best is None or bound < best:
                best = bound
    if best is None:
        raise ValueError("assignment equals the matching; no step direction")
    return best


def md_upper_bound(assignment: ProbabilisticAssignment) -> int:
    """Ceiling on the worst-case cardinality of any decomposition."""
    total = mu(assignment)
    return total.numerator // total.denominator


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
    structure = ConstraintStructure(instance)
    steps: list[tuple[Fraction, Matching]] = []
    current = assignment
    # Integral quota sets, the total (the bordered corner) included.
    tau = structure.tau(current) + (mu(current).denominator == 1)
    for _ in range(structure.size + 2):
        extracted = budish_extract(instance, current)
        if tau == structure.size + 1:
            steps.append((Fraction(0), extracted))
            break
        lam = lambda_max(instance, current, extracted)
        steps.append((lam, extracted))
        current = ProbabilisticAssignment(
            tuple(
                tuple(x + lam * (x - (1 if m == j else 0)) for j, x in enumerate(row))
                for row, m in zip(current.probs, extracted.assignment)
            )
        )
        new_tau = structure.tau(current) + (mu(current).denominator == 1)
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
    for lam, _ in steps[:-1]:
        weights.append(prefix * lam / (1 + lam))
        prefix /= 1 + lam
    weights.append(prefix)

    merged: dict[tuple[int | None, ...], Fraction] = {}  # in first-seen order
    for weight, (_, matching) in zip(weights, steps):
        if weight == 0:
            continue
        merged[matching.assignment] = merged.get(matching.assignment, 0) + weight

    decomposition = Decomposition(
        tuple((weight, Matching(key)) for key, weight in merged.items())
    )
    _check_decomposition(instance, assignment, decomposition)
    return decomposition


def _check_decomposition(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    decomposition: Decomposition,
) -> None:
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
