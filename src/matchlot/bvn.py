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

All of this arithmetic is on integers.  Each assignment's bordered matrix
is held as numerators ``N`` over one common denominator ``D``
(:attr:`ProbabilisticAssignment.bordered`, the assignment's one exact form): a
value is integral exactly when ``N % D == 0``, a push moves the integer
amount ``quota D - N`` or ``N``, step sizes are compared cross-multiplied,
and a step ``lam = p/q`` maps ``(N, D)`` to ``((p+q) N - p D M, q D)``,
reduced by the gcd and handed to the next step as the whole assignment:
a step builds no ``Fraction`` cells (``ProbabilisticAssignment.probs`` is
a view built only when read).  ``Fraction`` values appear only at the
boundary: one per step size and the lottery weights.  Recomposition, on
integer shares of the weights' common denominator, reproduces the input
bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

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
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The assignment's :attr:`~ProbabilisticAssignment.bordered` numerators
    and denominator ``D``.  A matrix with no rows borders to its corner
    alone, so an agentless market gets its all-zero border row here."""
    if not assignment.n_agents:
        return ((0,) * (instance.n_objects + 1),), 1
    return assignment.bordered


def _border_quotas(instance: Instance, corner: int) -> list[int]:
    """Quotas of border row ``n``: each object's capacity, then the corner's
    ``ceil(mu) - floor(mu)``, 1 exactly when the corner (the slack) is not
    zero."""
    return [*instance.capacities, int(corner != 0)]


def _ceiling(bordered: tuple[tuple[int, ...], ...], d: int) -> int:
    """``ceil(mu)``: the border column, row sums and slack corner, sums to
    ``ceil(mu) D``."""
    return sum(row[-1] for row in bordered) // d


def _bordered_matching(
    instance: Instance, matching: Matching, ceiling: int
) -> list[list[int]]:
    """A matching's 0/1 matrix, bordered by its sums as in :func:`_bordered`,
    with ``ceiling - |M|`` in the corner."""
    o = instance.n_objects
    bordered = [[0] * (o + 1) for _ in matching.assignment]
    for row, j in zip(bordered, matching.assignment):
        if j is not None:
            row[j] = row[o] = 1
    bordered.append(matching.object_loads(o) + [ceiling - matching.cardinality()])
    return bordered


def _fractionality_adjacency(
    bordered: list[list[int]], d: int
) -> dict[int, list[int]]:
    """Adjacency lists of the fractionality graph, neighbours sorted.

    One edge per fractional bordered cell (numerator not a multiple of
    ``d``), joining its row's vertex to its column's.  Rows are the agents
    ``0..n-1`` and then the column-sum hub ``T = n+o+1`` (border row ``n``,
    on the agent side); columns are the objects ``n..n+o-1`` and then the
    row-sum hub ``S = n+o`` (border column ``o``, on the object side).
    """
    n, o = len(bordered) - 1, len(bordered[-1]) - 1
    adj: dict[int, list[int]] = {}
    for r, row in enumerate(bordered):
        u = r if r < n else n + o + 1
        for c, value in enumerate(row):
            if value % d:
                adj.setdefault(u, []).append(n + c)
                adj.setdefault(n + c, []).append(u)
    # Row-major order appends every vertex's neighbours in increasing order.
    _check_degrees(adj, list(adj))
    return adj


def _check_degrees(adj: dict[int, list[int]], vertices: Iterable[int]) -> None:
    """Drop the given vertices that have no edge left; raise on degree one."""
    for u in vertices:
        if len(adj[u]) == 1:
            raise FractionalityDegreeError(
                f"fractionality graph vertex {u} has degree one"
            )
        if not adj[u]:
            del adj[u]


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
    bordered: list[list[int]], d: int, quotas: list[int], cycle: list[int]
) -> list[tuple[int, int]]:
    """Shift the largest feasible amount around the cycle, in place, and
    return the cycle's edges whose cells it made integral.

    Edges walked from the agent side gain, the others lose.  An edge at a
    hub stands for the slack of a row or column sum, and its border cell
    holds the sum itself, so a border cell moves against its edge; the
    corner, the slack of the total, lies on both borders and moves with it.
    Every value is a numerator over ``d`` and every quota an integer, so the
    amount, ``quota d - N`` or ``N`` at the binding cell, is an integer.
    """
    n, o = len(bordered) - 1, len(quotas) - 1
    moves: list[tuple[int, int, int, int, bool]] = []  # (u, v, row, column, gains)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        forward = not n <= u <= n + o  # u is an agent or T, v an object or S
        # The agent-side end gives the row (T: row n), the other the column.
        r, c = (min(u, n), v - n) if forward else (min(v, n), u - n)
        moves.append((u, v, r, c, forward != (r == n or c == o)))

    alpha = min(
        (1 if r < n else quotas[c]) * d - bordered[r][c] if gains else bordered[r][c]
        for _, _, r, c, gains in moves
    )
    if alpha <= 0:
        raise FractionalityDegreeError("cycle push has no feasible step")
    integral = []
    for u, v, r, c, gains in moves:
        bordered[r][c] += alpha if gains else -alpha
        if not bordered[r][c] % d:
            integral.append((u, v))
    return integral


def budish_extract(instance: Instance, assignment: ProbabilisticAssignment) -> Matching:
    """Round an assignment to a matching of ``floor(mu)`` or ``ceil(mu)`` agents.

    The result agrees with the input on every quota set whose value is
    already integer, so it assigns exactly ``mu`` agents when ``mu`` is an
    integer.  Works by repeatedly cancelling a cycle of fractional entries;
    every push makes at least one more quota set integer, so at most
    ``|H| + 1`` pushes happen (the total is the extra quota set).  The graph
    is built once; a push drops the edges of the cells it made integral.
    """
    original, d = _bordered(instance, assignment)
    bordered = [list(row) for row in original]  # pushed in place
    quotas = _border_quotas(instance, original[-1][-1])
    adj = _fractionality_adjacency(bordered, d)
    while adj:
        integral = _push_cycle(bordered, d, quotas, _find_cycle(adj))
        if not integral:
            raise FractionalityDegreeError("integrality count failed to increase")
        for u, v in integral:
            adj[u].remove(v)
            adj[v].remove(u)
        _check_degrees(adj, {w for edge in integral for w in edge})

    n, o = instance.n_agents, instance.n_objects
    result: list[int | None] = [None] * n
    for i in range(n):
        for j in range(o):
            if bordered[i][j] == d:
                if result[i] is not None:
                    raise FractionalityDegreeError("agent rounded to two objects")
                result[i] = j
    matching = Matching(tuple(result))
    _check_extraction(instance, original, d, matching)
    return matching


def _check_extraction(
    instance: Instance,
    original: tuple[tuple[int, ...], ...],
    d: int,
    matching: Matching,
) -> None:
    """Verify the border row's quotas, so the capacities and the bounds
    ``floor(mu) <= |M| <= ceil(mu)``, and every integral quota set of the
    bordered numerators ``original`` over ``d``."""
    rounded = _bordered_matching(instance, matching, _ceiling(original, d))
    quotas = _border_quotas(instance, original[-1][-1])
    if not all(0 <= m <= quota for m, quota in zip(rounded[-1], quotas)):
        raise FractionalityDegreeError(
            "extracted matching violates a capacity or the cardinality bounds"
        )
    for row, matched in zip(original, rounded):
        for value, m in zip(row, matched):
            if not value % d and value != m * d:
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
    ``|M| != mu`` it is 0.  Each bound is a ratio of numerators over ``D``;
    the ratios are compared cross-multiplied.
    """
    n = instance.n_agents
    bordered, d = _bordered(instance, assignment)
    quotas = _border_quotas(instance, bordered[-1][-1])
    rounded = _bordered_matching(instance, matching, _ceiling(bordered, d))
    best_num, best_den = 0, 0  # no bound yet
    for r, (row, matched) in enumerate(zip(bordered, rounded)):
        for c, (x, m) in enumerate(zip(row, matched)):
            step = x - m * d
            if step > 0:
                num, den = (1 if r < n else quotas[c]) * d - x, step
            elif step < 0:
                num, den = x, -step
            else:
                continue
            if not best_den or num * best_den < best_num * den:
                best_num, best_den = num, den
    if not best_den:
        raise ValueError("assignment equals the matching; no step direction")
    return Fraction(best_num, best_den)


def _step(
    assignment: ProbabilisticAssignment, matching: Matching, lam: Fraction
) -> ProbabilisticAssignment:
    """``X + lam (X - M)`` in numerators: with ``lam = p/q`` and ``X = N/D``,
    it is ``((p+q) N - p D M) / (q D)``, reduced and bordered in integers;
    no ``Fraction`` cell is built."""
    numerators, d = assignment.bordered
    p, q = lam.numerator, lam.denominator
    grow, drop = p + q, p * d
    cells = [[grow * x for x in row[:-1]] for row in numerators[:-1]]
    for row, j in zip(cells, matching.assignment):
        if j is not None:
            row[j] -= drop
    return ProbabilisticAssignment.from_numerators(cells, q * d)


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
    tau = _integral_sets(structure, current)
    for _ in range(structure.size + 2):
        extracted = budish_extract(instance, current)
        if tau == structure.size + 1:
            steps.append((Fraction(0), extracted))
            break
        lam = lambda_max(instance, current, extracted)
        steps.append((lam, extracted))
        current = _step(current, extracted, lam)
        new_tau = _integral_sets(structure, current)
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


def _integral_sets(
    structure: ConstraintStructure, assignment: ProbabilisticAssignment
) -> int:
    """Integral quota sets, the total (the bordered corner) included."""
    return structure.tau(assignment) + (assignment.bordered[0][-1][-1] == 0)


def _check_decomposition(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    decomposition: Decomposition,
) -> None:
    """Verify that the weights sum to one, that every matching assigns
    ``floor(mu)`` or ``ceil(mu)`` agents and that the lottery recomposes to
    the input exactly (:func:`recompose`, on integers)."""
    bordered, d = _bordered(instance, assignment)
    hi = _ceiling(bordered, d)
    lo = hi - (bordered[-1][-1] != 0)
    for _, matching in decomposition.terms:
        if not lo <= matching.cardinality() <= hi:
            raise FractionalityDegreeError("matching cardinality out of range")
    try:
        rebuilt = recompose(instance, decomposition)
    except ValueError as err:
        raise FractionalityDegreeError(str(err)) from None
    if rebuilt != assignment:
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
