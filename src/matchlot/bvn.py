"""Maximin decomposition of a probabilistic assignment.

Implements the polynomial-time scheme that writes any feasible assignment
as a lottery over matchings each assigning ``floor(mu)`` or ``ceil(mu)``
agents: repeatedly extract a matching that preserves every
integer-valued quota set (cell, row or column), push as far as possible in
the direction away from that matching, and convert the step sizes into
lottery weights at the end.

Extraction, its check and the step size read the assignment bordered by
its sums, an ``(n+1) x (o+1)`` matrix whose column ``o`` holds the agents'
row sums and whose row ``n`` holds the objects' column sums, so that every
quota set is one cell.  In the fractionality graph the row-sum hub ``S``
is that border column and the column-sum hub ``T`` that border row.

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
    recompose,
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


def _bordered(
    instance: Instance, assignment: ProbabilisticAssignment
) -> list[list[Fraction]]:
    """The assignment bordered by its row sums (column ``o``) and column
    sums (row ``n``), with 0 in the corner.  Each bordered cell is a quota
    set of quota 1, or of its object's capacity in row ``n``."""
    # A matrix with no rows has no columns to sum.
    col_sums = assignment.col_sums or (Fraction(0),) * instance.n_objects
    bordered = [[*row, s] for row, s in zip(assignment.probs, assignment.row_sums)]
    bordered.append([*col_sums, Fraction(0)])
    return bordered


def _bordered_matching(instance: Instance, matching: Matching) -> list[list[int]]:
    """A matching's 0/1 matrix, bordered by its sums as in :func:`_bordered`."""
    o = instance.n_objects
    bordered = [[0] * (o + 1) for _ in matching.assignment]
    for row, j in zip(bordered, matching.assignment):
        if j is not None:
            row[j] = row[o] = 1
    bordered.append(matching.object_loads(o) + [0])
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
    instance: Instance, bordered: list[list[Fraction]], cycle: list[int]
) -> None:
    """Shift the largest feasible amount around the cycle, in place.

    Edges walked from the agent side gain, the others lose.  An edge at a
    hub stands for the slack of a row or column sum, and its border cell
    holds the sum itself, so a border cell moves against its edge.
    """
    n, o = instance.n_agents, instance.n_objects
    moves: list[tuple[int, int, bool]] = []  # (row, column, gains)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        forward = not n <= u <= n + o  # u is an agent or T, v an object or S
        # The agent-side end gives the row (T: row n), the other the column.
        r, c = (min(u, n), v - n) if forward else (min(v, n), u - n)
        moves.append((r, c, forward != (r == n or c == o)))

    alpha = min(
        (1 if r < n else instance.capacities[c]) - bordered[r][c]
        if gains
        else bordered[r][c]
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
    """Round an assignment with integer expected cardinality to a matching.

    The result assigns exactly ``mu`` agents and agrees with the input on
    every quota set whose value is already integer.  Works by repeatedly
    cancelling a cycle of fractional entries; every push makes at least one
    more quota set integer, so at most ``|H|`` pushes happen.
    """
    total = mu(assignment)
    if total.denominator != 1:
        raise ValueError("expected an assignment with integer expected cardinality")
    bordered = _bordered(instance, assignment)
    n, o = instance.n_agents, instance.n_objects

    guard = n * o + n + o + 1  # one more than the number of quota sets
    edges: int | None = None
    while True:
        adj = _fractionality_adjacency(bordered)
        if not adj:
            break
        # One edge per fractional quota set, listed at both ends: the count
        # is 2 (size - tau), so every push must lower it.
        count = sum(len(v) for v in adj.values())
        if edges is not None and count >= edges:
            raise FractionalityDegreeError("integrality count failed to increase")
        edges = count
        _push_cycle(instance, bordered, _find_cycle(adj))
        guard -= 1
        if guard <= 0:
            raise FractionalityDegreeError("extraction exceeded its iteration bound")

    result: list[int | None] = [None] * n
    for i in range(n):
        for j in range(o):
            if bordered[i][j] == 1:
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
    """Verify cardinality, capacities and every integral quota set."""
    if matching.cardinality() != total:
        raise FractionalityDegreeError(
            f"extracted matching assigns {matching.cardinality()}, expected {total}"
        )
    rounded = _bordered_matching(instance, matching)
    if any(load > cap for load, cap in zip(rounded[-1], instance.capacities)):
        raise FractionalityDegreeError("extracted matching violates a capacity")
    for row, matched in zip(_bordered(instance, original), rounded):
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
    column), for the first to become binding in the direction away from
    the matching.
    """
    n = instance.n_agents
    rounded = _bordered_matching(instance, matching)
    best: Fraction | None = None
    for r, (row, matched) in enumerate(zip(_bordered(instance, assignment), rounded)):
        for c, (x, m) in enumerate(zip(row, matched)):
            d = x - m if m else x  # x - 0 would build a new Fraction
            if d > 0:
                bound = ((1 if r < n else instance.capacities[c]) - x) / d
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
        if tau == structure.size:
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
    for lam, _ in steps[:-1]:
        weights.append(prefix * lam / (1 + lam))
        prefix /= 1 + lam
    weights.append(prefix)

    merged: dict[tuple[int | None, ...], Fraction] = {}  # in first-seen order
    n_real = instance.n_agents
    dummy_obj = instance.n_objects
    for weight, matching in zip(weights, (m for _, m in steps)):
        if weight == 0:
            continue
        kept = matching.assignment[:n_real] if dummy else matching.assignment
        if dummy and any(j == dummy_obj for j in kept):
            raise FractionalityDegreeError("dummy object leaked into a matching")
        merged[kept] = merged.get(kept, 0) + weight

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
