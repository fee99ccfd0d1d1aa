"""Column generation for decompositions over efficient matchings.

The column pool is one ``(columns, n_agents)`` ``int32`` array of distinct
serial-dictatorship outcome rows (-1 for an unassigned agent), to which
pricing appends.  Masters build their LP arrays straight from the active
rows; a ``Matching`` is built only for a lottery term, or for a column whose
margin is needed.

One driver, ``generate_columns``, runs every search at a fixed bound.  It
takes a master (``solve_rmp`` or ``solve_alpha_master``: active rows in, one
``MasterRound`` out), a vectorised eligibility rule over pool positions, and
a pricing block: the cardinality floor, or the margin block for margin
searches.  It activates pool columns by reduced cost, prices only when the
pool has none left, and decides whether a negative verdict is proven.

The deviation master minimises the largest cell-wise overshoot ``s`` of the
lottery above the target assignment, over matchings of cardinality at least
``k`` (or of margin at most ``omega``); a zero optimum certifies that the
assignment decomposes over that class.  The coverage master decomposes the
assignment exactly over matchings inside its support and maximises the
weight ``alpha`` on matchings of cardinality at least ``k``; ``alpha = 1``
is the same certificate.  A binary search on ``k`` yields the maximin value
``z``; ``popularity.binary_search_margin`` bisects ``omega`` the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    BudgetExhaustedError,
    Decomposition,
    Instance,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    is_pareto_efficient,
    mu,
)
from .lp import EQ, GE, LE, DenseProgram, backend_solve_mip, solve_lp
from .mechanisms import DEFAULT_SAMPLE_SIZE, sample_sd_matchings
from .pe_program import build_matching_program

TOLERANCE = 1e-4  # the one precision of every certificate and pricing verdict
_WEIGHT_FLOOR = 1e-9
_ARTIFICIAL_PENALTY = 1e4
_ACTIVATION_BATCH = 200
_INITIAL_ACTIVE = 400
_MAX_ROUNDS_PER_K = 400


class PricingInconsistencyError(MatchlotError):
    """The pricing problem returned a column the master already holds."""


class ColumnPool:
    """Distinct feasible, Pareto-efficient matchings as integer outcome rows.

    Each row of ``rows`` is one column: an object index per agent, -1 for an
    unassigned agent.  The reduced costs of every column come from one
    vectorised scan, and a ``Matching`` is built only for a lottery term or
    a column whose margin is needed.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self.cardinalities = (rows >= 0).sum(axis=1)
        self._matchings: dict[int, Matching] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def matching(self, t: int) -> Matching:
        if t not in self._matchings:
            self._matchings[t] = Matching(
                tuple(None if j < 0 else j for j in self.rows[t].tolist())
            )
        return self._matchings[t]

    def position(self, matching: Matching) -> int | None:
        hits = np.flatnonzero((self.rows == _row(matching)).all(axis=1))
        return int(hits[0]) if hits.size else None

    def add(self, matching: Matching) -> int:
        """The matching's position, appending it if the pool lacks it."""
        t = self.position(matching)
        if t is None:
            t = len(self.rows)
            self.rows = np.vstack([self.rows, _row(matching)])
            self.cardinalities = np.append(self.cardinalities, matching.cardinality())
            self._matchings[t] = matching
        return t

    def cell_sums(self, cell_values: np.ndarray) -> np.ndarray:
        """Per-column sum of the ``(agent, object)`` matrix over the column's cells.

        Agents are added one at a time, in order, so each sum is the
        left-to-right one and ties between reduced costs repeat; the
        unassigned index -1 reads a padded zero column.
        """
        padded = np.zeros((cell_values.shape[0], cell_values.shape[1] + 1))
        padded[:, :-1] = cell_values
        sums = np.zeros(len(self.rows))
        for i, objects in enumerate(self.rows.T):
            sums += padded[i, objects]
        return sums


def _row(matching: Matching) -> np.ndarray:
    return np.array(
        [-1 if j is None else j for j in matching.assignment], dtype=np.int32
    )


def initial_columns(
    instance: Instance,
    samples: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> ColumnPool:
    """Seed a column pool with every sampled serial-dictatorship matching."""
    return ColumnPool(sample_sd_matchings(instance, samples, seed))


@dataclass
class MasterRound:
    """One master solve over the active pool rows, with duals in deviation form.

    A column ``m`` has reduced cost ``-sum_m prices - w``, plus
    ``floor_dual`` if it assigns at least ``k`` agents; ``floor_dual`` is
    None for masters that hold only such columns.  ``weights`` has one entry
    per active row.  A ``degenerate`` round is an optimum at ``s = 0`` that
    needs the super-column.
    """

    prices: np.ndarray
    w: float
    objective: float
    weights: list[float]  # per active row; read once certified
    certified: bool
    degenerate: bool = False
    floor_dual: float | None = None


def _incidence(rows: np.ndarray, n_objects: int) -> np.ndarray:
    """``(cells, rows)`` 0/1 matrix: cell ``(i, j)`` (row-major) of each row."""
    n = rows.shape[1]
    hits = rows.T[:, None, :] == np.arange(n_objects)[None, :, None]
    return hits.reshape(n * n_objects, len(rows)).astype(float)


def _support_mask(assignment: ProbabilisticAssignment) -> np.ndarray:
    """``(n_agents, n_objects + 1)`` mask of the target's support.

    Column ``n_objects`` stands for "unassigned" (row index -1), which is
    always inside.
    """
    n, o = assignment.n_agents, assignment.n_objects
    inside = np.ones((n, o + 1), dtype=bool)
    inside[:, :o] = assignment.flat_cells[1].reshape(n, o)
    return inside


def _inside(mask: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Which rows assign every agent inside the padded support mask."""
    return mask[np.arange(mask.shape[0]), rows].all(axis=1)


def solve_rmp(
    assignment: ProbabilisticAssignment, rows: np.ndarray, k: int
) -> MasterRound:
    """Deviation master over the active pool rows plus the all-ones super-column.

    Minimises ``s`` subject to: the lottery covers the target probability in
    every cell, overshoots by at most ``s`` anywhere, and weights form a
    convex combination.  Cover rows for zero cells and overshoot rows for
    probability-one cells are redundant and omitted.  The round certifies at
    ``s <= TOLERANCE``.  An optimum that parks weight on the super-column
    (possible only when the target has no zero cell) is re-solved without
    it, and certifies only if that still reaches ``s <= TOLERANCE``;
    otherwise the round is marked degenerate.
    """
    short = np.flatnonzero((rows >= 0).sum(axis=1) < k)
    if short.size:
        raise ValueError(f"column {short[0]} has cardinality below {k}")
    solution, super_weight = _deviation_lp(assignment, rows, with_super=True)
    if not solution.certified or super_weight <= TOLERANCE:
        return solution
    try:
        clean, _ = _deviation_lp(assignment, rows, with_super=False)
    except MatchlotError:
        clean = None
    if clean is None or not clean.certified:
        solution.certified = False
        solution.degenerate = True
        return solution
    return clean


def _deviation_lp(
    assignment: ProbabilisticAssignment, rows: np.ndarray, *, with_super: bool
) -> tuple[MasterRound, float]:
    """Solve the deviation LP; returns the round and the super-column weight.

    Without the super-column the LP may be infeasible (raised as an error).
    """
    n, o = assignment.n_agents, assignment.n_objects
    target, cover, over = assignment.flat_cells
    uses = _incidence(rows, o)
    n_cover, n_over = int(cover.sum()), int(over.sum())
    # Columns s, lam_super (if any), then one per row; rows: cover rows,
    # overshoot rows, then convexity.
    first = 2 if with_super else 1
    A = np.zeros((n_cover + n_over + 1, first + len(rows)))
    A[:n_cover, first:] = uses[cover]
    A[n_cover:-1, first:] = uses[over]
    A[n_cover:-1, 0] = -1.0
    A[-1, first:] = 1.0
    if with_super:
        A[:, 1] = 1.0
    senses = np.repeat(np.array([GE, LE, EQ], dtype=np.int8), [n_cover, n_over, 1])
    b = np.concatenate([target[cover], target[over], [1.0]])
    c = np.zeros(A.shape[1])
    c[0] = 1.0
    bounds = np.zeros(A.shape[1]), np.full(A.shape[1], np.inf)
    result = solve_lp(DenseProgram(c, A, senses, b, *bounds))
    if result.status != "optimal":
        raise MatchlotError(f"deviation master ended with status {result.status!r}")
    prices = np.zeros(n * o)
    prices[cover] += result.duals[:n_cover]
    prices[over] += result.duals[n_cover:-1]
    solution = MasterRound(
        prices.reshape(n, o),
        float(result.duals[-1]),
        result.objective,
        result.primal[first:].tolist(),
        certified=result.objective <= TOLERANCE,
    )
    return solution, float(result.primal[1]) if with_super else 0.0


@dataclass
class PricingOutcome:
    matching: Matching | None
    reduced_cost: float
    proven: bool


def price_pe_matching(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    prices: np.ndarray,
    w: float,
    k: int,
    *,
    time_limit: float | None = None,
    margin_limit: int | None = None,
) -> PricingOutcome:
    """Search for an efficient matching with negative reduced cost.

    Minimises ``-sum_m prices - w`` over feasible, efficient matchings that
    assign at least ``k`` agents, with cells outside the target assignment's
    support excluded and probability-one cells pinned.  With
    ``margin_limit`` the matching's unpopularity margin is bounded as well.
    The MIP is solved to optimality, so a column comes back exactly when the
    optimum lies strictly below ``-TOLERANCE``; when none does, that proves
    master optimality over the full class.
    """
    support = assignment.support()
    forced = {(i, j) for (i, j) in support if assignment.probs[i][j] == 1}
    price_rows = prices.tolist()
    cost = {(i, j): -price_rows[i][j] for (i, j) in support}
    built = build_matching_program(
        instance,
        objective=cost,
        sense="min",
        min_cardinality=k if k > 0 else None,
        support=support,
        forced=forced,
        margin_limit=margin_limit,
    )
    result = backend_solve_mip(built.program, time_limit=time_limit)
    if result.status == "infeasible":
        return PricingOutcome(None, 0.0, proven=True)
    if result.status == "unknown":
        return PricingOutcome(None, 0.0, proven=False)
    value = result.objective - w
    if value < -TOLERANCE:
        matching = built.decode(result)
        if not is_pareto_efficient(instance, matching):
            raise MatchlotError("pricing produced a non-efficient matching")
        return PricingOutcome(matching, value, proven=True)
    return PricingOutcome(None, value, proven=True)


@dataclass
class KTrace:
    k: int
    objective: float
    iterations: int
    columns_added: int
    feasible: bool
    seconds: float


@dataclass
class MdsdResult:
    """Outcome of the maximin search over efficient decompositions."""

    status: str  # optimal | budget-exhausted | not-decomposable
    z: int | None
    decomposition: Decomposition | None
    trace: list[KTrace]
    floor_mu: int
    lower_bound: int | None  # None when the time limit cut the p- search
    framework: str
    best_deviation: float | None = None


def _remaining(deadline: float | None) -> float | None:
    """Seconds left before the deadline, for a solver's ``time_limit``."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


def _exact_weights(raw: list[tuple[float, Matching]]) -> Decomposition:
    total = sum(Fraction(w) for w, _ in raw)
    terms = tuple((Fraction(w) / total, m) for w, m in raw)
    return Decomposition(terms)


def generate_columns(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    pool: ColumnPool,
    k: int,
    *,
    master: Callable[[ProbabilisticAssignment, np.ndarray, int], MasterRound],
    admits: Callable[[np.ndarray], np.ndarray],
    margin_limit: int | None = None,
    deadline: float | None = None,
) -> tuple[KTrace, Decomposition | None, bool]:
    """The column-generation loop behind every search.

    ``master`` solves the master over the active pool rows at floor ``k``
    (``solve_rmp`` or ``solve_alpha_master``).  ``admits`` maps an array of
    pool positions to the mask of those the master may use, and every
    priced column must pass it too.  Columns are first pulled from the pool
    by reduced cost; pricing runs only when the pool has nothing negative
    left, with the cardinality floor ``k`` and, if given, the margin bound.
    A run stops after ``_MAX_ROUNDS_PER_K`` master rounds, or at the first
    round past ``deadline`` (a ``time.monotonic()`` instant), which also
    bounds every pricing MIP.  Returns the trace (whose ``objective`` is the
    final master objective), the lottery once the master certifies, and
    whether the verdict is proven: a run cut by the round cap or the
    deadline, or left on a degenerate optimum, never reports a proven
    failure.
    """
    start = time.monotonic()
    waiting = admits(np.arange(len(pool)))  # eligible and not yet active
    active = np.flatnonzero(waiting)[:_INITIAL_ACTIVE].tolist()
    waiting[active] = False
    iterations = 0
    proven = certified = degenerate = False
    last: MasterRound | None = None

    while iterations < _MAX_ROUNDS_PER_K:
        iterations += 1
        last = master(assignment, pool.rows[active], k)
        if last.certified:
            proven = certified = True
            break
        degenerate = degenerate or last.degenerate
        if deadline is not None and time.monotonic() > deadline:
            break
        # Tier one: reactivate pool columns with negative reduced cost.
        rc = -pool.cell_sums(last.prices) - last.w
        if last.floor_dual is not None:
            rc += np.where(pool.cardinalities >= k, last.floor_dual, 0.0)
        candidates = np.flatnonzero(waiting & (rc < -TOLERANCE))
        order = np.argsort(rc[candidates], kind="stable")
        fresh = candidates[order[:_ACTIVATION_BATCH]].tolist()
        if not fresh:
            # Tier two: exact pricing over all efficient matchings, on both
            # sides of the floor when the floor carries a dual.
            problems = [(k, last.w)]
            if last.floor_dual is not None:
                problems = [(0, last.w), (k, last.w - last.floor_dual)]
            outcomes = [
                price_pe_matching(
                    instance,
                    assignment,
                    last.prices,
                    w,
                    floor,
                    time_limit=_remaining(deadline),
                    margin_limit=margin_limit,
                )
                for floor, w in problems
            ]
            matchings = [o.matching for o in outcomes if o.matching is not None]
            if not matchings:
                proven = all(o.proven for o in outcomes)
                break
            for matching in dict.fromkeys(matchings):
                t = pool.add(matching)
                if t in active:
                    raise PricingInconsistencyError(
                        "pricing returned an active column; dual values are inconsistent"
                    )
                if not admits(np.array([t]))[0]:
                    raise MatchlotError("pricing returned a column outside the eligible class")
                fresh.append(t)
            waiting = np.pad(waiting, (0, len(pool) - len(waiting)))
        active.extend(fresh)
        waiting[fresh] = False

    assert last is not None
    if degenerate and not certified:
        # Could not separate a clean decomposition from the degenerate
        # optimum; never report this as a proven infeasibility.
        proven = False
    decomposition = None
    if certified:
        decomposition = _exact_weights(
            [
                (weight, pool.matching(t))
                for t, weight in zip(active, last.weights)
                if weight > _WEIGHT_FLOOR
            ]
        )
    trace = KTrace(
        k=k,
        objective=last.objective,
        iterations=iterations,
        columns_added=len(active),
        feasible=certified,
        seconds=time.monotonic() - start,
    )
    return trace, decomposition, proven


def solve_alpha_master(
    assignment: ProbabilisticAssignment, rows: np.ndarray, k: int
) -> MasterRound:
    """Coverage master: exact decomposition maximising weight on large matchings.

    Cells are matched exactly; penalised slack pairs keep the master
    feasible while the pool is still too poor to decompose the target, and
    their remaining mass at convergence certifies non-decomposability.  The
    round certifies at ``alpha >= 1 - TOLERANCE`` with slack mass at most
    ``TOLERANCE``, and its lottery keeps only rows of cardinality at least
    ``k``.  A column's coverage reduced cost ``sum_m u + w`` (plus the
    ``kcov`` dual when it assigns ``k`` agents) is the deviation form under
    prices ``-u`` and convexity dual ``-w``, with the ``kcov`` dual as the
    floor dual.  Every row must lie inside the target's support.
    """
    if not _inside(_support_mask(assignment), rows).all():
        raise ValueError("column assigns outside the target support")
    n, o = assignment.n_agents, assignment.n_objects
    target, positive, _ = assignment.flat_cells
    n_rows, n_eq = len(rows), int(positive.sum())
    large = (rows >= 0).sum(axis=1) >= k
    # Columns alpha, one per row, a (+, -) artificial pair per support cell,
    # then the convexity pair; rows: one per support cell, kcov, conv.
    art = 1 + n_rows + 2 * np.arange(n_eq)
    A = np.zeros((n_eq + 2, 1 + n_rows + 2 * n_eq + 2))
    A[:n_eq, 1:n_rows + 1] = _incidence(rows, o)[positive]
    A[np.arange(n_eq), art] = 1.0
    A[np.arange(n_eq), art + 1] = -1.0
    A[n_eq, 0] = -1.0
    A[n_eq, 1:n_rows + 1] = large
    A[n_eq + 1, 1:n_rows + 1] = 1.0
    A[n_eq + 1, -2:] = (1.0, -1.0)
    senses = np.zeros(n_eq + 2, dtype=np.int8)
    senses[n_eq] = GE
    b = np.concatenate([target[positive], [0.0, 1.0]])
    c = np.zeros(A.shape[1])
    c[0] = 1.0
    c[n_rows + 1:] = -_ARTIFICIAL_PENALTY
    bounds = np.zeros(A.shape[1]), np.full(A.shape[1], np.inf)
    result = solve_lp(DenseProgram(c, A, senses, b, *bounds, sense="max"))
    if result.status != "optimal":
        raise MatchlotError(f"coverage master ended with status {result.status!r}")
    x, y = result.primal, result.duals
    art_mass = sum(value for value in x[n_rows + 1:].tolist() if value > 0)
    alpha = float(x[0])
    prices = np.zeros(n * o)
    prices[positive] -= y[:n_eq]
    return MasterRound(
        prices.reshape(n, o),
        -float(y[n_eq + 1]),
        alpha,
        np.where(large, x[1:n_rows + 1], 0.0).tolist(),
        certified=alpha >= 1.0 - TOLERANCE and art_mass <= TOLERANCE,
        floor_dual=float(y[n_eq]),
    )


def binary_search_z(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    framework: str = "rmp",
    *,
    samples: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    time_limit: float | None = None,
    known_decomposable: bool = False,
) -> MdsdResult:
    """Maximin cardinality over efficient decompositions, by binary search.

    Tests the ceiling ``floor(mu)`` first; on failure bisects downwards.
    When the caller knows the assignment decomposes over efficient
    matchings (any average of serial-dictatorship outcomes does), the
    search floor is the minimum efficient cardinality ``p-``; otherwise it
    is zero and exhausting the range yields the not-decomposable verdict.
    ``time_limit`` seconds bound the whole search, the ``p-`` search and
    every pricing MIP included; if they cut ``p-``, the search stops there
    with ``budget-exhausted``.
    """
    if framework not in ("rmp", "alpha"):
        raise ValueError("framework must be 'rmp' or 'alpha'")
    deadline = None if time_limit is None else time.monotonic() + time_limit
    total = mu(assignment)
    floor_mu = total.numerator // total.denominator

    bank = initial_columns(instance, samples, seed)

    lower = 0
    if known_decomposable:
        from .pe_program import extreme_pe_cardinality

        # Every pool row is an SD outcome, so the smallest is a valid incumbent.
        incumbent = bank.matching(int(bank.cardinalities.argmin()))
        try:
            lower = extreme_pe_cardinality(
                instance, "min", incumbent=incumbent, time_limit=_remaining(deadline)
            )
        except BudgetExhaustedError:
            return MdsdResult(
                status="budget-exhausted",
                z=None,
                decomposition=None,
                trace=[],
                floor_mu=floor_mu,
                lower_bound=None,
                framework=framework,
            )

    trace: list[KTrace] = []
    best: tuple[int, Decomposition] | None = None
    best_deviation: float | None = None
    all_proven = True
    if framework == "alpha":
        inside = _support_mask(assignment)

    def attempt(k: int) -> bool:
        nonlocal best, best_deviation, all_proven
        if framework == "rmp":
            master, admits = solve_rmp, lambda t: bank.cardinalities[t] >= k
        else:
            master, admits = solve_alpha_master, lambda t: _inside(inside, bank.rows[t])
        ktrace, decomposition, proven = generate_columns(
            instance, assignment, bank, k,
            master=master, admits=admits, deadline=deadline,
        )
        feasible = decomposition is not None
        if not feasible:
            gap = ktrace.objective if framework == "rmp" else 1.0 - ktrace.objective
            best_deviation = gap if best_deviation is None else min(best_deviation, gap)
        trace.append(ktrace)
        all_proven = all_proven and proven
        if feasible and (best is None or k > best[0]):
            best = (k, decomposition)
        return feasible

    # A feasible ceiling is proven optimal; otherwise bisect below it.
    out_of_time = False
    if not attempt(floor_mu):
        lo, hi = lower, floor_mu - 1
        while lo <= hi:
            if deadline is not None and time.monotonic() > deadline:
                out_of_time = True
                break
            mid = (lo + hi + 1) // 2
            if attempt(mid):
                lo = mid + 1
            else:
                hi = mid - 1

    conclusive = all_proven and not out_of_time
    if best is not None:
        status = "optimal" if conclusive else "budget-exhausted"
    else:
        status = "not-decomposable" if conclusive else "budget-exhausted"
    return MdsdResult(
        status=status,
        z=best[0] if best else None,
        decomposition=best[1] if best else None,
        trace=trace,
        floor_mu=floor_mu,
        lower_bound=lower,
        framework=framework,
        best_deviation=None if best else best_deviation,
    )
