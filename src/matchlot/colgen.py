"""Column generation for decompositions over efficient matchings.

The column pool is one ``(columns, n_agents)`` ``int32`` array of distinct
serial-dictatorship outcome rows (-1 for an unassigned agent), to which
pricing appends.  Masters build their LP arrays straight from the active
rows; a ``Matching`` is built only for a lottery term or the ``p-``
incumbent.

One driver, ``generate_columns``, runs every search at a fixed bound.  It
takes a master (``solve_rmp`` or ``solve_alpha_master``: active rows in, one
``MasterRound`` out), a vectorised eligibility rule over pool positions, and
a pricing block: the cardinality floor, or the margin block for margin
searches.  It activates pool columns by reduced cost, prices only when the
pool has none left, and decides whether a negative verdict is proven.

Every search runs over one column class: the efficient matchings inside
the target's support.  A matching outside it can carry no weight in an
exact decomposition, so the driver admits only pool rows inside it, and
pricing searches only inside it; the pool, both masters and pricing then
see the same class, and the search's eligibility rule narrows it further.

The deviation master minimises the largest cell-wise overshoot ``s`` of the
lottery above the target assignment, over matchings of cardinality at least
``k`` (or of margin at most ``omega``); a zero optimum certifies that the
assignment decomposes over that class.  It writes each constraint once:
over rows inside the support it holds one cover row per positive cell, one
overshoot row per positive cell below one, the super-column's bound and
convexity, and no row for a zero cell.  The coverage master decomposes the
assignment exactly and maximises the weight ``alpha`` on matchings of
cardinality at least ``k``; ``alpha = 1`` is the same certificate.  While
its rows cannot decompose the assignment it is infeasible, and it prices on
the LP's Farkas ray instead of its duals.

One bound search, ``bound_search``, serves both worst-case measures: the
cardinality floor ``k``, where a larger bound is tighter
(``binary_search_z``, whose tightest bound is the maximin value ``z``), and
the margin bound ``omega``, where a smaller one is
(``popularity.binary_search_margin``).  It tries the top of the range
first, bisects the rest, and reads the tightest bound with a lottery and
the status from one attempt log.

A search solves each distinct deviation master once.  That LP reads only
the search's fixed target and the active rows, so two bounds whose rounds
hand it the same rows get the same round, and ``master_memo`` serves the
second the first's ``MasterRound`` and lottery; traces still count the
round.  The memo is a dict local to one ``bound_search`` call, keyed on
the rows' bytes: it dies when the search returns, and never outlives the
target it was built for.  The coverage master also reads ``k``, and a
search tries each ``k`` once, so its rounds never repeat and it runs
without a memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .bvn import md_upper_bound
from .core import (
    BudgetExhaustedError,
    Decomposition,
    Instance,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    is_feasible_assignment,
    is_pareto_efficient,
)
from .lp import EQ, GE, LE, DenseProgram, backend_solve_mip, solve_lp
from .mechanisms import DEFAULT_SAMPLE_SIZE, sample_sd_matchings
from .pe_program import build_matching_program

TOLERANCE = 1e-4  # the one precision of every certificate and pricing verdict
_WEIGHT_FLOOR = 1e-9
_ACTIVATION_BATCH = 200
_INITIAL_ACTIVE = 400


class PricingInconsistencyError(MatchlotError):
    """The pricing problem returned a column the master already holds."""


class ColumnPool:
    """Distinct feasible, Pareto-efficient matchings as integer outcome rows.

    Each row of ``rows`` is one column: an object index per agent, -1 for an
    unassigned agent.  The reduced costs of every column come from one
    vectorised scan, and a ``Matching`` is built from its row only for a
    lottery term or the ``p-`` incumbent.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self.cardinalities = (rows >= 0).sum(axis=1)

    def __len__(self) -> int:
        return len(self.rows)

    def matching(self, t: int) -> Matching:
        return Matching(tuple(None if j < 0 else j for j in self.rows[t].tolist()))

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
    per active row.  An infeasible coverage master fills the prices from
    its Farkas ray instead of duals, with ``objective = 0.0`` and zero
    weights: a column then prices in exactly when it can break the ray.
    """

    prices: np.ndarray
    w: float
    objective: float
    weights: list[float]  # per active row; read once certified
    certified: bool
    floor_dual: float | None = None
    # Built by ``generate_columns`` from a certified round's rows and
    # weights, once: a memoised round served again hands it back.
    lottery: Decomposition | None = None


# A master: the target, the active pool rows and the floor ``k`` in, one round out.
Master = Callable[[ProbabilisticAssignment, np.ndarray, int], MasterRound]


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
    every cell, overshoots by at most ``s`` anywhere, weights form a convex
    combination, and the super-column's weight is at most ``s``.  The
    super-column keeps the master feasible while the pool cannot cover the
    target.

    Each constraint is written once.  The super-column's bound
    ``lam_super - s <= 0`` is one row, always.  A cell gets a cover row when
    it is positive, and an overshoot row when it is below one and either
    positive or used by some row.  The overshoot row of any other zero cell
    would read ``lam_super - s <= 0``, the bound row itself, and a
    probability-one cell can never be overshot, so dropping them leaves the
    feasible set as it is.  The searches hand the master rows inside the
    target's support only, so there it writes no zero-cell row at all; a
    direct caller's row outside the support keeps its zero cells' rows.
    The round certifies at ``s <= TOLERANCE``.
    """
    short = np.flatnonzero((rows >= 0).sum(axis=1) < k)
    if short.size:
        raise ValueError(f"column {short[0]} has cardinality below {k}")
    n, o = assignment.n_agents, assignment.n_objects
    target, cover, below = assignment.flat_cells
    uses = _incidence(rows, o)
    over = below & (cover | uses.any(axis=1))
    n_cover, n_over = int(cover.sum()), int(over.sum())
    # Columns s, lam_super, then one per row; rows: cover rows, overshoot
    # rows, the super-column's bound, then convexity.
    A = np.zeros((n_cover + n_over + 2, 2 + len(rows)))
    A[:n_cover, 2:] = uses[cover]
    A[n_cover:n_cover + n_over, 2:] = uses[over]
    A[n_cover:-1, 0] = -1.0
    A[-1, 2:] = 1.0
    A[:, 1] = 1.0
    senses = np.repeat(np.array([GE, LE, EQ], dtype=np.int8), [n_cover, n_over + 1, 1])
    b = np.concatenate([target[cover], target[over], [0.0, 1.0]])
    c = np.zeros(A.shape[1])
    c[0] = 1.0
    bounds = np.zeros(A.shape[1]), np.full(A.shape[1], np.inf)
    result = solve_lp(DenseProgram(c, A, senses, b, *bounds))
    if result.status != "optimal":
        raise MatchlotError(f"deviation master ended with status {result.status!r}")
    prices = np.zeros(n * o)
    prices[cover] += result.duals[:n_cover]
    prices[over] += result.duals[n_cover:n_cover + n_over]
    return MasterRound(
        prices.reshape(n, o),
        float(result.duals[-1]),
        result.objective,
        result.primal[2:].tolist(),
        certified=result.objective <= TOLERANCE,
    )


@dataclass
class PricingOutcome:
    matching: Matching | None
    reduced_cost: float | None  # the column's; None when none is returned
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
    Branch-and-bound runs under the cutoff ``w - TOLERANCE`` on the price
    sum, so it prunes every node that cannot reach a reduced cost below
    ``-TOLERANCE``: a column comes back exactly when one exists, and it is
    the optimal column, found as without the cutoff.  A search that finds
    none proves master optimality over the full class.
    """
    support = assignment.support()
    numerators, d = assignment.bordered
    forced = {(i, j) for (i, j) in support if numerators[i][j] == d}
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
    result = backend_solve_mip(
        built.program, time_limit=time_limit, cutoff=w - TOLERANCE
    )
    # The cutoff already asks for a reduced cost below -TOLERANCE; the check
    # guards the rounding of ``objective - w`` against ``w - TOLERANCE``.
    if result.status == "optimal" and (value := result.objective - w) < -TOLERANCE:
        matching = built.decode(result)
        if not is_pareto_efficient(instance, matching):
            raise MatchlotError("pricing produced a non-efficient matching")
        return PricingOutcome(matching, value, proven=True)
    return PricingOutcome(None, None, proven=result.status != "unknown")


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
    # With no lottery found: the smallest, over the bounds tried, of the last
    # round's deviation (``"rmp"``) or ``1 - alpha`` (``"alpha"``).  A
    # coverage round that was infeasible reads alpha = 0, so ``1.0``.
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
    master: Master,
    admits: Callable[[np.ndarray], np.ndarray],
    margin_limit: int | None = None,
    deadline: float | None = None,
) -> tuple[KTrace, Decomposition | None, bool]:
    """The column-generation loop behind every search.

    ``master`` solves the master over the active pool rows at floor ``k``
    (``solve_rmp`` or ``solve_alpha_master``).  ``admits`` maps an array of
    pool positions to the mask of those the search may use; the master gets
    only those that also lie inside the target's support, and every priced
    column must pass both tests too.  Columns are first pulled from the pool
    by reduced cost; pricing runs only when the pool has nothing negative
    left, with the cardinality floor ``k`` and, if given, the margin bound.
    A run stops at the first round past ``deadline`` (a ``time.monotonic()``
    instant), which also bounds every pricing MIP.  It ends without one:
    each round that neither certifies nor stops activates a waiting pool
    position or appends a priced column (a priced column already active
    raises ``PricingInconsistencyError``), and the eligible efficient
    matchings are finitely many.  Returns the trace (whose ``objective`` is
    the final master objective), the lottery once the master certifies, and
    whether the verdict is proven: a run cut by the deadline never reports
    a proven failure.
    """
    start = time.monotonic()
    inside = _support_mask(assignment)
    eligible = lambda t: admits(t) & _inside(inside, pool.rows[t])
    waiting = eligible(np.arange(len(pool)))  # eligible and not yet active
    active = np.flatnonzero(waiting)[:_INITIAL_ACTIVE].tolist()
    waiting[active] = False
    iterations = 0
    proven = False
    while True:
        iterations += 1
        last = master(assignment, pool.rows[active], k)
        if last.certified:
            proven = True
            break
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
                if not eligible(np.array([t]))[0]:
                    raise MatchlotError("pricing returned a column outside the eligible class")
                fresh.append(t)
            waiting = np.pad(waiting, (0, len(pool) - len(waiting)))
        active.extend(fresh)
        waiting[fresh] = False

    if last.certified and last.lottery is None:
        last.lottery = _exact_weights(
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
        feasible=last.certified,
        seconds=time.monotonic() - start,
    )
    return trace, last.lottery, proven


def master_memo(master: Master) -> Master:
    """``master`` solved once per distinct set of active rows.

    For the deviation master of one search: its LP reads only the search's
    fixed target and the active rows, and its ``k`` only re-checks rows the
    eligibility rule already passed, so rows with the same bytes give the
    same round, and a repeat gets that very ``MasterRound`` object back.
    Build one memo per search call and let it die with the call: keyed on
    rows alone, it would serve one target's round for another.
    """
    rounds: dict[bytes, MasterRound] = {}

    def solve(assignment: ProbabilisticAssignment, rows: np.ndarray, k: int) -> MasterRound:
        key = rows.tobytes()
        if key not in rounds:
            rounds[key] = master(assignment, rows, k)
        return rounds[key]

    return solve


def solve_alpha_master(
    assignment: ProbabilisticAssignment, rows: np.ndarray, k: int
) -> MasterRound:
    """Coverage master: exact decomposition maximising weight on large matchings.

    Cells are matched exactly, so the master is infeasible while the pool is
    still too poor to decompose the target.  Such a round reads the Farkas
    ray of ``solve_lp`` in place of the duals: ``objective = 0.0``, zero
    weights, and prices under which some eligible column has a negative
    reduced cost unless none can ever make the master feasible.  The round
    certifies at ``alpha >= 1 - TOLERANCE``, and its lottery keeps only rows
    of cardinality at least ``k``.  A column's coverage reduced cost
    ``sum_m u + w`` (plus the ``kcov`` dual when it assigns ``k`` agents) is
    the deviation form under prices ``-u`` and convexity dual ``-w``, with
    the ``kcov`` dual as the floor dual; a ray maps the same way.  Every row
    must lie inside the target's support.

    ``alpha`` lies in ``[0, 1]``: on an exact decomposition ``alpha`` is at
    most ``sum lambda = 1``, so the bound cuts off no certificate, and with
    it the slack basis is dual feasible and ``solve_lp`` takes its dual
    start, as for every other program the package builds.
    """
    if not _inside(_support_mask(assignment), rows).all():
        raise ValueError("column assigns outside the target support")
    n, o = assignment.n_agents, assignment.n_objects
    target, positive, _ = assignment.flat_cells
    n_rows, n_eq = len(rows), int(positive.sum())
    large = (rows >= 0).sum(axis=1) >= k
    # Columns alpha, then one per row; rows: one per support cell, kcov, conv.
    A = np.zeros((n_eq + 2, 1 + n_rows))
    A[:n_eq, 1:] = _incidence(rows, o)[positive]
    A[n_eq, 0] = -1.0
    A[n_eq, 1:] = large
    A[n_eq + 1, 1:] = 1.0
    senses = np.zeros(n_eq + 2, dtype=np.int8)
    senses[n_eq] = GE
    b = np.concatenate([target[positive], [0.0, 1.0]])
    c = np.zeros(A.shape[1])
    c[0] = 1.0
    ub = np.full(A.shape[1], np.inf)
    ub[0] = 1.0
    result = solve_lp(DenseProgram(c, A, senses, b, np.zeros(A.shape[1]), ub, sense="max"))
    # alpha is the only cost and is bounded, so the LP is never unbounded.
    if result.status == "infeasible":
        alpha, x, y = 0.0, np.zeros(n_rows), result.farkas
    else:
        alpha, x, y = float(result.primal[0]), result.primal[1:], result.duals
    prices = np.zeros(n * o)
    prices[positive] -= y[:n_eq]
    return MasterRound(
        prices.reshape(n, o),
        -float(y[n_eq + 1]),
        alpha,
        np.where(large, x, 0.0).tolist(),
        certified=alpha >= 1.0 - TOLERANCE,
        floor_dual=float(y[n_eq]),
    )


# One bound tried: its trace, its lottery (None if none was found) and
# whether that verdict is proven.
Attempt = tuple[KTrace, Decomposition | None, bool]


def bound_search(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    pool: ColumnPool,
    lo: int,
    hi: int,
    *,
    measure: str,
    admits: Callable[[int, np.ndarray], np.ndarray],
    framework: str = "rmp",
    deadline: float | None = None,
) -> tuple[str, int | None, dict[int, Attempt]]:
    """Tightest bound in ``[lo, hi]`` at which the assignment decomposes.

    Under ``measure="cardinality"`` a bound is the floor ``k`` of pricing
    and a larger bound is tighter; under ``"margin"`` it is the margin
    block's ``omega`` and a smaller one is.  ``admits(bound, positions)``
    is the eligibility rule at a bound, and ``framework`` picks the master:
    ``"rmp"`` (through one ``master_memo`` per call) or ``"alpha"``.

    The search tries ``hi`` first, then bisects what is left of the range
    at ``(lo + hi + 1) // 2``: a lottery moves it toward the tight end, a
    failure away from it.  It checks ``deadline`` before each bisection
    attempt.  Returns the status (``optimal``, ``not-decomposable``, or
    ``budget-exhausted`` when the deadline stopped the search or left a
    verdict unproven), the tightest bound with a lottery (None if none),
    and the attempt log, bound to ``Attempt``, in attempt order.
    """
    if measure not in ("cardinality", "margin"):
        raise ValueError("measure must be 'cardinality' or 'margin'")
    master = master_memo(solve_rmp) if framework == "rmp" else solve_alpha_master
    larger_is_tighter = measure == "cardinality"
    attempts: dict[int, Attempt] = {}
    out_of_time = False
    bound = hi
    while True:
        k, margin_limit = (bound, None) if larger_is_tighter else (0, bound)
        attempts[bound] = generate_columns(
            instance, assignment, pool, k, master=master,
            admits=lambda t: admits(bound, t), margin_limit=margin_limit, deadline=deadline,
        )
        # A lottery moves the search toward the tight end, a failure away.
        if (attempts[bound][1] is not None) == larger_is_tighter:
            lo = bound + 1
        else:
            hi = bound - 1
        if lo > hi:
            break
        if deadline is not None and time.monotonic() > deadline:
            out_of_time = True
            break
        bound = (lo + hi + 1) // 2

    found = [b for b, (_, lottery, _) in attempts.items() if lottery is not None]
    best = (max if larger_is_tighter else min)(found, default=None)
    if out_of_time or not all(proven for _, _, proven in attempts.values()):
        return "budget-exhausted", best, attempts
    return ("not-decomposable" if best is None else "optimal"), best, attempts


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

    Runs ``bound_search`` on the floor ``k`` over ``[lower, floor(mu)]``,
    so the ceiling ``floor(mu)`` is tried first.  When the caller knows the
    assignment decomposes over efficient matchings (any average of
    serial-dictatorship outcomes does), ``lower`` is the minimum efficient
    cardinality ``p-``; otherwise it is zero and exhausting the range
    yields the not-decomposable verdict.  Both masters see the pool rows
    inside the target's support (``generate_columns``): ``"rmp"`` those of
    cardinality at least ``k``, ``"alpha"`` all of them, for every ``k``.
    A target that is not a feasible assignment of the instance is a
    ``ValueError``.  ``time_limit`` seconds bound the whole search, the
    ``p-`` search and every pricing MIP included; if they cut ``p-``, the
    search stops there with ``budget-exhausted``.
    """
    if framework not in ("rmp", "alpha"):
        raise ValueError("framework must be 'rmp' or 'alpha'")
    if not is_feasible_assignment(instance, assignment):
        raise ValueError("assignment is not feasible for the instance")
    deadline = None if time_limit is None else time.monotonic() + time_limit
    floor_mu = md_upper_bound(assignment)

    bank = initial_columns(instance, samples, seed)

    lower: int | None = 0
    if known_decomposable:
        from .pe_program import extreme_pe_cardinality

        # Every pool row is an SD outcome, so the smallest is a valid incumbent.
        incumbent = bank.matching(int(bank.cardinalities.argmin()))
        try:
            lower = extreme_pe_cardinality(
                instance, "min", incumbent=incumbent, time_limit=_remaining(deadline)
            )
        except BudgetExhaustedError:
            lower = None
    admits = lambda k, t: bank.cardinalities[t] >= (k if framework == "rmp" else 0)
    status, z, attempts = "budget-exhausted", None, {}  # if the time limit cut p-
    if lower is not None:
        status, z, attempts = bound_search(
            instance, assignment, bank, lower, floor_mu,
            measure="cardinality", admits=admits, framework=framework,
            deadline=deadline,
        )

    trace = [t for t, _, _ in attempts.values()]
    gaps = [t.objective if framework == "rmp" else 1.0 - t.objective for t in trace]
    return MdsdResult(
        status=status,
        z=z,
        decomposition=None if z is None else attempts[z][1],
        trace=trace,
        floor_mu=floor_mu,
        lower_bound=lower,
        framework=framework,
        best_deviation=min(gaps, default=None) if z is None else None,
    )
