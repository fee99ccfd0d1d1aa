"""Column generation for decompositions over efficient matchings.

The column pool is one ``(columns, n_agents)`` ``int32`` array of distinct
serial-dictatorship outcome rows (-1 for an unassigned agent), to which
pricing appends; a ``Matching`` is built only for a column that enters a
master or a lottery.

One loop, ``_generate_columns``, runs every search.  It takes a master, a
vectorised eligibility rule over pool positions, and a pricing block: the
cardinality floor, or the margin block for margin searches.  It activates
pool columns by reduced cost, prices only when the pool has none left, and
decides whether a negative verdict is proven.

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
from .lp import (
    EQ,
    GE,
    LE,
    Constraint,
    LinearProgram,
    Variable,
    backend_solve_mip,
    solve_lp,
)
from .mechanisms import DEFAULT_SAMPLE_SIZE, sample_sd_matchings
from .pe_program import build_matching_program

TOLERANCE = 1e-4  # the one precision of every certificate and pricing verdict
_WEIGHT_FLOOR = 1e-9
_ARTIFICIAL_PENALTY = 1e4
_ACTIVATION_BATCH = 200
_INITIAL_ACTIVE = 400


class PricingInconsistencyError(MatchlotError):
    """The pricing problem returned a column the master already holds."""


class ColumnPool:
    """Distinct feasible, Pareto-efficient matchings as integer outcome rows.

    Each row of ``rows`` is one column: an object index per agent, -1 for an
    unassigned agent.  The reduced costs of every column come from one
    vectorised scan, and a ``Matching`` is built only for a column that a
    master or a lottery uses.
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
class RmpSolution:
    """A deviation-master optimum with its duals.

    ``prices`` is the ``(agent, object)`` matrix of cover plus overshoot row
    duals and ``w`` the convexity dual: a column ``m`` has reduced cost
    ``-sum_m prices - w``.
    """

    s: float
    weights: list[float]
    super_weight: float
    prices: np.ndarray
    w: float


def _float_matrix(assignment: ProbabilisticAssignment) -> list[list[float]]:
    return [[float(v) for v in row] for row in assignment.probs]


def solve_rmp(
    assignment: ProbabilisticAssignment,
    columns: list[Matching],
    k: int,
    *,
    include_super: bool = True,
) -> RmpSolution:
    """Deviation master over the given columns plus the all-ones super-column.

    Minimises ``s`` subject to: the lottery covers the target probability in
    every cell, overshoots by at most ``s`` anywhere, and weights form a
    convex combination.  Cover rows for zero cells and overshoot rows for
    probability-one cells are redundant and omitted.

    With ``include_super`` disabled the master may be infeasible (raised as
    an error); the super-column variant never is.
    """
    for t, col in enumerate(columns):
        if col.cardinality() < k:
            raise ValueError(f"column {t} has cardinality below {k}")
    x = _float_matrix(assignment)
    n = assignment.n_agents
    o = assignment.n_objects
    exact = assignment.probs

    variables = [Variable("s", 0.0)]
    if include_super:
        variables.append(Variable("lam_super", 0.0))
    variables += [Variable(f"lam_{t}", 0.0) for t in range(len(columns))]

    super_entry = {"lam_super": 1.0} if include_super else {}
    cover_rows: dict[tuple[int, int], dict[str, float]] = {}
    over_rows: dict[tuple[int, int], dict[str, float]] = {}
    for i in range(n):
        for j in range(o):
            if exact[i][j] > 0:
                cover_rows[i, j] = dict(super_entry)
            if exact[i][j] < 1:
                over_rows[i, j] = {**super_entry, "s": -1.0}
    for t, col in enumerate(columns):
        name = f"lam_{t}"
        for i, j in enumerate(col.assignment):
            if j is None:
                continue
            if (i, j) in cover_rows:
                cover_rows[i, j][name] = 1.0
            if (i, j) in over_rows:
                over_rows[i, j][name] = 1.0

    constraints = []
    for (i, j), coeffs in cover_rows.items():
        constraints.append(Constraint(f"cov_{i}_{j}", coeffs, GE, x[i][j]))
    for (i, j), coeffs in over_rows.items():
        constraints.append(Constraint(f"dev_{i}_{j}", coeffs, LE, x[i][j]))
    conv = dict(super_entry)
    conv.update({f"lam_{t}": 1.0 for t in range(len(columns))})
    constraints.append(Constraint("conv", conv, EQ, 1.0))

    program = LinearProgram(
        sense="min",
        objective={"s": 1.0},
        variables=tuple(variables),
        constraints=tuple(constraints),
    )
    result = solve_lp(program)
    if result.status != "optimal":
        raise MatchlotError(f"deviation master ended with status {result.status!r}")
    prices = np.zeros((n, o))
    for (i, j) in cover_rows:
        prices[i, j] += result.duals[f"cov_{i}_{j}"]
    for (i, j) in over_rows:
        prices[i, j] += result.duals[f"dev_{i}_{j}"]
    return RmpSolution(
        s=result.objective,
        weights=[result.primal[f"lam_{t}"] for t in range(len(columns))],
        super_weight=result.primal.get("lam_super", 0.0),
        prices=prices,
        w=result.duals["conv"],
    )


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
    lower_bound: int | None  # None when the budget cut the p- search
    framework: str
    best_deviation: float | None = None


@dataclass
class Budget:
    """Limits of one search; ``time_limit`` bounds every solver stage in it."""

    time_limit: float | None = None
    max_rounds_per_k: int = 400

    def deadline(self) -> float | None:
        return None if self.time_limit is None else time.monotonic() + self.time_limit


def _remaining(deadline: float | None) -> float | None:
    """Seconds left before the deadline, for a solver's ``time_limit``."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


@dataclass
class _Round:
    """One master solve, with its duals in the deviation master's form.

    A column ``m`` has reduced cost ``-sum_m prices - w``, plus
    ``floor_dual`` if it assigns at least ``k`` agents; ``floor_dual`` is
    None for masters that hold only such columns.
    """

    prices: np.ndarray
    w: float
    objective: float
    weights: list[float]  # per active column; read once certified
    certified: bool
    degenerate: bool = False
    floor_dual: float | None = None


def _deviation_round(
    assignment: ProbabilisticAssignment, columns: list[Matching], k: int
) -> _Round:
    solution = solve_rmp(assignment, columns, k)
    if solution.s <= TOLERANCE and solution.super_weight > TOLERANCE:
        # Degenerate alternative optimum parked weight on the super-column
        # (possible only when the target has no zero cell); certify by
        # re-solving without it.
        try:
            clean = solve_rmp(assignment, columns, k, include_super=False)
        except MatchlotError:
            clean = None
        if clean is None or clean.s > TOLERANCE:
            return _Round(
                solution.prices, solution.w, solution.s, solution.weights,
                certified=False, degenerate=True,
            )
        solution = clean
    return _Round(
        solution.prices, solution.w, solution.s, solution.weights,
        certified=solution.s <= TOLERANCE,
    )


def _exact_weights(raw: list[tuple[float, Matching]]) -> Decomposition:
    total = sum(Fraction(w) for w, _ in raw)
    terms = tuple((Fraction(w) / total, m) for w, m in raw)
    return Decomposition(terms)


def _generate_columns(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    pool: ColumnPool,
    master: Callable[[list[Matching]], _Round],
    admits: Callable[[np.ndarray], np.ndarray],
    *,
    k: int,
    margin_limit: int | None,
    budget: Budget,
    deadline: float | None,
) -> tuple[float, Decomposition | None, KTrace, bool]:
    """The column-generation loop behind every search.

    ``master`` solves the master over the active columns.  ``admits`` maps
    an array of pool positions to the mask of those the master may use, and
    every priced column must pass it too.  Columns are first pulled from
    the pool by reduced cost; pricing runs only when the pool has nothing
    negative left, with the cardinality floor ``k`` and, if given, the
    margin bound.  Returns the final master objective, the lottery once the
    master certifies, the trace and whether the verdict is proven: a run
    cut by the budget, or left on a degenerate optimum, never reports a
    proven failure.
    """
    start = time.monotonic()
    waiting = admits(np.arange(len(pool)))  # eligible and not yet active
    active = np.flatnonzero(waiting)[:_INITIAL_ACTIVE].tolist()
    waiting[active] = False
    iterations = 0
    proven = certified = degenerate = False
    last: _Round | None = None

    while iterations < budget.max_rounds_per_k:
        iterations += 1
        last = master([pool.matching(t) for t in active])
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
    return last.objective, decomposition, trace, proven


def solve_mdsd_rmp(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    k: int,
    *,
    bank: ColumnPool,
    budget: Budget,
    deadline: float | None,
) -> tuple[bool, float, Decomposition | None, KTrace, bool]:
    """Deviation-master column generation at a fixed cardinality floor.

    Feasible iff the converged deviation is at most ``TOLERANCE`` and the
    super-column carries no weight.  Returns feasibility, the converged
    deviation, the decomposition when feasible, the per-``k`` trace and
    whether the verdict is proven.
    """
    s, decomposition, trace, proven = _generate_columns(
        instance,
        assignment,
        bank,
        lambda columns: _deviation_round(assignment, columns, k),
        lambda t: bank.cardinalities[t] >= k,
        k=k,
        margin_limit=None,
        budget=budget,
        deadline=deadline,
    )
    return decomposition is not None, s, decomposition, trace, proven


def solve_margin_rmp(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    omega: int,
    *,
    bank: ColumnPool,
    margin: Callable[[Matching], int],
    budget: Budget,
    deadline: float | None,
) -> tuple[Decomposition | None, bool]:
    """Deviation-master column generation over matchings of margin at most omega.

    ``margin`` returns a matching's unpopularity margin; pricing bounds it
    with the margin block instead of a cardinality floor.  Returns the
    decomposition when one exists and whether the verdict is proven.
    """
    _, decomposition, _, proven = _generate_columns(
        instance,
        assignment,
        bank,
        lambda columns: _deviation_round(assignment, columns, 0),
        lambda t: np.array([margin(bank.matching(s)) for s in t.tolist()]) <= omega,
        k=0,
        margin_limit=omega,
        budget=budget,
        deadline=deadline,
    )
    return decomposition, proven


def solve_alpha_master(
    assignment: ProbabilisticAssignment,
    columns: list[Matching],
    k: int,
) -> _Round:
    """Coverage master: exact decomposition maximising weight on large matchings.

    Cells are matched exactly; penalised slack pairs keep the master
    feasible while the pool is still too poor to decompose the target, and
    their remaining mass at convergence certifies non-decomposability.  The
    round certifies at ``alpha >= 1 - TOLERANCE`` with slack mass at most
    ``TOLERANCE``, and its lottery keeps only columns of cardinality at
    least ``k``.  A column's coverage reduced cost ``sum_m u + w`` (plus the
    ``kcov`` dual when it assigns ``k`` agents) is the deviation form under
    prices ``-u`` and convexity dual ``-w``, with the ``kcov`` dual as the
    floor dual.
    """
    x = assignment.probs
    n, o = assignment.n_agents, assignment.n_objects
    support = [(i, j) for i in range(n) for j in range(o) if x[i][j] > 0]
    variables = [Variable("alpha", 0.0)]
    objective = {"alpha": 1.0}
    rows: dict[tuple[int, int], dict[str, float]] = {c: {} for c in support}
    for t, col in enumerate(columns):
        name = f"lam_{t}"
        variables.append(Variable(name, 0.0))
        for i, j in enumerate(col.assignment):
            if j is None:
                continue
            if (i, j) not in rows:
                raise ValueError("column assigns outside the target support")
            rows[i, j][name] = 1.0
    for i, j in support:
        plus = f"art_plus_{i}_{j}"
        minus = f"art_minus_{i}_{j}"
        variables.append(Variable(plus, 0.0))
        variables.append(Variable(minus, 0.0))
        objective[plus] = -_ARTIFICIAL_PENALTY
        objective[minus] = -_ARTIFICIAL_PENALTY
        rows[i, j][plus] = 1.0
        rows[i, j][minus] = -1.0

    constraints = [
        Constraint(f"eq_{i}_{j}", coeffs, EQ, float(x[i][j]))
        for (i, j), coeffs in rows.items()
    ]
    kcov = {f"lam_{t}": 1.0 for t, col in enumerate(columns) if col.cardinality() >= k}
    kcov["alpha"] = -1.0
    constraints.append(Constraint("kcov", kcov, GE, 0.0))
    conv: dict[str, float] = {f"lam_{t}": 1.0 for t in range(len(columns))}
    for suffix, sign in (("plus", 1.0), ("minus", -1.0)):
        name = f"art_conv_{suffix}"
        variables.append(Variable(name, 0.0))
        objective[name] = -_ARTIFICIAL_PENALTY
        conv[name] = sign
    constraints.append(Constraint("conv", conv, EQ, 1.0))

    program = LinearProgram(
        sense="max",
        objective=objective,
        variables=tuple(variables),
        constraints=tuple(constraints),
    )
    result = solve_lp(program)
    if result.status != "optimal":
        raise MatchlotError(f"coverage master ended with status {result.status!r}")
    art = sum(
        value
        for name, value in result.primal.items()
        if name.startswith("art_") and value > 0
    )
    alpha = result.primal["alpha"]
    prices = np.zeros((n, o))
    for i, j in support:
        prices[i, j] -= result.duals[f"eq_{i}_{j}"]
    return _Round(
        prices,
        -result.duals["conv"],
        alpha,
        [
            result.primal[f"lam_{t}"] if col.cardinality() >= k else 0.0
            for t, col in enumerate(columns)
        ],
        certified=alpha >= 1.0 - TOLERANCE and art <= TOLERANCE,
        floor_dual=result.duals["kcov"],
    )


def solve_mdsd_alpha(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    k: int,
    *,
    bank: ColumnPool,
    budget: Budget,
    deadline: float | None,
) -> tuple[float, Decomposition | None, KTrace, bool]:
    """Coverage-master column generation at a fixed cardinality floor.

    Returns the converged ``alpha`` (1 means the target decomposes over
    matchings of cardinality at least ``k``), the cleaned decomposition
    when it does, the per-``k`` trace, and whether the verdict is proven.
    The master may use any pooled matching inside the target's support.
    """
    n, o = assignment.n_agents, assignment.n_objects
    # Column o of the padded mask stands for "unassigned", which is always inside.
    inside = np.ones((n, o + 1), dtype=bool)
    for i, row in enumerate(assignment.probs):
        inside[i, :o] = [v > 0 for v in row]
    return _generate_columns(
        instance,
        assignment,
        bank,
        lambda columns: solve_alpha_master(assignment, columns, k),
        lambda t: inside[np.arange(n), bank.rows[t]].all(axis=1),
        k=k,
        margin_limit=None,
        budget=budget,
        deadline=deadline,
    )


def binary_search_z(
    instance: Instance,
    assignment: ProbabilisticAssignment,
    framework: str = "rmp",
    *,
    samples: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    budget: Budget | None = None,
    known_decomposable: bool = False,
) -> MdsdResult:
    """Maximin cardinality over efficient decompositions, by binary search.

    Tests the ceiling ``floor(mu)`` first; on failure bisects downwards.
    When the caller knows the assignment decomposes over efficient
    matchings (any average of serial-dictatorship outcomes does), the
    search floor is the minimum efficient cardinality ``p-``; otherwise it
    is zero and exhausting the range yields the not-decomposable verdict.
    The budget's deadline bounds the ``p-`` search and every pricing MIP;
    if it cuts ``p-``, the search stops there with ``budget-exhausted``.
    """
    if framework not in ("rmp", "alpha"):
        raise ValueError("framework must be 'rmp' or 'alpha'")
    budget = budget or Budget()
    deadline = budget.deadline()
    total = mu(assignment)
    floor_mu = total.numerator // total.denominator

    bank = initial_columns(instance, samples, seed)

    lower = 0
    if known_decomposable:
        from .pe_program import extreme_pe_cardinality

        hint = int(bank.cardinalities.min()) if len(bank) else None
        try:
            lower = extreme_pe_cardinality(
                instance, "min", cardinality_hint=hint, time_limit=_remaining(deadline)
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

    def attempt(k: int) -> bool:
        nonlocal best, best_deviation, all_proven
        if framework == "rmp":
            _, gap, decomposition, ktrace, proven = solve_mdsd_rmp(
                instance, assignment, k,
                bank=bank, budget=budget, deadline=deadline,
            )
        else:
            alpha, decomposition, ktrace, proven = solve_mdsd_alpha(
                instance, assignment, k,
                bank=bank, budget=budget, deadline=deadline,
            )
            gap = 1.0 - alpha
        feasible = decomposition is not None
        if not feasible:
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
