"""Integer-programming formulations over Pareto-efficient matchings.

``build_matching_program`` assembles the matching-feasibility block, an
optional cardinality floor, the competitive-equilibrium block that forces
Pareto efficiency, and an optional unpopularity-margin bound.  The same
builder backs minimum/maximum-cardinality queries and the column-generation
pricing problems.  It appends columns and rows to one ``DenseProgram`` by
position: the matching cells first (in agent, then preference order), then
each block's columns, with rows in the order the blocks are listed above.

The efficiency block encodes: per ordered object pair ``(j, k)``, a counter
``s_jk`` of agents assigned to ``j`` that prefer ``k`` with an indicator
``st_jk`` of it being positive; fullness flags ``f_j``; trade-in-free
maximality rows; and object prices that are zero on non-full objects and
strictly increasing along envy edges.  Prices are kept continuous: for
integral assignments a feasible continuous price vector exists exactly when
an integer one does, and continuous prices avoid branching on variables the
objective never sees.

The maximality row of agent ``i`` and listed object ``j`` is
``sum(x_il for l at or above j in i's list) + f_j >= 1``: no agent prefers
an object with free capacity to the one it holds, the trade-in-free
condition of every efficient matching (Abraham, Cechlarova, Manlove and
Mehlhorn, ISAAC 2004).  An integral point that meets the row over all of
``i``'s cells but breaks this one has ``i`` on an object below a non-full
``j``: an envy edge into a non-full object, which the price rows already
forbid.  So the rows leave the set of feasible matchings as it was, and cut
only fractional points, which shrinks the branch-and-bound trees of every
program built here.

The margin block bounds the matching's unpopularity margin (McCutchen,
LATIN 2008) by the dual of the best rival's transportation program: a
column per agent, per object and for the outside option, a bound row, and
one dual-feasibility row per agent and option.  Each agent's vote for an
option is linear in its cells, so it is written into that row directly,
with weight 2 on the cells above the option and 1 on the option's own
cell: the substitution of variables fixed by equality rows that presolve
makes (Andersen and Andersen, Math. Programming, 1995), done as the
program is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BudgetExhaustedError, Instance, Matching, is_pareto_efficient
from .lp import EQ, GE, LE, DenseProgram, SolveResult, SolverError, backend_solve_mip

Cell = tuple[int, int]


@dataclass
class MatchingProgram:
    """A matching MIP whose first ``len(cells)`` columns are the cells."""

    program: DenseProgram
    cells: list[Cell]
    n_agents: int

    def decode(self, result: SolveResult) -> Matching:
        assignment: list[int | None] = [None] * self.n_agents
        values = result.primal[: len(self.cells)].tolist()
        for (i, j), value in zip(self.cells, values):
            if value > 0.5:
                assignment[i] = j
        return Matching(tuple(assignment))


@dataclass
class _Builder:
    """Columns and rows of a program, appended in order.

    A row holds its coefficients by column index.
    """

    lb: list[float] = field(default_factory=list)
    ub: list[float] = field(default_factory=list)
    integer: list[bool] = field(default_factory=list)
    priority: list[int] = field(default_factory=list)
    rows: list[dict[int, float]] = field(default_factory=list)
    senses: list[int] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)

    def column(self, lb: float, ub: float, integer: bool = False, priority: int = 0) -> int:
        self.lb.append(lb)
        self.ub.append(ub)
        self.integer.append(integer)
        self.priority.append(priority)
        return len(self.lb) - 1

    def row(self, coeffs: dict[int, float], sense: int, rhs: float) -> None:
        self.rows.append(coeffs)
        self.senses.append(sense)
        self.rhs.append(rhs)

    def program(self, objective: dict[int, float], sense: str) -> DenseProgram:
        n = len(self.lb)
        c = np.zeros(n)
        c[list(objective)] = list(objective.values())
        A = np.zeros((len(self.rows), n))
        for r, coeffs in enumerate(self.rows):
            A[r, list(coeffs)] = list(coeffs.values())
        return DenseProgram(
            c,
            A,
            np.array(self.senses, dtype=np.int8),
            np.array(self.rhs, dtype=float),
            np.array(self.lb, dtype=float),
            np.array(self.ub, dtype=float),
            sense,
            integer=np.array(self.integer, dtype=bool),
            priority=np.array(self.priority, dtype=int),
        )


def _margin_block(
    out: _Builder,
    instance: Instance,
    col: dict[Cell, int],
    omega: int,
) -> None:
    """Constraints restricting the matching's unpopularity margin to omega.

    A rival matching sends each agent ``i`` to an object or to the outside
    option, a pseudo-object of capacity ``|N|``, and ``i`` votes
    ``nu(i, j)`` for option ``j`` over its place in this matching.  The
    best rival's vote advantage is a transportation program in ``nu``, and
    its dual certifies the bound: duals ``alpha_i`` (free) per agent and
    ``beta_j >= 0`` per object and for the outside option, with the
    objective ``sum(alpha) + sum(cap_j * beta_j) + |N| * beta_null <=
    omega`` and ``alpha_i + beta_j >= nu(i, j)`` for every agent and option.

    The votes are linear in the cells, so each is substituted into its dual
    row and the block adds the dual columns and these rows only.  With
    ``x_i = sum(x_il)`` the mass agent ``i`` holds, its outside mass is
    ``1 - x_i``, so for a listed ``j``
    ``nu(i, j) = 1 - 2 * sum(x_il for l above j) - x_ij``, the gains 2 and 1
    of :func:`matchlot.popularity._max_gain`; ``nu(i, None) = -x_i``; and an
    unlisted ``j`` ranks below the outside option, so ``nu(i, j) = -1``.
    Only cells in ``col`` appear, so a support-restricted program prices the
    same votes.  The vote and outside-mass variables this replaces had the
    bounds ``[-1, 1]`` and ``[0, 1]``; the agent row ``x_i <= 1`` and
    ``x >= 0`` imply both, so the LP relaxation is the projection of the
    one with those variables, and every node bound is the same.
    """
    n, o = instance.n_agents, instance.n_objects
    inf = float("inf")

    dalpha_a = [out.column(-inf, inf) for _ in range(n)]
    dalpha_o = [out.column(0.0, inf) for _ in range(o)]
    dalpha_null = out.column(0.0, inf)

    bound = {dalpha_a[i]: 1.0 for i in range(n)}
    for j in range(o):
        bound[dalpha_o[j]] = float(instance.capacities[j])
    bound[dalpha_null] = float(n)
    out.row(bound, LE, float(omega))

    for i, prefs in enumerate(instance.pref_idx):
        rank = instance.rank_table[i].tolist()
        own = [(rank[j], col[i, j]) for j in prefs if (i, j) in col]
        for j in range(o):
            row = {dalpha_a[i]: 1.0, dalpha_o[j]: 1.0}
            if rank[j] > len(prefs):  # unlisted
                out.row(row, GE, -1.0)
                continue
            for pos, k in own:
                if pos <= rank[j]:
                    row[k] = 2.0 if pos < rank[j] else 1.0
            out.row(row, GE, 1.0)
        out.row({dalpha_a[i]: 1.0, dalpha_null: 1.0, **{k: 1.0 for _, k in own}}, GE, 0.0)


def build_matching_program(
    instance: Instance,
    *,
    objective: dict[Cell, float],
    sense: str = "min",
    min_cardinality: int | None = None,
    support: set[Cell] | None = None,
    forced: set[Cell] | None = None,
    margin_limit: int | None = None,
) -> MatchingProgram:
    """Assemble a MIP whose feasible points are matchings of the instance.

    Args:
        objective: cost per (agent, object) cell; missing cells cost zero.
        min_cardinality: if given, require at least this many assignments.
        support: if given, only these cells may be assigned (cells outside
            an assignment's support can be excluded when pricing columns
            for its decomposition).
        forced: cells pinned to one (agent always assigned to the object).
        margin_limit: bound the unpopularity margin instead of / on top of
            the cardinality constraint.
    """
    n, o = instance.n_agents, instance.n_objects
    forced = forced or set()
    cells: list[Cell] = []
    for i in range(n):
        for j in instance.pref_idx[i]:
            cell = (i, j)
            if support is not None and cell not in support and cell not in forced:
                continue
            cells.append(cell)
    col = {cell: k for k, cell in enumerate(cells)}

    out = _Builder()
    for cell in cells:
        out.column(1.0 if cell in forced else 0.0, 1.0, integer=True)

    cells_of_agent: dict[int, list[int]] = {i: [] for i in range(n)}
    cells_of_object: dict[int, list[int]] = {j: [] for j in range(o)}
    for i, j in cells:
        cells_of_agent[i].append(j)
        cells_of_object[j].append(i)

    for i in range(n):
        if cells_of_agent[i]:
            out.row({col[i, j]: 1.0 for j in cells_of_agent[i]}, LE, 1.0)
    for j in range(o):
        if cells_of_object[j]:
            out.row(
                {col[i, j]: 1.0 for i in cells_of_object[j]},
                LE,
                float(instance.capacities[j]),
            )
    if min_cardinality is not None and min_cardinality > 0:
        out.row(dict.fromkeys(range(len(cells)), 1.0), GE, float(min_cardinality))

    _pe_block(out, instance, cells, col, cells_of_object)

    if margin_limit is not None:
        _margin_block(out, instance, col, margin_limit)

    program = out.program(
        {col[cell]: cost for cell, cost in objective.items() if cell in col}, sense
    )
    return MatchingProgram(program=program, cells=cells, n_agents=n)


def _pe_block(
    out: _Builder,
    instance: Instance,
    cells: list[Cell],
    col: dict[Cell, int],
    cells_of_object: dict[int, list[int]],
) -> None:
    n, o = instance.n_agents, instance.n_objects
    big_price = float(o + 1)

    # Agents that, if assigned to j, would envy k.
    enviers: dict[tuple[int, int], list[int]] = {}
    for i, j in cells:
        for k in instance.pref_idx[i]:
            if k == j:
                break
            enviers.setdefault((j, k), []).append(i)

    full, price = [], []
    for j in range(o):
        # Fullness flags steer the whole relaxation; branch them first.
        full.append(out.column(0.0, 1.0, integer=True, priority=2))
        price.append(out.column(0.0, float(o)))
        load = [col[i, j] for i in cells_of_object[j]]
        cap = float(instance.capacities[j])
        # f_j = 1 exactly when object j is filled to capacity.
        out.row({**dict.fromkeys(load, -1.0), full[j]: cap}, LE, 0.0)
        out.row({**dict.fromkeys(load, 1.0), full[j]: -1.0}, LE, cap - 1.0)
        # p_j = 0 unless object j is full.
        out.row({price[j]: 1.0, full[j]: -float(o)}, LE, 0.0)

    for (j, k), agents in sorted(enviers.items()):
        s = out.column(0.0, float(n))
        st = out.column(0.0, 1.0, integer=True, priority=1)
        # s_jk counts the agents on j who prefer k; st_jk = 1 exactly when
        # s_jk > 0.
        coeffs = {col[i, j]: 1.0 for i in agents}
        coeffs[s] = -1.0
        out.row(coeffs, EQ, 0.0)
        out.row({st: 1.0, s: -1.0}, LE, 0.0)
        out.row({s: 1.0, st: -float(n)}, LE, 0.0)
        # st_jk = 1 forces p_k >= p_j + 1.
        out.row({price[j]: 1.0, price[k]: -1.0, st: big_price}, LE, big_price - 1.0)

    # Maximality, trade-in-free: each listed j is full or i holds j or
    # something it prefers.  The price rows already forbid envy into a
    # non-full object, so summing only the prefix cuts fractional points
    # and no matching.
    for i in range(n):
        own: dict[int, float] = {}
        for j in instance.pref_idx[i]:
            if (i, j) in col:
                own[col[i, j]] = 1.0
            out.row({**own, full[j]: 1.0}, GE, 1.0)


def extreme_pe_cardinality(
    instance: Instance,
    direction: str,
    *,
    incumbent: Matching | None = None,
    time_limit: float | None = None,
) -> int:
    """Minimum (``"min"``) or maximum (``"max"``) size of an efficient matching.

    ``incumbent`` is a known feasible, Pareto-efficient matching (for
    example the smallest of a sampled batch).  The cardinality objective is
    integral, so branch-and-bound then runs under a cutoff just short of the
    next better size: ``|incumbent| - 1 + 1e-6`` for ``"min"``,
    ``|incumbent| + 1 - 1e-6`` for ``"max"``.  It prunes every node that
    cannot reach a strictly better matching, and a search that finds none
    proves the incumbent's size optimal.

    Raises:
        ValueError: ``direction`` is neither ``"min"`` nor ``"max"``, or the
            incumbent is not a feasible, Pareto-efficient matching of the
            instance.
        BudgetExhaustedError: ``time_limit`` cut the search before it proved
            the optimum.
        SolverError: the program ended with any other non-optimal status.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    if incumbent is not None and not is_pareto_efficient(instance, incumbent):
        raise ValueError("the incumbent is not a feasible, Pareto-efficient matching")
    objective = {
        (i, j): 1.0 for i in range(instance.n_agents) for j in instance.pref_idx[i]
    }
    built = build_matching_program(
        instance,
        objective=objective,
        sense=direction,
    )
    cutoff = None
    if incumbent is not None:
        size = incumbent.cardinality()
        cutoff = size - 1 + 1e-6 if direction == "min" else size + 1 - 1e-6
    result = backend_solve_mip(built.program, time_limit=time_limit, cutoff=cutoff)
    if result.status == "unknown":
        raise BudgetExhaustedError(
            f"the time limit cut the {direction} efficient-cardinality search"
        )
    if result.status == "infeasible" and incumbent is not None:
        return size
    if result.status != "optimal":
        raise SolverError(
            f"extreme cardinality search ended with status {result.status!r}"
        )
    return int(round(result.objective))
