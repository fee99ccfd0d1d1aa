"""Integer-programming formulations over Pareto-efficient matchings.

``build_matching_program`` assembles the matching-feasibility block, an
optional cardinality floor, the competitive-equilibrium block that forces
Pareto efficiency, and an optional unpopularity-margin bound.  The same
builder backs minimum/maximum-cardinality queries and the column-generation
pricing problems.

The efficiency block encodes: per ordered object pair ``(j, k)``, a counter
``s_jk`` of agents assigned to ``j`` that prefer ``k`` with an indicator
``st_jk`` of it being positive; fullness flags ``f_j``; maximality (an
unassigned agent leaves no acceptable object with free capacity); and
object prices that are zero on non-full objects and strictly increasing
along envy edges.  Prices are kept continuous: for integral assignments a
feasible continuous price vector exists exactly when an integer one does,
and continuous prices avoid branching on variables the objective never
sees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BudgetExhaustedError,
    Instance,
    Matching,
    is_feasible,
    is_pareto_efficient,
)
from .lp import (
    EQ,
    GE,
    LE,
    Constraint,
    LinearProgram,
    SolveResult,
    SolverError,
    Variable,
    backend_solve_mip,
)

Cell = tuple[int, int]


@dataclass
class MatchingProgram:
    """A compiled matching MIP plus the cell-to-variable mapping."""

    program: LinearProgram
    cells: list[Cell]
    cell_var: dict[Cell, str]
    n_agents: int

    def decode(self, result: SolveResult) -> Matching:
        assignment: list[int | None] = [None] * self.n_agents
        for (i, j), name in self.cell_var.items():
            if result.primal.get(name, 0.0) > 0.5:
                assignment[i] = j
        return Matching(tuple(assignment))


def margin_block(
    instance: Instance,
    cells: list[Cell],
    cell_var: dict[Cell, str],
    omega: int,
) -> tuple[list[Variable], list[Constraint]]:
    """Constraints restricting the matching's unpopularity margin to omega.

    Adds the outside option as a pseudo-object of capacity ``|N|`` so every
    agent row completes to one, links comparison weights ``nu`` to the
    matching variables, and bounds the rival-matching vote advantage via
    the dual of the best-response transportation program: dual feasibility
    together with a dual objective of at most omega certifies that no rival
    matching beats this one by more than omega votes.
    """
    n, o = instance.n_agents, instance.n_objects
    inf = float("inf")
    variables: list[Variable] = []
    constraints: list[Constraint] = []

    cells_of_agent: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in cells:
        cells_of_agent[i].append(j)

    for i in range(n):
        variables.append(Variable(f"mnull_{i}", 0.0, 1.0))
        coeffs = {cell_var[i, j]: 1.0 for j in cells_of_agent[i]}
        coeffs[f"mnull_{i}"] = 1.0
        constraints.append(Constraint(f"rowfull_{i}", coeffs, EQ, 1.0))

    for i in range(n):
        variables.append(Variable(f"dalpha_a{i}", -inf, inf))
    for j in range(o):
        variables.append(Variable(f"dalpha_o{j}", 0.0, inf))
    variables.append(Variable("dalpha_null", 0.0, inf))

    def comparison_terms(i: int, j: int | None) -> dict[str, float]:
        """Coefficients of nu(i, j): mass below j minus mass above j."""
        prefs = instance.pref_idx[i]
        terms: dict[str, float] = {}
        if j is None:
            rank_j = len(prefs)
        else:
            rank_j = instance.rank[i][j]
        for pos, k in enumerate(prefs):
            if (i, k) not in cell_var:
                continue
            if pos > rank_j:
                terms[cell_var[i, k]] = 1.0
            elif pos < rank_j:
                terms[cell_var[i, k]] = -1.0
        if j is not None and rank_j < len(prefs):
            # The outside option ranks below every listed object.
            terms[f"mnull_{i}"] = 1.0
        return terms

    objective_coeffs: dict[str, float] = {}
    for i in range(n):
        objective_coeffs[f"dalpha_a{i}"] = 1.0
    for j in range(o):
        objective_coeffs[f"dalpha_o{j}"] = float(instance.capacities[j])
    objective_coeffs["dalpha_null"] = float(n)
    constraints.append(Constraint("margin_bound", objective_coeffs, LE, float(omega)))

    for i in range(n):
        listed = set(instance.pref_idx[i])
        options: list[int | None] = [*range(o), None]
        for j in options:
            alpha_obj = "dalpha_null" if j is None else f"dalpha_o{j}"
            tag = "null" if j is None else str(j)
            if j is not None and j not in listed:
                # nu is identically -1 for objects below the outside option.
                constraints.append(
                    Constraint(
                        f"dfeas_{i}_{tag}",
                        {f"dalpha_a{i}": 1.0, alpha_obj: 1.0},
                        GE,
                        -1.0,
                    )
                )
                continue
            nu_name = f"nu_{i}_{tag}"
            variables.append(Variable(nu_name, -1.0, 1.0))
            link = comparison_terms(i, j)
            link[nu_name] = link.get(nu_name, 0.0) - 1.0
            constraints.append(Constraint(f"nulink_{i}_{tag}", link, EQ, 0.0))
            constraints.append(
                Constraint(
                    f"dfeas_{i}_{tag}",
                    {f"dalpha_a{i}": 1.0, alpha_obj: 1.0, nu_name: -1.0},
                    GE,
                    0.0,
                )
            )
    return variables, constraints


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
    cell_var = {cell: f"m_{cell[0]}_{cell[1]}" for cell in cells}

    variables: list[Variable] = []
    for cell in cells:
        lo = 1.0 if cell in forced else 0.0
        variables.append(Variable(cell_var[cell], lo, 1.0, integer=True))

    constraints: list[Constraint] = []
    cells_of_agent: dict[int, list[int]] = {i: [] for i in range(n)}
    cells_of_object: dict[int, list[int]] = {j: [] for j in range(o)}
    for i, j in cells:
        cells_of_agent[i].append(j)
        cells_of_object[j].append(i)

    for i in range(n):
        if cells_of_agent[i]:
            constraints.append(
                Constraint(
                    f"agent_{i}",
                    {cell_var[i, j]: 1.0 for j in cells_of_agent[i]},
                    LE,
                    1.0,
                )
            )
    for j in range(o):
        if cells_of_object[j]:
            constraints.append(
                Constraint(
                    f"capacity_{j}",
                    {cell_var[i, j]: 1.0 for i in cells_of_object[j]},
                    LE,
                    float(instance.capacities[j]),
                )
            )
    if min_cardinality is not None and min_cardinality > 0:
        constraints.append(
            Constraint(
                "cardinality",
                {name: 1.0 for name in cell_var.values()},
                GE,
                float(min_cardinality),
            )
        )

    pe_vars, pe_cons = _pe_block(instance, cells, cell_var, cells_of_object)
    variables.extend(pe_vars)
    constraints.extend(pe_cons)

    if margin_limit is not None:
        mvars, mcons = margin_block(instance, cells, cell_var, margin_limit)
        variables.extend(mvars)
        constraints.extend(mcons)

    program = LinearProgram(
        sense=sense,
        objective={cell_var[cell]: cost for cell, cost in objective.items() if cell in cell_var},
        variables=tuple(variables),
        constraints=tuple(constraints),
    )
    return MatchingProgram(program=program, cells=cells, cell_var=cell_var, n_agents=n)


def _pe_block(
    instance: Instance,
    cells: list[Cell],
    cell_var: dict[Cell, str],
    cells_of_object: dict[int, list[int]],
) -> tuple[list[Variable], list[Constraint]]:
    n, o = instance.n_agents, instance.n_objects
    variables: list[Variable] = []
    constraints: list[Constraint] = []
    big_price = float(o + 1)

    # Agents that, if assigned to j, would envy k.
    enviers: dict[tuple[int, int], list[int]] = {}
    for i, j in cells:
        for k in instance.pref_idx[i]:
            if k == j:
                break
            enviers.setdefault((j, k), []).append(i)

    for j in range(o):
        # Fullness flags steer the whole relaxation; branch them first.
        variables.append(Variable(f"f_{j}", 0.0, 1.0, integer=True, branch_priority=2))
        variables.append(Variable(f"p_{j}", 0.0, float(o)))
        load = {cell_var[i, j]: 1.0 for i in cells_of_object[j]}
        cap = float(instance.capacities[j])
        # f_j = 1 exactly when object j is filled to capacity.
        constraints.append(
            Constraint(f"full_lo_{j}", {**{k_: -v for k_, v in load.items()}, f"f_{j}": cap}, LE, 0.0)
        )
        constraints.append(
            Constraint(f"full_hi_{j}", {**load, f"f_{j}": -1.0}, LE, cap - 1.0)
        )
        constraints.append(
            Constraint(f"price_zero_{j}", {f"p_{j}": 1.0, f"f_{j}": -float(o)}, LE, 0.0)
        )

    for (j, k), agents in sorted(enviers.items()):
        s_name = f"s_{j}_{k}"
        st_name = f"st_{j}_{k}"
        variables.append(Variable(s_name, 0.0, float(n)))
        variables.append(Variable(st_name, 0.0, 1.0, integer=True, branch_priority=1))
        coeffs = {cell_var[i, j]: 1.0 for i in agents}
        coeffs[s_name] = -1.0
        constraints.append(Constraint(f"envy_count_{j}_{k}", coeffs, EQ, 0.0))
        constraints.append(
            Constraint(f"envy_ind_lo_{j}_{k}", {st_name: 1.0, s_name: -1.0}, LE, 0.0)
        )
        constraints.append(
            Constraint(f"envy_ind_hi_{j}_{k}", {s_name: 1.0, st_name: -float(n)}, LE, 0.0)
        )
        # st_jk = 1 forces p_k >= p_j + 1.
        constraints.append(
            Constraint(
                f"price_step_{j}_{k}",
                {f"p_{j}": 1.0, f"p_{k}": -1.0, st_name: big_price},
                LE,
                big_price - 1.0,
            )
        )

    # Maximality: an unassigned agent leaves no acceptable object with
    # remaining capacity.
    for i in range(n):
        own = {cell_var[i, l]: 1.0 for l in instance.pref_idx[i] if (i, l) in cell_var}
        for j in instance.pref_idx[i]:
            constraints.append(
                Constraint(f"maximal_{i}_{j}", {**own, f"f_{j}": 1.0}, GE, 1.0)
            )
    return variables, constraints


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
    integral, so the program then asks only for a strictly better matching:
    at most ``|incumbent| - 1`` agents for ``"min"``, at least
    ``|incumbent| + 1`` for ``"max"``.  An infeasible program proves the
    incumbent's size optimal.

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
    if incumbent is not None and not (
        is_feasible(instance, incumbent) and is_pareto_efficient(instance, incumbent)
    ):
        raise ValueError("the incumbent is not a feasible, Pareto-efficient matching")
    objective = {
        (i, j): 1.0 for i in range(instance.n_agents) for j in instance.pref_idx[i]
    }
    built = build_matching_program(
        instance,
        objective=objective,
        sense=direction,
    )
    constraints = built.program.constraints
    if incumbent is not None:
        size = incumbent.cardinality()
        sense, bound = (LE, size - 1) if direction == "min" else (GE, size + 1)
        constraints = constraints + (
            Constraint(
                "better_than_incumbent",
                {name: 1.0 for name in built.cell_var.values()},
                sense,
                float(bound),
            ),
        )
    program = LinearProgram(
        sense=built.program.sense,
        objective=built.program.objective,
        variables=built.program.variables,
        constraints=constraints,
    )
    result = backend_solve_mip(program, time_limit=time_limit)
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
