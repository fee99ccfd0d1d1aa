"""Self-contained linear and mixed-integer programming.

The LP kernel is a dense two-phase primal simplex with variable bounds,
Dantzig pricing and a Bland's-rule fallback that kicks in after a run of
degenerate pivots, so it terminates on every input.  The MIP layer is
plain branch-and-bound on LP relaxations with best-bound node selection
and most-fractional branching.

This is deliberately a desk-scale kernel: dense numpy algebra, no presolve,
no warm starts.  ``set_backend`` lets callers swap in an external MIP solver
implementing ``solve_mip``'s interface when they need industrial scale; LPs
always use ``solve_lp``.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import MatchlotError

_RC_TOL = 1e-9
_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-7
_INT_TOL = 1e-6
_MAX_ITER = 200_000
_REFACTOR_EVERY = 200
_BLAND_AFTER = 60

LE, EQ, GE = "<=", "==", ">="


class SolverError(MatchlotError):
    """Numerical failure or resource exhaustion inside the solver."""


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float = 0.0
    ub: float = math.inf
    integer: bool = False
    branch_priority: int = 0  # higher branches first among fractional vars


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str
    rhs: float


@dataclass(frozen=True)
class LinearProgram:
    sense: str  # "min" or "max"
    objective: dict[str, float]
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    name: str = "lp"


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | unbounded | feasible | unknown
    objective: float | None
    primal: dict[str, float] = field(default_factory=dict)
    duals: dict[str, float] = field(default_factory=dict)
    duality_gap: float | None = None
    nodes: int = 0
    branches: int = 0


class _Compiled:
    """Dense arrays for one program; bounds can be overridden per solve."""

    def __init__(self, program: LinearProgram):
        self.minimize = program.sense == "min"
        if program.sense not in ("min", "max"):
            raise ValueError(f"unknown objective sense {program.sense!r}")
        self.var_names = [v.name for v in program.variables]
        index = {}
        for pos, name in enumerate(self.var_names):
            if name in index:
                raise ValueError(f"duplicate variable name {name!r}")
            index[name] = pos
        n = len(self.var_names)
        self.con_names = [c.name for c in program.constraints]
        m = len(self.con_names)
        self.c = np.zeros(n)
        for name, coef in program.objective.items():
            self.c[index[name]] = coef
        if not self.minimize:
            self.c = -self.c
        self.A = np.zeros((m, n))
        self.senses = np.zeros(m, dtype=np.int8)
        self.b = np.zeros(m)
        sense_code = {LE: -1, EQ: 0, GE: 1}
        for r, con in enumerate(program.constraints):
            for name, coef in con.coeffs.items():
                self.A[r, index[name]] = coef
            self.senses[r] = sense_code[con.sense]
            self.b[r] = con.rhs
        self.lb = np.array([v.lb for v in program.variables], dtype=float)
        self.ub = np.array([v.ub for v in program.variables], dtype=float)
        if np.any(self.lb > self.ub + 1e-12):
            raise ValueError("variable with lb > ub")
        self.integer = np.array([v.integer for v in program.variables], dtype=bool)
        self.priority = np.array(
            [v.branch_priority for v in program.variables], dtype=int
        )
        if not np.all(np.isfinite(self.A)) or not np.all(np.isfinite(self.b)):
            raise ValueError("non-finite coefficient in the program")


class _Simplex:
    """Bounded-variable primal simplex over ``min c x, A x (<=,=,>=) b``.

    Internally every structural variable is shifted/mirrored/split to have
    lower bound zero, inequality rows gain slack columns, and rows are
    scaled so the right-hand side is non-negative; artificial columns
    complete the starting basis for phase one.
    """

    def __init__(
        self,
        A: np.ndarray,
        senses: np.ndarray,
        b: np.ndarray,
        c: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
    ):
        m, n = A.shape
        cols: list[np.ndarray] = []
        costs: list[float] = []
        ubs: list[float] = []
        # recover[j] = (kind, original index, offset/sign data)
        self.recover: list[tuple[str, int, float]] = []
        b_adj = b.astype(float).copy()
        self.obj_const = 0.0
        for j in range(n):
            col = A[:, j]
            if np.isfinite(lb[j]):
                cols.append(col)
                costs.append(c[j])
                ubs.append(ub[j] - lb[j])
                self.recover.append(("shift", j, lb[j]))
                if lb[j] != 0.0:
                    b_adj -= col * lb[j]
                    self.obj_const += c[j] * lb[j]
            elif np.isfinite(ub[j]):
                cols.append(-col)
                costs.append(-c[j])
                ubs.append(math.inf)
                self.recover.append(("mirror", j, ub[j]))
                b_adj -= col * ub[j]
                self.obj_const += c[j] * ub[j]
            else:
                cols.append(col)
                costs.append(c[j])
                ubs.append(math.inf)
                self.recover.append(("pos", j, 0.0))
                cols.append(-col)
                costs.append(-c[j])
                ubs.append(math.inf)
                self.recover.append(("neg", j, 0.0))
        n_struct = len(cols)
        self.slack_of_row = np.full(m, -1, dtype=int)
        for r in range(m):
            if senses[r] != 0:
                col = np.zeros(m)
                col[r] = 1.0 if senses[r] < 0 else -1.0
                cols.append(col)
                costs.append(0.0)
                ubs.append(math.inf)
                self.recover.append(("slack", r, 0.0))
                self.slack_of_row[r] = n_struct
                n_struct += 1
        self.row_sign = np.where(b_adj < 0, -1.0, 1.0)
        T = np.column_stack(cols) if cols else np.zeros((m, 0))
        self.T = T * self.row_sign[:, None]
        self.b = b_adj * self.row_sign
        self.cost = np.array(costs)
        self.u = np.array(ubs)
        self.m, self.n = self.T.shape
        self.n_structural = self.n

    def solve(self) -> tuple[str, np.ndarray | None, np.ndarray | None, float]:
        """Returns (status, x_original_space, y_rows, objective_min)."""
        m = self.m
        # Use a slack as the starting basic variable where its coefficient
        # is +1 after row scaling; add an artificial column otherwise.
        basis = np.full(m, -1, dtype=int)
        art_cols = []
        for r in range(m):
            s = self.slack_of_row[r]
            if s >= 0 and self.T[r, s] > 0.5:
                basis[r] = s
        for r in range(m):
            if basis[r] < 0:
                col = np.zeros(m)
                col[r] = 1.0
                art_cols.append(col)
                basis[r] = self.n + len(art_cols) - 1
        n_art = len(art_cols)
        if n_art:
            self.T = np.column_stack([self.T] + art_cols)
            self.u = np.concatenate([self.u, np.full(n_art, math.inf)])
            self.cost = np.concatenate([self.cost, np.zeros(n_art)])
            self.n += n_art

        at_upper = np.zeros(self.n, dtype=bool)
        if n_art:
            phase1 = np.zeros(self.n)
            phase1[self.n - n_art:] = 1.0
            status = self._iterate(phase1, basis, at_upper, allow_unbounded=False)
            if status != "optimal":
                raise SolverError("phase one did not terminate cleanly")
            resid = float(phase1 @ self._values(basis, at_upper, phase1)[0])
            if resid > _FEAS_TOL * max(1.0, float(np.abs(self.b).max(initial=0.0))):
                return "infeasible", None, None, math.inf
            # Artificials may linger in the basis at value zero; pinning
            # their bound keeps them there.
            self.u[self.n - n_art:] = 0.0

        status = self._iterate(self.cost, basis, at_upper, allow_unbounded=True)
        if status == "unbounded":
            return "unbounded", None, None, -math.inf
        x_full, x_basic = self._values(basis, at_upper, self.cost)
        B = self.T[:, basis]
        try:
            y = np.linalg.solve(B.T, self.cost[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular final basis") from exc
        obj = float(self.cost @ x_full) + self.obj_const
        y_rows = y * self.row_sign
        self._last_gap = self._compute_gap(x_full, y, at_upper, basis)
        return "optimal", x_full, y_rows, obj

    def _compute_gap(self, x_full, y, at_upper, basis) -> float:
        rc = self.cost - y @ self.T
        in_basis = np.zeros(self.n, dtype=bool)
        in_basis[basis] = True
        bound_terms = 0.0
        for j in np.nonzero(at_upper & ~in_basis)[0]:
            if np.isfinite(self.u[j]) and self.u[j] != 0.0:
                bound_terms += rc[j] * self.u[j]
        dual = float(y @ self.b) + bound_terms
        primal = float(self.cost @ x_full)
        return abs(primal - dual)

    def _values(self, basis, at_upper, cost):
        """Current full solution vector and the basic part."""
        rhs = self.b.copy()
        in_basis = np.zeros(self.n, dtype=bool)
        in_basis[basis] = True
        upper_nb = np.nonzero(at_upper & ~in_basis)[0]
        for j in upper_nb:
            rhs -= self.T[:, j] * self.u[j]
        B = self.T[:, basis]
        try:
            x_b = np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis") from exc
        x = np.zeros(self.n)
        x[upper_nb] = self.u[upper_nb]
        x[basis] = x_b
        return x, x_b

    def _iterate(self, cost, basis, at_upper, allow_unbounded: bool) -> str:
        m, n = self.m, self.n
        T = self.T
        try:
            B_inv = np.linalg.inv(T[:, basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular starting basis") from exc
        degenerate_run = 0
        bland = False
        since_refactor = 0
        for _ in range(_MAX_ITER):
            in_basis = np.zeros(n, dtype=bool)
            in_basis[basis] = True
            rhs = self.b.copy()
            upper_nb = np.nonzero(at_upper & ~in_basis)[0]
            if upper_nb.size:
                rhs = rhs - T[:, upper_nb] @ self.u[upper_nb]
            x_b = B_inv @ rhs
            y = cost[basis] @ B_inv
            rc = cost - y @ T
            lower_improving = ~in_basis & ~at_upper & (rc < -_RC_TOL)
            upper_improving = ~in_basis & at_upper & (rc > _RC_TOL)
            improving = np.nonzero(lower_improving | upper_improving)[0]
            if improving.size == 0:
                return "optimal"
            if bland:
                e = int(improving[0])
            else:
                e = int(improving[np.argmax(np.abs(rc[improving]))])
            sigma = -1.0 if at_upper[e] else 1.0
            d = B_inv @ T[:, e]
            # Ratio test: basic variables hitting either bound, or the
            # entering variable flipping to its other bound.
            sd = sigma * d
            ub_basic = self.u[basis]
            hit_lower = sd > _PIVOT_TOL
            hit_upper = (sd < -_PIVOT_TOL) & np.isfinite(ub_basic)
            ratios = np.full(m, math.inf)
            if hit_lower.any():
                ratios[hit_lower] = x_b[hit_lower] / sd[hit_lower]
            if hit_upper.any():
                ratios[hit_upper] = (ub_basic[hit_upper] - x_b[hit_upper]) / (
                    -sd[hit_upper]
                )
            np.maximum(ratios, 0.0, out=ratios)
            bound_flip = self.u[e] if np.isfinite(self.u[e]) else math.inf
            row_min = float(ratios.min()) if m else math.inf
            t_best = min(row_min, bound_flip)
            leave_row = -1
            leave_at_upper = False
            if row_min <= bound_flip and not math.isinf(row_min):
                tied = np.nonzero(ratios <= row_min + 1e-12)[0]
                if bland and tied.size > 1:
                    leave_row = int(tied[np.argmin(basis[tied])])
                else:
                    leave_row = int(tied[0])
                leave_at_upper = bool(hit_upper[leave_row])
            if math.isinf(t_best):
                if allow_unbounded:
                    return "unbounded"
                raise SolverError("phase-one subproblem unbounded")
            if t_best < _PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run >= _BLAND_AFTER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
            if leave_row < 0:
                # Bound flip: the entering variable traverses to its other
                # bound without changing the basis.
                at_upper[e] = ~at_upper[e]
                continue
            leaving = basis[leave_row]
            basis[leave_row] = e
            at_upper[leaving] = leave_at_upper
            at_upper[e] = False
            # Eta update of the basis inverse.
            pivot = d[leave_row]
            if abs(pivot) < _PIVOT_TOL:
                raise SolverError("pivot element vanished")
            B_inv[leave_row, :] /= pivot
            column = d.copy()
            column[leave_row] = 0.0
            B_inv -= np.outer(column, B_inv[leave_row, :])
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                try:
                    B_inv = np.linalg.inv(T[:, basis])
                except np.linalg.LinAlgError as exc:
                    raise SolverError("singular basis at refactorization") from exc
                since_refactor = 0
        raise SolverError("simplex iteration limit exceeded")


def _solve_compiled(
    model: _Compiled, lb: np.ndarray, ub: np.ndarray
) -> tuple[str, np.ndarray | None, np.ndarray | None, float, float | None]:
    simplex = _Simplex(model.A, model.senses, model.b, model.c, lb, ub)
    status, x_std, y_rows, obj = simplex.solve()
    if status != "optimal":
        return status, None, None, obj, None
    x = np.zeros(len(lb))
    for pos, (kind, j, data) in enumerate(simplex.recover):
        if kind == "shift":
            x[j] = x_std[pos] + data
        elif kind == "mirror":
            x[j] = data - x_std[pos]
        elif kind == "pos":
            x[j] += x_std[pos]
        elif kind == "neg":
            x[j] -= x_std[pos]
    return status, x, y_rows, obj, simplex._last_gap


def _result_from_arrays(
    model: _Compiled,
    status: str,
    x: np.ndarray | None,
    y: np.ndarray | None,
    obj: float,
    gap: float | None,
) -> SolveResult:
    factor = 1.0 if model.minimize else -1.0
    if status == "unbounded":
        return SolveResult(status="unbounded", objective=None)
    if status == "infeasible":
        return SolveResult(status="infeasible", objective=None)
    primal = {name: float(x[j]) for j, name in enumerate(model.var_names)}
    duals = {
        name: float(factor * y[r]) for r, name in enumerate(model.con_names)
    }
    return SolveResult(
        status="optimal",
        objective=float(factor * obj),
        primal=primal,
        duals=duals,
        duality_gap=gap,
    )


def solve_lp(program: LinearProgram) -> SolveResult:
    """Solve a pure LP, returning primal values and row duals.

    Dual sign convention: for a minimisation, duals of ``>=`` rows are
    non-negative and duals of ``<=`` rows non-positive; for a maximisation
    the signs flip.  Equality duals are sign-free.

    Raises:
        ValueError: if any variable carries an integrality flag.
        SolverError: on numerical failure (never silently).
    """
    model = _Compiled(program)
    if model.integer.any():
        raise ValueError("program has integer variables; use solve_mip")
    status, x, y, obj, gap = _solve_compiled(model, model.lb, model.ub)
    return _result_from_arrays(model, status, x, y, obj, gap)


def _fractional_parts(model: _Compiled, x: np.ndarray) -> np.ndarray:
    frac = np.abs(x - np.round(x))
    frac[~model.integer] = 0.0
    return frac


def _pick_branch_var(model: _Compiled, frac: np.ndarray) -> int:
    """Most fractional variable within the highest fractional priority class."""
    fractional = frac > _INT_TOL
    if not fractional.any():
        return -1
    top = model.priority[fractional].max()
    candidates = fractional & (model.priority == top)
    scores = np.where(candidates, frac, -1.0)
    return int(np.argmax(scores))


def solve_mip(
    program: LinearProgram,
    *,
    time_limit: float | None = None,
    target: float | None = None,
) -> SolveResult:
    """Branch-and-bound over LP relaxations.

    Nodes are explored in best-bound order; branching splits the most
    fractional variable, preferring variables with a higher
    ``branch_priority``, and solves both children at once.  Every open node
    then bounds at least the one popped, so the first integral node popped
    is optimal and ends the search.  It is flagged ``feasible`` instead of
    ``optimal`` when it is strictly better than ``target``.  A search the
    time limit interrupts ends ``unknown``.
    """
    model = _Compiled(program)
    factor = 1.0 if model.minimize else -1.0
    start = time.monotonic()

    root = _solve_compiled(model, model.lb, model.ub)
    if root[0] in ("infeasible", "unbounded"):
        return _result_from_arrays(model, root[0], None, None, root[3], None)

    counter = 0
    nodes_done = 0
    branches = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray]] = []
    heapq.heappush(heap, (root[3], counter, model.lb.copy(), model.ub.copy(), root[1]))
    status = "infeasible"
    while heap:
        bound, _, lb, ub, x = heapq.heappop(heap)
        nodes_done += 1
        pick = _pick_branch_var(model, _fractional_parts(model, x))
        if pick < 0:
            status = "optimal"
            break
        branches += 1
        value = x[pick]
        for side in ("down", "up"):
            lb_child = lb.copy()
            ub_child = ub.copy()
            if side == "down":
                ub_child[pick] = math.floor(value)
            else:
                lb_child[pick] = math.ceil(value)
            if lb_child[pick] > ub_child[pick] + 1e-12:
                continue
            sol = _solve_compiled(model, lb_child, ub_child)
            if sol[0] == "optimal":
                counter += 1
                heapq.heappush(heap, (sol[3], counter, lb_child, ub_child, sol[1]))
        if time_limit is not None and time.monotonic() - start > time_limit:
            status = "unknown"
            break

    if status != "optimal":
        return SolveResult(status=status, objective=None, nodes=nodes_done, branches=branches)
    if target is not None and bound < factor * target:
        status = "feasible"
    primal = {
        name: float(round(x[j]) if model.integer[j] else x[j])
        for j, name in enumerate(model.var_names)
    }
    return SolveResult(
        status=status,
        objective=float(factor * bound),
        primal=primal,
        nodes=nodes_done,
        branches=branches,
    )


# ---------------------------------------------------------------------------
# Pluggable backend

_BACKENDS = {"builtin": solve_mip}
_ACTIVE = "builtin"


def register_backend(name: str, mip_solver) -> None:
    """Register an external MIP solver with the signature of ``solve_mip``."""
    _BACKENDS[name] = mip_solver


def set_backend(name: str) -> None:
    global _ACTIVE
    if name not in _BACKENDS:
        raise KeyError(f"unknown backend {name!r}; registered: {sorted(_BACKENDS)}")
    _ACTIVE = name


def backend_solve_mip(program: LinearProgram, **kwargs) -> SolveResult:
    return _BACKENDS[_ACTIVE](program, **kwargs)
