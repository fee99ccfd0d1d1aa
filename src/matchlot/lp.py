"""Self-contained linear and mixed-integer programming.

The LP kernel is a dense two-phase primal simplex with variable bounds,
Dantzig pricing and a Bland's-rule fallback that kicks in after a run of
degenerate pivots, so it terminates on every input.  The MIP layer is
plain branch-and-bound on LP relaxations with best-bound node selection
and most-fractional branching.  It builds the simplex standard form once
per program and warm-starts every child node: the child differs from its
parent in one column bound, so the parent's optimal basis stays dual
feasible and a bounded-variable dual simplex (same pivot tolerance,
refactorisation cadence and Bland fallback) restores primal feasibility.
Each branch factorises its parent's basis once for both children, and the
dual simplex carries the basic values and reduced costs through its pivots
(``x_B -= t d``, ``rc -= (rc_e / alpha_e) alpha``), recomputing them only
after a refactorisation.

Every program is a ``DenseProgram``: dense arrays ``c``, ``A``, row sense
codes, ``b``, column bounds, integrality flags and branch priorities, with
columns and rows addressed by position.  Callers build the arrays directly
(the column-generation masters, the matching MIPs of ``pe_program``), and
results come back as arrays in the same order.  The standard form is built
from them with array operations, and the first primal solve starts from the
identity inverse of its slack/artificial basis.

This is deliberately a desk-scale kernel: dense numpy algebra, no presolve,
and the only solver the package uses: LPs go to ``solve_lp`` and MIPs to
``solve_mip``.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import MatchlotError

_RC_TOL = 1e-9
_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-7
_INT_TOL = 1e-6
_MAX_ITER = 200_000
_REFACTOR_EVERY = 200
_BLAND_AFTER = 60

LE, EQ, GE = -1, 0, 1  # row sense codes of a DenseProgram


class SolverError(MatchlotError):
    """Numerical failure or resource exhaustion inside the solver."""


@dataclass
class SolveResult:
    """A solver's verdict.

    ``primal`` holds the optimum's values in column order and, for an LP,
    ``duals`` its row duals in row order.  Both are empty when no optimum
    was found; a MIP's ``duals`` always are.
    """

    status: str  # optimal | infeasible | unbounded | unknown
    objective: float | None
    primal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    duality_gap: float | None = None
    nodes: int = 0
    branches: int = 0
    iterations: int = 0  # simplex pivots and bound flips, phase one included


class DenseProgram:
    """A program as dense arrays: the form the simplex reads.

    ``A`` is the ``(rows, columns)`` coefficient matrix, ``senses`` codes
    each row ``LE``, ``EQ`` or ``GE``, and ``c`` holds the objective of the
    given ``sense``.  ``integer`` flags the integer columns and ``priority``
    ranks them for branching (higher branches first among fractional
    columns); by default every column is continuous with priority 0.

    Raises:
        ValueError: on a shape mismatch, an unknown sense or sense code, a
            non-finite ``c``, ``A`` or ``b``, a NaN bound, ``lb > ub``,
            ``lb = +inf`` or ``ub = -inf``, or an integer column with
            neither bound finite.
    """

    def __init__(
        self, c, A, senses, b, lb, ub, sense: str = "min", *, integer=None, priority=None
    ):
        if sense not in ("min", "max"):
            raise ValueError(f"unknown objective sense {sense!r}")
        m, n = A.shape
        self.minimize = sense == "min"
        self.c, self.A, self.senses, self.b, self.lb, self.ub = c, A, senses, b, lb, ub
        self.integer = np.zeros(n, bool) if integer is None else np.asarray(integer, bool)
        self.priority = np.zeros(n, int) if priority is None else priority
        if any(v.shape != (n,) for v in (c, lb, ub, self.integer, self.priority)):
            raise ValueError(
                "objective, bounds, integrality and priorities need one entry per column"
            )
        if senses.shape != (m,) or b.shape != (m,):
            raise ValueError("senses and right-hand sides need one entry per row")
        if not np.isin(senses, (LE, EQ, GE)).all():
            raise ValueError("row sense codes must be -1, 0 or 1")
        if not all(np.isfinite(v).all() for v in (c, A, b)):
            raise ValueError("non-finite coefficient in the program")
        if np.isnan(lb).any() or np.isnan(ub).any():
            raise ValueError("NaN variable bound")
        if np.any(lb == math.inf) or np.any(ub == -math.inf):
            raise ValueError("variable bound lb = +inf or ub = -inf")
        if np.any(lb > ub + 1e-12):
            raise ValueError("variable with lb > ub")
        if np.any(self.integer & np.isinf(lb) & np.isinf(ub)):
            raise ValueError("every integer variable needs a finite bound")


def _invert(B: np.ndarray, failure: str) -> np.ndarray:
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise SolverError(failure) from exc


def _eta_update(B_inv: np.ndarray, d: np.ndarray, r: int) -> None:
    """Swap row ``r``'s basic column for one with ``d = B_inv @ column``.

    Updates ``B_inv`` in place and overwrites ``d``.
    """
    pivot = d[r]
    if abs(pivot) < _PIVOT_TOL:
        raise SolverError("pivot element vanished")
    B_inv[r, :] /= pivot
    d[r] = 0.0
    B_inv -= np.outer(d, B_inv[r, :])


class _Vertex(NamedTuple):
    """An optimal basic solution in the simplex's standard form."""

    x: np.ndarray  # standard-form values
    objective: float  # minimisation objective, constant included
    basis: np.ndarray
    at_upper: np.ndarray


class _Simplex:
    """Bounded-variable simplex over ``min c x, A x (<=,=,>=) b``.

    The standard form is built once, at the program's own bounds: every
    structural variable is shifted/mirrored/split to have lower bound zero,
    inequality rows gain slack columns, and rows are scaled so the
    right-hand side is non-negative.  ``solve`` runs the two-phase primal
    simplex, with artificial columns completing the starting basis for phase
    one.  ``resolve`` re-optimises under tighter column bounds with the dual
    simplex, starting from an optimal basis of the looser problem.
    ``iterations`` counts the pivots and bound flips of every solve.
    """

    def __init__(self, model: DenseProgram):
        A, b, lb, ub = model.A, model.b, model.lb, model.ub
        c = model.c if model.minimize else -model.c
        m, n = A.shape
        shifted = np.isfinite(lb)
        mirrored = ~shifted & np.isfinite(ub)
        free = ~shifted & ~mirrored
        # Variable j is offset[j] plus the sum of signs * x_std over its
        # columns: one column, or two (+, then -) for a free variable.
        self.var_of = np.repeat(np.arange(n), np.where(free, 2, 1))
        self.column = np.searchsorted(self.var_of, np.arange(n))  # first column
        self.signs = np.ones(self.var_of.size)
        self.signs[self.column[mirrored]] = -1.0
        self.signs[self.column[free] + 1] = -1.0
        self.offset = np.where(shifted, lb, np.where(mirrored, ub, 0.0))
        # One column at a time, in order, so b and the constant keep the
        # bits of a sequential accumulation.
        b_adj = b.astype(float).copy()
        self.obj_const = 0.0
        for j in np.flatnonzero(mirrored | (shifted & (lb != 0.0))):
            b_adj -= A[:, j] * self.offset[j]
            self.obj_const += c[j] * self.offset[j]
        var_ub = np.full(n, math.inf)
        var_ub[shifted] = ub[shifted] - lb[shifted]
        # Slack columns, in row order, after the structural ones.
        slack_rows = np.flatnonzero(model.senses != 0)
        n_slack = slack_rows.size
        slacks = np.zeros((m, n_slack))
        slacks[slack_rows, np.arange(n_slack)] = np.where(
            model.senses[slack_rows] < 0, 1.0, -1.0
        )
        self.slack_of_row = np.full(m, -1, dtype=int)
        self.slack_of_row[slack_rows] = self.var_of.size + np.arange(n_slack)
        self.row_sign = np.where(b_adj < 0, -1.0, 1.0)
        T = np.hstack([A[:, self.var_of] * self.signs, slacks])
        self.T = T * self.row_sign[:, None]
        self.b = b_adj * self.row_sign
        self.cost = np.concatenate([c[self.var_of] * self.signs, np.zeros(n_slack)])
        self.u = np.concatenate([var_ub[self.var_of], np.full(n_slack, math.inf)])
        self.m, self.n = self.T.shape
        self.iterations = 0

    def original(self, x_std: np.ndarray) -> np.ndarray:
        """The program's variable values at a standard-form point."""
        weights = self.signs * x_std[: self.var_of.size]
        return self.offset + np.bincount(
            self.var_of, weights=weights, minlength=self.offset.size
        )

    def tightened(
        self, lo: np.ndarray, hi: np.ndarray, j: int, value: float, upper: bool
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Column bounds after adding ``x_j <= value`` (``upper``) or ``>=``.

        Returns None when the bound empties the variable's range.  Variable
        ``j`` must have a finite bound, so that it owns a single column.  The
        arrays are never written in place, so the unchanged one is shared.
        """
        p = self.column[j]
        sign = self.signs[p]
        if (sign > 0) == upper:
            hi = hi.copy()
            hi[p] = sign * (value - self.offset[j])
        else:
            lo = lo.copy()
            lo[p] = sign * (value - self.offset[j])
        if lo[p] > hi[p] + 1e-12:
            return None
        return lo, hi

    def solve(self) -> tuple[str, _Vertex | None]:
        """Two-phase primal simplex from a slack/artificial basis.

        Artificial columns that complete the basis stay in the standard form
        with their upper bound pinned at zero, so ``self.u`` afterwards holds
        the column bounds of every later ``resolve``.
        """
        m = self.m
        # Use a slack as the starting basic variable where its coefficient
        # is +1 after row scaling; add an artificial column otherwise.  The
        # starting basis matrix is then the identity.
        basis = np.full(m, -1, dtype=int)
        slack_rows = np.flatnonzero(self.slack_of_row >= 0)
        usable = self.T[slack_rows, self.slack_of_row[slack_rows]] > 0.5
        basis[slack_rows[usable]] = self.slack_of_row[slack_rows[usable]]
        art_rows = np.flatnonzero(basis < 0)
        n_art = art_rows.size
        if n_art:
            artificials = np.zeros((m, n_art))
            artificials[art_rows, np.arange(n_art)] = 1.0
            basis[art_rows] = self.n + np.arange(n_art)
            self.T = np.hstack([self.T, artificials])
            self.u = np.concatenate([self.u, np.full(n_art, math.inf)])
            self.cost = np.concatenate([self.cost, np.zeros(n_art)])
            self.n += n_art

        at_upper = np.zeros(self.n, dtype=bool)
        B_inv = np.eye(m)
        if n_art:
            phase1 = np.zeros(self.n)
            phase1[self.n - n_art:] = 1.0
            self._iterate(phase1, basis, at_upper, B_inv, allow_unbounded=False)
            resid = float(phase1 @ self._values(basis, at_upper))
            if resid > _FEAS_TOL * max(1.0, float(np.abs(self.b).max(initial=0.0))):
                return "infeasible", None
            # Artificials may linger in the basis at value zero; pinning
            # their bound keeps them there.
            self.u[self.n - n_art:] = 0.0
            B_inv = _invert(self.T[:, basis], "singular starting basis")

        status = self._iterate(self.cost, basis, at_upper, B_inv, allow_unbounded=True)
        if status == "unbounded":
            return "unbounded", None
        x_full = self._values(basis, at_upper)
        obj = float(self.cost @ x_full) + self.obj_const
        return "optimal", _Vertex(x_full, obj, basis, at_upper)

    def duals(self, vertex: _Vertex) -> tuple[np.ndarray, float]:
        """Row duals of an optimal vertex and its primal-dual gap."""
        B = self.T[:, vertex.basis]
        try:
            y = np.linalg.solve(B.T, self.cost[vertex.basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular final basis") from exc
        gap = self._compute_gap(vertex.x, y, vertex.at_upper, vertex.basis)
        return y * self.row_sign, gap

    def factorise(self, vertex: _Vertex) -> np.ndarray:
        """The inverse of ``vertex``'s basis matrix, as ``resolve`` takes it."""
        return _invert(self.T[:, vertex.basis], "singular starting basis")

    def resolve(
        self, parent: _Vertex, lo: np.ndarray, hi: np.ndarray, B_inv: np.ndarray
    ) -> tuple[str, _Vertex | None]:
        """Dual simplex under column bounds ``lo``/``hi``, from ``parent``.

        ``parent`` is optimal for bounds that contain these, so its basis is
        dual feasible and only primal feasibility has to be restored: each
        pivot takes the most violated basic variable out at its bound and
        brings in the nonbasic column with the smallest dual ratio.  When no
        column can enter, the dual is unbounded and the bounds infeasible.

        ``B_inv`` is ``factorise(parent)``; the pivots update it in place.
        The basic values and reduced costs are computed from it at the start
        and after each refactorisation, and carried through the pivots in
        between.
        """
        T = self.T
        basis = parent.basis.copy()
        at_upper = parent.at_upper.copy()
        in_basis = np.zeros(self.n, dtype=bool)
        in_basis[basis] = True
        movable = lo < hi
        degenerate_run = 0
        bland = False
        since_refactor = 0
        for _ in range(_MAX_ITER):
            if since_refactor == 0:
                x = np.where(at_upper, hi, lo)
                x[basis] = 0.0
                x_b = B_inv @ (self.b - T @ x)
                rc = self.cost - (self.cost[basis] @ B_inv) @ T
            below = lo[basis] - x_b
            violation = np.maximum(below, x_b - hi[basis])
            rows = np.nonzero(violation > _FEAS_TOL)[0]
            if rows.size == 0:
                x = np.where(at_upper, hi, lo)
                x[basis] = x_b
                obj = float(self.cost @ x) + self.obj_const
                return "optimal", _Vertex(x, obj, basis, at_upper)
            if bland:
                r = int(rows[np.argmin(basis[rows])])
            else:
                r = int(rows[np.argmax(violation[rows])])
            # x_b[r] moves by -alpha[j] per unit of x_j: it must rise when
            # it is below its lower bound and fall when above its upper.
            rise = below[r] > 0
            alpha = B_inv[r] @ T
            toward = alpha if rise else -alpha
            eligible = ~in_basis & movable & np.where(
                at_upper, toward > _PIVOT_TOL, toward < -_PIVOT_TOL
            )
            candidates = np.nonzero(eligible)[0]
            if candidates.size == 0:
                return "infeasible", None
            slack = np.where(at_upper[candidates], -rc[candidates], rc[candidates])
            ratios = np.maximum(slack, 0.0) / np.abs(alpha[candidates])
            step = float(ratios.min())
            tied = candidates[ratios <= step + 1e-12]
            if bland or tied.size == 1:
                e = int(tied[0])
            else:
                e = int(tied[np.argmax(np.abs(alpha[tied]))])
            if step < _PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run >= _BLAND_AFTER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
            leaving = basis[r]
            d = B_inv @ T[:, e]
            # x_e moves by theta, which lands x_b[r] on its violated bound.
            theta = (x_b[r] - (lo[leaving] if rise else hi[leaving])) / d[r]
            x_b -= theta * d
            x_b[r] = (hi[e] if at_upper[e] else lo[e]) + theta
            rc -= (rc[e] / alpha[e]) * alpha
            basis[r] = e
            in_basis[leaving] = False
            in_basis[e] = True
            at_upper[leaving] = not rise
            at_upper[e] = False
            _eta_update(B_inv, d, r)
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                B_inv = _invert(T[:, basis], "singular basis at refactorization")
                since_refactor = 0
        raise SolverError("simplex iteration limit exceeded")

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

    def _values(self, basis, at_upper):
        """The full standard-form solution at a basis."""
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
        return x

    def _iterate(self, cost, basis, at_upper, B_inv, allow_unbounded: bool) -> str:
        """Primal simplex from ``basis``; updates its inverse ``B_inv`` in place."""
        m, n = self.m, self.n
        T = self.T
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
            self.iterations += 1
            if leave_row < 0:
                # Bound flip: the entering variable traverses to its other
                # bound without changing the basis.
                at_upper[e] = ~at_upper[e]
                continue
            leaving = basis[leave_row]
            basis[leave_row] = e
            at_upper[leaving] = leave_at_upper
            at_upper[e] = False
            _eta_update(B_inv, d, leave_row)
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                B_inv = _invert(T[:, basis], "singular basis at refactorization")
                since_refactor = 0
        raise SolverError("simplex iteration limit exceeded")


def solve_lp(program: DenseProgram) -> SolveResult:
    """Solve a pure LP, returning primal values and row duals as arrays.

    Dual sign convention: for a minimisation, duals of ``>=`` rows are
    non-negative and duals of ``<=`` rows non-positive; for a maximisation
    the signs flip.  Equality duals are sign-free.

    Raises:
        ValueError: if any variable carries an integrality flag.
        SolverError: on numerical failure (never silently).
    """
    if program.integer.any():
        raise ValueError("program has integer variables; use solve_mip")
    simplex = _Simplex(program)
    status, vertex = simplex.solve()
    if vertex is None:
        return SolveResult(status=status, objective=None, iterations=simplex.iterations)
    y, gap = simplex.duals(vertex)
    factor = 1.0 if program.minimize else -1.0
    return SolveResult(
        status="optimal",
        objective=float(factor * vertex.objective),
        primal=simplex.original(vertex.x),
        duals=factor * y,
        duality_gap=gap,
        iterations=simplex.iterations,
    )


def _fractional_parts(model: DenseProgram, x: np.ndarray) -> np.ndarray:
    frac = np.abs(x - np.round(x))
    frac[~model.integer] = 0.0
    return frac


def _pick_branch_var(model: DenseProgram, frac: np.ndarray) -> int:
    """Most fractional variable within the highest fractional priority class."""
    fractional = frac > _INT_TOL
    if not fractional.any():
        return -1
    top = model.priority[fractional].max()
    candidates = fractional & (model.priority == top)
    scores = np.where(candidates, frac, -1.0)
    return int(np.argmax(scores))


def solve_mip(
    program: DenseProgram,
    *,
    time_limit: float | None = None,
) -> SolveResult:
    """Branch-and-bound over LP relaxations.

    Nodes are explored in best-bound order; branching splits the most
    fractional variable, preferring variables with a higher ``priority``,
    and solves both children at once.  The root is solved by the primal
    simplex; each child changes one column bound, so it is re-solved by the
    dual simplex from its parent's optimal basis.  Every open node bounds at
    least the one popped, so the first integral node popped is optimal and
    ends the search.  A search the time limit interrupts ends ``unknown``.

    Raises:
        SolverError: on numerical failure (never silently).
    """
    factor = 1.0 if program.minimize else -1.0
    start = time.monotonic()

    simplex = _Simplex(program)
    status, root = simplex.solve()
    if root is None:
        return SolveResult(status=status, objective=None, iterations=simplex.iterations)

    counter = 0
    nodes_done = 0
    branches = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, _Vertex]] = [
        (root.objective, counter, np.zeros(simplex.n), simplex.u.copy(), root)
    ]
    status = "infeasible"
    while heap:
        bound, _, lo, hi, vertex = heapq.heappop(heap)
        nodes_done += 1
        x = simplex.original(vertex.x)
        pick = _pick_branch_var(program, _fractional_parts(program, x))
        if pick < 0:
            status = "optimal"
            break
        branches += 1
        # One factorisation of the parent's basis serves both children; the
        # first re-solves from a copy, since resolve updates it in place.
        B_inv = simplex.factorise(vertex)
        down = simplex.tightened(lo, hi, pick, math.floor(x[pick]), upper=True)
        up = simplex.tightened(lo, hi, pick, math.ceil(x[pick]), upper=False)
        for child, child_inv in ((down, B_inv.copy()), (up, B_inv)):
            if child is None:
                continue
            child_status, solved = simplex.resolve(vertex, *child, child_inv)
            if child_status == "optimal":
                counter += 1
                heapq.heappush(heap, (solved.objective, counter, *child, solved))
        if time_limit is not None and time.monotonic() - start > time_limit:
            status = "unknown"
            break

    if status != "optimal":
        return SolveResult(
            status=status,
            objective=None,
            nodes=nodes_done,
            branches=branches,
            iterations=simplex.iterations,
        )
    return SolveResult(
        status=status,
        objective=float(factor * bound),
        # Integer columns come back rounded; adding 0.0 turns -0.0 into 0.0.
        primal=np.where(program.integer, np.round(x) + 0.0, x),
        nodes=nodes_done,
        branches=branches,
        iterations=simplex.iterations,
    )


_ACTIVE = "builtin"  # the MIP solver's name, as the benchmark's reports give it


# A second name for solve_mip, which bench/spans.py and tests wrap per module.
def backend_solve_mip(program: DenseProgram, **kwargs) -> SolveResult:
    return solve_mip(program, **kwargs)
