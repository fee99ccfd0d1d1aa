"""Self-contained linear and mixed-integer programming.

The LP kernel is a dense bounded-variable simplex with Dantzig pricing.
Every row has one slack column whose bounds carry the row's sense, and
every solve starts from that slack basis.  Only the bounded-variable dual
simplex restores primal feasibility.  When the slack basis is dual feasible
(every column of negative cost has a finite upper bound, where it starts),
it runs under the real costs and its optimum is the answer: every program
the package builds starts this way.  Otherwise, or when that dual start
fails numerically, it runs as phase one under zero costs, for which every
basis is dual feasible, and the primal simplex (phase two) optimises from
the feasible basis it finds.  The dual simplex proves a program infeasible
by a row no column can move toward its violated bound; that row of the
basis inverse is a Farkas ray, which ``solve_lp`` returns with the verdict
(the coverage master prices on it).  Both loops pivot by Bland's rule only
once a state (the basis and the columns at their upper bound) repeats since
the objective last moved, so they terminate on every input without giving
up Dantzig pricing on long degenerate runs.

The MIP layer is plain branch-and-bound on LP relaxations with best-bound
node selection and most-fractional branching.  It builds the simplex
standard form once per program and warm-starts every child node: the
child differs from its parent in one column bound, so the parent's optimal
basis stays dual feasible and the same dual simplex restores primal
feasibility.  A child whose re-solve fails numerically is re-solved from
the root's basis, which is dual feasible for every node.  Each branch
factorises its parent's basis once for both children, and the dual simplex
carries the basic values and reduced costs through its pivots
(``x_B -= t d``, ``rc -= (rc_e / alpha_e) alpha``), recomputing them only
after a refactorisation.

The rest of a pivot's state is carried too, so that each pivot makes few
numpy passes: the bounds of the basic columns, the nonbasic columns' values
at their bounds, and one signed direction per column (+1 for a nonbasic
movable column at its lower bound, -1 at its upper, 0 for basic and fixed
columns).  A pivot changes two entries of each.  The leaving row is one
``argmax`` over the bound violations.  The entering test multiplies the
pivot row ``alpha`` by the directions, and by -1 when the leaving variable
must rise: a column can enter exactly where that product exceeds the pivot
tolerance, where it equals ``|alpha|``, and its dual slack is its direction
times its reduced cost.  The rank-one update of the basis inverse is
``np.einsum``'s outer product.  Replaying the seed-0 benchmark programs, a
pivot takes 41 µs on ``margin-bisect`` (113-row pricing MIPs, 55-row
masters), 52 µs on ``adversarial-bisect`` and 62 µs on ``rsd-maximin``
(136-row ``p-`` MIPs).

Phase two selects its entering column through the same directions: a
column improves the objective where its direction times its reduced cost
is below ``-_RC_TOL``, and the entering column ``e`` moves the basic
values along ``-sgn_e d``, with ``d = B_inv @ T[:, e]``.  Phase two
recomputes the basic values and reduced costs from ``B_inv`` at every
iteration.

Every factorisation (a branch's, the one every ``_REFACTOR_EVERY`` pivots,
and phase two's start) takes out the basis's singleton columns first,
as LU codes for simplex bases do (Suhl & Suhl, ORSA J. Computing, 1990):
slacks and variables of one row each have one nonzero, so only the block of
the other columns on the rows no singleton covers goes to
``np.linalg.inv``.  At a ``margin-bisect`` branch that block is a median
37 of the basis's 113 columns, and factorising the 209 branch bases of 20
markets takes 0.057 s instead of 0.176 s; over the 116 factorisations of a
100-agent search (648 rows, a median block of 253) 1.9 s instead of 12.2 s.

A caller that needs only a solution better than a known value passes it as
``solve_mip``'s ``cutoff``.  The dual simplex then abandons a node as soon
as its objective bound reaches the cutoff, which is sound because a dual
simplex objective only rises, and the search ends ``infeasible`` when no
solution beats it.  Best-bound search pops every node below an optimum
before that optimum, so an optimum that beats the cutoff comes back exactly
as it would without one; only node and pivot counts fall.

Every program is a ``DenseProgram``: dense arrays ``c``, ``A``, row sense
codes, ``b``, column bounds, integrality flags and branch priorities, with
columns and rows addressed by position.  Callers build the arrays directly
(the column-generation masters, the matching MIPs of ``pe_program``), and
results come back as arrays in the same order.  The standard form is built
from them with array operations.

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
# A cutoff is tightened by this much, relative to its size, so a node whose
# objective equals the cutoff up to rounding is pruned like an exact tie.
_CUTOFF_TOL = 1e-9

LE, EQ, GE = -1, 0, 1  # row sense codes of a DenseProgram


class SolverError(MatchlotError):
    """Numerical failure or resource exhaustion inside the solver."""


@dataclass
class SolveResult:
    """A solver's verdict.

    ``primal`` holds the optimum's values in column order and, for an LP,
    ``duals`` its row duals in row order.  Both are empty when no optimum
    was found; a MIP's ``duals`` always are.  ``farkas`` is filled only for
    an ``infeasible`` LP: one entry per row, in the sign convention of
    ``duals``, scaled to max |y_i| = 1, such that (in minimisation form)
    ``max (y A) x`` over the column bounds stays below ``y b``, so no point
    meets every row.
    """

    status: str  # optimal | infeasible | unbounded | unknown
    objective: float | None
    primal: np.ndarray = field(default_factory=lambda: np.zeros(0))
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    farkas: np.ndarray = field(default_factory=lambda: np.zeros(0))
    nodes: int = 0
    branches: int = 0
    # Simplex pivots and bound flips of every LP the call solved: a dual
    # start's, or the dual phase one's and the primal phase two's (and a
    # failed dual start's before them).
    iterations: int = 0


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
    """The inverse of the basis matrix ``B``, by its singleton columns.

    A column ``u`` with one nonzero ``v``, in row ``r``, is a slack or a
    variable of one row.  With ``S`` the other columns and ``R_s`` the rows
    no singleton covers, only ``C = B[R_s, S]`` is inverted densely; then
    ``B_inv[S, R_s] = C^-1``, ``B_inv[u, r] = 1 / v`` and
    ``B_inv[u, R_s] = -B[r, S] C^-1 / v``, and every other entry is zero.

    Raises:
        SolverError: with message ``failure`` when ``B`` is singular: two
            singletons share a row, so that ``C`` is not square, or ``C``
            is singular.
    """
    m = B.shape[0]
    nonzero = B != 0.0
    counts = nonzero.sum(axis=0)
    single = np.flatnonzero(counts == 1)
    rows = (np.arange(m, dtype=float) @ nonzero[:, single]).astype(int)  # r of each u
    covered = np.zeros(m, dtype=bool)
    covered[rows] = True
    rest = np.flatnonzero(counts != 1)
    free_rows = np.flatnonzero(~covered)
    try:  # C is not square when two singletons share a row
        C_inv = np.linalg.inv(B[free_rows][:, rest])
    except np.linalg.LinAlgError as exc:
        raise SolverError(failure) from exc
    v = B[rows, single]
    # The columns R_s of B_inv, filled row by row before one column scatter.
    block = np.empty((m, free_rows.size))
    block[rest] = C_inv
    block[single] = (B[rows][:, rest] @ C_inv) / -v[:, None]
    B_inv = np.zeros((m, m))
    B_inv[:, free_rows] = block
    B_inv[single, rows] = 1.0 / v
    return B_inv


def _eta_update(B_inv: np.ndarray, d: np.ndarray, r: int) -> None:
    """Swap row ``r``'s basic column for one with ``d = B_inv @ column``.

    Updates ``B_inv`` in place and overwrites ``d``.  The rank-one term is
    ``np.einsum``'s outer product: the same products as ``np.outer`` in
    about two thirds of its time at simplex sizes, except that a product
    of -0.0 comes out +0.0.  That may flip the sign of a zero in ``B_inv``,
    which no result reads: every read of ``B_inv`` is a matrix product,
    whose sums start from +0.0.
    """
    pivot = d[r]
    if abs(pivot) < _PIVOT_TOL:
        raise SolverError("pivot element vanished")
    B_inv[r, :] /= pivot
    d[r] = 0.0
    B_inv -= np.einsum("i,j->ij", d, B_inv[r, :])


class _CycleCheck:
    """Bland's rule for a simplex loop, from the first repeated state on.

    A state is the basis and the nonbasic columns at their upper bound.  A
    pivot that moves the objective can never return to an earlier state, so
    only the states since the last such pivot are kept; the loop cycles
    exactly when one of them repeats.  From then on it pivots by Bland's
    rule, which cannot cycle, until the objective moves again.
    """

    def __init__(self):
        self.seen: set[bytes] = set()
        self.bland = False

    def repeated(self, basis: np.ndarray, at_upper: np.ndarray) -> bool:
        """Record the current state; whether to pivot by Bland's rule."""
        if not self.bland:
            state = basis.tobytes() + np.packbits(at_upper).tobytes()
            self.bland = state in self.seen
            self.seen.add(state)
        return self.bland

    def progressed(self) -> None:
        """The last pivot moved the objective."""
        self.seen.clear()
        self.bland = False


class _Vertex(NamedTuple):
    """An optimal basic solution in the simplex's standard form."""

    x: np.ndarray  # standard-form values
    objective: float  # minimisation objective, constant included
    basis: np.ndarray
    at_upper: np.ndarray


class _Simplex:
    """Bounded-variable simplex over ``min c x, A x (<=,=,>=) b``.

    The standard form is built once, at the program's own bounds, and never
    changes: every structural variable is shifted/mirrored/split to have
    lower bound zero, and every row gains one slack column after them, in
    row order: +1 on a ``<=`` row, -1 on a ``>=`` row, and +1 fixed at
    zero on an ``=`` row.  ``solve`` starts from that slack basis.
    ``resolve`` is the dual simplex: it optimises from that basis when it
    is dual feasible, finds a feasible basis under zero costs (phase one)
    when it is not, and re-optimises under tighter column bounds from an
    optimal basis of the looser problem.  ``_iterate`` is the primal simplex
    of phase two.  ``iterations`` counts the pivots and bound flips of every
    solve.
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
        self.b = b.astype(float)
        self.obj_const = 0.0
        for j in np.flatnonzero(mirrored | (shifted & (lb != 0.0))):
            self.b -= A[:, j] * self.offset[j]
            self.obj_const += c[j] * self.offset[j]
        var_ub = np.full(n, math.inf)
        var_ub[shifted] = ub[shifted] - lb[shifted]
        # One slack column per row, in row order, after the structural ones:
        # +1 on a <= row, -1 on a >= row, and fixed at zero on an = row.
        self.slack_sign = np.where(model.senses == GE, -1.0, 1.0)
        n_std = self.var_of.size
        self.T = np.zeros((m, n_std + m))
        np.multiply(A[:, self.var_of], self.signs, out=self.T[:, :n_std])
        self.T[np.arange(m), n_std + np.arange(m)] = self.slack_sign
        self.cost = np.concatenate([c[self.var_of] * self.signs, np.zeros(m)])
        slack_ub = np.where(model.senses == EQ, 0.0, math.inf)
        self.u = np.concatenate([var_ub[self.var_of], slack_ub])
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

    def solve(self, limit: float = math.inf) -> tuple[str, _Vertex | None]:
        """Optimise from the slack basis.

        The slack basis matrix is ``diag(slack_sign)``, its own inverse, and
        its reduced costs are the costs, so it is dual feasible when every
        column of negative cost has a finite upper bound.  Then those
        columns start at that bound and the dual simplex of ``resolve``
        restores primal feasibility, under the objective ``limit``.
        Otherwise, or if that attempt fails numerically, ``resolve`` runs
        from the same basis under zero costs (phase one): its verdict
        ``infeasible`` is final, and from the feasible basis it finds the
        primal simplex optimises (phase two), which takes no limit.  The
        standard form is never changed, so ``self.u`` holds the column
        bounds of every later ``resolve``.
        """
        basis = np.arange(self.n - self.m, self.n)
        lo = np.zeros(self.n)
        if np.all((self.cost >= 0.0) | np.isfinite(self.u)):
            try:
                return self.resolve(
                    basis, self.cost < 0.0, lo, self.u, np.diag(self.slack_sign), limit
                )
            except SolverError:
                pass
        # Phase one: under zero costs every basis is dual feasible.
        none_upper = np.zeros(self.n, dtype=bool)
        status, vertex = self.resolve(
            basis, none_upper, lo, self.u, np.diag(self.slack_sign), cost=np.zeros(self.n)
        )
        if vertex is None:
            return status, None
        return self._iterate(vertex.basis, vertex.at_upper, self.factorise(vertex))

    def duals(self, vertex: _Vertex) -> np.ndarray:
        """Row duals of an optimal vertex."""
        B = self.T[:, vertex.basis]
        try:
            return np.linalg.solve(B.T, self.cost[vertex.basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular final basis") from exc

    def factorise(self, vertex: _Vertex) -> np.ndarray:
        """The inverse of ``vertex``'s basis matrix, as ``resolve`` takes it."""
        return _invert(self.T[:, vertex.basis], "singular starting basis")

    def resolve(
        self,
        basis: np.ndarray,
        at_upper: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        B_inv: np.ndarray,
        limit: float = math.inf,
        *,
        cost: np.ndarray | None = None,
    ) -> tuple[str, _Vertex | None]:
        """Dual simplex under column bounds ``lo``/``hi``, from ``basis``.

        The basis, with the nonbasic columns flagged in ``at_upper`` at
        their upper bound and the rest at their lower, must be dual
        feasible: an optimal basis of looser bounds is, and so is the
        starting basis of ``solve`` when it takes the dual start.  Only
        primal feasibility has to be restored: each pivot takes the most
        violated basic variable out at its bound and brings in the nonbasic
        column with the smallest dual ratio.  When no column can enter, the
        dual is unbounded and the bounds infeasible: with ``rho`` that row of
        ``B_inv``, no point of the bounds brings ``rho T x`` down to
        ``rho b`` when the basic variable must rise (nor up to it when it
        must fall), so ``y = -rho`` (``rho``) is a Farkas ray.  The exit
        keeps, as ``self.ray``, the row ``rho T`` signed by that direction
        (itself when the basic variable must rise, negated when it must
        fall): ``y T`` is ``-self.ray``.  ``basis`` and ``at_upper`` are
        not written.
        ``cost`` replaces the program's costs; phase one passes zeros,
        under which every basis is dual feasible.

        The objective of a dual feasible basis (``cost @ x`` at its basic
        solution) bounds the optimum from below and never falls from pivot
        to pivot.  With a finite ``limit`` the solve is abandoned, and
        reported infeasible, as soon as that objective reaches ``limit``:
        no point of these bounds has a smaller one.

        ``B_inv`` is the inverse of the basis matrix (``factorise`` of a
        vertex); the pivots update it in place.  The basic values and
        reduced costs are computed from it at the start and after each
        refactorisation, and carried through the pivots in between.
        """
        T = self.T
        cost = self.cost if cost is None else cost
        basis = basis.copy()
        at_upper = at_upper.copy()
        # Nonbasic values at their bounds; basic entries are overwritten
        # (by zero or x_b) wherever x is read.
        x = np.where(at_upper, hi, lo)
        # +1 on a nonbasic movable column at its lower bound, -1 at its upper,
        # 0 on basic and fixed columns: the direction a column may move in.
        movable = lo < hi
        sgn = np.where(at_upper, -1.0, 1.0)
        sgn[~movable] = 0.0
        sgn[basis] = 0.0
        lo_b, hi_b = lo[basis], hi[basis]
        cycle = _CycleCheck()
        since_refactor = 0
        for _ in range(_MAX_ITER):
            if since_refactor == 0:
                x[basis] = 0.0
                x_b = B_inv @ (self.b - T @ x)
                rc = cost - (cost[basis] @ B_inv) @ T
            violation = np.maximum(lo_b - x_b, x_b - hi_b)
            # The first most violated row; a program without rows, or whose
            # worst row is within tolerance, is feasible.
            r = int(violation.argmax()) if self.m else 0
            feasible = not self.m or not violation[r] > _FEAS_TOL
            if feasible or limit < math.inf:
                x[basis] = x_b
                obj = float(cost @ x) + self.obj_const
                if obj >= limit:
                    return "infeasible", None
                if feasible:
                    return "optimal", _Vertex(x, obj, basis, at_upper)
            bland = cycle.repeated(basis, at_upper)
            if bland:
                rows = (violation > _FEAS_TOL).nonzero()[0]
                r = int(rows[basis[rows].argmin()])
            # x_b[r] moves by -alpha[j] per unit of x_j: it must rise when
            # it is below its lower bound and fall when above its upper.
            # Column j can bring it there when gain[j] > 0, and on those
            # columns gain = |alpha|.
            rise = lo_b[r] - x_b[r] > 0
            alpha = B_inv[r] @ T
            gain = sgn * alpha
            if rise:
                np.negative(gain, out=gain)
            candidates = (gain > _PIVOT_TOL).nonzero()[0]
            if candidates.size == 0:
                self.ray = alpha if rise else -alpha
                return "infeasible", None
            ratios = np.maximum(sgn[candidates] * rc[candidates], 0.0)
            ratios /= gain[candidates]
            step = float(ratios[ratios.argmin()])
            tied = candidates[ratios <= step + 1e-12]
            if bland or tied.size == 1:
                e = int(tied[0])
            else:
                e = int(tied[gain[tied].argmax()])
            if step >= _PIVOT_TOL:
                cycle.progressed()
            leaving = basis[r]
            d = B_inv @ T[:, e]
            # x_e moves by theta, which lands x_b[r] on its violated bound.
            theta = (x_b[r] - (lo_b[r] if rise else hi_b[r])) / d[r]
            x_b -= theta * d
            x_b[r] = x[e] + theta
            rc -= (rc[e] / alpha[e]) * alpha
            basis[r] = e
            lo_b[r], hi_b[r] = lo[e], hi[e]
            at_upper[leaving] = not rise
            at_upper[e] = False
            x[leaving] = lo[leaving] if rise else hi[leaving]
            sgn[leaving] = (1.0 if rise else -1.0) if movable[leaving] else 0.0
            sgn[e] = 0.0
            _eta_update(B_inv, d, r)
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                B_inv = _invert(T[:, basis], "singular basis at refactorization")
                since_refactor = 0
        raise SolverError("simplex iteration limit exceeded")

    def _iterate(self, basis, at_upper, B_inv) -> tuple[str, _Vertex | None]:
        """Primal simplex from a primal feasible ``basis``: phase two.

        ``sgn`` holds ``resolve``'s directions, so a column improves where
        ``sgn * rc < -_RC_TOL`` and a fixed column, as the slack of an ``=``
        row is, never enters.  ``basis`` and ``at_upper`` are updated in
        place, and so is the basis inverse ``B_inv``.
        """
        T, u = self.T, self.u
        movable = u > 0.0
        sgn = np.where(at_upper, -1.0, 1.0)
        sgn[~movable] = 0.0
        sgn[basis] = 0.0
        cycle = _CycleCheck()
        since_refactor = 0
        for _ in range(_MAX_ITER):
            # A basic column is never flagged at its upper bound.
            upper_nb = at_upper.nonzero()[0]
            x_b = B_inv @ (self.b - T[:, upper_nb] @ u[upper_nb])
            rc = self.cost - (self.cost[basis] @ B_inv) @ T
            improving = (sgn * rc < -_RC_TOL).nonzero()[0]
            if improving.size == 0:
                x = np.zeros(self.n)
                x[upper_nb] = u[upper_nb]
                x[basis] = x_b
                obj = float(self.cost @ x) + self.obj_const
                return "optimal", _Vertex(x, obj, basis, at_upper)
            bland = cycle.repeated(basis, at_upper)
            if bland:
                e = int(improving[0])
            else:
                e = int(improving[np.abs(rc[improving]).argmax()])
            d = B_inv @ T[:, e]
            # Ratio test: basic variables hitting either bound, or the
            # entering variable flipping to its other bound.
            sd = sgn[e] * d
            u_b = u[basis]
            hit_lower = sd > _PIVOT_TOL
            hit_upper = (sd < -_PIVOT_TOL) & np.isfinite(u_b)
            ratios = np.full(self.m, math.inf)
            ratios[hit_lower] = x_b[hit_lower] / sd[hit_lower]
            ratios[hit_upper] = (u_b[hit_upper] - x_b[hit_upper]) / -sd[hit_upper]
            np.maximum(ratios, 0.0, out=ratios)
            row_min = float(ratios.min(initial=math.inf))
            step = min(row_min, u[e])
            if math.isinf(step):
                return "unbounded", None
            if step >= _PIVOT_TOL:
                cycle.progressed()
            self.iterations += 1
            if u[e] < row_min:
                # Bound flip: the entering variable traverses to its other
                # bound without changing the basis.
                at_upper[e] = not at_upper[e]
                sgn[e] = -sgn[e]
                continue
            # A row wins a tie with the bound flip; among tied rows the
            # first, or under Bland's rule the lowest basis index.
            tied = (ratios <= row_min + 1e-12).nonzero()[0]
            r = int(tied[basis[tied].argmin()]) if bland else int(tied[0])
            leaving = basis[r]
            basis[r] = e
            at_upper[leaving] = hit_upper[r]
            at_upper[e] = False
            sgn[leaving] = (-1.0 if hit_upper[r] else 1.0) if movable[leaving] else 0.0
            sgn[e] = 0.0
            _eta_update(B_inv, d, r)
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                B_inv = _invert(T[:, basis], "singular basis at refactorization")
                since_refactor = 0
        raise SolverError("simplex iteration limit exceeded")


def solve_lp(program: DenseProgram) -> SolveResult:
    """Solve a pure LP, returning primal values and row duals as arrays.

    Dual sign convention: for a minimisation, duals of ``>=`` rows are
    non-negative and duals of ``<=`` rows non-positive; for a maximisation
    the signs flip.  Equality duals are sign-free.  An ``infeasible``
    result carries the dual simplex's Farkas ray in ``farkas``, in the same
    sign convention (``SolveResult``).

    Raises:
        ValueError: if any variable carries an integrality flag.
        SolverError: on numerical failure (never silently).
    """
    if program.integer.any():
        raise ValueError("program has integer variables; use solve_mip")
    simplex = _Simplex(program)
    status, vertex = simplex.solve()
    factor = 1.0 if program.minimize else -1.0
    if vertex is None:
        y = np.zeros(0)
        if status == "infeasible":  # y T = -ray; T's slacks are diag(slack_sign)
            y = simplex.ray[simplex.n - simplex.m:] * -simplex.slack_sign
            y /= factor * np.abs(y).max()
        return SolveResult(status, None, farkas=y, iterations=simplex.iterations)
    y = simplex.duals(vertex)
    return SolveResult(
        status="optimal",
        objective=float(factor * vertex.objective),
        primal=simplex.original(vertex.x),
        duals=factor * y,
        iterations=simplex.iterations,
    )


def _branch_variable(program: DenseProgram, x: np.ndarray) -> int:
    """The most fractional integer column in the highest fractional priority
    class, or -1 when every integer column is integral."""
    frac = np.where(program.integer, np.abs(x - np.round(x)), 0.0)
    fractional = frac > _INT_TOL
    if not fractional.any():
        return -1
    top = program.priority[fractional].max()
    return int(np.where(fractional & (program.priority == top), frac, -1.0).argmax())


def solve_mip(
    program: DenseProgram,
    *,
    time_limit: float | None = None,
    cutoff: float | None = None,
) -> SolveResult:
    """Branch-and-bound over LP relaxations.

    Nodes are explored in best-bound order; branching splits the most
    fractional variable, preferring variables with a higher ``priority``,
    and solves both children at once.  The root is solved cold by
    ``solve_lp``'s simplex; each child changes one column bound, so it is
    re-solved by the dual simplex from its parent's optimal basis, or from
    the root's if that re-solve fails numerically.  Every open node bounds at
    least the one popped, so the first integral node popped is optimal and
    ends the search.  A search the time limit interrupts ends ``unknown``.

    The search is sure to end only when every integer column has both
    bounds finite, or under a ``time_limit``.  With an infinite bound an
    integer-infeasible program can branch forever, each branch leaving a
    feasible fractional child one unit further out: ``x - y = 0.5`` with
    integer ``x, y`` in ``[0, inf)``.  Every program the package builds has
    binary integer columns.

    With a ``cutoff`` (in the program's own sense) only solutions better
    than it by more than ``_CUTOFF_TOL * max(1, |cutoff|)`` count, and the
    search ends ``infeasible`` when there is none: an objective that equals
    the cutoff up to the last bits of rounding is cut like an exact tie.
    The dual simplex abandons the root's dual start and every child once
    its objective bound reaches that tightened limit, so such a child is
    never pushed; the search stops at the first popped node whose bound is
    at or past it (a root that phase one and the primal simplex solved can
    be).  Best-bound order pops every node below an optimum before that
    optimum, so an optimum that beats the limit is found by the same nodes,
    and returned bit for bit, as without a cutoff.

    Raises:
        SolverError: on numerical failure (never silently).
    """
    factor = 1.0 if program.minimize else -1.0
    limit = math.inf
    if cutoff is not None:
        limit = factor * cutoff
        limit -= _CUTOFF_TOL * max(1.0, abs(limit))
    start = time.monotonic()

    simplex = _Simplex(program)
    status, root = simplex.solve(limit)
    if root is None:
        return SolveResult(status=status, objective=None, iterations=simplex.iterations)

    counter = 0
    nodes_done = 0
    branches = 0
    heap: list[tuple[float, int, np.ndarray, np.ndarray, _Vertex]] = [
        (root.objective, counter, np.zeros(simplex.n), simplex.u.copy(), root)
    ]
    status, objective, primal = "infeasible", None, np.zeros(0)
    while heap:
        bound, _, lo, hi, vertex = heapq.heappop(heap)
        if bound >= limit:
            break
        nodes_done += 1
        x = simplex.original(vertex.x)
        pick = _branch_variable(program, x)
        if pick < 0:
            status, objective = "optimal", float(factor * bound)
            # Integer columns come back rounded; adding 0.0 turns -0.0 into 0.0.
            primal = np.where(program.integer, np.round(x) + 0.0, x)
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
            try:
                child_status, solved = simplex.resolve(
                    vertex.basis, vertex.at_upper, *child, child_inv, limit
                )
            except SolverError:
                # Nodes only tighten bounds, so the root's basis is dual
                # feasible for every node: re-solve from there.
                child_status, solved = simplex.resolve(
                    root.basis, root.at_upper, *child, simplex.factorise(root), limit
                )
            if child_status == "optimal":
                counter += 1
                heapq.heappush(heap, (solved.objective, counter, *child, solved))
        if time_limit is not None and time.monotonic() - start > time_limit:
            status = "unknown"
            break

    return SolveResult(
        status=status,
        objective=objective,
        primal=primal,
        nodes=nodes_done,
        branches=branches,
        iterations=simplex.iterations,
    )


_ACTIVE = "builtin"  # the MIP solver's name, as the benchmark's reports give it


# A second name for solve_mip, which bench/spans.py and tests wrap per module.
def backend_solve_mip(program: DenseProgram, **kwargs) -> SolveResult:
    return solve_mip(program, **kwargs)
