import collections
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchlot import colgen, lp, pe_program, popularity
from matchlot.datagen import GenParams, family_lb, generate
from matchlot.lp import EQ, GE, LE, DenseProgram, _Simplex, solve_lp, solve_mip
from matchlot.mechanisms import rsd_sampled
from matchlot.prng import SplitMix64

from oracles import lp_vertex_oracle


def _program(sense, c, rows=(), bounds=None, integer=False):
    """A ``DenseProgram`` from a cost list and ``(coefficients, sense, rhs)`` rows.

    ``bounds`` holds one ``(lb, ub)`` pair per column; by default every
    column lies in ``[0, inf)``.  ``integer`` flags every column or none.
    """
    n = len(c)
    bounds = bounds or [(0.0, math.inf)] * n
    return DenseProgram(
        np.array(c, dtype=float),
        np.array([coeffs for coeffs, _, _ in rows], dtype=float).reshape(len(rows), n),
        np.array([code for _, code, _ in rows], dtype=np.int8),
        np.array([rhs for _, _, rhs in rows], dtype=float),
        np.array([low for low, _ in bounds], dtype=float),
        np.array([high for _, high in bounds], dtype=float),
        sense,
        integer=np.full(n, integer),
    )


def _fail_invert_once(monkeypatch, armed):
    """Make ``lp._invert`` raise once: at its first call for which
    ``armed(calls)`` holds, ``calls`` being the failure messages of every
    call so far, this one included.  Returns the list the raised message
    is appended to."""
    calls, failures = [], []
    invert = lp._invert

    def failing(B, failure):
        calls.append(failure)
        if not failures and armed(calls):
            failures.append(failure)
            raise lp.SolverError(failure)
        return invert(B, failure)

    monkeypatch.setattr(lp, "_invert", failing)
    return failures


def _check_farkas(program, result):
    """``result.farkas`` proves ``program`` infeasible.

    One entry per row, the duals' signs, max |y| = 1, and in min form
    ``max (y A) x < y b`` over the column bounds, so no point in them
    meets the rows; coefficients of ``y A`` up to 1e-9 read as zero.
    """
    y = result.farkas
    assert y.shape == program.b.shape
    assert np.abs(y).max() == 1.0
    if not program.minimize:
        y = -y
    assert np.all(y[program.senses == GE] >= -1e-9)
    assert np.all(y[program.senses == LE] <= 1e-9)
    coefficients = y @ program.A
    up, down = coefficients > 1e-9, coefficients < -1e-9
    best = coefficients[up] @ program.ub[up] + coefficients[down] @ program.lb[down]
    assert best < y @ program.b


def _check_random_lps(rng, count, phase_one=False):
    """Solve ``count`` seeded LPs against the vertex oracle.

    Every column of negative cost has a finite upper bound, and about half
    of the others have none, so the LPs take the dual start; with
    ``phase_one`` the negative-cost columns are drawn like the others, and
    an LP whose slack basis is then not dual feasible runs phase one.
    Rows of all three senses, with right-hand sides of either sign, start
    some slacks out of their bounds and leave some programs infeasible.
    Returns the count of each status.
    """
    statuses = collections.Counter()
    for _ in range(count):
        m, n = 1 + rng.randbelow(4), 1 + rng.randbelow(4)
        c = [rng.randbelow(11) - 5 for _ in range(n)]
        highs = [
            1 + rng.randbelow(4) if (c[k] < 0 and not phase_one) or rng.randbelow(2)
            else math.inf
            for k in range(n)
        ]
        rows = [
            (
                [rng.randbelow(9) - 4 for _ in range(n)],
                (LE, EQ, GE)[rng.randbelow(3)],
                rng.randbelow(9) - 2,
            )
            for _ in range(m)
        ]
        lows = [0] * n
        program = _program("min", c, rows, list(zip(lows, highs)))
        mine = solve_lp(program)
        reference = lp_vertex_oracle(c, *_as_le_rows(lows, highs, rows))
        # The oracle's region is pointed, so it has a vertex iff it is not
        # empty; it cannot certify a ray, only that the region is feasible.
        if reference is None:
            assert mine.status == "infeasible"
            _check_farkas(program, mine)
        else:
            assert mine.farkas.size == 0
            assert mine.status in ({"optimal", "unbounded"} if phase_one else {"optimal"})
        if mine.status == "optimal":
            assert mine.objective == pytest.approx(reference, abs=1e-6)
        statuses[mine.status] += 1
    return statuses


class TestSolveLp:
    def test_box(self):
        res = solve_lp(_program("max", [1.0], [([1.0], LE, 1.0)]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)
        assert res.duals[0] == pytest.approx(1.0)

    def test_two_constraints_with_duals(self):
        res = solve_lp(
            _program(
                "min",
                [1.0, 1.0],
                [([1.0, 1.0], GE, 2.0), ([1.0, 0.0], LE, 1.0)],
            )
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0)
        assert res.duals[0] == pytest.approx(1.0)
        assert res.duals[1] == pytest.approx(0.0)

    def test_statuses(self):
        for sense in ("min", "max"):
            program = _program(sense, [1.0], [([1.0], GE, 2.0)], bounds=[(0.0, 1.0)])
            infeasible = solve_lp(program)
            assert infeasible.status == "infeasible"
            _check_farkas(program, infeasible)
        unbounded = solve_lp(_program("max", [1.0], [([-1.0], LE, 0.0)]))
        assert unbounded.status == "unbounded"
        assert unbounded.farkas.size == 0

    def test_rejects_integer_variables(self):
        with pytest.raises(ValueError):
            solve_lp(_program("min", [1.0], integer=True))

    def test_dual_sign_convention(self):
        # Minimisation: >= rows get non-negative duals, <= rows non-positive.
        res = solve_lp(
            _program(
                "min",
                [2.0, 3.0],
                [
                    ([1.0, 1.0], GE, 4.0),
                    ([0.0, 1.0], LE, 10.0),
                    ([1.0, -1.0], EQ, 0.0),
                ],
            )
        )
        assert res.status == "optimal"
        assert res.duals[0] >= -1e-9
        assert res.duals[1] <= 1e-9

    def test_random_against_vertex_oracle(self):
        # <= rows with b >= 0 over [0, inf) columns: feasible, bounded or
        # not.  The slack basis is primal feasible, so phase one ends at once
        # and the primal simplex of phase two solves most of them.
        rng = SplitMix64(5150)
        checked = 0
        while checked < 60:
            m, n = 1 + rng.randbelow(5), 1 + rng.randbelow(5)
            A = [[rng.randbelow(9) - 4 for _ in range(n)] for _ in range(m)]
            b = [rng.randbelow(8) for _ in range(m)]
            c = [rng.randbelow(11) - 5 for _ in range(n)]
            prog = _program("min", c, [(A[i], LE, b[i]) for i in range(m)])
            mine = solve_lp(prog)
            reference = lp_vertex_oracle(c, A, b)
            if mine.status == "unbounded":
                continue  # vertex oracle cannot certify rays
            assert mine.status == "optimal"
            checked += 1
            if reference is not None:
                assert mine.objective == pytest.approx(reference, abs=1e-6)
        # Rows of every sense over bounded negative-cost columns and
        # unbounded non-negative-cost ones: the dual start, with the slacks
        # of equality rows fixed at zero, and infeasible programs among them.
        statuses = _check_random_lps(SplitMix64(5151), 80)
        assert statuses.keys() == {"optimal", "infeasible"}
        # Negative-cost columns unbounded above as well: the slack basis is
        # often neither primal nor dual feasible, so the dual simplex runs
        # phase one under zero costs and the primal simplex phase two.
        statuses = _check_random_lps(SplitMix64(5153), 120, phase_one=True)
        assert statuses.keys() == {"optimal", "infeasible", "unbounded"}

    def test_strong_duality_gap(self):
        # For min c x over A x (<=,=,>=) b and 0 <= x <= u, duals y of the
        # right signs give the Lagrangian bound
        # b y + sum_j min(0, c_j - A_j y) u_j <= c x; at an optimum the two
        # meet.  Both sides are computed here from the returned arrays.
        rng = SplitMix64(6007)
        optimal = 0
        for _ in range(60):
            m, n = 1 + rng.randbelow(5), 1 + rng.randbelow(5)
            c = [rng.randbelow(11) - 5 for _ in range(n)]
            bounds = [(0.0, 1 + rng.randbelow(5)) for _ in range(n)]
            rows = [
                (
                    [rng.randbelow(9) - 4 for _ in range(n)],
                    (LE, GE, EQ)[rng.randbelow(3)],
                    rng.randbelow(6),
                )
                for _ in range(m)
            ]
            program = _program("min", c, rows, bounds)
            res = solve_lp(program)
            if res.status != "optimal":
                continue
            optimal += 1
            A, b, y, x = program.A, program.b, res.duals, res.primal
            assert np.all(y[program.senses == GE] >= -1e-9)
            assert np.all(y[program.senses == LE] <= 1e-9)
            dual = b @ y + np.minimum(0.0, program.c - A.T @ y) @ program.ub
            assert program.c @ x == pytest.approx(res.objective, abs=1e-9)
            assert abs(program.c @ x - dual) <= 1e-6
        assert optimal > 0

    def test_deterministic(self):
        prog = _program(
            "max",
            [1.0, 2.0, 1.5],
            [([1, 1, 1], LE, 5.0), ([2, 0, 1], LE, 4.0)],
            bounds=[(0, 3), (0, 2), (0, math.inf)],
        )
        first = solve_lp(prog)
        second = solve_lp(prog)
        assert first.primal.tolist() == second.primal.tolist()
        assert first.duals.tolist() == second.duals.tolist()
        assert first.objective == second.objective
        assert first.iterations == second.iterations > 0

    def test_failed_dual_start_falls_back_to_primal(self, monkeypatch):
        # Refactorising after every pivot, the dual start's first
        # refactorisation fails once; phase one then restarts from the slack
        # basis and the primal simplex finishes.
        prog = _program(
            "min",
            [-1.0, -2.0, 1.0],
            [([1, 1, 1], GE, 2.0), ([1, 2, -1], LE, 3.0), ([1, -1, 0], EQ, 0.0)],
            bounds=[(0, 2), (0, 2), (0, math.inf)],
        )
        expected = solve_lp(prog)
        failures = _fail_invert_once(monkeypatch, lambda calls: True)
        monkeypatch.setattr(lp, "_REFACTOR_EVERY", 1)
        got = solve_lp(prog)
        assert failures == ["singular basis at refactorization"]
        assert got.status == expected.status == "optimal"
        assert got.objective == pytest.approx(expected.objective, abs=1e-12)
        assert got.primal == pytest.approx(expected.primal, abs=1e-12)
        assert got.iterations > expected.iterations


@st.composite
def small_lps(draw):
    """A small LP whose columns of negative cost all have an upper bound.

    Returns ``(cost, lows, highs, rows)``: minimise ``cost x`` over ``rows``
    (``(coeffs, sense, rhs)``) and ``lows <= x <= highs``.  A column of
    non-negative cost may have no upper bound (``highs`` holds ``inf``).
    Every row is drawn tight or slack at one integer point, so degenerate
    vertices are common; some programs add a ``>=`` row that contradicts
    an ``=`` or ``<=`` row and are infeasible.
    """
    n = draw(st.integers(2, 4))
    cost = [draw(st.integers(-5, 5)) for _ in range(n)]
    lows = [draw(st.integers(0, 2)) for _ in range(n)]
    spans = [draw(st.integers(0, 3)) for _ in range(n)]
    point = [draw(st.integers(low, low + span)) for low, span in zip(lows, spans)]
    highs = [
        math.inf if c >= 0 and draw(st.booleans()) else low + span
        for c, low, span in zip(cost, lows, spans)
    ]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n)]
        sense = draw(st.sampled_from([LE, GE, EQ]))
        at_point = sum(a * x for a, x in zip(coeffs, point))
        slack = 0 if sense == EQ else draw(st.integers(0, 2))
        rhs = at_point + slack if sense == LE else at_point - slack
        rows.append((coeffs, sense, rhs))
    coeffs, sense, rhs = rows[0]
    if sense != GE and draw(st.booleans()):
        rows.append((coeffs, GE, rhs + 1))
    return cost, lows, highs, rows


def _bounded_lp(cost, lows, highs, rows):
    return _program("min", cost, rows, list(zip(lows, highs)))


def _as_le_rows(lows, highs, rows):
    """``A x <= b`` for the oracle, with every bound written as a row."""
    n = len(lows)
    A, b = [], []
    for coeffs, sense, rhs in rows:
        if sense in (LE, EQ):
            A.append(list(coeffs))
            b.append(rhs)
        if sense in (GE, EQ):
            A.append([-a for a in coeffs])
            b.append(-rhs)
    for k in range(n):
        unit = [0] * n
        unit[k] = 1
        if math.isfinite(highs[k]):
            A.append(unit)
            b.append(highs[k])
        A.append([-u for u in unit])
        b.append(-lows[k])
    return A, b


def _tighten(data, simplex, vertex, bounds, lows, highs):
    """Draw one tighter bound on a variable and apply it to both forms.

    The bound goes past ``vertex``'s value where the box leaves room, so
    the new problem cuts that vertex off.  Returns the program's new
    ``lows``/``highs`` and the standard-form column bounds.
    """
    j = data.draw(st.integers(0, len(lows) - 1))
    at = simplex.original(vertex.x)[j]
    below = (lows[j], math.ceil(at - 1e-9) - 1)
    above = (math.floor(at + 1e-9) + 1, highs[j])
    sides = [(True, below), (False, above)]
    roomy = [side for side in sides if side[1][0] <= side[1][1]]
    upper, (first, last) = data.draw(st.sampled_from(roomy or sides[:1]))
    value = data.draw(st.integers(first, max(first, min(last, first + 3))))
    if upper:
        highs = highs[:j] + [value] + highs[j + 1:]
    else:
        lows = lows[:j] + [value] + lows[j + 1:]
    return lows, highs, simplex.tightened(*bounds, j, value, upper)


def _check_warm(status, vertex, cost, lows, highs, rows):
    """A solve's verdict agrees with a cold ``solve_lp`` and the vertex oracle."""
    cold = solve_lp(_bounded_lp(cost, lows, highs, rows))
    reference = lp_vertex_oracle(cost, *_as_le_rows(lows, highs, rows))
    expected = "infeasible" if reference is None else "optimal"
    assert status == cold.status == expected
    if reference is not None:
        assert vertex.objective == pytest.approx(reference, abs=1e-6)
        assert cold.objective == pytest.approx(reference, abs=1e-6)


class TestWarmResolve:
    @settings(max_examples=300, deadline=None)
    @given(case=small_lps(), data=st.data())
    def test_matches_cold_solve_and_vertex_oracle(self, case, data):
        cost, lows, highs, rows = case
        program = _bounded_lp(cost, lows, highs, rows)
        simplex = _Simplex(program)
        status, parent = simplex.solve()
        _check_warm(status, parent, cost, lows, highs, rows)
        if parent is None:
            return
        root = (np.zeros(simplex.n), simplex.u.copy())
        lows, highs, child = _tighten(data, simplex, parent, root, lows, highs)
        warm_status, warm = simplex.resolve(
            parent.basis, parent.at_upper, *child, simplex.factorise(parent)
        )
        _check_warm(warm_status, warm, cost, lows, highs, rows)

    @pytest.mark.parametrize("refactor_every", [1, 2, lp._REFACTOR_EVERY])
    @settings(max_examples=100, deadline=None)
    @given(case=small_lps(), data=st.data())
    def test_grandchild_from_warm_child(self, refactor_every, case, data):
        # Refactorising every pivot or two runs the recomputation of the
        # basic values and reduced costs between carried-forward pivots, in
        # the cold dual start and in the warm re-solves.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp, "_REFACTOR_EVERY", refactor_every)
            cost, lows, highs, rows = case
            program = _bounded_lp(cost, lows, highs, rows)
            simplex = _Simplex(program)
            status, vertex = simplex.solve()
            _check_warm(status, vertex, cost, lows, highs, rows)
            bounds = (np.zeros(simplex.n), simplex.u.copy())
            for _ in range(2):
                if vertex is None:
                    break
                lows, highs, bounds = _tighten(data, simplex, vertex, bounds, lows, highs)
                status, vertex = simplex.resolve(
                    vertex.basis, vertex.at_upper, *bounds, simplex.factorise(vertex)
                )
                _check_warm(status, vertex, cost, lows, highs, rows)


def _beale(highs):
    """Beale's LP, on which Dantzig pricing with first-row ties cycles.

    Minimise ``-3/4 x1 + 150 x2 - 1/50 x3 + 6 x4`` over two ``<= 0`` rows
    and ``x3 <= 1``; the optimum is ``-1/20`` at ``(1/25, 0, 1, 0)``.
    """
    return _program(
        "min",
        [-0.75, 150.0, -0.02, 6.0],
        [
            ([0.25, -60.0, -0.04, 9.0], LE, 0.0),
            ([0.5, -90.0, -0.02, 3.0], LE, 0.0),
            ([0.0, 0.0, 1.0, 0.0], LE, 1.0),
        ],
        bounds=[(0.0, high) for high in highs],
    )


class TestCycling:
    def test_beale_primal_cycles_then_reaches_the_optimum(self, monkeypatch):
        # Both negative-cost columns are unbounded: phase one ends at once
        # (b = 0, 0, 1) and the primal simplex of phase two runs, whose
        # Dantzig pivots come back to an earlier state.
        switches = []
        repeated = lp._CycleCheck.repeated

        def counting(check, basis, at_upper):
            before = check.bland
            bland = repeated(check, basis, at_upper)
            if bland and not before:
                switches.append(basis.copy())
            return bland

        monkeypatch.setattr(lp._CycleCheck, "repeated", counting)
        result = solve_lp(_beale([math.inf] * 4))
        assert switches
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-0.05, abs=1e-12)
        assert result.primal == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)

    def test_bounded_beale_takes_the_dual_start(self, monkeypatch):
        def no_primal(*_):
            raise AssertionError("the primal simplex ran")

        monkeypatch.setattr(_Simplex, "_iterate", no_primal)
        result = solve_lp(_beale([1.0, math.inf, 1.0, math.inf]))
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-0.05, abs=1e-12)
        assert result.primal == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)

    def test_bland_rule_throughout(self, monkeypatch):
        # Bland's rule from the first pivot, in both loops, still solves
        # the oracle LPs, with and without phase one, and Beale's LP.
        monkeypatch.setattr(lp._CycleCheck, "repeated", lambda check, *_: True)
        assert _check_random_lps(SplitMix64(5152), 40)["optimal"] > 0
        assert _check_random_lps(SplitMix64(5154), 40, phase_one=True)["optimal"] > 0
        for highs in ([math.inf] * 4, [1.0, math.inf, 1.0, math.inf]):
            assert solve_lp(_beale(highs)).objective == pytest.approx(-0.05, abs=1e-12)


def _singleton_basis(seed):
    """A seeded, well-conditioned 14 x 14 basis matrix, columns shuffled.

    A third of its columns are slack-like ``+-1`` singletons, a third are
    non-unit singletons (a structural variable of one row), each on its own
    row, and the rest are dense columns, strong on the uncovered rows.
    """
    m = 14
    rng = SplitMix64(seed)
    rows = list(range(m))
    rng.shuffle(rows)
    B = np.zeros((m, m))
    third = m // 3
    for k in range(2 * third):
        sign = 1.0 if rng.randbelow(2) else -1.0
        B[rows[k], k] = sign * (1.0 if k < third else 0.5 + 3 * rng.random())
    for k in range(2 * third, m):
        B[:, k] = [
            0.0 if rng.randbelow(3) == 0 else 2 * rng.random() - 1 for _ in range(m)
        ]
        B[rows[k], k] += 4.0
    order = list(range(m))
    rng.shuffle(order)
    return B[:, order]


class TestInvert:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_numpy_on_mixed_bases(self, seed):
        B = _singleton_basis(seed)
        expected = np.linalg.inv(B)
        got = lp._invert(B, "singular")
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_all_singleton_basis_is_exact(self):
        values = np.array([1.0, -1.0, 2.5, -0.3])
        rows = np.array([2, 0, 3, 1])
        B = np.zeros((4, 4))
        B[rows, np.arange(4)] = values
        expected = np.zeros((4, 4))
        expected[np.arange(4), rows] = 1.0 / values
        assert np.array_equal(lp._invert(B, "singular"), expected)

    def test_basis_without_singletons_is_numpy_inverse(self):
        B = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.5, 0.0, 2.0]])
        assert np.array_equal(lp._invert(B, "singular"), np.linalg.inv(B))

    def test_empty_basis(self):
        assert lp._invert(np.zeros((0, 0)), "singular").shape == (0, 0)

    def test_two_singletons_on_one_row_raise(self):
        B = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(lp.SolverError, match="^two on a row$"):
            lp._invert(B, "two on a row")

    def test_singular_structural_block_raises(self):
        # Rows 1 and 2 carry the block [[1, 2], [2, 4]]; row 0 a slack.
        B = np.array([[1.0, 3.0, 1.0], [0.0, 1.0, 2.0], [0.0, 2.0, 4.0]])
        with pytest.raises(lp.SolverError, match="^singular block$"):
            lp._invert(B, "singular block")


class TestEtaUpdate:
    def test_is_the_outer_product_update_bit_for_bit(self):
        # The reference is np.outer after the pivot row's division, with
        # d's pivot entry zeroed.  Exact zeros in d and in the row, as slack
        # columns and singleton factorisations give, and negative pivots,
        # which turn zeros into -0.0, are drawn on purpose.  A -0.0 product
        # comes out +0.0 from einsum (see _eta_update), so the bytes are
        # compared after adding +0.0, which changes only the sign of zeros.
        rng = np.random.default_rng(7)
        for m in (1, 5, 40, 113):
            B = rng.standard_normal((m, m))
            B[rng.random((m, m)) < 0.4] = 0.0
            d = rng.standard_normal(m)
            d[rng.random(m) < 0.4] = 0.0
            r = int(rng.integers(m))
            d[r] = rng.choice([-1.0, 1.0]) * (0.5 + rng.random())
            expected = B.copy()
            expected[r] /= d[r]
            column = np.where(np.arange(m) == r, 0.0, d)
            expected -= np.outer(column, expected[r])
            lp._eta_update(B, d, r)
            assert (B + 0.0).tobytes() == (expected + 0.0).tobytes()

    def test_vanishing_pivot_raises(self):
        B = np.eye(3)
        d = np.array([1.0, 0.5 * lp._PIVOT_TOL, 2.0])
        with pytest.raises(lp.SolverError, match="^pivot element vanished$"):
            lp._eta_update(B, d, 1)


@st.composite
def small_integer_programs(draw):
    """2-4 integer variables in 0..3 under 1-3 random ``<=``/``>=`` rows."""
    n = draw(st.integers(2, 4))
    rows = [
        (
            [draw(st.integers(-3, 3)) for _ in range(n)],
            draw(st.sampled_from([LE, GE])),
            draw(st.integers(-4, 8)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return _program(
        draw(st.sampled_from(["min", "max"])),
        [draw(st.integers(-5, 5)) for _ in range(n)],
        rows,
        bounds=[(0, 3)] * n,
        integer=True,
    )


def _satisfies(prog, point):
    """Whether ``point`` meets every row of ``prog``."""
    lhs = prog.A @ point
    return bool(np.all(np.where(prog.senses == LE, lhs <= prog.b, lhs >= prog.b)))


def _enumerated_optimum(prog):
    """Best objective over every integer point of the box, or None."""
    values = [
        float(prog.c @ point)
        for point in map(np.array, itertools.product(range(4), repeat=prog.c.size))
        if _satisfies(prog, point)
    ]
    if not values:
        return None
    return min(values) if prog.minimize else max(values)


class TestSolveMip:
    @settings(max_examples=150, deadline=None)
    @given(prog=small_integer_programs())
    def test_matches_enumeration(self, prog):
        best = _enumerated_optimum(prog)
        res = solve_mip(prog)
        assert res.farkas.size == 0  # a ray only for an infeasible LP
        if best is None:
            assert res.status == "infeasible"
            return
        assert res.status == "optimal"
        assert _satisfies(prog, res.primal)
        assert res.objective == pytest.approx(float(prog.c @ res.primal))
        assert res.objective == pytest.approx(best)

    @settings(max_examples=150, deadline=None)
    @given(prog=small_integer_programs(), gap=st.sampled_from([0.5, 1.0, 7.0]))
    def test_cutoff_contract(self, prog, gap):
        # A cutoff past the optimum returns the uncut solve bit for bit in
        # no more nodes; one at or before the optimum leaves no solution.
        best = _enumerated_optimum(prog)
        worse = 1.0 if prog.minimize else -1.0
        uncut = solve_mip(prog)
        if best is None:
            assert solve_mip(prog, cutoff=gap).status == "infeasible"
            return
        cut = solve_mip(prog, cutoff=best + worse * gap)
        assert (cut.status, cut.objective, cut.primal.tolist()) == (
            uncut.status,
            uncut.objective,
            uncut.primal.tolist(),
        )
        assert cut.nodes <= uncut.nodes
        for cutoff in (best, best - worse * gap):
            assert solve_mip(prog, cutoff=cutoff).status == "infeasible"

    def test_cutoff_at_a_rounded_optimum(self):
        # A falsifying example of test_cutoff_contract (gap=0.5): the optimum
        # 6 comes out of the simplex as 5.999999999999999, which an exact
        # comparison with the cutoff 6 let through as "optimal".
        prog = _program(
            "min", [5.0, 1.0], [([3.0, 1.0], GE, 4.0), ([0.0, 3.0], LE, 4.0)],
            bounds=[(0, 3)] * 2, integer=True,
        )
        assert solve_mip(prog).objective == pytest.approx(6.0, abs=1e-12)
        assert solve_mip(prog, cutoff=6.0).status == "infeasible"
        assert solve_mip(prog, cutoff=6.5).objective == pytest.approx(6.0, abs=1e-12)

    def test_cutoff_prunes_a_primal_root_at_pop(self):
        # x has no upper bound, so the root takes phase one and the primal
        # simplex, which run without the cutoff; the popped root (-2.5) is
        # past it.
        prog = _program("min", [-1.0], [([1.0], LE, 2.5)], integer=True)
        assert solve_mip(prog).objective == -2.0
        assert solve_mip(prog, cutoff=-2.5).status == "infeasible"
        assert solve_mip(prog, cutoff=-1.5).objective == -2.0

    def test_time_limit_cuts_a_search_under_a_cutoff(self):
        # The root (14.5) beats the cutoff, branches, and the time limit
        # then stops the search before it proves anything.
        prog = _program(
            "max", [10.0, 6.0, 4.0], [([5.0, 4.0, 3.0], LE, 8.0)],
            bounds=[(0, 1)] * 3, integer=True,
        )
        assert solve_mip(prog, cutoff=13.0).objective == 14.0
        result = solve_mip(prog, time_limit=0.0, cutoff=13.0)
        assert result.status == "unknown"
        assert result.branches == 1

    def test_knapsack_matches_enumeration(self):
        values = [10.0, 6.0, 4.0]
        weights = [5.0, 4.0, 3.0]
        prog = _program(
            "max", values, [(weights, LE, 8.0)], bounds=[(0, 1)] * 3, integer=True
        )
        best = max(
            sum(values[j] for j in range(3) if mask >> j & 1)
            for mask in range(8)
            if sum(weights[j] for j in range(3) if mask >> j & 1) <= 8.0
        )
        res = solve_mip(prog)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(best)

    def test_failed_child_resolve_restarts_from_root(self, monkeypatch):
        # Refactorising after every pivot, a child's first refactorisation
        # (the first after a branch factorises its parent) fails once; the
        # child is re-solved from the root's basis, factorised afresh.
        prog = _program(
            "max",
            [10.0, 6.0, 4.0, 3.0],
            [([5.0, 4.0, 3.0, 2.0], LE, 8.5), ([1.0, 1.0, 1.0, 1.0], LE, 2.5)],
            bounds=[(0, 1)] * 4,
            integer=True,
        )
        monkeypatch.setattr(lp, "_REFACTOR_EVERY", 1)
        expected = solve_mip(prog)
        assert expected.branches > 0
        failures = _fail_invert_once(
            monkeypatch,
            lambda calls: calls[-1] == "singular basis at refactorization"
            and "singular starting basis" in calls,
        )
        got = solve_mip(prog)
        assert failures == ["singular basis at refactorization"]
        assert got.status == expected.status == "optimal"
        assert got.objective == pytest.approx(expected.objective, abs=1e-12)
        assert got.primal.tolist() == expected.primal.tolist()

    def test_fixed_point(self):
        prog = _program("min", [1.0], bounds=[(2.0, 2.0)], integer=True)
        res = solve_mip(prog)
        assert res.status == "optimal"
        assert res.primal[0] == 2.0

    def test_assignment_polytope_is_integral_at_root(self):
        # Pure matching feasibility is totally unimodular: no branching.
        rng = SplitMix64(88)
        for _ in range(20):
            n, o = 2 + rng.randbelow(4), 1 + rng.randbelow(3)
            caps = [1 + rng.randbelow(2) for _ in range(o)]
            cost = {
                (i, j): float(rng.randbelow(13) - 6)
                for i in range(n)
                for j in range(o)
            }
            # Column i * o + j assigns agent i to object j.
            cells = [(i, j) for i in range(n) for j in range(o)]
            rows = [
                ([float(a == i) for a, _ in cells], LE, 1.0) for i in range(n)
            ] + [
                ([float(b == j) for _, b in cells], LE, float(caps[j]))
                for j in range(o)
            ]
            prog = _program(
                "min",
                [cost[cell] for cell in cells],
                rows,
                bounds=[(0, 1)] * len(cells),
                integer=True,
            )
            res = solve_mip(prog)
            assert res.status == "optimal"
            assert res.branches == 0

    def test_pricing_search_repeats(self, monkeypatch):
        programs = []

        def captured(program, **kwargs):
            programs.append(program)
            return solve_mip(program, **kwargs)

        monkeypatch.setattr(colgen, "backend_solve_mip", captured)
        instance = family_lb(3)
        estimate = rsd_sampled(instance, 1000, 1)
        colgen.binary_search_z(
            instance, estimate.assignment, "rmp", samples=1000, seed=1
        )
        inversions = []
        invert = lp._invert

        def counted(B, failure):
            inversions.append(failure)
            return invert(B, failure)

        monkeypatch.setattr(lp, "_invert", counted)
        first = solve_mip(programs[0])
        first_inversions = len(inversions)
        second = solve_mip(programs[0])
        assert first.branches > 0
        assert (first.nodes, first.branches, first.iterations) == (
            second.nodes,
            second.branches,
            second.iterations,
        )
        assert len(inversions) == 2 * first_inversions
        # One factorisation per branch, at most two for the root, and one
        # per _REFACTOR_EVERY pivots.
        assert first_inversions <= (
            first.branches + 2 + first.iterations // lp._REFACTOR_EVERY
        )

    def test_mip_bound_respects_relaxation(self):
        rng = SplitMix64(909)
        for _ in range(40):
            n = 2 + rng.randbelow(4)
            c = [rng.randbelow(9) - 3 for _ in range(n)]
            row = ([1 + rng.randbelow(4) for _ in range(n)], LE, 4 + rng.randbelow(8))
            prog = _program("max", c, [row], bounds=[(0, 3)] * n, integer=True)
            relaxed = solve_lp(
                DenseProgram(prog.c, prog.A, prog.senses, prog.b, prog.lb, prog.ub, "max")
            )
            integral = solve_mip(prog)
            assert integral.status == "optimal"
            assert integral.objective <= relaxed.objective + 1e-6


_BOUND_KINDS = (
    (0.0, math.inf),
    (0.0, 2.5),
    (1.5, 4.0),  # shifted
    (-2.0, math.inf),  # shifted
    (-math.inf, 3.0),  # mirrored
    (-math.inf, math.inf),  # free
)


def _mixed_arrays(seed):
    """A seeded feasible, bounded LP as ``(c, A, senses, b, lb, ub, sense)``.

    Columns of every bound kind, rows of all three senses with about a
    third of their coefficients zero, and a ``<=``/``>=`` row pair boxing
    each variable that lacks a finite bound.  The right-hand sides hold at a
    random point inside the bounds.
    """
    rng = SplitMix64(seed)
    kinds = list(_BOUND_KINDS) * 2
    rng.shuffle(kinds)
    lb = np.array([low for low, _ in kinds])
    ub = np.array([high for _, high in kinds])
    n = len(kinds)
    point = np.clip(6 * np.array([rng.random() for _ in range(n)]) - 3, lb, ub)
    rows, senses = [], []
    for r in range(7):
        rows.append(
            [0.0 if rng.randbelow(3) == 0 else 4 * rng.random() - 2 for _ in range(n)]
        )
        senses.append((LE, EQ, GE)[r % 3])
    for j in range(n):
        if math.isinf(ub[j]) or math.isinf(lb[j]):
            unit = [0.0] * n
            unit[j] = 1.0
            rows += [unit, unit]
            senses += [LE, GE]
    A = np.array(rows)
    at_point = A @ point
    room = np.array([{LE: 1.0, EQ: 0.0, GE: -1.0}[s] for s in senses])
    b = at_point + room * np.array([5 * rng.random() for _ in senses])
    c = np.array([4 * rng.random() - 2 for _ in range(n)])
    codes = np.array(senses, dtype=np.int8)
    return c, A, codes, b, lb, ub, ("min", "max")[seed % 2]


def _standard_form_digest(programs) -> str:
    digest = hashlib.sha256()
    for program in programs:
        simplex = _Simplex(program)
        for array in (simplex.T, simplex.b, simplex.cost, simplex.u, simplex.offset):
            digest.update(array.tobytes())
        result = solve_lp(program)
        values = [v.tolist() for v in (result.primal, result.duals)]
        fields = (float(simplex.obj_const), result.status, result.objective, values)
        digest.update(repr(fields).encode())
    return digest.hexdigest()


class TestStandardForm:
    SEEDS = range(24)
    PINNED = "ef0171d007c59bc9db556d74e0480bac39db7ded49297dd5da0772e9f04acdd5"

    # The plain values behind PINNED: every program is optimal, with these
    # objectives.  A change of pivot path may move the digest, not these.
    OBJECTIVES = (
        -23.6155571296, 10.4636542323, -25.2279754954, 0.679505764389,
        -4.93701819828, 7.59635639772, -15.1277231831, 22.3565731515,
        -24.5903050939, 15.6375413841, -12.9923617772, 8.01266998234,
        -2.86083676278, 16.7447631125, -19.5114015026, 9.44576619571,
        -8.52552660965, 10.743702525, -6.19492786872, 25.4454285207,
        0.134939761292, 13.6520401588, -6.60494903997, 0.581262087097,
    )

    def test_array_program_values_are_pinned(self):
        results = [solve_lp(DenseProgram(*_mixed_arrays(seed))) for seed in self.SEEDS]
        assert [r.status for r in results] == ["optimal"] * len(self.SEEDS)
        assert [r.objective for r in results] == pytest.approx(self.OBJECTIVES, abs=1e-9)

    def test_phase_two_never_moves_a_fixed_column(self, monkeypatch):
        # The slack of an equality row is fixed at [0, 0]; phase two must
        # not bring one in, by a pivot or by a zero-length bound flip.  Each
        # phase-two iteration hands its state to the cycle check, and the
        # last state is the returned vertex's.
        states, moved = [], []
        repeated = lp._CycleCheck.repeated
        iterate = _Simplex._iterate

        def record(check, basis, at_upper):
            states.append((basis.copy(), at_upper.copy()))
            return repeated(check, basis, at_upper)

        def phase_two(simplex, basis, at_upper, B_inv):
            states.clear()
            result = iterate(simplex, basis, at_upper, B_inv)
            steps = states + [(basis, at_upper)]
            columns = np.arange(simplex.n)
            for (basis0, upper0), (basis1, upper1) in zip(steps, steps[1:]):
                stayed_out = np.setdiff1d(columns, np.union1d(basis0, basis1))
                flipped = stayed_out[upper0[stayed_out] != upper1[stayed_out]]
                moved.extend(simplex.u[np.setdiff1d(basis1, basis0)])
                moved.extend(simplex.u[flipped])
            return result

        monkeypatch.setattr(lp._CycleCheck, "repeated", record)
        monkeypatch.setattr(_Simplex, "_iterate", phase_two)
        for seed in self.SEEDS:
            assert solve_lp(DenseProgram(*_mixed_arrays(seed))).status == "optimal"
        assert moved and min(moved) > 0

    def test_one_slack_per_row_and_solve_keeps_the_form(self):
        # A >=, an = and a <= row over two columns: the slacks are -1, +1
        # (fixed at zero) and +1, in row order, and solve() adds no column.
        program = _program(
            "min",
            [1.0, 1.0],
            [([1.0, 1.0], GE, 1.0), ([1.0, -1.0], EQ, 0.0), ([0.0, 1.0], LE, 2.0)],
            bounds=[(0.0, 3.0)] * 2,
        )
        simplex = _Simplex(program)
        assert simplex.T.shape == (3, 2 + 3)
        assert np.array_equal(simplex.T[:, 2:], np.diag([-1.0, 1.0, 1.0]))
        assert simplex.u[2:].tolist() == [math.inf, 0.0, math.inf]
        built = [array.copy() for array in (simplex.T, simplex.u, simplex.cost)]
        status, vertex = simplex.solve()
        assert status == "optimal"
        assert simplex.original(vertex.x) == pytest.approx([0.5, 0.5], abs=1e-12)
        assert simplex.n == 5
        for before, after in zip(built, (simplex.T, simplex.u, simplex.cost)):
            assert np.array_equal(before, after)

    @pytest.mark.parametrize(
        "row",
        [([1.0], GE, 0.0), ([1.0], EQ, 1.0), ([1.0], LE, 1.0)],
        ids=["over-satisfied-ge", "tight-eq", "tight-le"],
    )
    def test_feasible_slack_basis_costs_no_pivot(self, row):
        # max x over [0, 1] takes the dual start at x = 1, where the row
        # already holds: its slack is basic and feasible, so no pivot runs.
        result = solve_lp(_program("max", [1.0], [row], bounds=[(0.0, 1.0)]))
        assert (result.status, result.objective) == ("optimal", 1.0)
        assert result.iterations == 0

    def test_array_programs_are_pinned(self):
        programs = [DenseProgram(*_mixed_arrays(seed)) for seed in self.SEEDS]
        assert all(solve_lp(p).status == "optimal" for p in programs)
        assert _standard_form_digest(programs) == self.PINNED


def _bench_scale_solves(monkeypatch):
    """Three programs of the benchmark's seed-0 markets, built and solved as
    its chains build and solve them.

    Each chain runs as in ``bench/workloads.py`` while the package's solver
    bindings record every call.  Returns, in order: the ``margin-bisect``
    market-0 pricing MIP at margin bound 1, with its cutoff (``family_lb(3)``,
    1,000 orderings, seed 80000); the ``adversarial-bisect`` market-10
    deviation master at k = 5 (``family_lb(4)``, 10,000 orderings, seed
    79190); and the ``p-`` MIP of the first ``rsd-maximin`` panel market,
    with its incumbent's cutoff (30 agents, ratio 10, seed 70000).  Each
    entry is the program and its result.
    """
    calls = []

    def recording(solve):
        def record(program, **kwargs):
            result = solve(program, **kwargs)
            calls.append((program, result))
            return result

        return record

    monkeypatch.setattr(colgen, "solve_lp", recording(solve_lp))
    monkeypatch.setattr(colgen, "backend_solve_mip", recording(solve_mip))
    monkeypatch.setattr(pe_program, "backend_solve_mip", recording(solve_mip))
    solves = []

    instance = family_lb(3)
    estimate = rsd_sampled(instance, 1_000, 80_000)
    omega, _ = popularity.binary_search_margin(
        instance, estimate.assignment, samples=1_000, seed=80_000
    )
    # The search certifies margin bounds 9, 4 and 2 from the pool and
    # refutes 1 by pricing; the only MIP is that pricing proof.
    assert omega == 2
    [pricing] = [(p, r) for p, r in calls if p.integer.any()]
    solves.append(pricing)

    for instance, seed, k in (
        (family_lb(4), 7919 * 10, 5),
        (generate(GenParams(n_agents=30, ratio=10.0, seed=70_000)), 70_000, None),
    ):
        calls.clear()
        estimate = rsd_sampled(instance, 10_000, seed)
        result = colgen.binary_search_z(
            instance, estimate.assignment, "rmp",
            samples=10_000, seed=seed, known_decomposable=True,
        )
        assert result.status == "optimal"
        if k is None:
            solves.append(calls[0])  # the p- MIP comes before every master
        else:
            assert [(t.k, t.iterations) for t in result.trace] == [(6, 1), (k, 1)]
            solves.append(calls[-1])
    return solves


class TestBenchScalePin:
    """The simplex on three programs of benchmark size, pinned bit for bit.

    The other pins build their programs from markets of at most six agents
    and the two smallest lower-family markets; these are the benchmark's
    own, with 113 to 133 rows, the sizes at which its pivots run.  A change
    to the pivot rules or to the order of any floating-point operation
    moves the digest; a change upstream of the solver (market, sampling,
    column generation) moves the shapes too.
    """

    # Per program: rows, columns, status, objective, nodes, branches, pivots.
    PLAIN = [
        (113, 52, "infeasible", None, 11, 11, 132),
        (113, 402, "optimal", 3.076923076919158e-05, 0, 0, 64),
        (133, 89, "optimal", 26.0, 6, 5, 180),
    ]
    PINNED = "90ace81ef56acb356258ada4cde6661e4aa486eeff7ebeb8965d721017164cbd"

    def test_benchmark_programs_are_pinned(self, monkeypatch):
        digest = hashlib.sha256()
        plain = []
        for program, result in _bench_scale_solves(monkeypatch):
            plain.append(
                (*program.A.shape, result.status, result.objective,
                 result.nodes, result.branches, result.iterations)
            )
            for array in (result.primal, result.duals, result.farkas):
                digest.update(array.tobytes())
        assert plain == self.PLAIN
        assert digest.hexdigest() == self.PINNED


class TestDenseProgram:
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sense": "maximize"}, "sense"),
            ({"b": np.zeros(2)}, "per row"),
            ({"lb": np.zeros(1)}, "per column"),
            ({"senses": np.array([2], dtype=np.int8)}, "sense codes"),
            ({"lb": np.array([3.0, 0.0])}, "lb > ub"),
            ({"A": np.array([[1.0, np.nan]])}, "non-finite"),
            ({"c": np.array([np.nan, 1.0])}, "non-finite"),
            ({"lb": np.array([np.nan, 0.0])}, "NaN"),
            ({"ub": np.array([2.0, np.nan])}, "NaN"),
            ({"lb": np.full(2, np.inf), "ub": np.full(2, np.inf)}, r"lb = \+inf"),
            ({"lb": np.full(2, -np.inf), "ub": np.array([-np.inf, 2.0])}, "ub = -inf"),
            ({"integer": np.zeros(3, dtype=bool)}, "per column"),
            ({"priority": np.zeros(1, dtype=int)}, "per column"),
            (
                {"lb": np.full(2, -np.inf), "ub": np.full(2, np.inf),
                 "integer": np.ones(2, dtype=bool)},
                "finite bound",
            ),
        ],
    )
    def test_array_program_checks(self, change, message):
        arrays = dict(
            c=np.ones(2),
            A=np.ones((1, 2)),
            senses=np.array([-1], dtype=np.int8),
            b=np.ones(1),
            lb=np.zeros(2),
            ub=np.full(2, 2.0),
        )
        with pytest.raises(ValueError, match=message):
            DenseProgram(**{**arrays, **change})
