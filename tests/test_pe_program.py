import hashlib

import numpy as np
import pytest

from matchlot import (
    Instance,
    Matching,
    extreme_pe_cardinality,
    is_pareto_efficient,
)
from matchlot.core import BudgetExhaustedError, serial_dictatorship
from matchlot.datagen import GenParams, family_lb, family_ub, generate
from matchlot import pe_program
from matchlot.lp import DenseProgram, solve_mip
from matchlot.mechanisms import rsd_sampled
from matchlot.pe_program import build_matching_program
from matchlot.prng import SplitMix64

from oracles import (
    brute_force_pe_set,
    enumerate_feasible_matchings,
    random_instance,
    sd_pe_set,
)


class TestExtremeCardinality:
    def test_example_market(self, ex1):
        assert extreme_pe_cardinality(ex1, "min") == 2
        assert extreme_pe_cardinality(ex1, "max") == 4

    def test_single_agent(self):
        inst = Instance(("1",), ("a",), (1,), (("a",),))
        assert extreme_pe_cardinality(inst, "min") == 1
        assert extreme_pe_cardinality(inst, "max") == 1

    def test_upper_family_minimum(self):
        for size in (2, 3, 4):
            assert extreme_pe_cardinality(family_ub(size), "min") == size

    def test_lower_family_minimum(self):
        assert extreme_pe_cardinality(family_lb(2), "min") == 2
        assert extreme_pe_cardinality(family_lb(3), "min") == 3

    def test_matches_enumeration(self):
        rng = SplitMix64(606)
        for _ in range(60):
            inst = random_instance(rng, max_agents=5, max_objects=4)
            pe = sd_pe_set(inst)
            cards = [m.cardinality() for m in pe]
            p_minus = extreme_pe_cardinality(inst, "min")
            p_plus = extreme_pe_cardinality(inst, "max")
            assert p_minus <= p_plus
            assert p_minus == min(cards)
            assert p_plus == max(cards)

    def test_matches_enumeration_at_six_agents(self):
        rng = SplitMix64(616)
        checked = 0
        while checked < 8:
            inst = random_instance(rng, max_agents=6, max_objects=4)
            if inst.n_agents < 6:
                continue
            cards = [m.cardinality() for m in sd_pe_set(inst)]
            assert extreme_pe_cardinality(inst, "min") == min(cards)
            assert extreme_pe_cardinality(inst, "max") == max(cards)
            checked += 1

    def test_branching_searches_match_the_oracle(self, monkeypatch):
        # Markets big enough that most searches branch, so the children's
        # warm dual re-solves decide the answer.
        nodes = []

        def counted(program, **kwargs):
            result = solve_mip(program, **kwargs)
            nodes.append(result.nodes)
            return result

        monkeypatch.setattr(pe_program, "backend_solve_mip", counted)
        rng = SplitMix64(708)
        instances = 30
        for _ in range(instances):
            inst = random_instance(rng, max_agents=7, max_objects=5)
            cards = [m.cardinality() for m in brute_force_pe_set(inst)]
            assert extreme_pe_cardinality(inst, "min") == min(cards)
            assert extreme_pe_cardinality(inst, "max") == max(cards)
        assert sum(nodes) > len(nodes)

    def test_fifty_agent_search_stays_small(self, monkeypatch):
        # A deterministic count that guards the strength of the formulation:
        # with maximality rows over each agent's whole list this search took
        # 133 nodes, with rows over the prefix at or above each object 11.
        nodes = []

        def counted(program, **kwargs):
            result = solve_mip(program, **kwargs)
            nodes.append(result.nodes)
            return result

        monkeypatch.setattr(pe_program, "backend_solve_mip", counted)
        extreme_pe_cardinality(generate(GenParams(50, 10.0, seed=1001)), "min")
        assert sum(nodes) <= 30

    def test_incumbent_does_not_change_answer(self, ex1):
        by_size = {m.cardinality(): m for m in sd_pe_set(ex1)}
        assert extreme_pe_cardinality(ex1, "min", incumbent=by_size[2]) == 2
        assert extreme_pe_cardinality(ex1, "max", incumbent=by_size[4]) == 4

    def test_every_incumbent_matches_the_oracle(self, monkeypatch):
        # An incumbent of optimal size leaves the program infeasible; any
        # other leaves a strictly better matching for the program to find.
        statuses = []

        def recorded(program, **kwargs):
            result = solve_mip(program, **kwargs)
            statuses.append(result.status)
            return result

        monkeypatch.setattr(pe_program, "backend_solve_mip", recorded)
        rng = SplitMix64(919)
        for _ in range(25):
            inst = random_instance(rng, max_agents=5, max_objects=4)
            efficient = sorted(
                brute_force_pe_set(inst),
                key=lambda m: [-1 if j is None else j for j in m.assignment],
            )
            cards = [m.cardinality() for m in efficient]
            for incumbent in efficient:
                assert extreme_pe_cardinality(inst, "min", incumbent=incumbent) == min(cards)
                assert extreme_pe_cardinality(inst, "max", incumbent=incumbent) == max(cards)
        assert set(statuses) == {"infeasible", "optimal"}

    @pytest.mark.parametrize(
        "assignment",
        [(None, None, None, None), (0, 0, 0, None), (2, 0, 0, None)],
        ids=["not-maximal", "over-capacity", "dominated"],
    )
    def test_rejects_an_inefficient_incumbent(self, ex1, assignment):
        for direction in ("min", "max"):
            with pytest.raises(ValueError, match="incumbent"):
                extreme_pe_cardinality(ex1, direction, incumbent=Matching(assignment))

    def test_rejects_bad_direction(self, ex1):
        with pytest.raises(ValueError):
            extreme_pe_cardinality(ex1, "median")

    def test_time_limit_cut_is_budget_exhausted(self):
        inst = generate(GenParams(n_agents=12, ratio=4.0, seed=0))
        with pytest.raises(BudgetExhaustedError):
            extreme_pe_cardinality(inst, "min", time_limit=0.0)


def _with_cells_fixed(built, used):
    """``built``'s program with each cell column fixed to 1 if in ``used``, else 0."""
    program = built.program
    lb, ub = program.lb.copy(), program.ub.copy()
    fixed = [float(cell in used) for cell in built.cells]
    lb[: len(fixed)] = ub[: len(fixed)] = fixed
    return DenseProgram(
        program.c,
        program.A,
        program.senses,
        program.b,
        lb,
        ub,
        integer=program.integer,
        priority=program.priority,
    )


class TestMatchingProgram:
    def test_feasible_set_is_the_efficient_set(self):
        # The integer points of the program are exactly the efficient
        # matchings: with the cells fixed to a feasible matching, the program
        # is feasible exactly when the matching is Pareto-efficient.  Checked
        # over every cell and over a random support holding the matching.
        rng = SplitMix64(4242)
        for _ in range(40):
            inst = random_instance(rng, max_agents=5, max_objects=4)
            listed = [(i, j) for i in range(inst.n_agents) for j in inst.pref_idx[i]]
            every_cell = build_matching_program(inst, objective={})
            for matching in enumerate_feasible_matchings(inst):
                used = {(i, j) for i, j in enumerate(matching.assignment) if j is not None}
                support = used | {cell for cell in listed if rng.randbelow(2)}
                restricted = build_matching_program(inst, objective={}, support=support)
                efficient = is_pareto_efficient(inst, matching)
                for built in (every_cell, restricted):
                    status = solve_mip(_with_cells_fixed(built, used)).status
                    assert status == ("optimal" if efficient else "infeasible")

    def test_decoded_solutions_are_efficient(self):
        rng = SplitMix64(1234)
        for _ in range(40):
            inst = random_instance(rng, max_agents=5, max_objects=4)
            cost = {
                (i, j): float(rng.randbelow(21) - 10) / 4.0
                for i in range(inst.n_agents)
                for j in inst.pref_idx[i]
            }
            built = build_matching_program(inst, objective=cost, sense="min")
            result = solve_mip(built.program)
            if result.status != "optimal":
                continue
            matching = built.decode(result)
            assert is_pareto_efficient(inst, matching)
            # The optimum is the cheapest efficient matching.
            best = min(
                sum(
                    cost[i, j]
                    for i, j in enumerate(m.assignment)
                    if j is not None
                )
                for m in sd_pe_set(inst)
            )
            assert result.objective == pytest.approx(best, abs=1e-6)

    def test_cardinality_floor(self, ex1):
        built = build_matching_program(
            ex1,
            objective={},
            sense="min",
            min_cardinality=4,
        )
        result = solve_mip(built.program)
        assert result.status == "optimal"
        assert built.decode(result).cardinality() >= 4

    def test_infeasible_floor(self, ex1):
        built = build_matching_program(
            ex1,
            objective={},
            sense="min",
            min_cardinality=5,
        )
        assert solve_mip(built.program).status == "infeasible"

    def test_support_restriction_and_forcing(self, ex1):
        support = {(0, 0), (1, 1), (2, 0), (3, 0)}
        built = build_matching_program(
            ex1,
            objective={},
            sense="min",
            support=support,
            forced={(1, 1)},
        )
        result = solve_mip(built.program)
        assert result.status == "optimal"
        matching = built.decode(result)
        assert matching.assignment[1] == 1
        used = {
            (i, j) for i, j in enumerate(matching.assignment) if j is not None
        }
        assert used <= support


def _pinned_markets():
    rng = SplitMix64(2718)
    markets = [random_instance(rng, max_agents=6, max_objects=4) for _ in range(8)]
    return markets + [family_lb(3), family_lb(4)]


def _pinned_solves(monkeypatch):
    """Every matching MIP of ``TestProgramPin`` and its solve, in order.

    Returns ``(built, program, result)`` triples: ``p-``/``p+`` with and
    without an incumbent, then pricing and margin programs, per market.
    """
    solves = []
    built_last = []

    def building(instance, **kwargs):
        built_last.append(build_matching_program(instance, **kwargs))
        return built_last[-1]

    def solving(program, **kwargs):
        solves.append((built_last[-1], program, solve_mip(program, **kwargs)))
        return solves[-1][2]

    monkeypatch.setattr(pe_program, "build_matching_program", building)
    monkeypatch.setattr(pe_program, "backend_solve_mip", solving)
    for seed, inst in enumerate(_pinned_markets()):
        incumbent = serial_dictatorship(inst, range(inst.n_agents))
        for direction in ("min", "max"):
            extreme_pe_cardinality(inst, direction)
            extreme_pe_cardinality(inst, direction, incumbent=incumbent)
        x = rsd_sampled(inst, 200, seed).assignment
        support = x.support()
        forced = {(i, j) for i, j in support if x.probs[i][j] == 1}
        cost_rng = SplitMix64(seed)
        cost = {
            (i, j): -float(cost_rng.randbelow(9)) / 4.0
            for i in range(inst.n_agents)
            for j in inst.pref_idx[i]
        }
        size = incumbent.cardinality()
        for kwargs in (
            dict(support=support, forced=forced, min_cardinality=size),
            dict(support=support, forced=forced, margin_limit=1),
            dict(margin_limit=0),
        ):
            built = build_matching_program(inst, objective=cost, **kwargs)
            solves.append((built, built.program, solve_mip(built.program)))
    return solves


class TestProgramPin:
    """The matching MIPs and their branch-and-bound runs, pinned bit for bit.

    Covers ``p-``/``p+`` with and without an incumbent, pricing programs
    with a support, forced cells and a cardinality floor, and the margin
    block with and without a support.  The digest takes each program's
    arrays (objective in its own sense) and its solve: status, objective,
    node, branch and pivot counts, primal values and decoded matching.
    """

    PINNED = "c29340254b25a37d483853836dbf99c04748f98fd8bdea9d8d292bded4a2a723"
    # Per market: p- and p+ without and with the incumbent (None: no
    # matching beats an incumbent that is already extreme), then the pricing
    # program with a cardinality floor and the two margin programs.
    OBJECTIVES = [
        (1, None, 1, None, -1.75, -1.75, -1.75),
        (3, None, 3, None, -3.5, -3.5, -3.5),
        (1, None, 1, None, -1, -1, -1),
        (2, None, 2, None, -1.5, -1.5, -1.5),
        (2, None, 2, None, -1, -1, -1),
        (3, None, 3, None, -5.75, -5.75, -5.75),
        (2, None, 2, None, -2, -2, -2),
        (3, None, 3, None, -4.75, -4.75, -4.75),
        (3, None, 6, 6, -6, -5, -4.25),
        (4, None, 8, 8, -11, -7.75, -6),
    ]

    def test_extreme_cardinalities_are_pinned(self):
        # Plain values, so that a formulation change that moves the digest
        # still has to keep every p- and p+.
        extremes = [
            (extreme_pe_cardinality(inst, "min"), extreme_pe_cardinality(inst, "max"))
            for inst in _pinned_markets()
        ]
        assert extremes == [
            (1, 1), (3, 3), (1, 1), (2, 2), (2, 2), (3, 3), (2, 2), (3, 3), (3, 6), (4, 8)
        ]

    def test_matching_programs_are_pinned(self, monkeypatch):
        digest = hashlib.sha256()
        for built, program, result in _pinned_solves(monkeypatch):
            for array, dtype in (
                (program.A, float),
                (program.b, float),
                (program.c, float),
                (program.senses, np.int64),
                (program.lb, float),
                (program.ub, float),
                (program.integer, bool),
                (program.priority, np.int64),
            ):
                digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
            fields = (
                program.A.shape,
                result.status,
                result.objective,
                result.nodes,
                result.branches,
                result.iterations,
                result.primal.tolist(),
                built.decode(result).assignment,
            )
            digest.update(repr(fields).encode())
        assert digest.hexdigest() == self.PINNED

    def test_matching_program_values_are_pinned(self, monkeypatch):
        # The plain values behind the digest: a change of pivot path moves
        # counts and tied optima, but must keep every status and objective.
        got = [
            (result.status, result.objective)
            for _, _, result in _pinned_solves(monkeypatch)
        ]
        expected = [value for row in self.OBJECTIVES for value in row]
        assert [status for status, _ in got] == [
            "infeasible" if value is None else "optimal" for value in expected
        ]
        assert [objective for _, objective in got if objective is not None] == (
            pytest.approx([value for value in expected if value is not None], abs=1e-9)
        )
