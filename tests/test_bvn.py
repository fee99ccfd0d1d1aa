import hashlib
import math
from fractions import Fraction

import pytest

from matchlot import (
    ConstraintStructure,
    GenParams,
    Instance,
    Matching,
    NotRobustError,
    ProbabilisticAssignment,
    budish_extract,
    decompose_md,
    decompose_robust,
    generate,
    is_feasible,
    is_pareto_efficient,
    lambda_max,
    md_upper_bound,
    mu,
    probabilistic_serial,
    recompose,
    rsd_exact,
    rsd_sampled,
)
from matchlot import bvn
from matchlot.prng import SplitMix64

from oracles import (
    matching_matrix,
    random_feasible_assignment,
    random_instance,
    step_oracle,
    step_size_oracle,
    tau_oracle,
)


def _integer_sets_preserved(instance, original, matching):
    # The quota system's sets: every cell, agent row and object column.
    n, o = instance.n_agents, instance.n_objects
    sets = (
        [((i, j),) for i in range(n) for j in range(o)]
        + [tuple((i, j) for j in range(o)) for i in range(n)]
        + [tuple((i, j) for i in range(n)) for j in range(o)]
    )
    matrix = matching_matrix(matching, o)
    for cells in sets:
        value = sum((original.probs[i][j] for i, j in cells), Fraction(0))
        if value.denominator == 1:
            rounded = sum(matrix.probs[i][j] for i, j in cells)
            if rounded != value:
                return False
    return True


class TestBudishExtract:
    def test_integral_input_passthrough(self, ex1):
        m = Matching((0, 1, None, 0))
        x = matching_matrix(m, 3)
        assert budish_extract(ex1, x) == m

    def test_properties_on_example(self, ex1, x1):
        m = budish_extract(ex1, x1)
        assert m.cardinality() == 3
        assert is_feasible(ex1, m)
        assert _integer_sets_preserved(ex1, x1, m)

    def test_example_with_two_objects(self, ex3, x2):
        m = budish_extract(ex3, x2)
        assert m.cardinality() == 3

    def test_fractional_mu_rounds_to_floor_or_ceil(self):
        # The total is a quota set too: a fractional mu rounds to one of
        # its two neighbours, as every other fractional quota set does.
        rng = SplitMix64(606)
        done = 0
        while done < 120:
            inst = random_instance(rng, max_agents=6, max_objects=4, max_capacity=3)
            x = random_feasible_assignment(rng, inst)
            total = mu(x)
            if total.denominator == 1:
                continue
            m = budish_extract(inst, x)
            assert m.cardinality() in (math.floor(total), math.ceil(total))
            assert is_feasible(inst, m)
            assert _integer_sets_preserved(inst, x, m)
            done += 1

    def test_properties_on_randoms(self):
        rng = SplitMix64(404)
        done = 0
        while done < 120:
            inst = random_instance(rng, max_agents=5, max_objects=4)
            x = random_feasible_assignment(rng, inst)
            if mu(x).denominator != 1:
                continue
            m = budish_extract(inst, x)
            assert m.cardinality() == mu(x)
            assert is_feasible(inst, m)
            assert _integer_sets_preserved(inst, x, m)
            done += 1


    def test_push_without_progress_is_caught(self, ex1, x1, monkeypatch):
        monkeypatch.setattr(bvn, "_push_cycle", lambda *args: None)
        with pytest.raises(bvn.FractionalityDegreeError, match="failed to increase"):
            budish_extract(ex1, x1)


class TestLambdaMax:
    def test_single_fractional_cell(self):
        inst = Instance(("1",), ("a",), (1,), (("a",),))
        x = ProbabilisticAssignment([[Fraction(1, 2)]])
        m = Matching((0,))
        # Stepping away from the matching drives the half cell down to zero.
        assert lambda_max(inst, x, m) == 1

    def test_progress_on_example(self, ex1, x1):
        structure = ConstraintStructure(ex1)
        m = budish_extract(ex1, x1)
        lam = lambda_max(ex1, x1, m)
        assert lam > 0
        stepped = ProbabilisticAssignment(
            tuple(
                tuple(
                    x1.probs[i][j]
                    + lam
                    * (x1.probs[i][j] - (1 if m.assignment[i] == j else 0))
                    for j in range(3)
                )
                for i in range(4)
            )
        )
        assert structure.tau(stepped) > structure.tau(x1)

    def test_tau_reaches_size_exactly_on_integral_matrices(self, ex1, x1):
        # An agentless market's matrix has no rows and so no column sums,
        # yet every one of its quota sets holds the integer 0.
        empty = Instance((), ("a",), (1,), ())
        integral = matching_matrix(Matching((0, 1, None, 0)), 3)
        for inst, x in ((empty, ProbabilisticAssignment(())), (ex1, integral)):
            structure = ConstraintStructure(inst)
            assert structure.tau(x) == structure.size
        assert ConstraintStructure(ex1).tau(x1) < ConstraintStructure(ex1).size

    @staticmethod
    def _matches_oracle(inst, x, m):
        try:
            expected = step_size_oracle(inst, x, m)
        except ValueError:
            with pytest.raises(ValueError):
                lambda_max(inst, x, m)
            return False
        assert lambda_max(inst, x, m) == expected
        return True

    def test_matches_the_three_scan_oracle(self):
        # Random feasible assignments, against their extracted matchings
        # and against random feasible matchings of any cardinality, which
        # move the row and column sums and the total either way.
        rng = SplitMix64(505)
        stepped = 0
        while stepped < 300:
            inst = random_instance(rng, max_agents=6, max_objects=4)
            x = random_feasible_assignment(rng, inst)
            loads = [0] * inst.n_objects
            chosen = []
            for prefs in inst.pref_idx:
                open_ = [j for j in prefs if loads[j] < inst.capacities[j]]
                pick = rng.randbelow(len(open_) + 1)
                chosen.append(open_[pick] if pick < len(open_) else None)
                if chosen[-1] is not None:
                    loads[chosen[-1]] += 1
            for m in (budish_extract(inst, x), Matching(tuple(chosen))):
                stepped += self._matches_oracle(inst, x, m)

    def test_matches_the_oracle_on_edge_markets(self):
        empty = Instance((), ("a", "b"), (1, 2), ())
        assert not self._matches_oracle(empty, ProbabilisticAssignment(()), Matching(()))
        for cap in (1, 2):
            single = Instance(("1",), ("a",), (cap,), (("a",),))
            for value in (0, Fraction(1, 3), Fraction(1, 2), 1):
                x = ProbabilisticAssignment([[value]])
                for m in (Matching((0,)), Matching((None,))):
                    same = x == matching_matrix(m, 1)
                    assert self._matches_oracle(single, x, m) != same

    def test_identical_input_rejected(self, ex1):
        m = Matching((0, 1, None, 0))
        x = matching_matrix(m, 3)
        with pytest.raises(ValueError):
            lambda_max(ex1, x, m)


class TestIntegerForm:
    def test_tau_matches_the_oracle(self):
        rng = SplitMix64(707)
        for k in range(300):
            inst = random_instance(rng, max_agents=6, max_objects=5, max_capacity=3)
            x = random_feasible_assignment(rng, inst, denominator=(12, 60, 7)[k % 3])
            assert ConstraintStructure(inst).tau(x) == tau_oracle(inst, x)

    def test_tau_matches_the_oracle_on_edge_markets(self):
        empty = Instance((), ("a", "b"), (1, 2), ())
        x = ProbabilisticAssignment(())
        assert ConstraintStructure(empty).tau(x) == tau_oracle(empty, x) == 2
        for cap in (1, 2):
            single = Instance(("1",), ("a",), (cap,), (("a",),))
            for value in (0, Fraction(1, 3), Fraction(1, 2), 1):
                x = ProbabilisticAssignment([[value]])
                assert ConstraintStructure(single).tau(x) == tau_oracle(single, x)

    def test_step_matches_the_oracle(self):
        # Random (assignment, extracted matching, lambda_max) triples; the
        # integer form handed to the next step is the one its cells give.
        rng = SplitMix64(909)
        stepped = 0
        while stepped < 300:
            inst = random_instance(rng, max_agents=6, max_objects=5, max_capacity=3)
            x = random_feasible_assignment(rng, inst, denominator=(12, 60, 7)[stepped % 3])
            m = budish_extract(inst, x)
            if x == matching_matrix(m, inst.n_objects):
                continue
            lam = lambda_max(inst, x, m)
            after = bvn._step(x, m, lam)
            assert after.probs == step_oracle(x, m, lam)
            assert after.bordered == ProbabilisticAssignment(after.probs).bordered
            stepped += 1


class TestDecomposeMd:
    def test_example_all_cardinality_three(self, ex1, x1):
        d = decompose_md(ex1, x1)
        assert all(m.cardinality() == 3 for m in d.matchings())
        assert recompose(ex1, d).probs == x1.probs
        assert sum(d.weights(), Fraction(0)) == 1

    def test_example_two_objects(self, ex3, x2):
        d = decompose_md(ex3, x2)
        assert all(m.cardinality() == 3 for m in d.matchings())
        assert recompose(ex3, d).probs == x2.probs

    def test_matching_input_identity(self, ex1):
        m = Matching((0, 1, None, 0))
        d = decompose_md(ex1, matching_matrix(m, 3))
        assert d.terms == ((Fraction(1), m),)

    def test_random_exact_recomposition(self):
        rng = SplitMix64(808)
        structure_cache = {}
        for _ in range(120):
            inst = random_instance(rng, max_agents=6, max_objects=4)
            x = random_feasible_assignment(rng, inst)
            d = decompose_md(inst, x)
            assert recompose(inst, d).probs == x.probs
            lo = md_upper_bound(x)
            hi = lo if mu(x).denominator == 1 else lo + 1
            assert all(lo <= m.cardinality() <= hi for m in d.matchings())
            key = (inst.n_agents, inst.n_objects)
            if key not in structure_cache:
                structure_cache[key] = ConstraintStructure(inst).size
            assert len(d.terms) <= structure_cache[key]

    def test_fractional_mu_keeps_the_market_shape(self, ex1):
        # A fractional expected cardinality puts its slack in the bordered
        # corner; no matching gains an agent or an object.
        x = ProbabilisticAssignment(
            [
                [Fraction(1, 3), Fraction(1, 4), 0],
                [Fraction(1, 5), 0, Fraction(1, 7)],
                [0, 0, 0],
                [Fraction(1, 2), 0, 0],
            ]
        )
        d = decompose_md(ex1, x)
        assert recompose(ex1, d).probs == x.probs
        for m in d.matchings():
            assert len(m.assignment) == 4
            assert all(j is None or 0 <= j < 3 for j in m.assignment)


    def test_steps_build_no_fraction_cells(self, monkeypatch):
        # Each step's assignment is its integer form alone; its Fraction
        # cells would be built only if something read them.
        steps = []
        step = bvn._step

        def recording_step(*args):
            steps.append(step(*args))
            return steps[-1]

        monkeypatch.setattr(bvn, "_step", recording_step)
        for seed in range(60000, 60005):
            inst = generate(GenParams(n_agents=15, ratio=3.0, seed=seed))
            x = probabilistic_serial(inst)
            decompose_robust(inst, x)
            assert "probs" not in vars(x)
        assert len(steps) > 20
        assert not any("probs" in vars(after) for after in steps)

    def test_zero_step_is_caught(self, ex1, x1, monkeypatch):
        monkeypatch.setattr(bvn, "lambda_max", lambda *args: Fraction(0))
        with pytest.raises(bvn.FractionalityDegreeError, match="failed to make progress"):
            decompose_md(ex1, x1)

    def test_example_lottery_is_pinned(self, ex1, x1):
        f5, f1 = Fraction(5, 12), Fraction(1, 12)
        assert decompose_md(ex1, x1).terms == (
            (f5, Matching((0, 1, 0, None))),
            (f1, Matching((0, 2, 0, None))),
            (f5, Matching((1, 0, None, 0))),
            (f1, Matching((2, 0, None, 0))),
        )


class TestDecomposeRobust:
    def test_eating_outcome_decomposes_efficiently(self, ex1):
        ps = probabilistic_serial(ex1)
        d = decompose_robust(ex1, ps)
        assert all(is_pareto_efficient(ex1, m) for m in d.matchings())
        assert all(m.cardinality() == 3 for m in d.matchings())

    def test_rsd_outcome_may_fail_with_witness(self, ex1, x1):
        # The exact RSD matrix of this market admits decompositions with
        # inefficient matchings; the certified path either succeeds with
        # all-efficient matchings or surfaces a genuine witness.
        try:
            d = decompose_robust(ex1, x1)
        except NotRobustError as err:
            assert not is_pareto_efficient(ex1, err.matching)
            assert err.weight > 0
        else:
            assert all(is_pareto_efficient(ex1, m) for m in d.matchings())

    def test_single_efficient_matching(self, ex1):
        m = Matching((1, 0, 0, None))
        d = decompose_robust(ex1, matching_matrix(m, 3))
        assert d.terms == ((Fraction(1), m),)


    def test_zero_agents(self):
        empty = Instance((), ("a", "b"), (1, 2), ())
        d = decompose_robust(empty, probabilistic_serial(empty))
        assert d.terms == ((Fraction(1), Matching(())),)

    def test_eating_lotteries_are_pinned(self):
        # The exact lotteries of the eating outcomes of twenty generated
        # 15-agent markets (181 terms in all), as a digest of their reprs.
        terms = []
        for i in range(20):
            inst = generate(GenParams(15, 3.0, seed=60000 + i))
            terms.append(decompose_robust(inst, probabilistic_serial(inst)).terms)
        assert sum(len(t) for t in terms) == 181
        assert hashlib.sha256(repr(terms).encode()).hexdigest() == (
            "7fa0f284b6fe1dc5624e120a5f5bea175314a85d259c9be920d3fdcb8c1ca78a"
        )


def test_md_upper_bound_fractional():
    x = ProbabilisticAssignment([[Fraction(1, 2), Fraction(1, 4)]])
    assert md_upper_bound(x) == 0
    y = ProbabilisticAssignment([[Fraction(1, 2), Fraction(1, 2)]])
    assert md_upper_bound(y) == 1


def test_md_upper_bound_examples(ex1, x1):
    assert md_upper_bound(x1) == 3
    zeros = ProbabilisticAssignment([[0, 0, 0]] * 4)
    assert md_upper_bound(zeros) == 0


def test_md_upper_bound_family():
    from matchlot.datagen import family_lb

    est = rsd_exact(family_lb(3))
    assert md_upper_bound(est.assignment) == 5  # 2k - 1 at k = 3


def test_random_lotteries_are_pinned():
    # The exact lotteries of 600 random feasible assignments, 463 of them
    # with a fractional expected cardinality and capacities up to 3 (2,205
    # terms in all), as a digest of their reprs.
    rng = SplitMix64(99)
    terms = []
    for _ in range(600):
        inst = random_instance(rng, max_agents=6, max_objects=5, max_capacity=3)
        terms.append(decompose_md(inst, random_feasible_assignment(rng, inst)).terms)
    assert sum(len(t) for t in terms) == 2205
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == (
        "08bbfe76d3037b0ed686e36d2e9d9be617e44052f601a0491bd089565521fe35"
    )


def test_large_denominator_lotteries_are_pinned():
    # Sampled RSD matrices (denominator 10,000) of six generated 15-agent
    # markets and exact RSD matrices (denominators dividing 7! = 5,040) of
    # four 7-agent markets, 94 terms in all, as a digest of their reprs.
    terms = []
    for s in range(6):
        inst = generate(GenParams(15, 3.0, seed=500 + s))
        terms.append(decompose_md(inst, rsd_sampled(inst, 10_000, s).assignment).terms)
    for s in range(4):
        inst = generate(GenParams(7, 2.0, seed=900 + s))
        terms.append(decompose_md(inst, rsd_exact(inst).assignment).terms)
    assert sum(len(t) for t in terms) == 94
    assert hashlib.sha256(repr(terms).encode()).hexdigest() == (
        "5bbc33ae462ff3dcab87d7b6fdb1255e3bb4fba22c7f5040650d9ed058fc8bc2"
    )
