import hashlib
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
)
from matchlot import bvn
from matchlot.prng import SplitMix64

from oracles import random_feasible_assignment, random_instance


def _integer_sets_preserved(instance, original, matching):
    # The quota system's sets: every cell, agent row and object column.
    n, o = instance.n_agents, instance.n_objects
    sets = (
        [((i, j),) for i in range(n) for j in range(o)]
        + [tuple((i, j) for j in range(o)) for i in range(n)]
        + [tuple((i, j) for i in range(n)) for j in range(o)]
    )
    matrix = ProbabilisticAssignment.from_matching(matching, o)
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
        x = ProbabilisticAssignment.from_matching(m, 3)
        assert budish_extract(ex1, x) == m

    def test_properties_on_example(self, ex1, x1):
        m = budish_extract(ex1, x1)
        assert m.cardinality() == 3
        assert is_feasible(ex1, m)
        assert _integer_sets_preserved(ex1, x1, m)

    def test_example_with_two_objects(self, ex3, x2):
        m = budish_extract(ex3, x2)
        assert m.cardinality() == 3

    def test_rejects_fractional_mu(self, ex1):
        x = ProbabilisticAssignment.from_rows(
            [[Fraction(1, 3), 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
        )
        with pytest.raises(ValueError):
            budish_extract(ex1, x)

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
        x = ProbabilisticAssignment.from_rows([[Fraction(1, 2)]])
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
        integral = ProbabilisticAssignment.from_matching(Matching((0, 1, None, 0)), 3)
        for inst, x in ((empty, ProbabilisticAssignment(())), (ex1, integral)):
            structure = ConstraintStructure(inst)
            assert structure.tau(x) == structure.size
        assert ConstraintStructure(ex1).tau(x1) < ConstraintStructure(ex1).size

    def test_identical_input_rejected(self, ex1):
        m = Matching((0, 1, None, 0))
        x = ProbabilisticAssignment.from_matching(m, 3)
        with pytest.raises(ValueError):
            lambda_max(ex1, x, m)


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
        d = decompose_md(ex1, ProbabilisticAssignment.from_matching(m, 3))
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

    def test_dummy_hygiene(self, ex1):
        # Fractional expected cardinality exercises the dummy augmentation.
        x = ProbabilisticAssignment.from_rows(
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
        d = decompose_robust(ex1, ProbabilisticAssignment.from_matching(m, 3))
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
    x = ProbabilisticAssignment.from_rows([[Fraction(1, 2), Fraction(1, 4)]])
    assert md_upper_bound(x) == 0
    y = ProbabilisticAssignment.from_rows([[Fraction(1, 2), Fraction(1, 2)]])
    assert md_upper_bound(y) == 1


def test_md_upper_bound_examples(ex1, x1):
    assert md_upper_bound(x1) == 3
    zeros = ProbabilisticAssignment.from_rows([[0, 0, 0]] * 4)
    assert md_upper_bound(zeros) == 0


def test_md_upper_bound_family():
    from matchlot.datagen import family_lb

    est = rsd_exact(family_lb(3))
    assert md_upper_bound(est.assignment) == 5  # 2k - 1 at k = 3
