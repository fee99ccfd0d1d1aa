import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchlot import (
    EnumerationLimitError,
    Instance,
    Matching,
    ProbabilisticAssignment,
    initial_columns,
    is_feasible_assignment,
    mu,
    probabilistic_serial,
    rsd_exact,
    rsd_sampled,
    serial_dictatorship,
)
from matchlot.datagen import GenParams, family_lb, generate
from matchlot.mechanisms import _sd_outcomes, sample_sd_matchings
from matchlot.prng import SplitMix64, batch_permutations

from oracles import is_envy_free, random_instance, small_markets


class TestRsdExact:
    def test_reproduces_example_matrix(self, ex1, x1):
        est = rsd_exact(ex1)
        assert est.exact
        assert est.sample_count == 24
        assert est.assignment.probs == x1.probs

    def test_single_agent(self):
        inst = Instance(("1",), ("a",), (1,), (("a",),))
        est = rsd_exact(inst)
        assert est.assignment.probs == ((Fraction(1),),)

    def test_family_expected_cardinality(self):
        est = rsd_exact(family_lb(2))
        assert mu(est.assignment) == 3  # 2k - 1 at k = 2

    def test_limit(self):
        inst = Instance(
            tuple(str(i) for i in range(10)),
            ("a",),
            (1,),
            tuple(("a",) for _ in range(10)),
        )
        with pytest.raises(EnumerationLimitError):
            rsd_exact(inst)

    def test_denominators_divide_factorial(self):
        rng = SplitMix64(9)
        for _ in range(25):
            inst = random_instance(rng, max_agents=5, max_objects=3)
            est = rsd_exact(inst)
            fact = math.factorial(inst.n_agents)
            assert is_feasible_assignment(inst, est.assignment)
            for row in est.assignment.probs:
                for v in row:
                    assert fact % v.denominator == 0


class TestRsdSampled:
    def test_single_sample_is_indicator(self, ex1):
        est = rsd_sampled(ex1, samples=1, seed=3)
        values = {v for row in est.assignment.probs for v in row}
        assert values <= {Fraction(0), Fraction(1)}
        assert not est.exact

    @pytest.mark.parametrize("draw", [rsd_sampled, sample_sd_matchings])
    def test_rejects_an_empty_sample(self, ex1, draw):
        # An empty pool would leave binary_search_z without a p- incumbent.
        with pytest.raises(ValueError, match="samples must be >= 1"):
            draw(ex1, 0, 1)

    def test_deterministic_per_seed(self, ex1):
        a = rsd_sampled(ex1, samples=500, seed=11)
        b = rsd_sampled(ex1, samples=500, seed=11)
        c = rsd_sampled(ex1, samples=500, seed=12)
        assert a.assignment.probs == b.assignment.probs
        assert a.assignment.probs != c.assignment.probs

    def test_matches_matching_sample_average(self, ex1):
        est = rsd_sampled(ex1, samples=400, seed=21)
        outcome = _sd_outcomes(ex1, batch_permutations(21, 400, ex1.n_agents))
        total = [[0] * 3 for _ in range(4)]
        for row in outcome.tolist():
            for i, j in enumerate(row):
                if j >= 0:
                    total[i][j] += 1
        expected = tuple(
            tuple(Fraction(c, 400) for c in row) for row in total
        )
        assert est.assignment.probs == expected

    def test_unbiased_across_seeds(self, ex1, x1):
        # Mean entrywise deviation of the 50-seed average from the exact
        # matrix; binomial concentration puts this well under 0.005.
        acc = [[Fraction(0)] * 3 for _ in range(4)]
        seeds = 50
        for seed in range(seeds):
            est = rsd_sampled(ex1, samples=10_000, seed=seed)
            for i in range(4):
                for j in range(3):
                    acc[i][j] += est.assignment.probs[i][j]
        deviations = [
            abs(acc[i][j] / seeds - x1.probs[i][j])
            for i in range(4)
            for j in range(3)
        ]
        assert sum(deviations) / len(deviations) < Fraction(5, 1000)


def _distinct_rows_reference(outcome: np.ndarray) -> np.ndarray:
    """Distinct rows in first-occurrence order, by ``np.unique`` over void rows."""
    n = outcome.shape[1]
    if n == 0:
        return outcome[:1]
    rows = outcome.view(np.dtype((np.void, outcome.itemsize * n))).ravel()
    _, first = np.unique(rows, return_index=True)
    return outcome[np.sort(first)]


def _as_matching(row) -> Matching:
    return Matching(tuple(None if j < 0 else j for j in row))


class TestSdKernel:
    @settings(max_examples=150, deadline=None)
    @given(inst=small_markets(), seed=st.integers(0, 2**64 - 1))
    def test_rows_match_the_scalar_rule(self, inst, seed):
        orderings = batch_permutations(seed, 12, inst.n_agents)
        outcome = _sd_outcomes(inst, orderings)
        expected = [serial_dictatorship(inst, sigma) for sigma in orderings.tolist()]
        assert [_as_matching(row) for row in outcome.tolist()] == expected
        distinct = sample_sd_matchings(inst, 12, seed)
        assert [_as_matching(row) for row in distinct.tolist()] == list(
            dict.fromkeys(expected)
        )
        counts = [[0] * inst.n_objects for _ in range(inst.n_agents)]
        for m in expected:
            for i, j in enumerate(m.assignment):
                if j is not None:
                    counts[i][j] += 1
        assert rsd_sampled(inst, 12, seed).assignment.probs == tuple(
            tuple(Fraction(c, 12) for c in row) for row in counts
        )

    @settings(max_examples=60, deadline=None)
    @given(inst=small_markets())
    def test_exact_matches_the_scalar_rule(self, inst):
        n, o = inst.n_agents, inst.n_objects
        counts = [[0] * o for _ in range(n)]
        for sigma in itertools.permutations(range(n)):
            for i, j in enumerate(serial_dictatorship(inst, sigma).assignment):
                if j is not None:
                    counts[i][j] += 1
        total = math.factorial(n)
        assert rsd_exact(inst).assignment.probs == tuple(
            tuple(Fraction(c, total) for c in row) for row in counts
        )

    def test_draws_are_pinned_at_benchmark_scale(self):
        # The RSD matrices and distinct outcome rows of 10,000 orderings on
        # the eight 30-agent rsd-maximin panel markets and family_lb(4):
        # deep ranks, capacities up to 26 and list widths 3-5, beyond the
        # six agents the scalar-rule property reaches.
        markets = [
            (generate(GenParams(30, 10.0, seed=70_000 + 7919 * j)), 70_000 + 7919 * j)
            for j in range(8)
        ] + [(family_lb(4), 79_190)]
        digest = hashlib.sha256()
        for inst, seed in markets:
            digest.update(repr(rsd_sampled(inst, 10_000, seed).assignment.probs).encode())
            digest.update(sample_sd_matchings(inst, 10_000, seed).tobytes())
        assert digest.hexdigest() == (
            "dda76825bc1f7351135c6050a6d304c89534fcee730dbf9302142c89df2bd3ea"
        )

    def test_reads_position_major_orderings_without_a_copy(self, monkeypatch, ex1):
        orderings = batch_permutations(5, 50, ex1.n_agents)
        row_major = np.ascontiguousarray(orderings)
        expected = _sd_outcomes(ex1, row_major)
        shared = []
        contiguous = np.ascontiguousarray

        def spy(a, *args, **kwargs):
            out = contiguous(a, *args, **kwargs)
            shared.append(np.shares_memory(out, orderings))
            return out

        monkeypatch.setattr(np, "ascontiguousarray", spy)
        outcome = _sd_outcomes(ex1, orderings)
        assert shared == [True]
        assert np.array_equal(outcome, expected)

    @pytest.mark.parametrize(
        "inst, samples, seed",
        [
            # 5 objects and 50 agents: 6**50 > 2**63, so each key spans
            # three int64 words.  Seed 1000 draws 10,000 distinct outcomes,
            # seed 1 draws 9,916.
            (generate(GenParams(50, 10.0, seed=1000)), 10_000, 1000),
            (generate(GenParams(50, 10.0, seed=1)), 10_000, 1),
            (family_lb(4), 10_000, 79_190),
            # One seat for 70 agents: each outcome is one power of 2, and
            # the 70 powers need two words.
            (
                Instance(
                    tuple(str(i) for i in range(70)), ("a",), (1,), (("a",),) * 70
                ),
                2_000,
                3,
            ),
            (Instance(("1",), ("a", "b"), (1, 1), (("b", "a"),)), 5, 2),
            (Instance((), ("a",), (1,), ()), 5, 2),
        ],
        ids=[
            "three-words",
            "three-words-repeats",
            "one-word",
            "one-seat",
            "one-agent",
            "zero-agents",
        ],
    )
    def test_distinct_rows_match_a_void_row_reference(self, inst, samples, seed):
        outcome = _sd_outcomes(inst, batch_permutations(seed, samples, inst.n_agents))
        expected = _distinct_rows_reference(outcome)
        distinct = sample_sd_matchings(inst, samples, seed)
        assert distinct.dtype == np.int32
        assert distinct.shape == expected.shape
        assert np.array_equal(distinct, expected)

    def test_zero_agents(self):
        empty = Instance((), ("a",), (1,), ())
        assert sample_sd_matchings(empty, 3, 1).shape == (1, 0)
        pool = initial_columns(empty, 3, 1)
        assert len(pool) == 1 and pool.matching(0) == Matching(())
        assert rsd_sampled(empty, 3, 1).assignment.probs == ()


class TestProbabilisticSerial:
    def test_example_rows(self, ex1):
        ps = probabilistic_serial(ex1)
        h = Fraction(1, 2)
        assert ps.probs == (
            (h, h, 0),
            (h, h, 0),
            (h, 0, 0),
            (h, 0, 0),
        )

    def test_single_agent(self):
        inst = Instance(("1",), ("a",), (1,), (("a",),))
        assert probabilistic_serial(inst).probs == ((Fraction(1),),)

    def test_empty_preferences_never_eat(self):
        inst = Instance(("1", "2"), ("a",), (1,), (("a",), ()))
        ps = probabilistic_serial(inst)
        assert ps.probs[1] == (Fraction(0),)

    def test_eating_time_conservation(self):
        # Row sums equal min(1, time the acceptable set stays nonempty) and
        # each column fills to capacity exactly when it exhausts early.
        rng = SplitMix64(31)
        for _ in range(200):
            inst = random_instance(rng, max_agents=6, max_objects=4)
            ps = probabilistic_serial(inst)
            assert is_feasible_assignment(inst, ps)
            col = [sum(c, Fraction(0)) for c in zip(*ps.probs)]
            exhausted = [
                col[j] == inst.capacities[j] for j in range(inst.n_objects)
            ]
            for i in range(inst.n_agents):
                row = sum(ps.probs[i], Fraction(0))
                if row < 1:
                    # Stopped early: everything acceptable must have run out.
                    assert all(exhausted[j] for j in inst.pref_idx[i])

    def test_envy_free_on_randoms(self):
        rng = SplitMix64(47)
        for _ in range(1000):
            inst = random_instance(rng, max_agents=6, max_objects=4)
            assert is_envy_free(inst, probabilistic_serial(inst))


class TestEnvyFreeness:
    def test_identical_rows(self, ex1):
        rows = [[Fraction(1, 3)] * 3] * 4
        assert is_envy_free(ex1, ProbabilisticAssignment(rows))

    def test_strict_prefix_violation(self):
        inst = Instance(
            ("1", "2"),
            ("a", "b"),
            (1, 1),
            (("a", "b"), ("a", "b")),
        )
        x = ProbabilisticAssignment([[0, 1], [1, 0]])
        assert not is_envy_free(inst, x)
