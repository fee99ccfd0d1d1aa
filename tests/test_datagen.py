import hashlib
import math
from dataclasses import fields, replace

import pytest

from matchlot import GenParamError, GenParams, generate, mu, rsd_exact
from matchlot.datagen import family_lb, family_ub, generate_with_scores


def generate_batch(params: GenParams, count: int) -> list:
    """Independent instances; instance ``t`` uses ``seed + t``."""
    return [generate(replace(params, seed=params.seed + t)) for t in range(count)]


class TestGenerate:
    def test_deterministic_per_seed(self):
        params = GenParams(n_agents=40, ratio=5.0, seed=7)
        assert generate(params) == generate(params)
        other = GenParams(n_agents=40, ratio=5.0, seed=8)
        assert generate(params) != generate(other)

    def test_shapes_and_lists(self):
        params = GenParams(n_agents=100, ratio=10.0, seed=3)
        inst = generate(params)
        assert inst.n_agents == 100
        assert inst.n_objects == 10
        for prefs in inst.preferences:
            assert 1 <= len(prefs) <= inst.n_objects
            assert len(set(prefs)) == len(prefs)
        assert all(c >= 1 for c in inst.capacities)

    def test_total_capacity_tracks_ratio(self):
        params = GenParams(n_agents=100, ratio=10.0, seed=17)
        totals = [sum(inst.capacities) for inst in generate_batch(params, 40)]
        average = sum(totals) / len(totals)
        assert 100 <= average <= 140  # targets 1.2 * 100

    def test_degenerate_lengths(self):
        params = GenParams(n_agents=12, ratio=4.0, list_mean=1.0, list_sd=0.0, seed=1)
        inst = generate(params)
        assert all(len(p) == 1 for p in inst.preferences)

    def test_parameter_validation(self):
        with pytest.raises(GenParamError) as err:
            generate(GenParams(n_agents=0, ratio=-1.0, list_mean=0.2, rho=3.0))
        text = "\n".join(err.value.problems)
        assert "n_agents" in text and "ratio" in text and "rho" in text

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in fields(GenParams) if f.name not in ("n_agents", "seed")]
    )
    def test_non_finite_parameter_is_rejected(self, name, value):
        # NaN passes every range check and hung the list-length draw; an
        # infinity overflowed when rounded.
        with pytest.raises(GenParamError) as err:
            generate(GenParams(n_agents=30, seed=1, **{name: value}))
        assert err.value.problems == [f"{name} must be finite, not {value!r}"]

    def test_infeasible_list_length(self):
        with pytest.raises(GenParamError, match="available objects"):
            generate(GenParams(n_agents=10, ratio=10.0, list_mean=2.42))

    def test_scores_exposed(self):
        inst, scores = generate_with_scores(GenParams(n_agents=50, ratio=5.0, seed=2))
        assert scores.capacities == inst.capacities
        assert len(scores.eta) == inst.n_objects
        assert all(e >= 1 for e in scores.eta)
        assert scores.popular <= set(range(inst.n_objects))


def _digest(cases: list[GenParams]) -> str:
    """SHA-256 over each case's instance and scores, in case order."""
    h = hashlib.sha256()
    for params in cases:
        inst, scores = generate_with_scores(params)
        h.update(repr((
            inst.agents, inst.objects, inst.capacities, inst.preferences,
            scores.capacities, scores.eta, sorted(scores.popular),
        )).encode())
    return h.hexdigest()


def _seeds(n_agents: int, ratio: float, seeds, **overrides) -> list[GenParams]:
    return [GenParams(n_agents=n_agents, ratio=ratio, seed=s, **overrides) for s in seeds]


# Recorded from the generator that mixed SplitMix64 one output at a time in
# Python integers and re-summed each group's mass at every list position.
@pytest.mark.parametrize(
    "cases, digest",
    [
        (  # the eating-bvn markets
            _seeds(15, 3.0, range(60_000, 60_200)),
            "6adce8599ab95e05662828b3ba1f82d01d8af245fe082e8b3de6f591eaf5ff80",
        ),
        (  # the rsd-maximin panel
            _seeds(30, 10.0, (70_000 + 7919 * j for j in range(8))),
            "3e84270de022b6ffe58733ae20939ef221470a4589a9697456cf49e29a47e25b",
        ),
        (  # the criterion-7 markets
            _seeds(50, 10.0, (70_000 + 7919 * i for i in range(25))),
            "e5770d26b39c05d34ae091f1056dd4cbb9a46400205ef9b7d5f0a7de117d7a40",
        ),
        (
            _seeds(100, 10.0, [100_000]),
            "9897e15354bfe2aeb29113d6a81859e2354c6f0e5edc727788d9ad70921cc8d0",
        ),
        (
            _seeds(30, 5.0, range(90_000, 90_020), popular_fraction=0.0),
            "21d0dafc8a56d17c45bbea401e73d753e599e7bfb8175477ed25bd52e536bec4",
        ),
        (
            _seeds(30, 5.0, range(90_000, 90_020), popular_fraction=1.0),
            "ebbcec007138794c6d3e25740cd4609be1abd754ce5a0d57a0ecd552dd6ed1a6",
        ),
        (
            _seeds(30, 5.0, range(90_000, 90_020), list_sd=0.0),
            "a28e21f716e3e7db9fe386331bca94b5f28ea73257d6000ea0a8c05c4e5f3589",
        ),
    ],
    ids=[
        "eating-bvn", "rsd-maximin-panel", "criterion-7", "100-agents",
        "no-popular-group", "all-popular", "fixed-list-length",
    ],
)
def test_generated_markets_are_pinned(cases, digest):
    assert _digest(cases) == digest


class TestFamilies:
    def test_lower_family_matches_example_market(self, ex1):
        inst = family_lb(2)
        assert inst.capacities == (2, 1, 1)
        assert inst.n_agents == 4
        assert inst.preferences[0] == ("o1", "o2", "o3")
        assert inst.preferences[3] == ("o1",)
        # Same market as the worked example up to labels.
        assert [len(p) for p in inst.preferences] == [
            len(p) for p in ex1.preferences
        ]

    def test_lower_family_shape(self):
        inst = family_lb(3)
        assert inst.n_agents == 9
        assert inst.n_objects == 4
        assert inst.capacities == (3, 1, 1, 1)

    def test_lower_family_expected_assignments(self):
        for k in (2, 3):
            est = rsd_exact(family_lb(k))
            assert mu(est.assignment) == 2 * k - 1

    def test_upper_family_shape(self, ex3):
        inst = family_ub(2)
        assert inst.capacities == (2, 2)
        assert [len(p) for p in inst.preferences] == [
            len(p) for p in ex3.preferences
        ]
        bigger = family_ub(4)
        assert bigger.n_agents == 16
        assert bigger.capacities == (4, 4)

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            family_lb(1)
        with pytest.raises(ValueError):
            family_ub(1)


def test_mean_length_rejection_shift():
    # Rejection below one pushes the realised mean above the nominal one by
    # the truncated-normal correction, about 0.18 for the default setting.
    params = GenParams(n_agents=400, ratio=8.0, seed=99)
    lengths = []
    for inst in generate_batch(params, 10):
        lengths.extend(len(p) for p in inst.preferences)
    observed = sum(lengths) / len(lengths)
    sigma = params.list_sd
    z = (1.0 - params.list_mean) / sigma
    density = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    expected = params.list_mean + sigma * density / (1.0 - 0.5 * (1 + math.erf(z / math.sqrt(2))))
    assert abs(observed - expected) < 0.1
