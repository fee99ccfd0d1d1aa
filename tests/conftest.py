import os
from fractions import Fraction

import pytest

# One BLAS/OpenMP thread, as in the benchmark worker: the master LPs run on
# numpy float algebra, and a multi-threaded BLAS may change the last bits of a
# solve and so the weights of a column-generation lottery.  The variables are
# read when numpy loads, so they are set before matchlot is imported.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import settings  # noqa: E402

from matchlot import Instance, Matching, ProbabilisticAssignment  # noqa: E402

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, keeps no example
# database and prints the blob that replays a failure; a local run keeps
# exploring at random.  Each test's own max_examples still applies.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def ex1() -> Instance:
    """Four agents, three objects with capacities (2, 1, 1).

    Agents 1 and 2 rank a > b > c; agents 3 and 4 accept only a.
    """
    return Instance(
        agents=("1", "2", "3", "4"),
        objects=("a", "b", "c"),
        capacities=(2, 1, 1),
        preferences=(("a", "b", "c"), ("a", "b", "c"), ("a",), ("a",)),
    )


@pytest.fixture
def x1() -> ProbabilisticAssignment:
    """The exact RSD matrix of the ex1 market."""
    h, f5, f1 = Fraction(1, 2), Fraction(5, 12), Fraction(1, 12)
    return ProbabilisticAssignment(
        [[h, f5, f1], [h, f5, f1], [h, 0, 0], [h, 0, 0]]
    )


@pytest.fixture
def ex3() -> Instance:
    """Four agents, two objects of capacity two; 3 and 4 accept only a."""
    return Instance(
        agents=("1", "2", "3", "4"),
        objects=("a", "b"),
        capacities=(2, 2),
        preferences=(("a", "b"), ("a", "b"), ("a",), ("a",)),
    )


@pytest.fixture
def x2() -> ProbabilisticAssignment:
    h = Fraction(1, 2)
    return ProbabilisticAssignment(
        [[h, h], [h, h], [h, 0], [h, 0]]
    )


@pytest.fixture
def x1_decomposition(x1):
    """The four-matching lottery whose mixture is x1 (weights 5/12 x2, 1/12 x2)."""
    from matchlot import Decomposition

    m1 = Matching((1, 0, 0, None))
    m2 = Matching((0, 1, None, 0))
    m3 = Matching((0, 2, 0, None))
    m4 = Matching((2, 0, None, 0))
    w5, w1 = Fraction(5, 12), Fraction(1, 12)
    return Decomposition(((w5, m1), (w5, m2), (w1, m3), (w1, m4)))
