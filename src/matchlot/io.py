"""File formats: instances, assignment matrices, matchings, decompositions.

Everything is JSON: ``write_json`` writes a ``*_to_mapping`` payload and
the ``load_*`` functions read one back, checked.  Probabilities and lottery
weights are serialised as exact ``"p/q"`` strings (plain integers when the
denominator is one), so a round trip through disk never loses precision.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from .core import (
    Decomposition,
    Instance,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    is_feasible,
    is_feasible_assignment,
    validate_instance,
)


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def instance_to_mapping(instance: Instance) -> dict:
    return {
        "objects": [
            {"id": obj, "capacity": cap}
            for obj, cap in zip(instance.objects, instance.capacities)
        ],
        "agents": [
            {"id": agent, "prefs": list(prefs)}
            for agent, prefs in zip(instance.agents, instance.preferences)
        ],
    }


def write_json(payload, path: str | Path | None = None) -> None:
    """Write ``payload`` as indented JSON to ``path``, or to stdout when None.

    A path that is a directory is a ``MatchlotError`` naming it.
    """
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except IsADirectoryError:
        raise MatchlotError(f"{path} is a directory, not a file to write") from None


def read_json(path: str | Path):
    """The JSON value a file holds.

    A directory, text that is not UTF-8, invalid JSON, or an object that
    repeats a key (which ``json`` would settle silently by keeping the last
    value) is a ``MatchlotError`` naming the file.
    """

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        value = {}
        for key, item in pairs:
            if key in value:
                raise MatchlotError(f"{path} repeats the key {key!r} in one JSON object")
            value[key] = item
        return value

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=unique_keys)
    except IsADirectoryError:
        raise MatchlotError(f"{path} is a directory, not a JSON file") from None
    except UnicodeDecodeError as err:
        raise MatchlotError(f"{path} is not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise MatchlotError(f"{path} is not valid JSON: {err}") from None


def load_instance(path: str | Path) -> Instance:
    return validate_instance(read_json(path))


def assignment_to_mapping(
    instance: Instance, assignment: ProbabilisticAssignment
) -> dict:
    return {
        "agents": list(instance.agents),
        "objects": list(instance.objects),
        "matrix": [
            [format_fraction(v) for v in row] for row in assignment.probs
        ],
    }


def load_assignment(instance: Instance, path: str | Path) -> ProbabilisticAssignment:
    """The assignment matrix a file holds, checked against the instance.

    Raises:
        MatchlotError: for a file without the ``agents``, ``objects`` and
            ``matrix`` keys, labels other than the instance's, a matrix of
            another shape, an entry that is not a fraction, or a matrix
            that is not a feasible assignment of the instance.
    """
    raw = read_json(path)
    if not isinstance(raw, dict) or not {"agents", "objects", "matrix"} <= raw.keys():
        raise MatchlotError("assignment file needs the keys agents, objects and matrix")
    if raw["agents"] != list(instance.agents) or raw["objects"] != list(instance.objects):
        raise MatchlotError("assignment file does not match the instance's labels")
    matrix = raw["matrix"]
    if (
        not isinstance(matrix, list)
        or len(matrix) != instance.n_agents
        or any(not isinstance(row, list) or len(row) != instance.n_objects for row in matrix)
    ):
        raise MatchlotError(
            f"assignment matrix is not {instance.n_agents} x {instance.n_objects}"
        )
    try:
        assignment = ProbabilisticAssignment(
            tuple(tuple(parse_fraction(cell) for cell in row) for row in matrix)
        )
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise MatchlotError(f"assignment matrix entry is not a fraction: {err}") from None
    if not is_feasible_assignment(instance, assignment):
        raise MatchlotError(
            "assignment matrix is infeasible: an entry lies outside [0, 1], "
            "a row sums above 1 or a column above its object's capacity"
        )
    return assignment


def matching_to_mapping(instance: Instance, matching: Matching) -> dict:
    return {"assignment": matching.as_pairs(instance)}


def _matching_from_pairs(instance: Instance, pairs: dict[str, str]) -> Matching:
    """The matching an ``{agent: object}`` mapping names, checked against the instance.

    Raises:
        MatchlotError: for an agent or object the instance lacks, an object
            name that is not a string included, or an object given more
            agents than its capacity.
    """
    assignment: list[int | None] = [None] * instance.n_agents
    for agent, obj in pairs.items():
        if agent not in instance.agent_index:
            raise MatchlotError(f"matching names unknown agent {agent!r}")
        if not isinstance(obj, str) or obj not in instance.object_index:
            raise MatchlotError(f"matching names unknown object {obj!r}")
        assignment[instance.agent_index[agent]] = instance.object_index[obj]
    matching = Matching(tuple(assignment))
    if not is_feasible(instance, matching):
        raise MatchlotError("matching gives an object more agents than its capacity")
    return matching


def load_matching(instance: Instance, path: str | Path) -> Matching:
    """The matching a file holds: an ``{agent: object}`` JSON object, bare or
    under the key ``assignment``.

    Raises:
        MatchlotError: for any other shape, or as :func:`_matching_from_pairs`.
    """
    raw = read_json(path)
    pairs = raw.get("assignment", raw) if isinstance(raw, dict) else raw
    if not isinstance(pairs, dict):
        raise MatchlotError(
            f"matching file must hold an {{agent: object}} JSON object, "
            f"not a {type(pairs).__name__}"
        )
    return _matching_from_pairs(instance, pairs)


def decomposition_to_mapping(
    instance: Instance, decomposition: Decomposition
) -> dict:
    return {
        "terms": [
            {
                "weight": format_fraction(weight),
                "assignment": matching.as_pairs(instance),
            }
            for weight, matching in decomposition.terms
        ]
    }
