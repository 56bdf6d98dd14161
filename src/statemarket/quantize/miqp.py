"""Neutral text export of the partitioning problem as a big-M MIQP.

The model minimizes the probability-weighted assigned squared distances:

    minimize    sum_l pi_l * d_l
    subject to  d_l >= ||xi_l - omega_s||^2 - M (1 - z_ls)   for all l, s
                sum_s z_ls = 1                               for all l
                z_ls binary, d_l >= 0, omega_s in the scenario bounding box

Grammar (one declaration per line, ``#`` starts a comment):

    header     := "# quantization-miqp v1" sizes "# M=<float>"
    objective  := "minimize" term+            (terms on continuation lines)
    constraint := name ":" term+ sense float  (inside "subject to" section)
    term       := ("+"|"-") float var ("^2")?
    sense      := "<=" | ">=" | "="
    bound      := var ">= <float>" | "<float> <= var <= <float>"
    binaries   := "binary" followed by one var name per line, then "end"

Variables: ``omega_<s>_<j>`` (center coordinates), ``d_<l>`` (assigned squared
distance), ``z_<l>_<s>`` (assignment indicator). Quadratic terms carry an
explicit ``^2`` marker; no cross products occur in this model family.
"""

from __future__ import annotations

import math
import re

import numpy as np

from ..errors import MalformedResponse, NonPositiveM
from ..scenarios import ScenarioSet


def auto_big_m(scenarios: ScenarioSet) -> float:
    """Squared diameter of the scenario bounding box.

    Sufficient because centers are restricted to the box, so no assigned
    squared distance can exceed it.
    """
    spans = scenarios.points.max(axis=0) - scenarios.points.min(axis=0)
    return float(spans @ spans)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def export_miqp(
    scenarios: ScenarioSet, num_states: int, big_m: float | str = "auto"
) -> str:
    """Emit the big-M assignment MIQP in the neutral text format above."""
    if num_states < 1:
        raise ValueError(f"number of states must be >= 1, got {num_states}")
    if isinstance(big_m, str):
        if big_m != "auto":
            raise NonPositiveM(f"big_m must be a positive number or 'auto', got {big_m!r}")
        m_value = auto_big_m(scenarios)
    else:
        m_value = float(big_m)
        if not 0.0 < m_value < math.inf:
            raise NonPositiveM(f"big-M must be positive and finite, got {m_value}")

    points = scenarios.points
    weights = scenarios.weights
    length, dim = points.shape
    lower = points.min(axis=0)
    upper = points.max(axis=0)

    lines = [
        "# quantization-miqp v1",
        f"# L={length} S={num_states} k={dim}",
        f"# M={_fmt(m_value)}",
        "minimize",
    ]
    lines += [f" + {_fmt(weights[l])} d_{l}" for l in range(length)]
    lines.append("subject to")
    for l in range(length):
        terms = " ".join(f"+ 1 z_{l}_{s}" for s in range(num_states))
        lines.append(f" assign_{l}: {terms} = 1")
    for l in range(length):
        point_sq = float(points[l] @ points[l])
        for s in range(num_states):
            parts = [f"+ 1 d_{l}"]
            for j in range(dim):
                parts.append(f"- 1 omega_{s}_{j}^2")
                coeff = 2.0 * points[l, j]
                sign = "+" if coeff >= 0 else "-"
                parts.append(f"{sign} {_fmt(abs(coeff))} omega_{s}_{j}")
            parts.append(f"- {_fmt(m_value)} z_{l}_{s}")
            lines.append(f" dist_{l}_{s}: {' '.join(parts)} >= {_fmt(point_sq - m_value)}")
    lines.append("bounds")
    for l in range(length):
        lines.append(f" d_{l} >= 0")
    for s in range(num_states):
        for j in range(dim):
            lines.append(f" {_fmt(lower[j])} <= omega_{s}_{j} <= {_fmt(upper[j])}")
    lines.append("binary")
    for l in range(length):
        for s in range(num_states):
            lines.append(f" z_{l}_{s}")
    lines.append("end")
    return "\n".join(lines) + "\n"


_TERM_RE = re.compile(r"([+-])\s+(\S+)\s+([A-Za-z_]\w*?)(\^2)?(?=\s|$)")


def _parse_terms(body: str) -> list[tuple[float, str, int]]:
    terms = []
    for sign, number, name, quad in _TERM_RE.findall(body):
        coeff = float(number) * (1.0 if sign == "+" else -1.0)
        terms.append((coeff, name, 2 if quad else 1))
    return terms


def parse_miqp(text: str) -> dict:
    """Parse the neutral MIQP text back into a structured model description."""
    model: dict = {
        "objective": [],
        "constraints": [],
        "bounds": {},
        "binaries": [],
        "big_m": None,
        "sizes": None,
    }
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            header = line[1:].strip()
            if header.startswith("M="):
                model["big_m"] = float(header[2:])
            match = re.fullmatch(r"L=(\d+) S=(\d+) k=(\d+)", header)
            if match:
                model["sizes"] = tuple(int(g) for g in match.groups())
            continue
        if line in ("minimize", "subject to", "bounds", "binary"):
            section = line
            continue
        if line == "end":
            section = None
            continue
        if section == "minimize":
            model["objective"].extend(_parse_terms(line))
        elif section == "subject to":
            name, body = line.split(":", 1)
            sense_match = re.search(r"(<=|>=|=)\s*(\S+)\s*$", body)
            if sense_match is None:
                raise MalformedResponse(f"constraint without sense: {line!r}")
            model["constraints"].append(
                {
                    "name": name.strip(),
                    "terms": _parse_terms(body[: sense_match.start()]),
                    "sense": sense_match.group(1),
                    "rhs": float(sense_match.group(2)),
                }
            )
        elif section == "bounds":
            two_sided = re.fullmatch(r"(\S+)\s*<=\s*(\w+)\s*<=\s*(\S+)", line)
            one_sided = re.fullmatch(r"(\w+)\s*>=\s*(\S+)", line)
            if two_sided:
                model["bounds"][two_sided.group(2)] = (
                    float(two_sided.group(1)),
                    float(two_sided.group(3)),
                )
            elif one_sided:
                model["bounds"][one_sided.group(1)] = (float(one_sided.group(2)), np.inf)
            else:
                raise MalformedResponse(f"unparseable bound line: {line!r}")
        elif section == "binary":
            model["binaries"].append(line)
        else:
            raise MalformedResponse(f"line outside any section: {line!r}")
    return model


def evaluate_miqp(text: str, centers: np.ndarray, assignment: np.ndarray) -> float:
    """Objective of the exported model at a given (centers, assignment) point.

    Sets omega and z from the arguments, derives each d_l as the smallest
    value satisfying the parsed constraints, checks the assignment rows, and
    evaluates the parsed objective. Everything is computed from the text, so
    this round-trips the export faithfully.
    """
    model = parse_miqp(text)
    values: dict[str, float] = {}
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    for s in range(centers.shape[0]):
        for j in range(centers.shape[1]):
            values[f"omega_{s}_{j}"] = centers[s, j]
    for name in model["binaries"]:
        values[name] = 0.0
    for l, s in enumerate(np.asarray(assignment, dtype=int)):
        values[f"z_{l}_{s}"] = 1.0

    lower_d: dict[str, float] = {}
    for constraint in model["constraints"]:
        d_name = None
        rest = 0.0
        for coeff, name, power in constraint["terms"]:
            if name.startswith("d_"):
                d_name = name
                continue
            rest += coeff * values[name] ** power
        if d_name is None:
            activity = rest
            rhs = constraint["rhs"]
            if constraint["sense"] == "=" and abs(activity - rhs) > 1e-9:
                raise ValueError(f"{constraint['name']} violated: {activity} != {rhs}")
            continue
        if constraint["sense"] != ">=":
            raise ValueError(f"unexpected sense in {constraint['name']}")
        needed = constraint["rhs"] - rest
        lower_d[d_name] = max(lower_d.get(d_name, -np.inf), needed)

    for name, (low, _high) in model["bounds"].items():
        if name.startswith("d_"):
            lower_d[name] = max(lower_d.get(name, -np.inf), low)
    values.update(lower_d)

    return float(sum(c * values[name] ** p for c, name, p in model["objective"]))
