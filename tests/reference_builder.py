"""Row-wise reference for ``build_lp``: the welfare LP, or a branch-and-bound
relaxation of it, built one row at a time.

Each row is a list of (column, coeff) terms plus (binary, coeff) terms, and
an LP is made dense by adding its terms into a zero matrix in row-then-term
order, with the set binaries subtracted from each row's rhs in the order the
row lists them. ``build_lp`` slices arrays assembled once; on markets whose
rows list their binaries in ascending order, both routes agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Column:
    agent: int
    lower: float
    upper: float
    objective: float
    contract: tuple[int, int, int] | None  # traded coordinate of a segment column


@dataclass(frozen=True)
class Row:
    agent: int | None  # None for balance rows
    terms: tuple[tuple[int, float], ...]
    sense: str
    rhs: float
    binary_terms: tuple[tuple[int, float], ...] = ()


def reference_rows(bids, dims):
    """(columns, rows) of the welfare program, in ``assemble_welfare`` order."""
    binary_pos = {}
    for a, bid in enumerate(bids):
        for d in bid.decisions:
            if d.kind == "binary":
                binary_pos[(a, d.name)] = len(binary_pos)
    columns, rows, quantities, decision_column = [], [], {}, {}

    def add(agent, lower, upper, objective, contract=None):
        columns.append(Column(agent, lower, upper, objective, contract))
        return len(columns) - 1

    for a, bid in enumerate(bids):
        expectation = bid.risk == "expectation"
        epi = None if expectation else add(a, -np.inf, np.inf, 1.0)
        offsets = np.zeros(dims.states)
        state_terms = [[] for _ in range(dims.states)]
        for coord in sorted(bid.utilities):
            piece = bid.utilities[coord]
            offsets[coord[2]] += piece.value(piece.lower)
            deltas = []
            for width, slope in piece.segments():
                weight = bid.beliefs[coord[2]] * slope if expectation else 0.0
                deltas.append(add(a, 0.0, width, weight, coord))
                if not expectation:
                    state_terms[coord[2]].append((deltas[-1], slope))
            quantities[(a, coord)] = (piece.lower, deltas)
        for d in bid.decisions:
            if d.kind == "binary":
                continue
            z = add(a, d.lower, d.upper, d.utility_coeff if expectation else 0.0)
            decision_column[(a, d.name)] = z
            if not expectation and d.utility_coeff != 0.0:
                for terms in state_terms:
                    terms.append((z, d.utility_coeff))
        if not expectation:
            for s in range(dims.states):
                rows.append(Row(
                    a,
                    tuple([(epi, 1.0)] + [(v, -c) for v, c in state_terms[s]]),
                    "<=",
                    float(offsets[s]),
                    tuple((binary_pos[(a, d.name)], -d.utility_coeff) for d in bid.decisions
                          if d.kind == "binary" and d.utility_coeff != 0.0),
                ))
        for constraint in bid.constraints:
            terms, binary_terms, rhs = [], [], constraint.rhs
            for coord, c in constraint.x_terms:
                lower, deltas = quantities[(a, coord)]
                terms += [(j, c) for j in deltas]
                rhs -= c * lower
            for name, c in constraint.z_terms:
                if (a, name) in binary_pos:
                    binary_terms.append((binary_pos[(a, name)], c))
                else:
                    terms.append((decision_column[(a, name)], c))
            rows.append(Row(a, tuple(terms), constraint.sense, rhs, tuple(binary_terms)))
    for coord in dims.coordinates():
        traders = [quantities[(a, coord)] for a in range(len(bids)) if (a, coord) in quantities]
        if not traders:
            continue
        rhs = 0.0
        for lower, _ in traders:
            rhs -= lower
        rows.append(Row(None, tuple((j, 1.0) for _, deltas in traders for j in deltas), "=", rhs))
    return columns, rows


def reference_lp(bids, dims, binary_values, agent=None, prices=None, free=()):
    """(objective, lower, upper, matrix, senses, rhs) of one cell's LP.

    Each binary in ``free`` appends a [0, 1] column, in the given order, whose
    entries are the rows' binary terms added in row-then-term order. Its
    objective is the decision's ``utility_coeff`` for an expectation agent and
    0 for a worst-case one, whose binary utility sits in its epigraph rows.
    """
    columns, rows = reference_rows(bids, dims)
    kept = [j for j, col in enumerate(columns) if agent is None or col.agent == agent]
    local = {j: i for i, j in enumerate(kept)}
    local_binary = {b: len(kept) + i for i, b in enumerate(free)}
    binary_gain = [d.utility_coeff if bid.risk == "expectation" else 0.0
                   for bid in bids for d in bid.decisions if d.kind == "binary"]
    objective = np.array([columns[j].objective for j in kept] + [binary_gain[b] for b in free],
                         dtype=float)
    if prices is not None:
        for i, j in enumerate(kept):
            if columns[j].contract is not None:
                objective[i] -= prices.values[columns[j].contract]
    rows = [row for row in rows if agent is None or row.agent == agent]
    matrix = np.zeros((len(rows), len(kept) + len(free)))
    rhs = np.empty(len(rows))
    for i, row in enumerate(rows):
        for j, coeff in row.terms:
            matrix[i, local[j]] += coeff
        rhs[i] = row.rhs
        for b, coeff in row.binary_terms:
            rhs[i] -= coeff * binary_values[b]
            if b in local_binary:
                matrix[i, local_binary[b]] += coeff
    return (
        objective,
        np.array([columns[j].lower for j in kept] + [0.0] * len(free), dtype=float),
        np.array([columns[j].upper for j in kept] + [1.0] * len(free), dtype=float),
        matrix,
        np.array([row.sense for row in rows], dtype="U2"),
        rhs,
    )
