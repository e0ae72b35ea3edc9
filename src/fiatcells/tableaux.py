"""
Robinson-Schensted row insertion and its inverse.

``robinson_schensted`` sends a permutation to a pair of standard Young
tableaux of the same shape: the insertion tableau built by bumping and
the recording tableau tracking where each new cell appears.  The map is
a bijection; ``inverse_robinson_schensted`` reverses it by un-bumping
cells in the reverse order of the recording tableau.

>>> robinson_schensted(Permutation((3, 1, 2)))
TableauPair(p=((1, 2), (3,)), q=((1, 3), (2,)))
"""

from __future__ import annotations

from dataclasses import dataclass

from .permutations import Permutation

__all__ = ["TableauPair", "robinson_schensted", "inverse_robinson_schensted"]

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TableauPair:
    p: Rows  # insertion tableau
    q: Rows  # recording tableau

    def __post_init__(self):
        if shape(self.p) != shape(self.q):
            raise ValueError("tableaux in a pair must share their shape")
        for rows in (self.p, self.q):
            if not is_standard(rows):
                raise ValueError(f"not a standard tableau: {rows}")

    @property
    def shape(self) -> tuple[int, ...]:
        return shape(self.p)


def shape(rows: Rows) -> tuple[int, ...]:
    return tuple(len(r) for r in rows)


def is_standard(rows: Rows) -> bool:
    lengths = [len(r) for r in rows]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return False
    entries = sorted(x for r in rows for x in r)
    if entries != list(range(1, len(entries) + 1)):
        return False
    for r in rows:
        if any(r[j] >= r[j + 1] for j in range(len(r) - 1)):
            return False
    for i in range(len(rows) - 1):
        for j in range(len(rows[i + 1])):
            if rows[i][j] >= rows[i + 1][j]:
                return False
    return True


def _insert(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Row-insert x, returning the (row, col) of the new cell."""
    for i, row in enumerate(rows):
        bump = next((j for j, y in enumerate(row) if y > x), None)
        if bump is None:
            row.append(x)
            return i, len(row) - 1
        row[bump], x = x, row[bump]
    rows.append([x])
    return len(rows) - 1, 0


def robinson_schensted(w: Permutation) -> TableauPair:
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(w.one_line, start=1):
        i, j = _insert(p_rows, value)
        if i == len(q_rows):
            q_rows.append([])
        q_rows[i].append(step)
        if len(q_rows[i]) - 1 != j:
            raise ValueError(f"insertion of {value} ended at ({i}, {j}), off the shape")
    return TableauPair(
        p=tuple(tuple(r) for r in p_rows),
        q=tuple(tuple(r) for r in q_rows),
    )


def inverse_robinson_schensted(pair: TableauPair) -> Permutation:
    p_rows = [list(r) for r in pair.p]
    n = sum(len(r) for r in p_rows)
    positions = {}
    for i, row in enumerate(pair.q):
        for j, entry in enumerate(row):
            positions[entry] = (i, j)
    out: list[int] = []
    for step in range(n, 0, -1):
        i, j = positions[step]
        x = p_rows[i].pop(j)
        # un-bump upwards: x displaces the largest smaller entry per row
        for row in reversed(p_rows[:i]):
            k = max(idx for idx, y in enumerate(row) if y < x)
            row[k], x = x, row[k]
        out.append(x)
        if not p_rows[i]:
            p_rows.pop(i)
    return Permutation(tuple(reversed(out)))
