"""Exact linear algebra over cyclotomic fields, plus quaternionic row
reduction.

Matrices are tuples of row tuples with Cyc entries.  ``rank`` needs no
division in the field at all.  ``quat_rref_key`` is the canonical form of a
quaternionic row space, and ``quat_row_key`` the exact key of one row.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import Cyc
from .quaternion import Quaternion

CycMatrix = tuple[tuple[Cyc, ...], ...]


def rank(mat: CycMatrix) -> int:
    """Rank by a division-free row echelon form, with no Cyc.inverse.

    Below each pivot p = row_r[c], every row with f = row_i[c] != 0 becomes
    p*row_i - f*row_r (row_i - f*row_r when p = 1): column c is cleared, and
    as p != 0 the rows below the pivot keep their span.  Each updated row is
    then divided by its rational content, which leaves it with integer
    coefficients of gcd 1, so the entries do not grow from step to step.
    """
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = None if top[c] == 1 else top[c]
        tail = [(j, top[j]) for j in range(c + 1, ncols) if not top[j].is_zero()]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if f.is_zero():
                continue
            if p is not None:
                row[c + 1:] = [v if v.is_zero() else p * v for v in row[c + 1:]]
            for j, t in tail:
                row[j] = row[j] - f * t
            _make_primitive(row, c + 1)
        r += 1
        if r == nrows:
            break
    return r


def _make_primitive(row: list[Cyc], start: int) -> None:
    """Scale a nonzero row[start:] in place by the positive rational that
    gives it integer coefficients with gcd 1; a zero row[start:] is kept."""
    den = lcm(*(v.den for v in row[start:]))
    content = gcd(*(a * (den // v.den) for v in row[start:] for a in v.num))
    if content and den != content:
        scale = Fraction(den, content)
        row[start:] = [v * scale for v in row[start:]]


# -- quaternionic matrices ---------------------------------------------------

def quat_rref_key(rows: tuple[tuple[Quaternion, ...], ...]) -> tuple:
    """Canonical form of the left row space of a quaternionic matrix.

    Used to compare subspaces cut out by systems of left-linear equations:
    two systems have the same solution set iff their RREF keys agree.

    The rows are inserted one at a time into a reduced basis: the basis
    pivots are eliminated from the new row, the row is scaled on the left by
    the inverse of its leading entry (unless that is already 1), and its pivot
    column is cleared from the basis rows.  The reduced row echelon form of a
    row space is unique, so this gives the same rows as a column-by-column
    Gauss-Jordan pass.  Once the basis has one row per column it spans the
    whole space, its RREF is the identity whatever rows remain, and the
    insertion stops.
    """
    ncols = len(rows[0]) if rows else 0
    basis: list[list[Quaternion]] = []
    pivots: list[int] = []
    for row in rows:
        new = list(row)
        for b, c in zip(basis, pivots):
            f = new[c]
            if not f.is_zero():
                new = _left_axpy(new, f, b)
        lead = next((j for j in range(ncols) if not new[j].is_zero()), None)
        if lead is None:
            continue
        if new[lead] != Quaternion.one(new[lead].z1.m):
            inv = new[lead].inverse()
            new = [v if v.is_zero() else inv * v for v in new]
        for k, b in enumerate(basis):
            f = b[lead]
            if not f.is_zero():
                basis[k] = _left_axpy(b, f, new)
        basis.append(new)
        pivots.append(lead)
        if len(basis) == ncols:
            break
    return tuple(sorted(quat_row_key(row) for row in basis))


def quat_row_key(row: Iterable[Quaternion]) -> tuple:
    """An exact, hashable key of a row of quaternions over one conductor."""
    return tuple((q.z1.num, q.z1.den, q.z2.num, q.z2.den) for q in row)


def _left_axpy(x: list[Quaternion], f: Quaternion, y: list[Quaternion]) -> list[Quaternion]:
    """x - f*y entrywise, skipping the products with zero entries of y."""
    return [xi if yi.is_zero() else xi - f * yi for xi, yi in zip(x, y)]
