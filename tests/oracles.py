"""Reference implementations that the tests compare the package against.

``rref`` and ``kernel_basis`` are the Gauss-Jordan elimination with exact
division that the division-free ``linalg.rank`` replaced; ``mat_mul`` and
``identity`` build dense matrices; ``structural_fix_codim`` reads the
quaternionic codimension of an element's fixed space off its cycle
structure, the criterion that the kernel rank certifies.
"""

from __future__ import annotations

from zerofiber.cyclotomic import Cyc
from zerofiber.linalg import CycMatrix
from zerofiber.wreath import MonomialElement, WreathContext


def mat_mul(a: CycMatrix, b: CycMatrix) -> CycMatrix:
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            acc = ai[0] * b[0][j]
            for t in range(1, k):
                acc = acc + ai[t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def identity(n: int, m: int = 1) -> CycMatrix:
    one, zero = Cyc.one(m), Cyc.zero(m)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def rref(mat: CycMatrix) -> tuple[CycMatrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [vi - f * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(r_) for r_ in rows), pivots


def kernel_basis(mat: CycMatrix) -> list[tuple[Cyc, ...]]:
    """Basis of the right kernel {x : mat @ x = 0}."""
    if not mat:
        return []
    ncols = len(mat[0])
    m = mat[0][0].m
    red, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Cyc.zero(m) for _ in range(ncols)]
        vec[fc] = Cyc.one(m)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def structural_fix_codim(ctx: WreathContext, el: MonomialElement) -> int:
    """Quaternionic codimension of fix(el) from the cycle structure:
    each cycle contributes length - (1 if its gamma-product is 1)."""
    group, n = ctx.group, ctx.n
    seen = [False] * n
    codim = 0
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        cur = el.perm[start]
        while cur != start:
            seen[cur] = True
            cycle.append(cur)
            cur = el.perm[cur]
        prod = 0
        for p in cycle:
            prod = group.mult[el.gammas[p]][prod]
        codim += len(cycle) - (1 if prod == 0 else 0)
    return codim
