"""Exact dense linear algebra over the package's scalar fields.

Matrices are plain lists of lists of scalars (CycScalar or ExtScalar); every
routine is exact Gaussian elimination, no pivot heuristics beyond "first
nonzero".  Dimensions in this package stay small (simple modules have
dimension <= n, tensor products <= n^2), so no sparsity machinery is used.
"""

from __future__ import annotations

from .cyclo import _power

__all__ = [
    "mat_mul",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "mat_pow",
    "mat_eq",
    "mat_is_zero",
    "identity",
    "zeros",
    "kron",
    "transpose",
    "mat_inv",
    "trace",
    "rref",
    "rank",
    "nullspace",
    "solve",
]


def zeros(zero, rows: int, cols: int):
    return [[zero for _ in range(cols)] for _ in range(rows)]


def identity(one, dim: int):
    zero = one.zero()
    return [[one if i == j else zero for j in range(dim)] for i in range(dim)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    zero = a[0][0].zero()
    out = [[zero for _ in range(m)] for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x.is_zero():
                continue
            bt = b[t]
            for j in range(m):
                if not bt[j].is_zero():
                    oi[j] = oi[j] + x * bt[j]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s, a):
    return [[s * x for x in row] for row in a]


def mat_pow(a, k: int):
    """a^k (a itself for k = 1, the inverse's powers for k < 0)."""
    if k == 0:
        return identity(a[0][0].one(), len(a))
    return _power(a if k > 0 else mat_inv(a), abs(k), mat_mul)


def mat_eq(a, b) -> bool:
    return all((x - y).is_zero() for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def kron(a, b):
    n, m = len(a), len(a[0])
    p, q = len(b), len(b[0])
    zero = a[0][0].zero()
    out = [[zero for _ in range(m * q)] for _ in range(n * p)]
    for i in range(n):
        for j in range(m):
            x = a[i][j]
            if x.is_zero():
                continue
            for s in range(p):
                row = out[i * p + s]
                brow = b[s]
                for t in range(q):
                    if not brow[t].is_zero():
                        row[j * q + t] = x * brow[t]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def rref(a):
    """Reduced row echelon form (in place on a copy); returns (rref, pivots)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def nullspace(a):
    """Basis of the right kernel of a (list of vectors)."""
    red, pivots = rref(a)
    cols = len(a[0])
    zero = a[0][0].zero()
    one = a[0][0].one()
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """One exact solution x of a x = b (b a vector), or None if inconsistent."""
    rows, cols = len(a), len(a[0])
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    zero = a[0][0].zero()
    x = [zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def mat_inv(a):
    dim = len(a)
    one = a[0][0].one()
    aug = [list(a[i]) + list(identity(one, dim)[i]) for i in range(dim)]
    red, pivots = rref(aug)
    if pivots != list(range(dim)):
        raise ArithmeticError("matrix is singular")
    return [row[dim:] for row in red[:dim]]
