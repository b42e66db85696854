"""Dense exact linear algebra over GF(p) on small matrices, kept as an
independent oracle: the library reduces sparse rows with the pivot-table
kernel of `posheaf.matrix`, and the tests check it against these routines.

Matrices are lists of rows, each row a list of ints in [0, p).
"""

from __future__ import annotations

from posheaf.field import PrimeField

Matrix = list[list[int]]


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[0] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_mul(field: PrimeField, a: Matrix, b: Matrix) -> Matrix:
    """a @ b."""
    p = field.p
    width = len(b[0]) if b else 0
    return [[sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(width)] for row in a]


def mat_vec(field: PrimeField, a: Matrix, v: list[int]) -> list[int]:
    p = field.p
    out = [0] * len(a)
    for i, row in enumerate(a):
        acc = 0
        for x, y in zip(row, v):
            acc += x * y
        out[i] = acc % p
    return out


def rref(field: PrimeField, mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    p = field.p
    m = [[x % p for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(field: PrimeField, mat: Matrix) -> int:
    return len(rref(field, mat)[1])


def nullspace(field: PrimeField, mat: Matrix, ncols: int | None = None) -> Matrix:
    """Basis of the right kernel {v : mat @ v = 0}, as a list of row vectors."""
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    if not mat or ncols == 0:
        return identity(ncols)
    red, pivots = rref(field, mat)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def solve_in_span(field: PrimeField, spanning_rows: Matrix, target: list[int]) -> list[int] | None:
    """Coefficients x with sum_j x[j]*spanning_rows[j] = target, or None."""
    p = field.p
    n = len(target)
    k = len(spanning_rows)
    aug = [[spanning_rows[j][i] % p for j in range(k)] + [target[i] % p] for i in range(n)]
    red, pivots = rref(field, aug)
    if k in pivots:
        return None
    x = [0] * k
    for r, pc in enumerate(pivots):
        x[pc] = red[r][k]
    return x
