"""Peel as it was with mirrored neighbour operations, kept as a reference:
the library now makes only the row additions that clear the pivot column
and empties the split-off row and columns, and the tests check that its
output, dict entry order included, is what this version gives.  Each pivot
here also checks, as the old peel did, that the mirrored row feeding it and
the mirrored column above it come out zero.  It keeps its own copies of the
helpers the library no longer needs: the resumable diagonal scan, the row
addition that a column index learns from, and the sorted index read.
"""

from __future__ import annotations

from posheaf.derived import _compact
from posheaf.matrix import InjectiveComplex, _column_index


def peel(complex_: InjectiveComplex, _scan_order=None) -> InjectiveComplex:
    """Drop-in for `posheaf.derived.peel`, without its entry check."""
    ms = [m.copy() for m in complex_.matrices]
    field = complex_.field
    cols = [_column_index(m.rows, m.ncols) for m in ms]
    dead: list[set[int]] = [set() for _ in range(len(ms) + 1)]
    order = list(_scan_order) if _scan_order is not None else list(range(len(ms)))
    progress = True
    while progress:
        progress = False
        for k in order:
            m = ms[k]
            start = 0
            while (hit := _diagonal_entry(m, start)) is not None:
                progress = True
                i, j, c = hit
                start = i
                _split_pivot(field, ms, cols, k, i, j, c)
                dead[k].add(j)
                dead[k + 1].add(i)
    for k, m in enumerate(ms):
        _compact(m, dead[k + 1], dead[k])
    return InjectiveComplex(complex_.poset, field, ms, complex_.degree_offset).trimmed()


def _split_pivot(field, ms, cols, k, i, j, c):
    """Clear row i and column j of ms[k] around the pivot (i, j) = c, mirrored
    on ms[k - 1] and ms[k + 1], and empty the pivot row."""
    p = field.p
    inv = field.inv(c)
    rows = ms[k].rows
    has_prev, has_next = k > 0, k + 1 < len(ms)
    for i2 in _rows_meeting(rows, cols[k], j):
        if i2 != i:
            f = (rows[i2][j] * inv) % p
            _row_add(field, rows, i, i2, -f, cols[k])
            if has_next:
                _col_add(field, ms[k + 1].rows, i2, i, f, cols[k + 1])
    for j2 in list(rows[i]):
        if j2 != j:
            f = (rows[i][j2] * inv) % p
            _col_add(field, rows, j, j2, -f, cols[k])
            if has_prev:
                _row_add(field, ms[k - 1].rows, j2, j, f, cols[k - 1])
    if has_prev and ms[k - 1].rows[j]:
        raise AssertionError("peel invariant violated: nonzero row feeding a pivot")
    if has_next and _rows_meeting(ms[k + 1].rows, cols[k + 1], i):
        raise AssertionError("peel invariant violated: nonzero column above a pivot")
    rows[i] = {}


def _col_add(field, rows, src: int, dest: int, scalar: int, cols):
    """col[dest] += scalar * col[src] over the rows the column index `cols`
    lists for `src`; the index learns new entries."""
    p = field.p
    s = scalar % p
    if not s:
        return
    for r in _rows_meeting(rows, cols, src):
        row = rows[r]
        new = (row.get(dest, 0) + s * row[src]) % p
        if new:
            if dest not in row:
                cols[dest].append(r)
            row[dest] = new
        else:
            row.pop(dest, None)


def _diagonal_entry(m, start: int):
    """First nonzero entry (row, column, value) in a same-label diagonal block
    of m, scanning rows in order from row `start`; None if there is none."""
    for i in range(start, m.nrows):
        for j, v in m.rows[i].items():
            if m.col_labels[j] == m.row_labels[i]:
                return i, j, v
    return None


def _row_add(field, rows, src: int, dest: int, scalar: int, cols):
    """rows[dest] += scalar * rows[src], new entries at the end in src's
    order; the column index `cols` learns every entry the addition creates,
    and entries it removes stay listed."""
    p = field.p
    s = scalar % p
    if not s:
        return
    target = rows[dest]
    for j, v in rows[src].items():
        new = (target.get(j, 0) + s * v) % p
        if new:
            if j not in target:
                cols[j].append(dest)
            target[j] = new
        else:
            target.pop(j, None)


def _rows_meeting(rows, cols, j: int) -> list[int]:
    """Rows with an entry in column j, ascending.  The index lists only grow,
    so the list is filtered, sorted and stored back on each read."""
    live = sorted({r for r in cols[j] if j in rows[r]})
    cols[j] = live
    return live
