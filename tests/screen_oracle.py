"""The MakeExact body as it was with the row-basis screen, kept as a reference:
the library now picks the new rows from the star rows' top pivots, and the
tests check that it appends the same rows, in the same order and with the
same dict entry order, as this version does.  `checked_complement` stands
in for `image_complement_rows` and checks the positions MakeExact skips.
"""

from __future__ import annotations

from posheaf.matrix import image_complement_rows, packed_row, row_basis


def append_complement(stalks, element: str, stalk: list[int], image_rows) -> int:
    """Drop-in for `posheaf.resolution._append_complement`: screen every basis
    vector of the image's complement against the matrix's star-labeled rows
    and append the independent ones as rows labeled `element`."""
    field = stalks.m.field
    screen = row_basis(field)
    for i in stalks.at(stalks.rows, element):
        screen.add(stalks.packed[i])
    added = 0
    for vector in image_complement_rows(field, image_rows):
        row = {stalk[pos]: v for pos, v in vector.items()}
        packed = packed_row(field, row)
        if screen.add(packed):
            stalks.append(element, row, packed)
            added += 1
    return added


def checked_complement(field, stalk_rows, skip=()):
    """`image_complement_rows` that asserts each skipped position reduces to
    zero (the complement vector of row t has its highest coordinate at t)
    and that skipping leaves the other vectors as they were."""
    full = image_complement_rows(field, stalk_rows)
    assert set(skip) <= {max(u) for u in full}
    got = image_complement_rows(field, stalk_rows, skip)
    assert [list(u.items()) for u in got] == [list(u.items()) for u in full if max(u) not in skip]
    return got


def raw(complex_):
    """Every matrix's labels and rows, dict entry order included."""
    return [(m.col_labels, m.row_labels, [list(r.items()) for r in m.rows])
            for m in complex_.matrices]
