"""The MakeExact body as it was with a row screen, kept as a reference: the
library now picks the new rows from the star rows' top pivots, and the tests
check that it appends the same rows, in the same order and with the same dict
entry order, as this version does, whose screen is a dense rank.
`checked_complement` stands in for `image_complement_rows` and checks the
positions MakeExact skips.
"""

from __future__ import annotations

import hashlib

from dense_oracle import rank
from posheaf.matrix import image_complement_rows, packed_row


def append_complement(stalks, element: str, image_rows=None) -> int:
    """Drop-in for `posheaf.resolution._append_complement`: screen every basis
    vector of the image's complement against the matrix's star-labeled rows
    and append the independent ones as rows labeled `element`.  The image
    rows default to the stalk's rows of `stalks.image`."""
    field = stalks.m.field
    stalk = stalks.at(stalks.cols, element)
    if image_rows is None:
        image_rows = [stalks.image[i] for i in stalk]

    def dense(row):  # star rows have entries in stalk columns only
        return [row.get(j, 0) % field.p for j in stalk]

    screen = [dense(stalks.m.rows[i]) for i in stalks.at(stalks.rows, element)]
    screened = rank(field, screen)
    added = 0
    for vector in image_complement_rows(field, image_rows):
        row = {stalk[pos]: v for pos, v in vector.items()}
        if rank(field, screen + [dense(row)]) > screened:
            screen.append(dense(row))
            screened += 1
            stalks.append(element, row, packed_row(field, row))
            added += 1
    return added


def checked_complement(field, stalk_rows, skip=(), coords=None, packed=None):
    """`image_complement_rows` that asserts each skipped position reduces to
    zero (the complement vector of row t has its highest coordinate at t)
    and that skipping leaves the other vectors as they were, keyed through
    `coords` if it is given, and their packed forms too if `packed` is."""
    full = image_complement_rows(field, stalk_rows)
    assert set(skip) <= {max(u) for u in full}
    key = range(len(stalk_rows)) if coords is None else coords
    start = 0 if packed is None else len(packed)
    got = image_complement_rows(field, stalk_rows, skip, coords, packed)
    if packed is not None:
        assert packed[start:] == [packed_row(field, u) for u in got]
    assert [list(u.items()) for u in got] == [[(key[pos], v) for pos, v in u.items()]
                                              for u in full if max(u) not in skip]
    return got


def raw(complex_):
    """Every matrix's labels and rows, dict entry order included."""
    return [(m.col_labels, m.row_labels, [list(r.items()) for r in m.rows])
            for m in complex_.matrices]


def ascending_digest(complex_):
    """sha256 of `raw(complex_)`, after checking that every row lists its
    entries in ascending column order, so that it is also the digest of the
    rows with their entries sorted."""
    assert all(list(row) == sorted(row) for m in complex_.matrices for row in m.rows)
    return hashlib.sha256(repr(raw(complex_)).encode("utf-8")).hexdigest()
