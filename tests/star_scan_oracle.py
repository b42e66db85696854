"""The MakeExact body as it was before its star scan was cleared, kept as a
reference: the library now leaves out of the top pivots at an element the
star rows that reduced to zero at an element above it
(`posheaf.resolution._append_complement`), and the tests check that it
appends the same rows, in the same order and with the same dict entry order,
as this version does, which feeds the kernel every star row.
"""

from __future__ import annotations

from posheaf.matrix import _eliminate, image_complement_rows, packed_row


def append_complement(stalks, element: str, image_rows=None) -> int:
    """Drop-in for `posheaf.resolution._append_complement`, uncleared."""
    field, ranks = stalks.m.field, stalks.ranks
    prev_rank = stalks.prev_ranks.get(element)
    size = sum(map(stalks.counts.__getitem__, stalks.up(element)))
    tops = {}  # where prev_rank == size, dim A = 0 and so W = 0
    if prev_rank != size:
        star_rows = [stalks.packed[i] for k in stalks.up(element) for i in stalks.rows[k]]
        tops = _eliminate(field, star_rows)[0]
    ranks[element] = len(tops)
    if prev_rank is not None and size - prev_rank <= len(tops):
        return 0
    stalk = stalks.at(stalks.cols, element)
    if image_rows is None:
        image_rows = [stalks.image[i] for i in stalk]
    skip = {pos for pos, j in enumerate(stalk) if j in tops}
    vectors = image_complement_rows(field, image_rows, skip, stalk)
    for row in vectors:
        stalks.append(element, row, packed_row(field, row))
    ranks[element] += len(vectors)
    return len(vectors)
