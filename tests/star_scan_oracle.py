"""The MakeExact body as it was before its star scan was cleared, kept as a
reference: the library now leaves out of the top pivots at an element the
star rows that reduced to zero at an element above it
(`posheaf.resolution._append_complement`), and the tests check that it
appends the same rows, in the same order and with the same dict entry order,
as this version does, which feeds the kernel every star row.
"""

from __future__ import annotations

from conftest import stalk_cols, star_rows
from posheaf.matrix import _eliminate, image_complement_rows, packed_row


def append_complement(stalks, element: str, image_rows=None) -> int:
    """Drop-in for `posheaf.resolution._append_complement`, uncleared.  The
    stalk and the star rows are read off the labels (`stalk_cols`,
    `star_rows`), not off `stalks`' star lists."""
    m, ranks = stalks.m, stalks.ranks
    field, prev_rank = m.field, stalks.prev_ranks.get(element)
    stalk = stalk_cols(m, element)
    tops = {}  # where prev_rank == |stalk|, dim A = 0 and so W = 0
    if prev_rank != len(stalk):
        tops = _eliminate(field, [stalks.packed[i] for i in star_rows(m, element)])[0]
    ranks[element] = len(tops)
    if prev_rank is not None and len(stalk) - prev_rank <= len(tops):
        return 0
    if image_rows is None:
        image_rows = [stalks.image[i] for i in stalk]
    skip = {pos for pos, j in enumerate(stalk) if j in tops}
    vectors = image_complement_rows(field, image_rows, skip, stalk)
    stalks.append(element, vectors, [packed_row(field, row) for row in vectors])
    ranks[element] += len(vectors)
    return len(vectors)
