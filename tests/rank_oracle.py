"""The stalkwise cohomology and hypercohomology dims as they were computed,
kept as a reference: the library now walks a complex's degrees from the top
down and leaves out of each rank the rows that the next-higher degree's top
pivots prove dependent (`InjectiveComplex.dims`).  The tests check that the
dims it gives are what this version gives, which walks the degrees upward
and ranks every star row, and every row, afresh.
"""

from __future__ import annotations

from conftest import stalk_cols, star_rows
from posheaf.matrix import _eliminate


def dims(complex_, ranks) -> dict[int, dict]:
    """{degree: {key: dim}}, nonzero dims only, by width - rank - previous
    rank, where `ranks(m)` gives {key: (width, rank)} for each matrix m
    (columns, and the rank of m's rows on them; a key left out has rank 0)."""
    out, prev = {}, {}
    for d, m in zip(complex_.degrees, complex_.matrices):
        cur = ranks(m)
        for key, (width, rank) in cur.items():
            if h := width - rank - prev.get(key, 0):
                out.setdefault(d, {})[key] = h
        prev = {key: rank for key, (_, rank) in cur.items()}
    return out


def star_ranks(m) -> dict[str, tuple[int, int]]:
    """{element: (stalk width, rank of the star rows)} at each element where
    m's stalk is nonzero: its columns and rows labeled above the element."""
    packed, out = m.packed(), {}
    for e in m.poset.elements:
        if width := len(stalk_cols(m, e)):
            out[e] = (width, len(_eliminate(m.field, [packed[i] for i in star_rows(m, e)])[0]))
    return out


def cohomology_sheaf_dims(complex_) -> dict[int, dict[str, int]]:
    """Drop-in for `posheaf.resolution.cohomology_sheaf_dims`, uncleared."""
    return dims(complex_, star_ranks)


def hypercohomology(complex_) -> dict[int, int]:
    """Drop-in for `posheaf.derived.hypercohomology`, uncleared."""
    return {d: h[None] for d, h in dims(complex_, lambda m: {None: (m.ncols, m.rank())}).items()}
