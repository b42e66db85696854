"""The Morse tables and fiber microsupport dims as they were computed level by
level, kept as a reference: the library now walks the filtration, pulling
each sublevel's complex back from the sublevel above it, restricting the
fibers from those complexes, and reading the sublevel-! and superlevel rows
off one elimination per degree.  The tests check that every table and fiber
dim map it gives is what this version gives, which restricts the whole
complex afresh at every level and pulls it back to every fiber along the
fiber's own mapping cylinder.
"""

from __future__ import annotations

from posheaf.derived import hypercohomology, proper_pullback, proper_pushforward, pullback
from posheaf.poset import LocallyClosedSet, MonotoneMap


def restrict_star(zset, complex_):
    """Ri_Z^*: pullback along the inclusion of the restricted poset."""
    inclusion = MonotoneMap.inclusion(zset.restricted_poset(), zset.ambient)
    return pullback(inclusion, complex_)


def star_microsupport_dims(zset, complex_):
    return hypercohomology(proper_pushforward(zset, restrict_star(zset, complex_)))


def shriek_microsupport_dims(zset, complex_):
    return hypercohomology(proper_pullback(zset, complex_))


def betti_table(mf, complex_, direction: str, variant: str) -> dict[str, dict[int, int]]:
    """Drop-in for `posheaf.morse.betti_table`: one restriction per level."""
    def row(x):
        members = mf.sublevel(x) if direction == "sublevel" else mf.superlevel(x)
        if not members:
            return {}
        zset = LocallyClosedSet(mf.map.source, members)
        if variant == "shriek" or direction == "superlevel":
            return hypercohomology(proper_pullback(zset, complex_))
        return hypercohomology(restrict_star(zset, complex_))

    return {x: row(x) for x in mf.total_order}


def fiber_dims(mf, complex_, variant: str) -> dict[str, dict[int, int]]:
    """Drop-in for `posheaf.morse.MorseAnalysis.fiber_dims`: one restriction
    per non-empty fiber."""
    dims = {"star": star_microsupport_dims, "shriek": shriek_microsupport_dims}[variant]
    return {x: dims(LocallyClosedSet(mf.map.source, mf.fibers[x]), complex_)
            for x in mf.total_order if mf.fibers[x]}
