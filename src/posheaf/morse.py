"""Supports, discrete microsupport, Morse functions on posets, critical
elements, the dimension-level Morse theorem checks, Morse inequalities, and
the compactly supported cochain oracle for generator multiplicities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from .errors import InputError
from .field import PrimeField
from .matrix import InjectiveComplex, _eliminate, _sparse_rank, packed_row
from .poset import LocallyClosedSet, MonotoneMap, Poset, SimplicialComplex, _vertex_key, image_poset
from .resolution import cohomology_sheaf_dims, is_minimal
from .derived import hypercohomology, proper_pullback, proper_pushforward, pullback


# -- supports ---------------------------------------------------------------


def supp_shriek(complex_: InjectiveComplex) -> set[str]:
    """Elements whose indecomposable summand appears somewhere; the complex
    must be minimal for this to agree with the !-support."""
    if not is_minimal(complex_):
        raise InputError("supp^! via multiplicities requires a minimal complex")
    return set().union(*complex_.multiplicities().values())


def supp_star(complex_: InjectiveComplex) -> set[str]:
    """Elements with a nonzero stalkwise cohomology dimension."""
    return set().union(*cohomology_sheaf_dims(complex_).values())


# -- microsupport -------------------------------------------------------------


def restrict_star(zset: LocallyClosedSet, complex_: InjectiveComplex) -> InjectiveComplex:
    """Ri_Z^*: pullback along the inclusion of the restricted poset."""
    inclusion = MonotoneMap.inclusion(zset.restricted_poset(), zset.ambient)
    return pullback(inclusion, complex_)


def in_microsupport_star(zset: LocallyClosedSet, complex_: InjectiveComplex) -> bool:
    """Z is in the *-microsupport iff the extension by zero of the restriction
    has nonzero hypercohomology."""
    return bool(star_microsupport_dims(zset, complex_))


def in_microsupport_shriek(zset: LocallyClosedSet, complex_: InjectiveComplex) -> bool:
    return bool(shriek_microsupport_dims(zset, complex_))


def star_microsupport_dims(zset, complex_):
    return hypercohomology(proper_pushforward(zset, restrict_star(zset, complex_)))


def shriek_microsupport_dims(zset, complex_):
    return hypercohomology(proper_pullback(zset, complex_))


# -- Morse functions ------------------------------------------------------------


class MorseFunction:
    """An order preserving map to a poset of levels with a chosen refinement.

    `total_order` lists each level element once, from lowest to highest, and
    must refine the level poset's order.  Every fiber is locally closed
    (order convex) in the domain without a check: `MonotoneMap` refuses a
    map that is not monotone, and a <= b <= c with f(a) = f(c) forces
    f(a) <= f(b) <= f(a), so f(b) = f(a).
    """

    def __init__(self, f: MonotoneMap, total_order: list[str]):
        self.map = f
        self.total_order = list(total_order)
        pos = {}
        for k, x in enumerate(self.total_order):
            if x in pos:
                raise InputError(f"total order repeats level {x!r}")
            pos[x] = k
        if sorted(pos) != sorted(f.target.elements):
            raise InputError("total order must enumerate the level poset")
        for a, b in f.target.covers:
            if pos[a] >= pos[b]:
                raise InputError(f"total order does not refine the level order at {a} < {b}")
        self.position = pos
        self.fibers = {x: set() for x in self.total_order}
        for e in f.source.elements:
            self.fibers[f(e)].add(e)

    @classmethod
    def from_levels(cls, domain: Poset, levels: dict, order: list[str]) -> "MorseFunction":
        """Build from an element -> level-name dict and the level order.  The levels
        taken join the order's in the level poset, so an order leaving one out is refused."""
        for e in domain.elements:
            if e not in levels:
                raise InputError(f"no level assigned to element {e!r}")
        target = image_poset(domain, levels, list(dict.fromkeys([*order, *levels.values()])))
        return cls(MonotoneMap(domain, target, levels), order)

    def sublevel(self, x: str) -> set[str]:
        return set().union(*(self.fibers[y] for y in self.total_order[: self.position[x] + 1]))

    def superlevel(self, x: str) -> set[str]:
        return set().union(*(self.fibers[y] for y in self.total_order[self.position[x]:]))

    def fiber_set(self, x: str) -> LocallyClosedSet:
        return LocallyClosedSet(self.map.source, self.fibers[x])


def critical_elements(
    mf: MorseFunction, complex_: InjectiveComplex, variant: str
) -> set[str]:
    """Level elements whose fiber lies in the chosen discrete microsupport."""
    return MorseAnalysis(mf, complex_).critical(variant)


def betti_table(mf: MorseFunction, complex_: InjectiveComplex, direction: str, variant: str,
                _sublevels=None) -> dict[str, dict[int, int]]:
    """Hypercohomology dimensions of sub/superlevel restrictions per level.

    direction 'sublevel' uses closed sets {f <= x}; 'superlevel' uses open
    sets {f >= x}.  variant 'shriek' restricts by submatrices, 'star' by the
    cylinder pullback.  On an open set Ri^* = Ri^!, so superlevel rows of
    both variants restrict by submatrices.

    Each table walks the filtration: sublevel-star rows are those of
    `_sublevel_walk` (`_sublevels` if given), submatrix rows come off one
    elimination per degree (`_filtration_ranks`).
    """
    if complex_.poset != mf.map.source:
        raise InputError("complex does not live on the Morse function's domain")
    if direction not in ("sublevel", "superlevel") or variant not in ("star", "shriek"):
        raise InputError(f"unknown table direction or variant: {direction!r}, {variant!r}")
    if direction == "sublevel" and variant == "star":
        return _sublevels or _sublevel_walk(mf, complex_)[0]
    walk = mf.total_order[::-1] if direction == "superlevel" else mf.total_order
    at = {x: k for k, x in enumerate(walk)}
    step = {e: at[mf.map(e)] for e in complex_.poset.elements}
    dims = complex_.trimmed().dims(lambda m, tops: _filtration_ranks(m, step, walk, tops))
    return {x: {d: row[x] for d, row in dims.items() if x in row} for x in mf.total_order}


def _filtration_ranks(m, step, walk, tops) -> dict[str, tuple[int, int]]:
    """Per level, the k-th of `walk`: the number of m's columns whose label
    has `step` <= k and the rank of m's block on the rows and columns of such
    labels, from one elimination.  Columns are numbered so that levels later in
    the walk (up for sublevels, down for superlevels) get lower indices, and
    rows are fed to `_eliminate` one level at a time in walk order.  After the
    rows R of the first k levels, the pivot table is a basis of span R with
    distinct top columns, and the columns of those levels are the indices from
    some cut c up, so the block of R on them is span R projected to the
    coordinates >= c.  Stored rows with top < c project to zero; those with
    top >= c keep distinct tops and stay independent.  So the block's rank is
    the number of tops >= c.  Cleared per level as `InjectiveComplex.dims`
    clears, `tops[x]` becoming the block's top pivots, m's column indices (the
    keys >= the cut, through the renumbering).  The lemma holds per level: the
    labels of step <= k form a sublevel (down-closed) or superlevel
    (up-closed) set, which is convex, so an entry of the product of
    consecutive blocks sums over the same indices as the full product's, and
    the blocks compose to zero.  The tops of a level only grow with k, so each
    row left out is at a top of every later level: a level's fed rows contain
    all of its block's rows at no top, and these span the block's rows."""
    order = sorted(range(m.ncols), key=lambda j: -step[m.col_labels[j]])
    index = {j: c for c, j in enumerate(order)}
    buckets = [[] for _ in walk]
    for i, lab in enumerate(m.row_labels):
        buckets[step[lab]].append(i)
    table, out, rows = {}, {}, m.rows
    for k, x in enumerate(walk):
        cleared = tops.get(x, ())
        _eliminate(m.field, [packed_row(m.field, {index[j]: v for j, v in rows[i].items()})
                             for i in buckets[k] if i not in cleared], table=table)
        cut = sum(step[lab] > k for lab in m.col_labels)
        out[x] = (m.ncols - cut, sum(top >= cut for top in table))
        tops[x] = {order[top] for top in table if top >= cut}
    return out


def _sublevel_walk(mf: MorseFunction, complex_: InjectiveComplex) -> tuple[dict, dict]:
    """The sublevel-star rows, the hypercohomology of C_x = Ri^* of the
    complex to each sublevel S_x ({} where empty), and the star dims of each
    non-empty fiber F_x, in level order.  Walking down from the whole domain,
    C_x is pulled back to S_{x-1} below, by (g f)^* = f^* g^*; an empty fiber
    keeps C_x.  F_x is open in S_x and S_{x-1} closed, so F_x's star dims are
    those of the cone of RGamma(S_x, C_x) -> RGamma(S_{x-1}, C_{x-1}).
    `pullback` builds G on the cylinder with target-labeled part -C_x, exact
    at every source element.  The target is open and source-labeled summands
    vanish on it, so G is C_x extended by zero; a source copy s' sees C_x's
    stalk at s.  So G's hypercohomology, which `pullback` appends to `_cone`,
    is that cone, {} if C_x is empty; with nothing below F_x it is the row."""
    current, members = complex_.trimmed(), set(complex_.poset.elements)
    rows, cones = {}, {}
    for x in reversed(mf.total_order):
        rows[x] = hypercohomology(current) if members else {}
        below, cones[x] = members - mf.fibers[x], [rows[x]]
        if below and below != members:
            inclusion = MonotoneMap.inclusion(current.poset.restrict(below), current.poset)
            current = pullback(inclusion, current, _cone=cones[x])
        members = below
    return dict(reversed(rows.items())), {x: cones[x][-1] for x in mf.total_order if mf.fibers[x]}


@dataclass
class _Verdict:
    violations: list[str] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class MorseTheoremReport(_Verdict):
    checks: int = 0


def verify_morse_theorem(mf: MorseFunction, complex_: InjectiveComplex) -> MorseTheoremReport:
    """`MorseAnalysis.theorem` on a fresh analysis."""
    return MorseAnalysis(mf, complex_).theorem()


@dataclass
class MorseInequalityReport(_Verdict):
    euler_total: int = 0
    euler_critical_sum: int = 0
    rows: list[tuple[int, int, int]] = dataclass_field(default_factory=list)


def morse_inequalities(
    mf: MorseFunction, complex_: InjectiveComplex, variant: str
) -> MorseInequalityReport:
    """`MorseAnalysis.inequalities` on a fresh analysis."""
    return MorseAnalysis(mf, complex_).inequalities(variant)


class MorseAnalysis:
    """The Morse quantities of one complex under one Morse function: Betti
    tables, fiber microsupport dims, critical sets, the theorem check and the
    inequalities.  Each table and each variant's fiber dims are computed on
    first use and kept, along the filtration (see `betti_table`): the walk
    down the sublevel complexes runs once, for the sublevel-star table and the
    star fiber dims both.
    """

    def __init__(self, mf: MorseFunction, complex_: InjectiveComplex):
        if complex_.poset != mf.map.source:
            raise InputError("complex does not live on the Morse function's domain")
        self.mf = mf
        self.complex = complex_
        self._tables: dict[tuple[str, str], dict[str, dict[int, int]]] = {}
        self._fiber_dims: dict[str, dict[str, dict[int, int]]] = {}

    @cached_property
    def _walk(self) -> tuple[dict, dict]:
        return _sublevel_walk(self.mf, self.complex)

    def table(self, direction: str, variant: str) -> dict[str, dict[int, int]]:
        """`betti_table` rows.  Superlevel sets are open, so both variants
        share one superlevel table."""
        key = (direction, "shriek" if (direction, variant) == ("superlevel", "star") else variant)
        if key not in self._tables:
            rows = self._walk[0] if key == ("sublevel", "star") else None
            self._tables[key] = betti_table(self.mf, self.complex, *key, _sublevels=rows)
        return self._tables[key]

    def fiber_dims(self, variant: str) -> dict[str, dict[int, int]]:
        """Microsupport dims of the fiber of every level with a non-empty
        fiber: star dims off the sublevel walk (see `_sublevel_walk`), shriek
        dims, Ri^!, off the complex's submatrix blocks on the fiber."""
        if variant not in self._fiber_dims:
            if variant not in ("star", "shriek"):
                raise InputError(f"unknown variant {variant!r}")
            c = self.complex.trimmed()
            self._fiber_dims[variant] = self._walk[1] if variant == "star" else {
                x: hypercohomology(c.restricted(c.poset, fiber))
                for x, fiber in self.mf.fibers.items() if fiber}
        return self._fiber_dims[variant]

    def critical(self, variant: str) -> set[str]:
        """Levels whose fiber lies in the chosen discrete microsupport."""
        return {x for x, dims in self.fiber_dims(variant).items() if dims}

    def theorem(self) -> MorseTheoremReport:
        """Dimension-level check of the three Morse isomorphism families.

        Between consecutive levels a < b of the total order:
          - sublevel-! rows at a and b agree unless b is !-critical,
          - sublevel-* rows at a and b agree unless b is *-critical,
          - superlevel-* rows at a and b agree unless a is !-critical
            (the restriction drops the fiber of a).
        The boundary rows (empty sublevel before the first level, empty
        superlevel after the last) are included in the comparison.
        """
        levels = self.mf.total_order

        def rows(direction, variant):
            return [self.table(direction, variant)[x] for x in levels]

        # the families of each pass: kind, rows padded by the empty boundary
        # row, and the critical levels that excuse a change
        passes = [[("sublevel-shriek", [{}] + rows("sublevel", "shriek"), self.critical("shriek")),
                   ("sublevel-star", [{}] + rows("sublevel", "star"), self.critical("star"))],
                  [("superlevel-star", rows("superlevel", "star") + [{}], self.critical("shriek"))]]
        compared = [(kind, x, padded[k], padded[k + 1]) for families in passes
                    for k, x in enumerate(levels) for kind, padded, critical in families
                    if x not in critical]
        violations = [f"{kind}: rows differ across non-critical level {x} ({a} vs {b})"
                      for kind, x, a, b in compared if a != b]
        return MorseTheoremReport(violations, checks=len(compared))

    def inequalities(self, variant: str) -> MorseInequalityReport:
        """Alternating partial-sum inequalities and the Euler equality.

        For every truncation level, the signed partial sum of the global
        hypercohomology dimensions is bounded by the corresponding sum over
        critical fibers; the full alternating sums agree.  The global dims
        come from the walk: its last row, whose sublevel is the whole domain.
        """
        total, critical = next(reversed(self._walk[0].values()), {}), Counter()
        for dims in self.fiber_dims(variant).values():
            critical.update(dims)
        degrees = set(total) | set(critical)
        if not degrees:
            return MorseInequalityReport()
        lo, hi = min(degrees), max(degrees)

        def partial_sum(dims, ell):
            return sum((-1) ** (ell - j) * dims.get(j, 0) for j in range(lo, ell + 1))

        rows = [(ell, partial_sum(total, ell), partial_sum(critical, ell))
                for ell in range(lo - 1, hi + 2)]
        violations = [f"partial sums at level {ell}: {lhs} > {rhs}" for ell, lhs, rhs in rows
                      if lhs > rhs]
        euler_total, euler_critical_sum = (
            sum((-1) ** j * v for j, v in dims.items()) for dims in (total, critical))
        if euler_total != euler_critical_sum:
            violations.append(f"Euler equality fails: {euler_total} != {euler_critical_sum}")
        return MorseInequalityReport(violations, euler_total, euler_critical_sum, rows)


# -- compactly supported cochain oracle ------------------------------------------


def compact_support_cohomology(
    simplicial: SimplicialComplex, open_set, p: int = 2
) -> dict[int, int]:
    """Cohomology of the cochain complex spanned by the simplices in an upward
    closed set of faces, with the simplicial (signed) coboundary.

    This is the independent oracle: the multiplicity of [s] in degree d of the
    minimal resolution of the constant sheaf equals the (d + dim s)-dimension
    computed here for the open star of s.
    """
    field = PrimeField(p)
    poset = simplicial.face_poset
    members = set(open_set)
    if not poset.is_open(members):
        raise InputError("the oracle needs an upward closed (open) set of faces")
    by_dim: dict[int, list[str]] = {}
    for name in poset.elements:
        if name in members:
            by_dim.setdefault(simplicial.dim(name), []).append(name)
    if not by_dim:
        return {}
    lo, hi = min(by_dim), max(by_dim)
    ranks = {}
    for d in range(lo, hi + 1):
        cols = by_dim.get(d, [])
        rows = by_dim.get(d + 1, [])
        col_pos = {name: j for j, name in enumerate(cols)}
        matrix = []
        for upper in rows:
            entries = {}
            uface = simplicial.face_of[upper]
            # the coboundary sign (-1)^i, i the dropped vertex's sorted position
            for i, v in enumerate(sorted(uface, key=lambda x: _vertex_key(str(x)))):
                lname = simplicial.name_of.get(uface - {v})
                if lname in col_pos:
                    entries[col_pos[lname]] = (-1) ** i % p
            matrix.append({k: v for k, v in entries.items() if v})
        ranks[d] = _sparse_rank(field, matrix)
    return {d: h for d in range(lo, hi + 1)
            if (h := len(by_dim.get(d, [])) - ranks.get(d, 0) - ranks.get(d - 1, 0))}


def multiplicity_oracle(simplicial: SimplicialComplex, face: str, p: int = 2) -> dict[int, int]:
    """Expected multiplicities m^d(face) for the constant sheaf: compactly
    supported cohomology of the open star, shifted by the face dimension."""
    star = simplicial.face_poset.star(face)
    dims = compact_support_cohomology(simplicial, star, p)
    shift = simplicial.dim(face)
    return {d - shift: v for d, v in dims.items() if v}
