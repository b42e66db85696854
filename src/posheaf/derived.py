"""Derived-category operations on complexes of labeled matrices: peeling to
the minimal complex, the four derived functors, mapping cones, hypercohomology,
morphism-space dimensions and dualization.

Equality of derived objects is always meant up to isomorphism, so comparisons
go through multiplicity tables and stalkwise cohomology dimensions, never raw
entries.
"""

from __future__ import annotations

from .errors import InputError, SizeCapExceeded
from .matrix import (InjectiveComplex, LabeledMatrix, ValidationReport, _column_index,
                     _product_is_zero, _sparse_rank)
from .poset import LocallyClosedSet, MonotoneMap, mapping_cylinder
from .resolution import cohomology_sheaf_dims, force_exact

HOM_SYSTEM_VARIABLE_CAP = 20_000


# -- peeling -------------------------------------------------------------------


def peel(complex_: InjectiveComplex, _scan_order=None) -> InjectiveComplex:
    """Split off all 0 -> [pi] -> [pi] -> 0 summands, returning the minimal
    complex quasi-isomorphic to the input.

    Precondition, checked (`InputError`): consecutive matrices compose to
    zero.  A pivot c at (i, j) of a same-label diagonal block of d = ms[k]
    splits off by Gaussian elimination.  Row additions clear column j of d
    (rows meeting a pi-labeled column are labeled <= pi, so each is allowed);
    column additions would then clear row i, writing only into row i of d.
    Mirrored on the neighbours, the row additions write only into column i
    of ms[k + 1] and the column additions only into row j of ms[k - 1].
    Composition zero makes both vanish: once column j of d is c e_i, column j
    of ms[k + 1] d is c times column i of ms[k + 1], and once row i of d is
    c e_j, row i of d ms[k - 1] is c times row j of ms[k - 1].  So only the
    row additions are made, and row i of d, row j of ms[k - 1] and column i
    of ms[k + 1] are emptied.

    A visit to a matrix scans each row once, in order, for its first
    same-label entry.  Rows above a pivot row have none, and adding the pivot
    row into them cannot create one, since their labels lie strictly below
    the pivot's.  So a visit leaves its matrix with no same-label entry, and
    one pass over the matrices splits every pivot: a later pivot in ms[k]
    adds rows within ms[k] only, and on its neighbours only empties a row and
    a column, which creates no entry.  The output's multiplicity table is
    independent of the scan order.

    The pivot entry c leaves row i before the additions: each row that a
    column -> rows index lists for column j loses its entry v there and
    gains -v/c times the rest of row i in place, new entries at the end in
    row i's order, as adding row i whole would leave them.  The index lists
    only grow, so a listed row without the entry (it vanished, or the row is
    listed twice) is skipped; additions into distinct rows commute, so a
    list is neither sorted nor written back.  Split-off rows and columns are
    emptied and marked dead, and each matrix is compacted once at the end,
    keeping the order of rows, columns and entries.
    """
    ms = [m.copy() for m in complex_.matrices]
    for k, (a, b) in enumerate(zip(ms, ms[1:])):
        if not _product_is_zero(b, a):
            raise InputError(f"matrices {k} and {k + 1} do not compose to zero")
    field, p = complex_.field, complex_.field.p
    body = [m.rows for m in ms]
    cols = [_column_index(rows, m.ncols) for rows, m in zip(body, ms)]
    # dead[k]: split-off summands of term k, i.e. columns of ms[k] and rows of ms[k - 1]
    dead: list[set[int]] = [set() for _ in range(len(ms) + 1)]
    for k in _scan_order if _scan_order is not None else range(len(ms)):
        rows, index, col_labels = body[k], cols[k], ms[k].col_labels
        for i, lab in enumerate(ms[k].row_labels):
            pivot = rows[i]
            for j in pivot:
                if col_labels[j] == lab:
                    break
            else:
                continue
            inv = field.inv(pivot.pop(j))
            for i2 in index[j]:
                target = rows[i2]
                if (v := target.pop(j, None)) is None:
                    continue
                s = -v * inv % p
                for j2, w in pivot.items():
                    if new := (target.get(j2, 0) + s * w) % p:
                        if j2 not in target:
                            index[j2].append(i2)
                        target[j2] = new
                    else:
                        target.pop(j2, None)
            rows[i] = {}
            if k > 0:
                body[k - 1][j] = {}
            if k + 1 < len(ms):
                above = body[k + 1]
                for r in cols[k + 1][i]:
                    above[r].pop(i, None)
            dead[k].add(j)
            dead[k + 1].add(i)
    for k, m in enumerate(ms):
        _compact(m, dead[k + 1], dead[k])
    return InjectiveComplex(complex_.poset, field, ms, complex_.degree_offset).trimmed()


def _compact(m: LabeledMatrix, dead_rows: set[int], dead_cols: set[int]):
    """Drop dead (empty) rows and columns in place, renumbering columns in order."""
    if not dead_rows and not dead_cols:
        return
    keep = [j for j in range(m.ncols) if j not in dead_cols]
    pos = {j: k for k, j in enumerate(keep)}
    live = [i for i in range(m.nrows) if i not in dead_rows]
    m.col_labels = [m.col_labels[j] for j in keep]
    m.row_labels = [m.row_labels[i] for i in live]
    m.rows = [{pos[j]: v for j, v in m.rows[i].items()} for i in live]


# -- derived functors ----------------------------------------------------------


def pushforward(f: MonotoneMap, complex_: InjectiveComplex) -> InjectiveComplex:
    """Rf_*: relabel every row/column label through f, then peel."""
    if complex_.poset != f.source:
        raise InputError("complex does not live on the map's source")
    return peel(complex_.restricted(f.target, rename=f.assignment))


def pullback(f: MonotoneMap, complex_: InjectiveComplex, _cone=None) -> InjectiveComplex:
    """Rf^*: build an exact mapping-cone complex over the mapping cylinder by
    seeding each degree with the negated rows of the next differential and
    making it exact over the source; keep the source-labeled part.  The output
    is minimal by construction.  A list `_cone` gets the whole cylinder
    complex's hypercohomology appended (see `morse._sublevel_walk`)."""
    if complex_.poset != f.target:
        raise InputError("complex does not live on the map's target")
    field = complex_.field
    cyl, inc_src, _ = mapping_cylinder(f)
    seeds = [_negated(m, cyl) for m in complex_.matrices]
    start = LabeledMatrix(cyl, field, [], complex_.term(complex_.degree_offset))
    gammas = force_exact(start, [inc_src(e) for e in f.source.linear_extension], seeds)
    cone = InjectiveComplex(cyl, field, gammas, complex_.degree_offset)
    if _cone is not None:
        _cone.append(hypercohomology(cone))
    back = {inc_src(e): e for e in f.source.elements}
    return cone.restricted(f.source, back, back).shifted(1).trimmed()


def _negated(m: LabeledMatrix, cylinder) -> LabeledMatrix:
    """-m on the cylinder, which keeps the target's element names, in one
    pass over the rows.  Entries are reduced and nonzero (as `validate`
    checks), so -v is p - v."""
    p = m.field.p
    out = LabeledMatrix(cylinder, m.field, m.col_labels, m.row_labels)
    out.rows = [{j: p - v for j, v in row.items()} for row in m.rows]
    return out


def proper_pushforward(zset: LocallyClosedSet, complex_: InjectiveComplex) -> InjectiveComplex:
    """R(i_Z)_!: extend by zero and force exactness over the closure boundary,
    in non-increasing order.  The complex must live on Z with the order Z has
    in the ambient poset."""
    ambient, members = zset.ambient, zset.members
    field = complex_.field
    if set(complex_.poset.elements) != members:
        raise InputError("complex does not live on the locally closed set")
    # Z is convex, so its covers are the ambient covers with both ends in Z
    if set(complex_.poset.covers) != {(a, b) for a, b in ambient.covers
                                      if a in members and b in members}:
        raise InputError("complex's order differs from the locally closed set's order")
    lifted = complex_.restricted(ambient).matrices
    position = {e: k for k, e in enumerate(ambient.linear_extension)}
    boundary = sorted(zset.boundary(), key=position.__getitem__)
    start = LabeledMatrix(ambient, field, [], complex_.term(complex_.degree_offset))
    deltas = force_exact(start, boundary, lifted)
    return InjectiveComplex(ambient, field, deltas, complex_.degree_offset).trimmed()


def proper_pullback(zset: LocallyClosedSet, complex_: InjectiveComplex) -> InjectiveComplex:
    """Ri_Z^!: per-degree submatrices on the Z-labeled rows and columns.
    Minimality is preserved."""
    if complex_.poset != zset.ambient:
        raise InputError("complex does not live on the ambient poset")
    return complex_.restricted(zset.restricted_poset(), zset.members).trimmed()


# -- hypercohomology and Euler characteristics ----------------------------------


def hypercohomology(complex_: InjectiveComplex) -> dict[int, int]:
    """Dimensions of the derived pushforward to a point: per degree,
    columns - rank - previous rank, labels forgotten.  Zero entries omitted.
    Its own ranks, not MakeExact's carried ones, cleared (`InjectiveComplex.dims`)."""
    return {d: h[None] for d, h in complex_.dims(_whole_ranks).items()}


def _whole_ranks(m: LabeledMatrix, tops: dict) -> dict[None, tuple[int, int]]:
    """{None: (columns, rank)} of m, cleared by `tops[None]` (`InjectiveComplex.dims`)."""
    cleared, table = tops.get(None, ()), {}
    rank = _sparse_rank(m.field, m.packed(cleared), table)
    tops[None] = set(table)
    return {None: (m.ncols, rank)}


def euler_characteristic(complex_: InjectiveComplex) -> int:
    return sum((-1) ** d * complex_.matrix(d).ncols for d in complex_.degrees)


# -- mapping cones ---------------------------------------------------------------


def _same_poset_and_field(a: InjectiveComplex, b: InjectiveComplex) -> None:
    """Refuses two complexes on different posets or over different fields."""
    if a.poset != b.poset or a.field != b.field:
        raise InputError("complexes live on different posets" if a.poset != b.poset
                         else "complexes are over different fields")


class ComplexMorphism:
    """A degreewise labeled-matrix map between complexes on one poset and field."""

    def __init__(self, source: InjectiveComplex, target: InjectiveComplex, components: dict):
        _same_poset_and_field(source, target)
        self.source = source
        self.target = target
        self.components = dict(components)

    @classmethod
    def identity(cls, complex_: InjectiveComplex) -> "ComplexMorphism":
        comps = {}
        for d in complex_.degrees:
            labels = complex_.term(d)
            m = LabeledMatrix(complex_.poset, complex_.field, labels, labels)
            for i in range(len(labels)):
                m.rows[i][i] = 1
            comps[d] = m
        return cls(complex_, complex_, comps)

    @classmethod
    def zero(cls, source: InjectiveComplex, target: InjectiveComplex) -> "ComplexMorphism":
        return cls(source, target, {})

    def component(self, d: int) -> LabeledMatrix:
        m = self.components.get(d)
        return m if m is not None else LabeledMatrix(
            self.source.poset, self.source.field, self.source.term(d), self.target.term(d))

    def validate(self) -> ValidationReport:
        issues = []
        for d in sorted(set(self.source.degrees) | set(self.target.degrees)):
            alpha_d = self.component(d)
            if (alpha_d.col_labels, alpha_d.row_labels) != (self.source.term(d),
                                                             self.target.term(d)):
                issues.append(f"component {d} has mismatched labels")
            elif bad := alpha_d.validate():
                issues.extend(f"component {d}: {msg}" for msg in bad)
            else:
                eta, delta = self.source.matrix(d), self.target.matrix(d)
                if eta is not None and delta is not None and (
                        self.component(d + 1).multiply(eta) != delta.multiply(alpha_d)):
                    issues.append(f"square at degree {d} does not commute")
        return ValidationReport(issues)


def mapping_cone(alpha: ComplexMorphism) -> InjectiveComplex:
    """C^d = F^{d+1} (+) G^d with differential ((-eta^{d+1}, 0), (alpha^{d+1}, delta^d))."""
    alpha.validate().raise_if_failed()
    F, G = alpha.source, alpha.target
    poset, field = F.poset, F.field
    degrees = [d - 1 for d in F.degrees] + [*G.degrees]
    low, ms = min(degrees, default=0), []
    for d in range(low, max(degrees, default=-1) + 1):
        f_cols, g_cols = F.term(d + 1), G.term(d)
        cone = LabeledMatrix(poset, field, f_cols + g_cols)
        eta, delta, a = F.matrix(d + 1), G.matrix(d), alpha.component(d + 1)
        for i, lab in enumerate(F.term(d + 2)):
            cone.row_labels.append(lab)
            cone.rows.append({j: field.neg(v) for j, v in eta.rows[i].items()} if eta else {})
        shift = len(f_cols)
        for i, lab in enumerate(G.term(d + 1)):
            row = dict(a.rows[i]) if i < a.nrows else {}
            if delta is not None:
                for j, v in delta.rows[i].items():
                    row[j + shift] = v
            cone.row_labels.append(lab)
            cone.rows.append(row)
        ms.append(cone)
    return InjectiveComplex(poset, field, ms, low).trimmed()


# -- morphism spaces --------------------------------------------------------------


def hom_space_dims(
    I: InjectiveComplex,
    J: InjectiveComplex,
    variable_cap: int = HOM_SYSTEM_VARIABLE_CAP,
) -> tuple[int, int, int]:
    """(dim morphisms, dim null-homotopic morphisms, dim derived hom).

    Degreewise maps alpha^d are unknowns constrained to the label order and to
    commute with the differentials; the null-homotopic subspace is the image
    of h -> (delta^{d-1} h^d + h^{d+1} eta^d).  Refuses systems above
    `variable_cap` unknowns.
    """
    _same_poset_and_field(I, J)
    alphas, homotopies = _hom_unknowns(I, J, 0), _hom_unknowns(I, J, -1)
    if len(alphas) + len(homotopies) > variable_cap:
        raise SizeCapExceeded(
            f"morphism system has {len(alphas) + len(homotopies)} unknowns, "
            f"above the cap of {variable_cap}"
        )
    morphism_dim = len(alphas) - _hom_rank(I, J, 0, -1, alphas)
    null_homotopic_dim = _hom_rank(I, J, -1, 1, homotopies)
    return morphism_dim, null_homotopic_dim, morphism_dim - null_homotopic_dim


def _hom_unknowns(I: InjectiveComplex, J: InjectiveComplex, shift: int) -> list:
    """The entries (d, i, j) of maps X^d: I^d -> J^{d+shift} that the label
    order allows: row i of J^{d+shift}, column j of I^d."""
    leq = I.poset.leq
    return [
        (d, i, j)
        for d in I.degrees
        for i, row_lab in enumerate(J.term(d + shift))
        for j, col_lab in enumerate(I.term(d))
        if leq(row_lab, col_lab)
    ]


def _hom_rank(I: InjectiveComplex, J: InjectiveComplex, shift: int, sign: int, unknowns) -> int:
    """Rank of X -> X eta + sign * delta X on the given unknowns of
    `_hom_unknowns(I, J, shift)`.  Each unknown gives one sparse column whose
    keys, the output entries (d, row of J^{d+shift+1}, column of I^d), are
    interned to ints."""
    p = I.field.p
    delta_cols = {d: _column_index(J.matrix(d).rows, J.matrix(d).ncols) for d in J.degrees}
    keys: dict[tuple[int, int, int], int] = {}
    columns = []
    for d, i, j in unknowns:
        eta = I.matrix(d - 1)
        out = [((d - 1, i, c), v) for c, v in eta.rows[j].items()] if eta is not None else []
        delta = J.matrix(d + shift)
        out += [((d, r, j), sign * delta.rows[r][i] % p) for r in delta_cols[d + shift][i]]
        columns.append({keys.setdefault(key, len(keys)): v for key, v in out})
    return _sparse_rank(I.field, columns)


# -- dualization -------------------------------------------------------------------


def dualize(complex_: InjectiveComplex) -> InjectiveComplex:
    """Transpose every matrix and reverse the order: a projective resolution
    datum on the opposite poset, with degrees negated."""
    opp = complex_.poset.opposite()
    ms = [m.transpose(poset=opp) for m in reversed(complex_.matrices)]
    offset = -(complex_.degree_offset + len(complex_.matrices))
    return InjectiveComplex(opp, complex_.field, ms, offset).trimmed()


# -- consistency checks --------------------------------------------------------------


def pullback_via_proper_check(f: MonotoneMap, complex_: InjectiveComplex) -> bool:
    """Verify Rf^* C = (Rp^! Rl_! C)[shift by one] at the level of multiplicity
    tables and stalkwise cohomology dimensions."""
    lhs = pullback(f, complex_)
    cyl, inc_src, inc_tgt = mapping_cylinder(f)
    target_side = LocallyClosedSet(cyl, [inc_tgt(e) for e in f.target.elements])
    on_target = complex_.restricted(target_side.restricted_poset(), rename=inc_tgt.assignment)
    extended = proper_pushforward(target_side, on_target)
    source_side = LocallyClosedSet(cyl, [inc_src(e) for e in f.source.elements])
    back = {inc_src(e): e for e in f.source.elements}
    rhs = proper_pullback(source_side, extended).restricted(f.source, rename=back).shifted(1)
    return same_derived_object(lhs, rhs)


def same_derived_object(a: InjectiveComplex, b: InjectiveComplex) -> bool:
    """Equality test used throughout: multiplicity tables and stalkwise
    cohomology dimensions agree."""
    ta, tb = ({d: dict(c) for d, c in x.multiplicities().items()} for x in (a, b))
    return ta == tb and cohomology_sheaf_dims(a) == cohomology_sheaf_dims(b)
