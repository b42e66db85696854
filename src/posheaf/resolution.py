"""Minimal injective resolutions and the exactness-forcing driver.

MakeExact adds rows to the current matrix at one element so that the stalk
sequence becomes exact there: the basis vectors of the complement of the
previous matrix's stalk image that the current star-labeled rows do not
already span.  It reads which ones those are off the top pivots of the star
rows (see `_append_complement`), which needs the current matrix to compose
to zero with the previous one; the next degree's complement there is read
off that scan's witnesses.  `resolution_step` runs it over a list of
elements in non-increasing order, and `force_exact` repeats that step degree
by degree until a matrix comes out empty.  `force_exact` is the single
exactness-forcing path: the minimal resolutions here and the pullback and
proper pushforward in `derived` all call it, differing only in the starting
matrix, the element list and the rows each degree is seeded with.  What
one step hands the next is listed in `_Stalks`.
"""

from __future__ import annotations

import math

from .errors import InputError
from .field import PrimeField
from .matrix import (InjectiveComplex, LabeledMatrix, _composes_to_zero, _eliminate,
                     _witness_rows, image_complement_rows, packed_row)
from .poset import Poset, SimplicialComplex, _chains
from .sheaf import Sheaf, injective_hull


def _buckets(poset: Poset, labels) -> list[list[int]]:
    """The indices of `labels`, ascending, in one list per poset index."""
    buckets = [[] for _ in poset.index]
    for i, lab in enumerate(labels):
        buckets[poset.index[lab]].append(i)
    return buckets


class _Stalks:
    """Row and column indices of a matrix bucketed by label, the number of
    columns per label (`counts`), as `image` the packed rows of the previous
    matrix, `found` (see `_append_complement`), and `packed`, the matrix's
    held packed form (`LabeledMatrix`), which `append` extends in lockstep
    with the dict rows, new rows coming packed from the kernel's decode.
    For one step or call only: any other change to the matrix (swaps, peel,
    outside appends) leaves the rest stale.

    `ranks` maps each element MakeExact has processed to the rank of the
    matrix's star rows there, final once the element is processed (every row
    labeled above it is in by then); an element whose stalk is empty gets 0
    without a MakeExact call.  `held` maps an element whose star scan found
    zero rows to the scan's rows and raw witnesses.  A step hands the next
    (`carry`) its row buckets, the next column buckets (same indices),
    `ranks` and `held`, the next `prev_ranks` (for degree 0 of the constant
    sheaf, the hull rows') and `prev_held`, and it holds its packed rows, the
    next `image`.  Each lives through the step that builds it and the one
    that reads it, no longer: `force_exact` keeps them only in its one carry
    list, which each step refills, and MakeExact pops each `prev_held` entry
    it visits, read or not (every element held has a nonempty stalk)."""

    def __init__(self, m: LabeledMatrix, image=None, cols=None,
                 prev_ranks: dict[str, int] | None = None, prev_held: dict | None = None):
        self.m, self.image, self.ranks, self.held = m, image, {}, {}
        self.prev_ranks, self.prev_held = prev_ranks or {}, prev_held or {}
        self.up = m.poset.up_indices  # element -> poset indices above it, ascending
        self.cols = cols if cols is not None else _buckets(m.poset, m.col_labels)
        self.counts = [*map(len, self.cols)]
        self.rows = _buckets(m.poset, m.row_labels)
        self.packed = m._packed = m.packed()
        self.found = [0] * len(self.packed)

    def carry(self) -> list:
        return [self.rows, self.ranks, self.held]

    def at(self, buckets, element: str) -> list[int]:
        """The indices in `buckets` whose labels are above `element`, ascending."""
        return sorted([i for k in self.up(element) for i in buckets[k]])

    def append(self, label: str, row: dict[int, int], packed) -> None:
        self.rows[self.m.poset.index[label]].append(len(self.packed))
        self.packed.append(packed)
        self.found.append(0)
        self.m.row_labels.append(label)
        self.m._rows.append(row)


def _make_exact_inplace(eta_prev: LabeledMatrix, eta_cur: LabeledMatrix, element: str,
                        _stalks: _Stalks) -> int:
    """`_append_complement` on eta_cur (`_stalks.m`) against eta_prev's rows (`_stalks.image`)."""
    return _append_complement(_stalks, element)


def _make_exact_against_image(image_rows, stalks: _Stalks, element: str) -> int:
    """`_append_complement` against the image rows given."""
    return _append_complement(stalks, element, image_rows)


def _append_complement(stalks: _Stalks, element: str, image_rows=None) -> int:
    """MakeExact (module docstring) on `stalks.m` at `element`; returns the
    number of rows added.  The stalk is the star-labeled columns, ascending,
    and `image_rows[pos]` the image's row at `stalk[pos]` (`stalks.image`'s).

    In stalk coordinates let M be the image rows, A = {u : uM = 0}, and W the
    span of the star rows; eta_cur . eta_prev = 0 gives W in A (for the hull
    seed, by naturality of the inclusion).  M's complement vectors u_t
    (`image_complement_rows`), u_t with its top at t, are a basis of A, those
    with t' < t of A below t.  So u_t depends on W and them exactly when some
    w in W has its top at t (less w, it lies in A below t): the u_t at no top
    of W are appended, and dim A = |stalk| - rank M is the rank recorded.  A
    top's row of M reduces to zero (`InjectiveComplex.dims`' lemma): skipped.
    Where the previous step recorded rank M, dim A is known: if it is |tops|,
    no complement is computed; if 0, W = 0 and no scan runs.

    The scan takes the star rows ascending, less each row i found zero at an
    element c above (bit c of `stalks.found[i]`; clearing, after Chen and
    Kerber): restricted to c's star the order is c's, and rows are only
    appended, so i lies in the span of the rows before it here too, and by
    induction of the kept ones; the tops, independent of the order, stay.
    Its witnesses are held for the next degree, whose M here is the star
    rows: it appends those at no top of its W, decoded, as its u_t, for the
    rows appended here come last in M and are independent (they change no
    witness), and a row i left out is a top of its W(c) (u_i lies in A(c) =
    W(c)), so of its W here.  It needs a complement only where A exceeds W,
    so at a zero held here, and eliminates M afresh only where no scan did."""
    field, ranks = stalks.m.field, stalks.ranks
    prev_rank, held = stalks.prev_ranks.get(element), stalks.prev_held.pop(element, None)
    size = sum(map(stalks.counts.__getitem__, stalks.up(element)))
    table, star = {}, ()  # where prev_rank == size, dim A = 0 and so W = 0
    if prev_rank != size:
        poset, found = stalks.m.poset, stalks.found
        above, bit = poset.up_bits(element), 1 << poset.index[element]
        star = sorted([i for k in stalks.up(element) for i in stalks.rows[k] if not found[i] & above])
        table, zeros = _eliminate(field, [*map(stalks.packed.__getitem__, star)], witness=True)
        for pos, _ in zeros:
            found[star[pos]] |= bit
        if zeros:  # only these are ever read (below)
            stalks.held[element] = star, zeros
    ranks[element] = len(table)
    if prev_rank is not None and size - prev_rank <= len(table):
        return 0
    tops = {top - len(star) for top in table}  # W's tops: the columns sit above the witness bits
    if held is None:
        stalk = stalks.at(stalks.cols, element)
        image_rows = [stalks.image[i] for i in stalk] if image_rows is None else image_rows
        skip = {pos for pos, j in enumerate(stalk) if j in tops}
        vectors = image_complement_rows(field, image_rows, skip, stalk, packed := [])
    else:
        vectors, packed = _witness_rows(field, held[1], held[0], tops)
    for row, bits in zip(vectors, packed):
        stalks.append(element, row, bits)
    ranks[element] += len(vectors)
    return len(vectors)


def resolution_step(
    eta_prev: LabeledMatrix, elements=None, seed: LabeledMatrix | None = None, _carry=None
) -> LabeledMatrix:
    """One degree of the resolution, and the checked MakeExact entry: start
    from a copy of the rows of `seed` (none by default) over the rows of
    eta_prev and run MakeExact over `elements` (default: the whole poset) in
    non-increasing order.  MakeExact at one element e is
    `resolution_step(eta_prev, [e], seed=eta_cur)`, a new matrix.

    Precondition: seed . eta_prev = 0, as MakeExact needs; the rows it adds
    keep the product zero.  Checked (`InputError`) unless `force_exact`
    calls, passing `_carry` (see `_Stalks`), which gets this step's parts."""
    poset = eta_prev.poset
    order = list(elements if elements is not None else poset.linear_extension)
    if unknown := [e for e in order if e not in poset.index]:
        raise InputError(f"element {unknown[0]!r} is not in the poset")
    if seed is not None and _carry is None and (
            seed.col_labels != eta_prev.row_labels or seed.validate()
            or not _composes_to_zero(seed, eta_prev)):
        raise InputError("the seed must be valid on eta_prev's rows and compose to zero with it")
    eta_next = LabeledMatrix(poset, eta_prev.field, eta_prev.row_labels)
    if seed is not None:
        eta_next.row_labels += seed.row_labels
        eta_next.rows += [dict(row) for row in seed.rows]
    stalks = _Stalks(eta_next, eta_prev.packed(), *(_carry or ()))
    stalks.ranks = dict.fromkeys(order, 0)  # kept where the stalk is empty: no call, no rows
    colbits, up_bits = poset.bits_of(set(eta_next.col_labels)), poset.up_bits
    for element in reversed(order):
        if up_bits(element) & colbits:
            _make_exact_inplace(eta_prev, eta_next, element, stalks)
    if _carry is not None:
        _carry[:] = stalks.carry()
    return eta_next


def force_exact(prev: LabeledMatrix, elements, seeds=(), _carry=None) -> list[LabeledMatrix]:
    """The exactness-forcing driver (module docstring): one `resolution_step`
    per degree, on that degree's seed matrix, if any, and the previous step's
    matrix; returns the matrices in degree order.  `_carry` is that of the
    MakeExact run over `elements` that built `prev`.

    Stops at the first matrix with no rows from the step that takes the last
    seed on; any later step would have no columns and add nothing."""
    carry = _carry if _carry is not None else []
    matrices = []
    for k in range(len(seeds) + prev.poset.height + 4):
        prev = resolution_step(prev, elements, seeds[k] if k < len(seeds) else None, carry)
        matrices.append(prev)
        if not prev.nrows and k + 1 >= len(seeds):
            return matrices
    raise AssertionError("exactness forcing did not terminate within the length bound")


def _resolve_from_hull(poset: Poset, field: PrimeField, labels, rows, ranks=None) -> InjectiveComplex:
    """The minimal resolution of a sheaf from its minimal injective hull, as
    `injective_hull` returns it.  Degree 0 is made exact against the
    inclusion's stalk rows, whose rank at each element `ranks` gives where
    known (`_Stalks.prev_ranks`), later degrees by `force_exact` from its carry."""
    eta0 = LabeledMatrix(poset, field, labels)
    stalks = _Stalks(eta0, prev_ranks=ranks)
    stalks.ranks = dict.fromkeys(poset.elements, 0)  # kept where the stalk is empty (`resolution_step`)
    for element in reversed(poset.linear_extension):
        if rows[element]:
            _make_exact_against_image(rows[element], stalks, element)
    matrices, carry = [eta0], stalks.carry()
    del stalks  # the carry list holds the only references (`_Stalks`)
    if eta0.nrows:
        matrices += force_exact(eta0, poset.linear_extension, _carry=carry)
    return InjectiveComplex(poset, field, matrices, 0).trimmed()


def minimal_resolution_constant(poset: Poset, field: PrimeField | None = None) -> InjectiveComplex:
    """Minimal injective resolution of the constant sheaf, whose hull is one
    [m] per maximal element m, the inclusion 1 on each: at an element, one
    unit row per maximal element above it, of rank 1 (there is at least one)."""
    maximal, field = poset.maximal_elements(), field or PrimeField(2)
    bits, one = poset.bits_of(maximal), packed_row(field, {0: 1})
    rows = {e: [one] * (poset.up_bits(e) & bits).bit_count() for e in poset.elements}
    return _resolve_from_hull(poset, field, maximal, rows, dict.fromkeys(rows, 1))


def minimal_resolution_sheaf(sheaf: Sheaf) -> InjectiveComplex:
    """Minimal injective resolution of a sheaf from its minimal injective hull."""
    return _resolve_from_hull(sheaf.poset, sheaf.field, *injective_hull(sheaf))


def order_complex_resolution(sheaf: Sheaf) -> InjectiveComplex:
    """The non-inductive resolution indexed by chains of the poset.

    The degree-d term has one summand [first element]^{F(last element)} per
    chain of length d+1, chains of one length ordered by their element
    indices.  Dropping any one element of a chain leaves a chain, so a chain
    has one face per position; dropping position i has the sign (-1)^i and,
    at the last position, composes with the sheaf restriction from the new
    last element to the old.  Chains with a zero stalk at their last element
    give no rows or columns.  Generally not minimal.

    A row takes the identity entries of the other faces at their offsets, in
    drop order, then the signed sparse pattern of F(x <= y) at the last
    face's, for the chain's last two elements x and y: within one chain
    length that pattern is built once per pair.
    """
    sheaf.validate().raise_if_failed()
    poset, field = sheaf.poset, sheaf.field
    dims, p, minus_one = sheaf.stalk_dim, field.p, field.neg(1)
    groups = _chains(poset)
    matrices = []
    for lowers, uppers in zip(groups, groups[1:] + [[]]):
        offset, col_labels = {}, []
        for chain in lowers:
            offset[chain] = len(col_labels)
            col_labels += [chain[0]] * dims[chain[-1]]
        body = (mat := LabeledMatrix(poset, field, col_labels)).rows  # read once: it is a property
        signs = [minus_one if drop % 2 else 1 for drop in range(len(lowers[0]) + 1)]
        patterns = {}  # (x, y) -> the last face's signed rows of F(x <= y)
        for upper in uppers:
            if not dims[upper[-1]]:
                continue
            if (pattern := patterns.get(pair := upper[-2:])) is None:
                pattern = patterns[pair] = [[(mj, signs[-1] * x % p) for mj, x in enumerate(entries) if x]
                                            for entries in sheaf.restriction_map(*pair)]
            faces = [(offset[upper[:drop] + upper[drop + 1:]], signs[drop]) for drop in range(len(upper) - 1)]
            base = offset[upper[:-1]]
            for mi, entries in enumerate(pattern):
                row = {at + mi: sign for at, sign in faces}
                for mj, v in entries:
                    row[base + mj] = v
                body.append(row)
            mat.row_labels += [upper[0]] * len(pattern)
        matrices.append(mat)
    return InjectiveComplex(poset, field, matrices, 0).trimmed()


def is_minimal(complex_: InjectiveComplex) -> bool:
    """True iff every same-label diagonal block of every matrix is zero."""
    return all(m.diagonal_entry() is None for m in complex_.matrices)


def cohomology_sheaf_dims(complex_: InjectiveComplex) -> dict[int, dict[str, int]]:
    """dim H^d at every element: stalk kernel minus previous stalk rank.
    Only nonzero entries are reported.  Its own ranks, not MakeExact's carried
    ones, one pass per degree, cleared (`InjectiveComplex.dims`)."""
    return complex_.dims(_star_ranks)


def _star_ranks(m: LabeledMatrix, tops: dict) -> dict[str, tuple[int, int]]:
    """{element: (stalk width, rank of the star rows)} at each element where
    m's stalk is nonzero: its columns and rows labeled above the element,
    cleared by the element's `tops` (`InjectiveComplex.dims`), held as
    tuples whose ints come from one list, `ints`, so an index held costs a
    slot, not an int (sets held at every element took several times the
    memory).  Only row buckets and column counts are built; rows are `m.packed()`."""
    poset, out = m.poset, {}
    rows, counts = _buckets(poset, m.row_labels), [*map(len, _buckets(poset, m.col_labels))]
    packed, ints = m.packed(), [*range(m.ncols)]
    colbits, up = poset.bits_of(set(m.col_labels)), poset.up_indices
    for e in poset.elements:
        cleared = set(tops.pop(e, ()))
        if poset.up_bits(e) & colbits:
            width = sum(map(counts.__getitem__, up(e)))
            pivots = _eliminate(m.field, [packed[i] for k in up(e) for i in rows[k]
                                          if i not in cleared])[0]
            out[e], tops[e] = (width, len(pivots)), tuple(map(ints.__getitem__, pivots))
    return out


def star_generators(simplicial: SimplicialComplex, face: str, degree: int, resolution=None) -> int:
    """m^j(St s): generators of the constant sheaf's minimal resolution over a star."""
    if resolution is None:
        resolution = minimal_resolution_constant(simplicial.face_poset)
    table = resolution.multiplicities()
    star = simplicial.face_poset.star(face)
    return sum(table.get(degree, {}).get(e, 0) for e in star)


def star_complexity(simplicial: SimplicialComplex, face: str, degree: int, resolution=None):
    """Generators over a star per star element: m^j(St s) / #St s."""
    from fractions import Fraction

    total = star_generators(simplicial, face, degree, resolution)
    return Fraction(total, len(simplicial.face_poset.star(face)))


def star_complexity_bound(simplicial: SimplicialComplex, face: str, degree: int) -> int:
    star = simplicial.face_poset.star(face)
    d = max(simplicial.dim(t) for t in star) - simplicial.dim(face)
    return math.comb(d, degree) if 0 <= degree <= d else 0
