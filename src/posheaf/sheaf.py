"""Sheaves of finite-dimensional GF(p) vector spaces on a finite poset.

Restriction matrices are stored only on cover relations; a general
restriction is composed along one canonical cover path (well defined by
functoriality, which `validate` checks).  The minimal injective hull follows
the maximal-vector construction and runs on the elimination kernel of
:mod:`posheaf.matrix`: the maximal vectors at an element are the complement
vectors `image_complement_rows` returns for the transposed stack of cover
restrictions out of it.  `injective_hull` returns the hull as its summand
labels and the inclusion's sparse stalk rows, all the resolution reads;
`Sheaf.injective` and `NaturalTransformation` build the hull as a sheaf and
the inclusion as a map, for checks.
"""

from __future__ import annotations

from .errors import InputError
from .field import PrimeField
from .matrix import ValidationReport, _sparse_rank, image_complement_rows
from .poset import Poset


def _matmul(field: PrimeField, a, b, ncols: int) -> list[list[int]]:
    """a @ b over GF(p) on dense rows shaped by `_stalk_map`.  `ncols` is b's
    column count, which b lacks when it has no rows (composing through a zero stalk)."""
    p = field.p
    out = [[0] * ncols for _ in a]
    for out_row, row in zip(out, a):
        for aik, brow in zip(row, b):
            if aik:
                for j, bkj in enumerate(brow):
                    if bkj:
                        out_row[j] = (out_row[j] + aik * bkj) % p
    return out


def _stalk_map(field: PrimeField, mat, nrows: int, ncols: int, what: str) -> list[list[int]]:
    """`mat` reduced mod p, or the zero matrix where it is None; any shape
    but nrows x ncols is refused, naming `what`."""
    if mat is None:
        return [[0] * ncols for _ in range(nrows)]
    mat = [[x % field.p for x in row] for row in mat]
    if len(mat) != nrows or any(len(row) != ncols for row in mat):
        raise InputError(f"{what} has shape {len(mat)}x{len(mat[0]) if mat else 0}, "
                         f"expected {nrows}x{ncols}")
    return mat


class Sheaf:
    def __init__(self, poset: Poset, field: PrimeField, stalk_dim: dict, restriction: dict):
        """`restriction` maps cover pairs (a, b) to dim F(b) x dim F(a) matrices.

        Missing covers default to zero matrices.
        """
        self.poset = poset
        self.field = field
        for e, dim in stalk_dim.items():
            if type(dim) is not int:  # bools too; JSON stalks come through `io._as_int`
                raise InputError(f"stalk dimension of {e!r} must be an integer, got {dim!r}")
            if e not in poset.index or dim < 0:
                raise InputError(f"stalk dimension of {e!r} is negative" if e in poset.index
                                 else f"stalk given for unknown element {e!r}")
        self.stalk_dim = {e: stalk_dim.get(e, 0) for e in poset.elements}
        self.restriction = {}
        self._covers_up: dict[str, list[str]] = {e: [] for e in poset.elements}
        for a, b in poset.covers:
            self._covers_up[a].append(b)
            self.restriction[(a, b)] = _stalk_map(field, restriction.get((a, b)), self.stalk_dim[b],
                                                  self.stalk_dim[a], f"restriction {a}<{b}")
        for key in restriction:
            if key not in self.restriction:
                raise InputError(f"restriction given for non-cover pair {key}")
        self._map_cache: dict[tuple[str, str], list[list[int]]] = {}
        self._report: ValidationReport | None = None

    @classmethod
    def constant(cls, poset: Poset, field: PrimeField) -> "Sheaf":
        return cls(
            poset,
            field,
            {e: 1 for e in poset.elements},
            {cov: [[1]] for cov in poset.covers},
        )

    @classmethod
    def injective(cls, poset: Poset, field: PrimeField, multiplicities: dict) -> "Sheaf":
        """The direct sum of indecomposables with the given label multiplicities."""
        summands = [lab for lab in poset.elements for _ in range(int(multiplicities.get(lab, 0)))]
        # the indices of the summands above each element, one stalk basis vector each
        above = {e: [i for i, lab in enumerate(summands) if poset.leq(e, lab)]
                 for e in poset.elements}
        restriction = {(a, b): [[int(i == j) for i in above[a]] for j in above[b]]
                       for a, b in poset.covers}
        return cls(poset, field, {e: len(above[e]) for e in poset.elements}, restriction)

    def restriction_map(self, a: str, b: str) -> list[list[int]]:
        """F(a <= b), composing cover restrictions along one canonical path:
        from each element, its first cover that is still below b.  Cached,
        so callers must not modify the result."""
        if not self.poset.leq(a, b):
            raise InputError(f"{a} is not below {b}")
        # walk up to b, or to an element whose map to b is cached, then
        # compose back down; a loop, since paths may outrun the recursion limit
        path = []
        while (a, b) not in self._map_cache:
            if a == b:
                n = self.stalk_dim[b]
                self._map_cache[(b, b)] = [[int(i == j) for j in range(n)] for i in range(n)]
                break
            step = next(t for t in self._covers_up[a] if self.poset.leq(t, b))
            path.append((a, step))
            a = step
        mat = self._map_cache[(a, b)]
        for s, t in reversed(path):
            mat = _matmul(self.field, mat, self.restriction[(s, t)], self.stalk_dim[s])
            self._map_cache[(s, b)] = mat
        return mat

    def validate(self) -> ValidationReport:
        """Functoriality: F(b <= c) F(a < b) = F(a <= c) for every cover a < b
        and every c >= b, both sides composed by `restriction_map`; by
        induction on path length, any two cover paths then compose alike.
        It holds by construction when b is a's first cover below c, the one
        `restriction_map(a, c)` runs through.  First failure wins.  The
        sheaf is immutable, so the first report is kept."""
        if self._report is None:
            self._report = self._functoriality()
        return self._report

    def _functoriality(self) -> ValidationReport:
        poset = self.poset
        for a, ups in self._covers_up.items():
            reached = 0  # the elements above a's covers before b
            for b in ups:
                for c in poset.elements_of(poset.up_bits(b) & reached):
                    composite = _matmul(self.field, self.restriction_map(b, c),
                                        self.restriction[(a, b)], self.stalk_dim[a])
                    if composite != self.restriction_map(a, c):
                        first = next(t for t in ups if poset.leq(t, c))
                        return ValidationReport([f"functoriality fails between {a} and {c}: "
                                                 f"paths via {first} and {b} disagree"])
                reached |= poset.up_bits(b)
        return ValidationReport([])

    def maximal_vectors(self, element: str) -> list[list[int]]:
        """Row basis of M_F(pi) = intersection of cover-restriction kernels.

        One vector per stalk coordinate whose column of the stacked cover
        restrictions depends on the earlier columns, in coordinate order:
        1 at that coordinate, nonzero elsewhere only at earlier independent
        coordinates, which fixes it (see `image_complement_rows`)."""
        if element not in self.poset.index:
            raise InputError(f"unknown element {element!r}")
        dim = self.stalk_dim[element]
        stacked = [row for b in self._covers_up[element] for row in self.restriction[(element, b)]]
        columns = [{r: row[i] for r, row in enumerate(stacked)} for i in range(dim)]
        return [[u.get(i, 0) for i in range(dim)]
                for u in image_complement_rows(self.field, columns)]


class NaturalTransformation:
    """A componentwise linear map between two sheaves on the same poset."""

    def __init__(self, source: Sheaf, target: Sheaf, components: dict):
        if source.poset != target.poset:
            raise InputError("source and target live on different posets")
        if source.field != target.field:
            raise InputError("source and target are sheaves over different fields")
        self.source = source
        self.target = target
        self.components = {e: _stalk_map(source.field, components.get(e), target.stalk_dim[e],
                                         source.stalk_dim[e], f"component at {e!r}")
                           for e in source.poset.elements}
        for key in components:
            if key not in self.components:
                raise InputError(f"component given for unknown element {key!r}")

    def validate(self) -> ValidationReport:
        issues = []
        field = self.source.field
        for a, b in self.source.poset.covers:
            ncols = self.source.stalk_dim[a]
            left = _matmul(field, self.target.restriction[(a, b)], self.components[a], ncols)
            right = _matmul(field, self.components[b], self.source.restriction[(a, b)], ncols)
            if left != right:
                issues.append(f"naturality square fails on {a} < {b}")
        return ValidationReport(issues)

    def is_injective(self) -> bool:
        field = self.source.field
        return all(
            _sparse_rank(field, [dict(enumerate(row)) for row in self.components[e]])
            == self.source.stalk_dim[e]
            for e in self.source.poset.elements
        )


def constant_sheaf(poset: Poset, field: PrimeField | None = None) -> Sheaf:
    return Sheaf.constant(poset, field or PrimeField(2))


def injective_hull(sheaf: Sheaf) -> tuple[list[str], dict[str, list[dict[int, int]]]]:
    """Minimal injective hull F -> I0 = sum over pi of [pi]^{dim M_F(pi)}.

    Returns `(labels, rows)`: the hull's summand labels in element order and,
    at each element e, the inclusion's stalk map at e as one sparse
    {coordinate: value} row per summand above e, in label order.
    """
    sheaf.validate().raise_if_failed()
    poset = sheaf.poset
    # Each maximal vector is 1 at its own (last nonzero) coordinate, where the
    # others vanish.  Completing the basis with the standard vectors at the
    # remaining coordinates, the coordinate along a maximal vector is therefore
    # the entry at its own coordinate, so projecting onto M_F(tau) reads rows.
    own = {
        e: [max(i for i, v in enumerate(vec) if v) for vec in sheaf.maximal_vectors(e)]
        for e in poset.elements
    }
    labels = [e for e in poset.elements for _ in own[e]]
    hull_bits = poset.bits_of(labels)
    rows = {}
    for sigma in poset.elements:
        rows[sigma] = []
        for tau in poset.elements_of(poset.up_bits(sigma) & hull_bits):
            restriction = sheaf.restriction_map(sigma, tau)
            rows[sigma] += [{j: v for j, v in enumerate(restriction[i]) if v} for i in own[tau]]
    return labels, rows


def hom_dim_injective(i_decomposition: dict, j_decomposition: dict, poset: Poset) -> int:
    """dim Hom(I, J) for injectives given as label -> multiplicity tables."""
    return sum(p_mult * s_mult for pi, p_mult in i_decomposition.items()
               for sigma, s_mult in j_decomposition.items() if poset.leq(sigma, pi))
