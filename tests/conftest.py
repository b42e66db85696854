"""Shared fixtures: the worked examples, random object generators and the
independent oracles used to cross-check resolutions."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from posheaf.field import PrimeField
from posheaf.matrix import InjectiveComplex, LabeledMatrix, _sparse_rank
from posheaf.poset import (
    MonotoneMap,
    Poset,
    SimplicialComplex,
    skeleton_of_simplex,
    star_subposet,
)
from posheaf.resolution import _Stalks, minimal_resolution_constant
from posheaf.sheaf import NaturalTransformation, Sheaf, injective_hull

from dense_oracle import nullspace, zeros


GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import ACCEPTANCE_RESULTS
    except ImportError:
        return
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


# -- fixed complexes -----------------------------------------------------------


@pytest.fixture(scope="session")
def tetra():
    """2-skeleton of the tetrahedron (a triangulated 2-sphere)."""
    return skeleton_of_simplex(3, 2)


@pytest.fixture(scope="session")
def tetra_resolution(tetra):
    return minimal_resolution_constant(tetra.face_poset)


@pytest.fixture(scope="session")
def simplex_star():
    """Star of vertex 1 in the 3-skeleton of the 4-simplex with two extra
    edges at vertex 1, relabeled by dropping the vertex."""
    facets = ["".join(c) for c in combinations("12345", 4)] + ["16", "17"]
    big = SimplicialComplex.from_facets(facets)
    return star_subposet(big, "1")


@pytest.fixture(scope="session")
def sphere_wedge():
    """Triangulated S^2 v S^1 (sigma), the sphere (lambda), the disk (gamma),
    and the three simplicial maps between them."""
    sigma = SimplicialComplex.from_facets(
        ["013", "014", "034", "123", "124", "234", "45", "46", "56"]
    )
    lam = SimplicialComplex.from_facets(["013", "014", "034", "123", "124", "234"])
    gamma = SimplicialComplex.from_facets(
        ["013", "015", "034", "046", "056", "123", "124", "145", "234"]
    )
    g = MonotoneMap.simplicial(sigma, lam, {"5": "4", "6": "4"})
    h = MonotoneMap.simplicial(sigma, lam, {"5": "1", "6": "3"})
    ell = MonotoneMap.simplicial(gamma, lam, {"5": "4", "6": "4"})
    return {"sigma": sigma, "lambda": lam, "gamma": gamma, "g": g, "h": h, "l": ell}


@pytest.fixture(scope="session")
def pushforward_complexes(sphere_wedge):
    from posheaf.derived import pushforward

    res_sigma = minimal_resolution_constant(sphere_wedge["sigma"].face_poset)
    res_gamma = minimal_resolution_constant(sphere_wedge["gamma"].face_poset)
    return {
        "sigma": res_sigma,
        "gamma": res_gamma,
        "Rg": pushforward(sphere_wedge["g"], res_sigma),
        "Rh": pushforward(sphere_wedge["h"], res_sigma),
        "Rl": pushforward(sphere_wedge["l"], res_gamma),
    }


MORSE_LEVELS = {
    "2": "A",
    "4": "B", "24": "B",
    "3": "C", "23": "C",
    "1": "D", "12": "D",
    "0": "E", "03": "E",
    "34": "F", "234": "F",
    "04": "G", "034": "G",
    "14": "H", "124": "H",
    "01": "I", "014": "I",
    "13": "J", "123": "J",
    "013": "K",
}
MORSE_ORDER = list("ABCDEFGHIJK")


@pytest.fixture(scope="session")
def sphere_morse(sphere_wedge):
    from posheaf.morse import MorseFunction

    return MorseFunction.from_levels(
        sphere_wedge["lambda"].face_poset, MORSE_LEVELS, MORSE_ORDER
    )


# -- zero stalks inside cover paths ---------------------------------------------


def zero_stalk_chain() -> Sheaf:
    """x < y < z with stalks k, 0, k and no maps: the restriction from x to z
    composes through the zero stalk at y."""
    poset = Poset.from_covers(["x", "y", "z"], [("x", "y"), ("y", "z")])
    return Sheaf(poset, GF2, {"x": 1, "y": 0, "z": 1}, {})


def zero_stalk_diamond() -> Sheaf:
    """a < b, c < d with stalks k, 0, k, k over GF(3), a < c the identity and
    c < d zero: both paths from a to d compose to zero, one through b."""
    poset = Poset.from_covers(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )
    return Sheaf(
        poset, GF3, {"a": 1, "b": 0, "c": 1, "d": 1}, {("a", "c"): [[1]], ("c", "d"): [[0]]}
    )


def with_top(poset: Poset) -> tuple[Poset, str]:
    """The poset with one extra element above everything, and that element."""
    top = "__top__"
    while top in poset.index:
        top += "_"
    covers = list(poset.covers) + [(m, top) for m in poset.maximal_elements()]
    return Poset.from_covers(poset.elements + [top], covers), top


# -- random generators -----------------------------------------------------------


def random_poset(rng: random.Random, max_elements: int = 8) -> Poset:
    n = rng.randint(1, max_elements)
    names = [f"e{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                pairs.append((names[i], names[j]))
    return Poset.from_leq_pairs(names, pairs)


def random_up_set(rng: random.Random, poset: Poset) -> set[str]:
    generators = rng.sample(poset.elements, rng.randint(1, min(2, len(poset))))
    return poset.star_of_set(generators)


def extension_by_zero_sheaf(poset: Poset, field: PrimeField, up_sets) -> Sheaf:
    """Direct sum of constant sheaves on locally closed sets (open sets, say),
    extended by zero."""
    dims = {e: sum(1 for u in up_sets if e in u) for e in poset.elements}
    restriction = {}
    for a, b in poset.covers:
        mat = zeros(dims[b], dims[a])
        row = 0
        col_of = {}
        c = 0
        for k, u in enumerate(up_sets):
            if a in u:
                col_of[k] = c
                c += 1
        for k, u in enumerate(up_sets):
            if b in u:
                if a in u:
                    mat[row][col_of[k]] = 1
                row += 1
        restriction[(a, b)] = mat
    return Sheaf(poset, field, dims, restriction)


def random_labeled_matrix(
    rng: random.Random, poset: Poset, field: PrimeField, max_cols: int = 3, max_rows: int = 3
) -> LabeledMatrix:
    cols = [rng.choice(poset.elements) for _ in range(rng.randint(1, max_cols))]
    rows = [rng.choice(poset.elements) for _ in range(rng.randint(0, max_rows))]
    m = LabeledMatrix(poset, field, cols)
    for lab in rows:
        entries = {}
        for j, col_lab in enumerate(cols):
            if poset.leq(lab, col_lab) and rng.random() < 0.7:
                entries[j] = rng.randint(1, field.p - 1)
        m.add_row(lab, entries)
    return m


def stalk_cols(matrix: LabeledMatrix, e: str) -> list[int]:
    """Indices of the columns labeled above `e`, ascending, found by the
    library's stalk index `_Stalks`."""
    stalks = _Stalks(matrix)
    return stalks.at(stalks.cols, e)


def stalk_matrix(matrix: LabeledMatrix, e: str) -> list[list[int]]:
    """Dense stalk map at `e`: the rows and columns labeled above it, found
    by `_Stalks`."""
    stalks = _Stalks(matrix)
    pos = {j: k for k, j in enumerate(stalks.at(stalks.cols, e))}
    out = []
    for i in stalks.at(stalks.rows, e):
        out.append([0] * len(pos))
        for j, v in matrix.rows[i].items():
            out[-1][pos[j]] = v
    return out


def kernel_sheaf(matrix: LabeledMatrix) -> Sheaf:
    """The kernel of a map of injective sheaves, as an explicit sheaf.

    Used as a generator of sheaves with genuinely random restriction maps;
    functoriality is inherited from the ambient injective sheaf.
    """
    poset, field = matrix.poset, matrix.field
    bases = {}
    for e in poset.elements:
        stalk = stalk_matrix(matrix, e)
        ncols = len(stalk_cols(matrix, e))
        bases[e] = nullspace(field, stalk, ncols=ncols)
    dims = {e: len(bases[e]) for e in poset.elements}
    restriction = {}
    for a, b in poset.covers:
        cols_a = stalk_cols(matrix, a)
        cols_b = set(stalk_cols(matrix, b))
        proj = [k for k, j in enumerate(cols_a) if j in cols_b]
        mat = zeros(dims[b], dims[a])
        for c, vec in enumerate(bases[a]):
            image = [vec[k] for k in proj]
            coeffs = _solve_rows(field, bases[b], image)
            for r, v in enumerate(coeffs):
                mat[r][c] = v
        restriction[(a, b)] = mat
    return Sheaf(poset, field, dims, restriction)


def incidence_kernel_sheaf(complex_: SimplicialComplex, field: PrimeField, d: int) -> Sheaf:
    """A fixed, non-random kernel sheaf: the kernel of the map of injectives
    whose columns are the d- and (d-1)-faces and whose rows, on the (d-1)-
    and (d-2)-faces, put (i + 2j) mod p on every allowed entry."""
    poset = complex_.face_poset
    cols = complex_.simplices_of_dim(d) + complex_.simplices_of_dim(d - 1)
    m = LabeledMatrix(poset, field, cols)
    for i, e in enumerate(complex_.simplices_of_dim(d - 1) + complex_.simplices_of_dim(d - 2)):
        m.add_row(e, {j: (i + 2 * j) % field.p for j, t in enumerate(cols) if poset.leq(e, t)})
    return kernel_sheaf(m)


def _solve_rows(field, basis_rows, target):
    from dense_oracle import solve_in_span

    if not basis_rows:
        assert all(x % field.p == 0 for x in target)
        return []
    coeffs = solve_in_span(field, basis_rows, target)
    assert coeffs is not None, "kernel restriction fell outside the kernel"
    return coeffs


def random_sheaf(rng: random.Random, poset: Poset, field: PrimeField, style=None) -> Sheaf:
    """Random sheaf with small stalks: an extension-by-zero sum or the kernel
    of a random map of injectives (capped at two generators, so stalk dims
    stay at most 2)."""
    style = style or rng.choice(("open", "kernel", "constant"))
    if style == "constant":
        return Sheaf.constant(poset, field)
    if style == "open":
        ups = [random_up_set(rng, poset) for _ in range(rng.randint(1, 2))]
        return extension_by_zero_sheaf(poset, field, ups)
    matrix = random_labeled_matrix(rng, poset, field, max_cols=2, max_rows=3)
    return kernel_sheaf(matrix)


def hull_inclusion(sheaf: Sheaf) -> tuple[NaturalTransformation, list[str]]:
    """The minimal injective hull materialized: the inclusion into
    `Sheaf.injective` on the hull's labels, its components the dense form of
    `injective_hull`'s stalk rows, and the labels."""
    labels, rows = injective_hull(sheaf)
    hull = Sheaf.injective(sheaf.poset, sheaf.field, Counter(labels))
    components = {e: [[row.get(j, 0) for j in range(sheaf.stalk_dim[e])] for row in rows[e]]
                  for e in sheaf.poset.elements}
    return NaturalTransformation(sheaf, hull, components), labels


def random_monotone_map(rng: random.Random, source: Poset, target: Poset):
    """Random order preserving map, or None if the random walk gets stuck."""
    assignment = {}
    for e in source.linear_extension:
        lower = [assignment[a] for a, b in source.covers if b == e]
        candidates = [
            t
            for t in target.elements
            if all(target.leq(lo, t) for lo in lower)
        ]
        if not candidates:
            return None
        assignment[e] = rng.choice(candidates)
    return MonotoneMap(source, target, assignment)


# -- oracles ---------------------------------------------------------------------


def naturality_system_nullity(poset: Poset, field: PrimeField, i_mult: dict, j_mult: dict) -> int:
    """Brute-force dim Hom(I, J): unknowns are all stalk matrices of a
    transformation between the materialized injective sheaves, constrained by
    every naturality square."""
    I = Sheaf.injective(poset, field, i_mult)
    J = Sheaf.injective(poset, field, j_mult)
    var_index = {}
    for e in poset.elements:
        for r in range(J.stalk_dim[e]):
            for c in range(I.stalk_dim[e]):
                var_index[(e, r, c)] = len(var_index)
    rows = []
    for a, b in poset.covers:
        ia = I.restriction[(a, b)]
        jb = J.restriction[(a, b)]
        for r in range(J.stalk_dim[b]):
            for c in range(I.stalk_dim[a]):
                coeffs = {}
                # (phi_b @ I_ab)[r, c] - (J_ab @ phi_a)[r, c] = 0
                for k in range(I.stalk_dim[b]):
                    v = ia[k][c]
                    if v:
                        var = var_index[(b, r, k)]
                        coeffs[var] = (coeffs.get(var, 0) + v) % field.p
                for k in range(J.stalk_dim[a]):
                    v = jb[r][k]
                    if v:
                        var = var_index[(a, k, c)]
                        coeffs[var] = (coeffs.get(var, 0) - v) % field.p
                coeffs = {k: v for k, v in coeffs.items() if v}
                if coeffs:
                    rows.append(coeffs)
    return len(var_index) - _sparse_rank(field, rows)


def simplicial_cohomology(complex_: SimplicialComplex, p: int = 2) -> dict[int, int]:
    """Betti-style dimensions via coboundary ranks on the whole complex."""
    from posheaf.morse import compact_support_cohomology

    return compact_support_cohomology(
        complex_, complex_.face_poset.elements, p
    )


def check_resolution_health(resolution: InjectiveComplex, poset: Poset):
    """Length bound and the maximal-vector minimality condition, asserted on
    every resolution the suite produces."""
    nonzero_terms = sum(1 for d in resolution.degrees if resolution.term(d))
    assert nonzero_terms <= poset.height + 1, "length bound violated"
    from posheaf.resolution import is_minimal

    assert is_minimal(resolution), "same-label diagonal block is nonzero"
    assert resolution.validate().ok


def stalkwise_exactness_against_sheaf(resolution: InjectiveComplex, sheaf: Sheaf):
    """H^0 must match the sheaf's stalk dimensions; higher cohomology vanishes."""
    from posheaf.resolution import cohomology_sheaf_dims

    dims = cohomology_sheaf_dims(resolution)
    expected0 = {e: d for e, d in sheaf.stalk_dim.items() if d}
    assert dims.get(0, {}) == expected0
    for d, per_element in dims.items():
        if d != 0:
            assert not per_element, f"nonzero H^{d} at {per_element}"
