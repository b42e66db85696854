"""Differential property tests on random inputs: peel against the inductive
minimal resolution, `Poset.from_covers` against `Poset.from_leq_pairs`,
`Poset.restrict` and covers against their definitions, the cylinder
pullback against the submatrix restriction on open sets, the GF(2) bitset
kernel against the dict kernel, GF(3) plane pairs against the reduced
dicts they pack, ranks and top pivots against the dense echelon form, the
kernel resumed from its pivot table against one call and its pivots above
a column cut against the dense rank of that block, the rows the kernel
reports as reducing to zero against dense ranks, the
constant sheaf's multiplicities against the compact-support oracle, the
derived Hom into shifts against the hypercohomology, the adjunctions
f^* -| Rf_* and i_! -| i^! as equal derived Hom dimensions on both sides,
the maximal vectors against a dense nullspace, pullback against its
proper-functor expression and the pullback of a composite against the
composite of pullbacks, the invariants of peel and of double dualization,
peel against the mirrored version it replaced (`peel_oracle`), on
order-complex resolutions and on cones of the identity, the
order-complex resolution against its per-chain build
(`order_complex_oracle`), MakeExact
against the row-basis screen it replaced (`screen_oracle`) and, cleared,
against its uncleared star scan (`star_scan_oracle`), the Morse
tables and fiber dims against the per-level restrictions they replaced
(`morse_oracle`) and, cleared, against the uncleared elimination,
max-vertex Morse tables over GF(3) and GF(5) against the cohomology of full
subcomplexes, the star-row ranks, packed rows and
buckets MakeExact carries between degrees against dense ranks and fresh
state, the down-sets, heights and linear extension against their
definitions, the chain enumeration behind the order complex against every
totally ordered subset, the star built as the cone over the link against
the restricted star, `Sheaf.validate` against agreement along every
cover path, the hypercohomology, the stalkwise cohomology and Ri_Z^! of
non-minimal complexes against dense ranks of their blocks, and the cleared
stalkwise cohomology and hypercohomology against the uncleared ranks they
replaced (`rank_oracle`).

Examples are derandomized and few, so the suite stays within seconds and
gives the same verdict on every run.
"""

import random
import re
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from posheaf.derived import (
    ComplexMorphism,
    dualize,
    euler_characteristic,
    hom_space_dims,
    hypercohomology,
    mapping_cone,
    peel,
    proper_pullback,
    proper_pushforward,
    pullback,
    pullback_via_proper_check,
    pushforward,
    same_derived_object,
)
from posheaf.errors import InputError
from posheaf.field import PrimeField
from posheaf.io import complex_to_json, dumps
from posheaf.matrix import LabeledMatrix, _eliminate, _sparse_rank, image_complement_rows, packed_row
from posheaf.morse import (MorseAnalysis, MorseFunction, betti_table, compact_support_cohomology,
                          multiplicity_oracle, restrict_star)
from posheaf.poset import (LocallyClosedSet, MonotoneMap, Poset, SimplicialComplex, _chains,
                           mapping_cylinder, order_complex, skeleton_of_simplex, star_subposet)
from posheaf import cli, morse, resolution
from posheaf.resolution import (
    cohomology_sheaf_dims,
    is_minimal,
    minimal_resolution_constant,
    minimal_resolution_sheaf,
    order_complex_resolution,
    resolution_step,
)
from posheaf.sheaf import Sheaf

from conftest import (
    extension_by_zero_sheaf,
    incidence_kernel_sheaf,
    kernel_sheaf,
    random_labeled_matrix,
    random_monotone_map,
    random_poset,
    random_sheaf,
    stalk_cols,
    star_rows,
    with_top,
    zero_stalk_chain,
    zero_stalk_diamond,
)
import morse_oracle
import order_complex_oracle
import peel_oracle
import rank_oracle
import screen_oracle
import star_scan_oracle
from dense_oracle import identity, nullspace, rank, rref, solve_in_span

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def dags(draw, max_elements=9):
    """(elements, edges): an acyclic relation, edges going up a hidden order."""
    n = draw(st.integers(1, max_elements))
    elements = [f"e{i}" for i in range(n)]
    rank = draw(st.permutations(elements))
    pairs = [(a, b) for k, a in enumerate(rank) for b in rank[k + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return elements, edges


@st.composite
def functorial_sheaves(draw, max_generators=2):
    """A sheaf over GF(2), GF(3) or GF(5) on a random poset: constant, a sum
    of constant sheaves on open or on locally closed sets, or the kernel of
    a random map of injectives (functorial by construction).  Up to
    `max_generators` sets or kernel generators bound the stalk dimensions.
    The sums over locally closed sets, and some kernels, have zero stalks
    between nonzero ones."""
    elements, edges = draw(dags(max_elements=6))
    poset = Poset.from_leq_pairs(elements, edges)
    field = PrimeField(draw(st.sampled_from([2, 3, 5])))
    style = draw(st.sampled_from(["constant", "open", "kernel", "locally closed"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if style == "kernel":
        matrix = random_labeled_matrix(rng, poset, field, max_cols=max_generators, max_rows=3)
        return kernel_sheaf(matrix)
    if style == "locally closed":
        # constant sheaves on down-sets and up-sets that all miss one element,
        # put inside a chain: its stalk is zero, those below and above it
        # need not be
        order = poset.linear_extension
        hole = order[len(order) // 2]
        poset = Poset.from_leq_pairs(elements, edges + [(order[0], hole), (hole, order[-1])])
        pieces = [poset.closure([e]) if poset.leq(e, hole) else poset.star(e)
                  for e in rng.choices(elements, k=max_generators) if e != hole]
        return extension_by_zero_sheaf(poset, field, pieces)
    return random_sheaf(rng, poset, field, style)


@PROPERTY_SETTINGS
@given(sheaf=functorial_sheaves(), data=st.data())
def test_peel_reaches_the_minimal_resolution(sheaf, data):
    raw = order_complex_resolution(sheaf)
    order = data.draw(st.permutations(range(len(raw.matrices))), label="scan order")
    peeled = peel(raw, _scan_order=order)
    assert peeled.validate().ok
    assert is_minimal(peeled)
    assert same_derived_object(peeled, minimal_resolution_sheaf(sheaf))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_peel_matches_the_mirrored_oracle(p, seed, data):
    """Peel without the mirrored neighbour operations gives the JSON, entry
    order included, of the peel that mirrored them and checked at every
    pivot that the split-off neighbour row and column vanish: on an
    order-complex resolution and on the cones of the identity on it and on
    the minimal resolution, which are not order-complex and peel to zero."""
    rng = random.Random(seed)
    sheaf = random_sheaf(rng, random_poset(rng, 8), PrimeField(p))
    raw = order_complex_resolution(sheaf)
    cones = [mapping_cone(ComplexMorphism.identity(x))
             for x in (raw, minimal_resolution_sheaf(sheaf))]
    for complex_ in [raw, *cones]:
        order = data.draw(st.permutations(range(len(complex_.matrices))), label="scan order")
        expected = dumps(complex_to_json(peel_oracle.peel(complex_, _scan_order=order)))
        assert dumps(complex_to_json(peel(complex_, _scan_order=order))) == expected
    for cone in cones:
        assert not peel(cone).matrices


@settings(max_examples=100, deadline=None, derandomize=True)
@example(sheaf=zero_stalk_chain())
@example(sheaf=zero_stalk_diamond())
@given(sheaf=functorial_sheaves(max_generators=5))
def test_hull_matches_the_dense_nullspace(sheaf):
    """The maximal vectors are the dense RREF nullspace basis of the stacked
    cover restrictions, and the resolution built on the hull agrees with
    the peeled order-complex resolution."""
    poset = sheaf.poset
    for e in poset.elements:
        stacked = [row for a, b in poset.covers if a == e for row in sheaf.restriction[(a, b)]]
        assert sheaf.maximal_vectors(e) == nullspace(sheaf.field, stacked, sheaf.stalk_dim[e])
    assert same_derived_object(minimal_resolution_sheaf(sheaf),
                               peel(order_complex_resolution(sheaf)))


@PROPERTY_SETTINGS
@given(sheaf=functorial_sheaves(), source=dags(max_elements=5), data=st.data())
def test_pullback_agrees_with_the_proper_route(sheaf, source, data):
    """Rf^* C = Rp^! Rl_! C, shifted, for a random monotone map f into the
    sheaf's poset; values are drawn freely, so f is often not injective."""
    f = _draw_monotone_map(data, source, sheaf.poset)
    complex_ = minimal_resolution_sheaf(sheaf)
    assume(complex_.matrices)
    assert pullback_via_proper_check(f, complex_)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sheaf=functorial_sheaves(), sources=st.tuples(dags(max_elements=5), dags(max_elements=5)),
       data=st.data())
def test_pullback_of_a_composite_is_the_composite_of_pullbacks(sheaf, sources, data):
    """(g∘f)^* C = f^* g^* C for monotone maps A -f-> B -g-> X, X the
    sheaf's poset.  Each map is the inclusion of a closed set, so that some
    draws are chains Z1 ⊂ Z2 ⊂ X of closed inclusions, or a map drawn freely
    among those that are not injective."""
    complex_ = minimal_resolution_sheaf(sheaf)
    assume(complex_.matrices)
    maps, target = [], sheaf.poset
    for source in sources:
        if data.draw(st.booleans(), label="closed inclusion"):
            tops = data.draw(st.lists(st.sampled_from(target.elements), min_size=1, max_size=2),
                             label="closed set")
            m = MonotoneMap.inclusion(target.restrict(target.closure(tops)), target)
        else:
            m = _draw_monotone_map(data, source, target)
            assume(len(set(m.assignment.values())) < len(m.assignment))
        maps.append(m)
        target = m.source
    g, f = maps
    composite = MonotoneMap(f.source, g.target, {e: g(f(e)) for e in f.source.elements})
    assert same_derived_object(pullback(composite, complex_), pullback(f, pullback(g, complex_)))


def _draw_monotone_map(data, source, target):
    """A monotone map from the poset on the DAG `source` into `target`, each
    value drawn among those above the values of the element's lower covers."""
    poset = Poset.from_leq_pairs(*source)
    assignment = {}
    for e in poset.linear_extension:
        below = [assignment[a] for a, b in poset.covers if b == e]
        allowed = [t for t in target.elements if all(target.leq(lo, t) for lo in below)]
        assume(allowed)
        assignment[e] = data.draw(st.sampled_from(allowed), label=e)
    return MonotoneMap(poset, target, assignment)


@PROPERTY_SETTINGS
@given(sheaf=functorial_sheaves())
def test_peel_and_double_dual_invariants(sheaf):
    """Peel is idempotent and keeps hypercohomology and the Euler
    characteristic; dualizing twice gives the complex back."""
    raw = order_complex_resolution(sheaf)
    peeled = peel(raw)
    assert peel(peeled) == peeled
    assert hypercohomology(peeled) == hypercohomology(raw)
    assert euler_characteristic(peeled) == euler_characteristic(raw)
    for complex_ in (raw, peeled):
        assert dualize(dualize(complex_)) == complex_


@PROPERTY_SETTINGS
@given(dag=dags())
def test_from_covers_closes_like_from_leq_pairs(dag):
    elements, edges = dag
    assert Poset.from_covers(elements, edges)._up == Poset.from_leq_pairs(elements, edges)._up


def _naive_down_sets_and_heights(poset):
    """Down-sets by transposing every up-set bit, and heights as the longest
    chain strictly below, element by element in order of down-set size."""
    n = len(poset.elements)
    down = [sum(1 << i for i in range(n) if (poset._up[i] >> j) & 1) for j in range(n)]
    below = [0] * n
    for j in sorted(range(n), key=lambda i: bin(down[i]).count("1")):
        below[j] = max((below[i] + 1 for i in range(n) if i != j and (down[j] >> i) & 1), default=0)
    order = sorted(range(n), key=lambda i: (below[i], i))
    return down, below, [poset.elements[i] for i in order]


@PROPERTY_SETTINGS
@given(dag=dags(), data=st.data())
def test_down_sets_heights_and_linear_extension_match_the_naive_route(dag, data):
    elements, edges = dag
    poset = data.draw(st.sampled_from([Poset.from_covers, Poset.from_leq_pairs]))(elements, edges)
    for p in (poset, poset.opposite(), with_top(poset)[0]):
        down, below, linear_extension = _naive_down_sets_and_heights(p)
        assert p._down == down
        assert p._height_below == below
        assert p.height == max(below)
        assert p.linear_extension == linear_extension


def _naive_covers(poset):
    """(a, b) with a < b and nothing strictly between, in element order."""
    strictly = [(a, b) for a in poset.elements for b in poset.elements if a != b and poset.leq(a, b)]
    return [
        (a, b) for a, b in strictly
        if not any(poset.leq(a, c) and poset.leq(c, b) for c in poset.elements if c not in (a, b))
    ]


@PROPERTY_SETTINGS
@given(dag=dags(), data=st.data())
def test_restrict_is_the_induced_order(dag, data):
    elements, edges = dag
    poset = Poset.from_leq_pairs(elements, edges)
    members = data.draw(st.sets(st.sampled_from(elements)), label="members")
    sub = poset.restrict(members)
    assert sub.elements == [e for e in elements if e in members]
    assert all(sub.leq(a, b) == poset.leq(a, b) for a in sub.elements for b in sub.elements)
    assert poset.covers == _naive_covers(poset)
    assert sub.covers == _naive_covers(sub)
    assert sub.validate() == []


def _same_poset(a, b):
    assert a.elements == b.elements
    assert a._up == b._up
    assert a.covers == b.covers
    assert a.linear_extension == b.linear_extension


@PROPERTY_SETTINGS
@given(source=dags(max_elements=6), target=dags(max_elements=6), data=st.data())
def test_cylinder_is_the_closure_of_its_generating_pairs(source, target, data):
    """The up-set formula gives the order `from_leq_pairs` closes from the
    covers of both sides and s' < f(s).  Both sides name their elements
    e0, e1, ..., so source copies collide with target names and are
    renamed; values are drawn freely, so f is often not injective."""
    f = _draw_monotone_map(data, source, Poset.from_leq_pairs(*target))
    cyl, inc_src, inc_tgt = mapping_cylinder(f)
    pairs = [(inc_src(a), inc_src(b)) for a, b in f.source.covers]
    pairs += f.target.covers + [(inc_src(e), f(e)) for e in f.source.elements]
    _same_poset(cyl, Poset.from_leq_pairs(cyl.elements, pairs))
    assert cyl.elements == [inc_src(e) for e in f.source.elements] + f.target.elements
    assert inc_src.assignment == {
        e: e + "'" if e in f.target else e for e in f.source.elements}
    assert inc_tgt.assignment == {e: e for e in f.target.elements}


@PROPERTY_SETTINGS
@given(dag=dags(), data=st.data())
def test_restricted_poset_and_convexity_follow_the_definitions(dag, data):
    """`is_locally_closed` is the pairwise betweenness test, and on convex
    sets (the empty set and the whole poset among them) `restricted_poset`,
    built from the ambient covers inside, is the closure of every comparable
    pair of members."""
    elements, edges = dag
    poset = Poset.from_leq_pairs(elements, edges)
    members = data.draw(st.sampled_from([set(), set(elements), None]), label="special set")
    if members is None:
        members = data.draw(st.sets(st.sampled_from(elements)), label="members")
    convex = all(c in members for a in members for b in members for c in elements
                 if poset.leq(a, c) and poset.leq(c, b))
    assert poset.is_locally_closed(members) == convex
    if convex:
        inside = [e for e in elements if e in members]
        pairs = [(a, b) for a in inside for b in inside if a != b and poset.leq(a, b)]
        _same_poset(LocallyClosedSet(poset, members).restricted_poset(),
                    Poset.from_leq_pairs(inside, pairs))


@PROPERTY_SETTINGS
@given(dag=dags())
def test_chains_are_the_totally_ordered_subsets(dag):
    elements, edges = dag
    poset = Poset.from_leq_pairs(elements, edges)
    expected = []
    for k in range(1, len(elements) + 1):
        chains = [
            tuple(sorted(sub, key=lambda e: poset.down_bits(e).bit_count()))
            for sub in combinations(elements, k)
            if all(poset.leq(a, b) or poset.leq(b, a) for a, b in combinations(sub, 2))
        ]
        if chains:
            expected.append(sorted(chains, key=lambda ch: [poset.index[e] for e in ch]))
    assert _chains(poset) == expected
    complex_, terminal = order_complex(poset)
    assert set(complex_.faces) == {frozenset(ch) for group in expected for ch in group}
    for face in complex_.faces:
        top = terminal(complex_.name_of[face])
        assert all(poset.leq(e, top) for e in face)


@PROPERTY_SETTINGS
@given(dag=dags(), data=st.data())
def test_from_covers_rejects_a_back_edge(dag, data):
    elements, edges = dag
    poset = Poset.from_leq_pairs(elements, edges)
    strict = [(a, b) for a in elements for b in elements if a != b and poset.leq(a, b)]
    assume(strict)
    low, high = data.draw(st.sampled_from(strict), label="reversed pair")
    position = data.draw(st.integers(0, len(edges)), label="insert at")
    with pytest.raises(InputError) as caught:
        Poset.from_covers(elements, edges[:position] + [(high, low)] + edges[position:])
    named = re.fullmatch(r"relation is not antisymmetric: (\S+) and (\S+)", str(caught.value))
    assert named and named[1] != named[2]
    # every cycle runs through the back edge, inside the interval [low, high]
    for e in named.groups():
        assert poset.leq(low, e) and poset.leq(e, high)


HEXAGON = ["a", "b1", "b2", "d1", "d2", "c"]


@st.composite
def cover_sheaves(draw):
    """A sheaf over GF(2) or GF(3) with drawn maps on the covers of a poset
    of at most seven elements: a random DAG's, or the hexagon a < b1 < b2 <
    c, a < d1 < d2 < c (two chains of length three from a to c) with a
    seventh element e put below or above some of its elements.  Stalks have
    dimension 0 to 2 and most maps are 0/1 diagonals, so that the drawn
    sheaves are often functorial and often not."""
    if draw(st.booleans()):
        elements, edges = draw(dags(max_elements=7))
    else:
        elements = HEXAGON + ["e"]
        edges = [("a", "b1"), ("b1", "b2"), ("b2", "c"), ("a", "d1"), ("d1", "d2"), ("d2", "c")]
        # e's place in the linear extension a, b1, b2, d1, d2, c
        slot = draw(st.integers(0, len(HEXAGON)), label="slot of e")
        for k, other in enumerate(HEXAGON):
            if draw(st.booleans()):
                edges.append(("e", other) if k >= slot else (other, "e"))
    poset = Poset.from_leq_pairs(elements, edges)
    field = PrimeField(draw(st.sampled_from([2, 3])))
    dims = {e: draw(st.sampled_from([1, 1, 2, 0]), label=f"dim {e}") for e in poset.elements}
    maps = {}
    for a, b in poset.covers:
        kind = draw(st.sampled_from(["diagonal", "diagonal", "zero", "random"]), label=f"{a}<{b}")
        maps[a, b] = [[draw(st.integers(0, field.p - 1)) if kind == "random"
                       else int(kind == "diagonal" and i == j)
                       for j in range(dims[a])] for i in range(dims[b])]
    return Sheaf(poset, field, dims, maps)


def _every_path_composite(sheaf, a, c):
    """F along each cover path from a up to c, composed densely."""
    if a == c:
        return [identity(sheaf.stalk_dim[a])]
    p, step_of = sheaf.field.p, sheaf.restriction
    return [
        [[sum(x * step_of[a, b][k][j] for k, x in enumerate(row)) % p
          for j in range(sheaf.stalk_dim[a])] for row in later]
        for low, b in sheaf.poset.covers if low == a and sheaf.poset.leq(b, c)
        for later in _every_path_composite(sheaf, b, c)
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sheaf=cover_sheaves())
def test_validate_is_agreement_along_every_cover_path(sheaf):
    """A sheaf is valid iff, for each a <= c, every cover path from a to c
    composes to the same matrix, which `restriction_map` then returns."""
    poset = sheaf.poset
    composites = {(a, c): _every_path_composite(sheaf, a, c)
                  for a in poset.elements for c in poset.elements if poset.leq(a, c)}
    functorial = all(m == ms[0] for ms in composites.values() for m in ms)
    assert sheaf.validate().ok == functorial
    if functorial:
        assert all(sheaf.restriction_map(a, c) == ms[0] for (a, c), ms in composites.items())


@PROPERTY_SETTINGS
@given(sheaf=functorial_sheaves(), data=st.data())
def test_open_set_star_restriction_is_the_submatrix_restriction(sheaf, data):
    """Ri_U^* = Ri_U^! on an open set U: the cylinder pullback and the
    submatrix restriction give the same derived object."""
    poset = sheaf.poset
    complex_ = minimal_resolution_sheaf(sheaf)
    seeds = data.draw(st.lists(st.sampled_from(poset.elements), min_size=1, max_size=3))
    zset = LocallyClosedSet(poset, poset.star_of_set(seeds))
    star = restrict_star(zset, complex_)
    shriek = proper_pullback(zset, complex_)
    assert same_derived_object(star, shriek)
    assert hypercohomology(star) == hypercohomology(shriek)


@PROPERTY_SETTINGS
@given(sheaf=functorial_sheaves(), data=st.data())
def test_morse_tables_match_cylinder_rows(sheaf, data):
    """Every `MorseAnalysis` table row, superlevel rows included, equals the
    hypercohomology of the cylinder pullback to that sub/superlevel set,
    taken by definition from the values, which `mf.sublevel` and
    `mf.superlevel` must give."""
    poset = sheaf.poset
    complex_ = minimal_resolution_sheaf(sheaf)
    # f(e) = max weight below e is monotone into a chain, so its fibers are
    # order-convex
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(poset), max_size=len(poset)))
    value = {e: max(w for d, w in zip(poset.elements, weights) if poset.leq(d, e))
             for e in poset.elements}
    order = sorted({str(v) for v in value.values()}, key=int)
    mf = MorseFunction.from_levels(poset, {e: str(v) for e, v in value.items()}, order)
    analysis = MorseAnalysis(mf, complex_)
    for direction in ("sublevel", "superlevel"):
        for x in order:
            below = direction == "sublevel"
            members = {e for e, v in value.items() if (v <= int(x) if below else v >= int(x))}
            assert (mf.sublevel(x) if below else mf.superlevel(x)) == members
            expected = hypercohomology(restrict_star(LocallyClosedSet(poset, members), complex_))
            for variant in ("star", "shriek") if direction == "superlevel" else ("star",):
                assert analysis.table(direction, variant)[x] == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sheaf=functorial_sheaves(), data=st.data())
def test_morse_tables_and_fiber_dims_match_the_per_level_oracle(sheaf, data):
    """All four Betti tables, through `betti_table` and through
    `MorseAnalysis`, and both variants' fiber dims equal `morse_oracle`,
    which restricts the whole complex afresh at every level and fiber.  The
    levels run 0..L-1 and need not all be hit, so some fibers are empty, the
    lowest included; f is the max weight below or the min weight above an
    element, and the complex the minimal or the (non-minimal) order-complex
    resolution."""
    resolve = data.draw(st.sampled_from([minimal_resolution_sheaf, order_complex_resolution]))
    complex_ = resolve(sheaf)
    mf = _draw_morse_function(data, sheaf.poset)
    analysis = MorseAnalysis(mf, complex_)
    for variant in ("star", "shriek"):
        assert analysis.fiber_dims(variant) == morse_oracle.fiber_dims(mf, complex_, variant)
        for direction in ("sublevel", "superlevel"):
            expected = morse_oracle.betti_table(mf, complex_, direction, variant)
            assert betti_table(mf, complex_, direction, variant) == expected
            assert analysis.table(direction, variant) == expected


def _draw_morse_function(data, poset) -> MorseFunction:
    """Levels 0..L-1, not all hit, f the max weight below or the min weight
    above an element."""
    n_levels = data.draw(st.integers(1, 5), label="levels")
    weights = dict(zip(poset.elements, data.draw(st.lists(
        st.integers(0, n_levels - 1), min_size=len(poset), max_size=len(poset)))))
    if data.draw(st.booleans(), label="max below"):
        value = {e: max(w for d, w in weights.items() if poset.leq(d, e)) for e in poset.elements}
    else:
        value = {e: min(w for u, w in weights.items() if poset.leq(e, u)) for e in poset.elements}
    order = [str(k) for k in range(n_levels)]
    return MorseFunction.from_levels(poset, {e: str(v) for e, v in value.items()}, order)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sheaf=functorial_sheaves(), data=st.data())
def test_cleared_morse_tables_match_uncleared_and_feed_no_more_rows(sheaf, data):
    """The three submatrix tables of `betti_table`, whose ranks leave out the
    rows the next degree's level tops prove dependent, equal the same
    elimination with nothing left out, over GF(2), GF(3) and GF(5), on the
    minimal and the order-complex resolution, and feed the kernel no more
    rows."""
    resolve = data.draw(st.sampled_from([minimal_resolution_sheaf, order_complex_resolution]))
    complex_ = resolve(sheaf)
    mf = _draw_morse_function(data, sheaf.poset)
    cleared_ranks, fed = morse._filtration_ranks, Counter()

    def uncleared_ranks(m, step, walk, tops):
        return cleared_ranks(m, step, walk, {})

    def counted(route):
        def eliminate(field, rows, **kwargs):
            rows = list(rows)
            fed[route] += len(rows)
            return _eliminate(field, rows, **kwargs)
        return mock.patch("posheaf.morse._eliminate", eliminate)

    for direction, variant in (("sublevel", "shriek"), ("superlevel", "star"),
                               ("superlevel", "shriek")):
        with counted("cleared"):
            cleared = betti_table(mf, complex_, direction, variant)
        with counted("uncleared"), mock.patch("posheaf.morse._filtration_ranks", uncleared_ranks):
            assert betti_table(mf, complex_, direction, variant) == cleared
    assert fed["cleared"] <= fed["uncleared"]


def _decoded(row) -> dict[int, int]:
    """A kernel row (`packed_row`: a dict, a GF(2) bitset or a GF(3) plane
    pair (ones, twos)) as an ascending {column: value} dict."""
    if isinstance(row, dict):
        return row
    ones, twos = (row, 0) if isinstance(row, int) else row
    return {j: 1 + (twos >> j & 1) for j in range(max(ones.bit_length(), twos.bit_length()))
            if (ones | twos) >> j & 1}


@st.composite
def prime_row_lists(draw, primes=(2, 3, 5, 7, 11)):
    """Sparse rows over GF(p), p drawn from `primes`, as dicts, with entries
    from -2p to 2p (zeros, negatives and entries >= p included) and repeats
    and combinations of earlier rows mixed in, so that some rows are
    dependent.  A third of the cases are wide and sparse (65 to 200 columns,
    at most 12 entries a row), so that packed rows span several machine
    words."""
    field = PrimeField(draw(st.sampled_from(primes)))
    p = field.p
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ncols = rng.randint(65, 200) if rng.random() < 1 / 3 else rng.randint(1, 12)
    rows = []
    for _ in range(rng.randint(0, 16)):
        kind = rng.choice(["random", "random", "repeat", "sum"]) if rows else "random"
        if kind == "random":
            cols = rng.sample(range(ncols), rng.randint(0, min(ncols, 12)))
            row = {j: rng.randint(-2 * p, 2 * p) for j in cols}
        elif kind == "repeat":
            row = dict(rng.choice(rows))
        else:
            a, b, c = rng.choice(rows), rng.choice(rows), rng.randint(1, p - 1)
            row = {j: a.get(j, 0) + c * b.get(j, 0) for j in a.keys() | b.keys()}
        rows.append(row)
    return field, ncols, rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=prime_row_lists(), data=st.data())
def test_rank_kernel_matches_the_dense_oracle(case, data):
    """Rank by the highest coordinate is the dense rank, and the top pivots
    are the pivots of the dense echelon form with the columns reversed: a
    property of the span, so any order of the rows gives the same set (the
    star rows go in unsorted)."""
    field, ncols, rows = case
    dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    assert _sparse_rank(field, rows) == rank(field, dense)
    packed = [packed_row(field, row) for row in rows]
    tops = _eliminate(field, packed)[0].keys()
    assert tops == {ncols - 1 - c for c in rref(field, [row[::-1] for row in dense])[1]}
    assert _eliminate(field, data.draw(st.permutations(packed)))[0].keys() == tops


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=prime_row_lists(primes=[3]))
def test_gf3_plane_pairs_round_trip_and_never_share_a_bit(case):
    """Over GF(3) `packed_row` is the row reduced mod 3 (`_decoded` gives it
    back in ascending columns) and passes a pair through; every stored pivot,
    with or without the witness riding below the columns, has its planes
    disjoint and holds 1 at its top."""
    field, _ncols, rows = case
    packed = [packed_row(field, row) for row in rows]
    for row, pair in zip(rows, packed):
        assert list(_decoded(pair).items()) == sorted((j, v % 3) for j, v in row.items() if v % 3)
        assert packed_row(field, pair) is pair
    for witness in (False, True):
        for top, (ones, twos) in _eliminate(field, packed, witness=witness)[0].items():
            assert ones & twos == 0
            assert ones.bit_length() - 1 == top > twos.bit_length() - 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=prime_row_lists(), data=st.data())
def test_kernel_resumed_from_its_table_matches_one_call(case, data):
    """Rows fed to `_eliminate` in chunks, each call extending the pivot
    table of the one before, give the table of one call on all of them."""
    field, _ncols, rows = case
    packed = [packed_row(field, row) for row in rows]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    table = {}
    for a, b in zip([0] + cuts, cuts + [len(rows)]):
        assert _eliminate(field, packed[a:b], table=table)[0] is table
    assert table == _eliminate(field, packed)[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=prime_row_lists(), data=st.data())
def test_kernel_zero_positions_are_the_rows_in_the_span_before_them(case, data):
    """Without `witness`, the positions `_eliminate` reports are exactly the
    rows fed that lie in the span of the rows fed before them (dense rank),
    in row order: in one call, and in a call that resumes its table and
    passes over some positions, which are not fed."""
    field, ncols, rows = case
    dense = [[row.get(j, 0) % field.p for j in range(ncols)] for row in rows]
    packed = [packed_row(field, row) for row in rows]
    cut = data.draw(st.integers(0, len(rows)), label="cut")
    rest = range(len(rows) - cut)
    skip = set(data.draw(st.lists(st.sampled_from(rest), unique=True), label="skip")
               if rest else ())
    table, first = _eliminate(field, packed[:cut])
    second = _eliminate(field, packed[cut:], skip=skip, table=table)[1]
    fed, expected = [], []
    for t, row in enumerate(dense):
        if t < cut or t - cut not in skip:
            if rank(field, fed + [row]) == rank(field, fed):
                expected.append(t)
            fed.append(row)
    assert first == [t for t in expected if t < cut]
    assert second == [t - cut for t in expected if t >= cut]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=prime_row_lists(), data=st.data())
def test_stored_pivots_above_a_cut_rank_the_block_of_a_prefix(case, data):
    """After a prefix of the rows, the stored pivots with top >= c number the
    dense rank of that prefix on the columns >= c: the rank `betti_table`
    reads off one elimination per degree."""
    field, ncols, rows = case
    prefix = data.draw(st.integers(0, len(rows)), label="prefix")
    cut = data.draw(st.integers(0, ncols), label="cut")
    table = _eliminate(field, [packed_row(field, row) for row in rows[:prefix]])[0]
    block = [[row.get(j, 0) % field.p for j in range(cut, ncols)] for row in rows[:prefix]]
    assert sum(top >= cut for top in table) == rank(field, block)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=prime_row_lists(), data=st.data())
def test_complement_kernel_matches_the_dense_oracle(case, data):
    """One complement vector u_t per row t in the span of the rows before it
    (dense rank), in row order: 1 at t, otherwise living on the earlier rows
    not in the span of theirs, with u_t M = 0 (dense solve), entries in
    ascending order.  The same from dict or packed rows, and with some of
    those t skipped, the others unchanged."""
    field, ncols, rows = case
    p = field.p
    dense = [[row.get(j, 0) % p for j in range(ncols)] for row in rows]
    ranks = [rank(field, dense[:t]) for t in range(len(rows) + 1)]
    dependent = [t for t in range(len(rows)) if ranks[t + 1] == ranks[t]]
    expected = {}
    for t in dependent:
        earlier = [s for s in range(t) if s not in dependent]
        x = solve_in_span(field, [dense[s] for s in earlier], dense[t])
        u = {t: 1, **{s: -c % p for s, c in zip(earlier, x) if c}}
        assert all(sum(v * dense[i][j] for i, v in u.items()) % p == 0 for j in range(ncols))
        expected[t] = sorted(u.items())
    skip = set(data.draw(st.lists(st.sampled_from(dependent), unique=True))) if dependent else set()
    for given_rows in (rows, [packed_row(field, row) for row in rows]):
        for skipped in (set(), skip):
            got = image_complement_rows(field, given_rows, skipped)
            assert [list(u.items()) for u in got] == [
                expected[t] for t in dependent if t not in skipped]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=prime_row_lists(), data=st.data())
def test_complement_in_given_coordinates_is_the_positional_one_renamed(case, data):
    """Given ascending `coords`, every complement vector is the positional
    one with position pos keyed `coords[pos]`, dict order included, with or
    without skipped positions."""
    field, _ncols, rows = case
    coords = sorted(data.draw(st.lists(st.integers(0, 10**6), min_size=len(rows),
                                       max_size=len(rows), unique=True), label="coords"))
    dependent = [max(u) for u in image_complement_rows(field, rows)]
    skip = set(data.draw(st.lists(st.sampled_from(dependent), unique=True))) if dependent else set()
    for skipped in (set(), skip):
        got = image_complement_rows(field, rows, skipped, coords)
        renamed = [{coords[pos]: v for pos, v in u.items()}
                   for u in image_complement_rows(field, rows, skipped)]
        assert [list(u.items()) for u in got] == [list(u.items()) for u in renamed]


@st.composite
def simplicial_complexes(draw):
    """A complex generated by up to five random facets on up to six vertices."""
    n = draw(st.integers(1, 6))
    vertices = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    return SimplicialComplex.from_facets(draw(st.lists(vertices, min_size=1, max_size=5)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(facets=st.lists(st.lists(st.sampled_from(["0", "1", "2", "3", "4", "10", "11"]),
                                min_size=1, max_size=4, unique=True), min_size=1, max_size=5),
       data=st.data())
def test_star_is_the_restricted_star_renamed(facets, data):
    """`star_subposet` and the CLI's `--star` poset, both built as the cone
    over the link, are the ambient star restricted and renamed, cover order
    included.  Vertices 10 and 11 switch the complex to comma-separated
    names."""
    complex_ = SimplicialComplex.from_facets(facets)
    poset = complex_.face_poset
    face = data.draw(st.sampled_from(poset.elements), label="face")
    star = poset.restrict(poset.star(face))
    base = complex_.face_of[face]
    name = {e: complex_.name(complex_.face_of[e] - base) or "∅" for e in star.elements}
    renamed = Poset([name[e] for e in star.elements], star._up,
                    [(name[a], name[b]) for a, b in star.covers])
    _same_poset(star_subposet(complex_, face), renamed)
    _same_poset(cli._star_poset(facets, face, len(star)), renamed)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(complex_=simplicial_complexes(), p=st.sampled_from([2, 3, 5]))
def test_constant_sheaf_multiplicities_match_the_oracle(complex_, p):
    """m^d(s) of the minimal resolution of the constant sheaf is the
    compactly supported cohomology of the open star of s, shifted by dim s.
    The oracle ranks its coboundary matrices with the resolution's kernel
    (`_sparse_rank`), so each of those ranks is checked against the dense
    rank as well: a kernel rank bug cannot pass as agreement."""
    field = PrimeField(p)
    res = minimal_resolution_constant(complex_.face_poset, field)
    table = res.multiplicities()
    ranked = []

    def recorded_rank(field_, rows):
        rows = list(rows)
        ranked.append((rows, _sparse_rank(field_, rows)))
        return ranked[-1][1]

    faces = complex_.face_poset.elements
    with mock.patch("posheaf.morse._sparse_rank", recorded_rank):
        oracle = {face: multiplicity_oracle(complex_, face, p=p) for face in faces}
    assert ranked
    for rows, got_rank in ranked:
        ncols = max((j + 1 for row in rows for j in row), default=0)
        assert got_rank == rank(field, [[row.get(j, 0) for j in range(ncols)] for row in rows])
    for face in faces:
        got = {d: counts[face] for d, counts in table.items() if counts.get(face)}
        assert got == oracle[face]


PROJECTIVE_PLANE = SimplicialComplex.from_facets(
    ["123", "124", "135", "146", "156", "236", "245", "256", "345", "346"])


@settings(max_examples=40, deadline=None, derandomize=True)
@example(complex_=PROJECTIVE_PLANE, p=3, data=None)
@example(complex_=PROJECTIVE_PLANE, p=5, data=None)
@given(complex_=simplicial_complexes(), p=st.sampled_from([3, 5]), data=st.data())
def test_max_vertex_morse_off_gf2(complex_, p, data):
    """The `posheaf morse` shape over GF(3) and GF(5): levels are the max
    vertex of each face under a vertex order.  The sublevel-star row at x is
    the cohomology of the full subcomplex on the vertices up to x (the
    compact-support oracle on all its faces), and the Morse theorem and the
    inequalities of both variants report no violation.  The projective
    plane, whose torsion shows over GF(2) only, goes in with the identity
    order."""
    vertices = list(complex_.vertices)
    order = data.draw(st.permutations(vertices), label="vertex order") if data else vertices
    rank = {v: k for k, v in enumerate(order)}
    faces = complex_.face_poset.elements
    levels = {f: max(complex_.face_of[f], key=rank.__getitem__) for f in faces}
    mf = MorseFunction.from_levels(complex_.face_poset, levels, order)
    analysis = MorseAnalysis(mf, minimal_resolution_constant(complex_.face_poset, PrimeField(p)))
    table = analysis.table("sublevel", "star")
    for k, x in enumerate(order):
        sub = SimplicialComplex([f for f in complex_.faces if f <= set(order[:k + 1])])
        assert table[x] == compact_support_cohomology(sub, sub.face_poset.elements, p)
    assert analysis.theorem().violations == []
    for variant in ("star", "shriek"):
        assert analysis.inequalities(variant).violations == []


@settings(max_examples=30, deadline=None, derandomize=True)
@given(complex_=simplicial_complexes(), p=st.sampled_from([2, 3, 5]))
def test_derived_hom_into_shifts_is_the_hypercohomology(complex_, p):
    """Hom(R, R[n]) in the derived category is Ext^n(k, k) = H^n(X; k) for
    the minimal resolution R of the constant sheaf k."""
    res = minimal_resolution_constant(complex_.face_poset, PrimeField(p))
    cohomology = hypercohomology(res)
    for n in range(-1, complex_.dimension() + 2):
        assert hom_space_dims(res, res.shifted(n))[2] == cohomology.get(n, 0)


# -- the adjunctions f^* -| Rf_* and i_! -| i^! ----------------------------------------

ADJUNCTION_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def assert_adjoint(left, right, a, b):
    """Hom(left(A), B[n]) == Hom(A, right(B)[n]) in the derived category, n in -3..2."""
    left_a, right_b = left(a), right(b)
    for n in range(-3, 3):
        assert hom_space_dims(left_a, b.shifted(n))[2] == hom_space_dims(a, right_b.shifted(n))[2]


def adjunction_right_side(rng, poset, field):
    """B for `assert_adjoint`: the resolution of a random sheaf, or half the
    time of the injective sheaf with one summand at every element, for which
    dim Hom(X, B[n]) is the total stalk dimension of H^{-n}(X).  Both
    functors are exact, so with that B a left side carrying a stray
    cohomology sheaf in degrees 1..3 fails at a negative n."""
    if rng.random() < 0.5:
        return minimal_resolution_sheaf(random_sheaf(rng, poset, field))
    return minimal_resolution_sheaf(Sheaf.injective(poset, field, Counter(poset.elements)))


def random_complex_faces(rng):
    """The face poset of a random complex of dimension 2 or 3 on five vertices."""
    facets = [rng.sample(range(5), rng.randint(3, 4)) for _ in range(rng.randint(1, 3))]
    return SimplicialComplex.from_facets(facets).face_poset


@ADJUNCTION_SETTINGS
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1))
def test_pullback_is_left_adjoint_to_the_pushforward(p, seed):
    """f^* -| Rf_* on random monotone maps, most of them not injective, into
    the face poset of a random complex.  A is an extension by zero of
    constant sheaves on open sets, whose resolutions there reach the
    pullback's degree-2 seed."""
    rng, field = random.Random(seed), PrimeField(p)
    source, target = random_poset(rng, 6), random_complex_faces(rng)
    f = random_monotone_map(rng, source, target)
    assume(f is not None)
    a = minimal_resolution_sheaf(random_sheaf(rng, target, field, "open"))
    b = adjunction_right_side(rng, source, field)
    assert_adjoint(lambda x: pullback(f, x), lambda x: pushforward(f, x), a, b)


@ADJUNCTION_SETTINGS
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1))
def test_proper_pushforward_is_left_adjoint_to_the_proper_pullback(p, seed):
    """i_! -| i^! on random locally closed sets of the face poset of a
    random complex: an open star cut down to the closure of some of its
    elements."""
    rng, field = random.Random(seed), PrimeField(p)
    poset = random_complex_faces(rng)
    star = sorted(poset.star(rng.choice(poset.elements)))
    zset = LocallyClosedSet(poset, set(star) & poset.closure(rng.sample(star, min(2, len(star)))))
    a = minimal_resolution_sheaf(random_sheaf(rng, zset.restricted_poset(), field))
    b = adjunction_right_side(rng, poset, field)
    assert_adjoint(lambda x: proper_pushforward(zset, x), lambda x: proper_pullback(zset, x), a, b)


@st.composite
def holed_facets(draw):
    """(facets, d): the d-skeleton of the n-simplex, 4 <= n <= 5 and
    2 <= d < n, less up to a third of its d-faces, as vertex-index tuples."""
    n = draw(st.integers(4, 5), label="n")
    d = draw(st.integers(2, n - 1), label="d")
    top = list(combinations(range(n + 1), d + 1))
    dropped = draw(st.sets(st.sampled_from(top), max_size=len(top) // 3), label="dropped")
    return [f for f in top if f not in dropped] + list(combinations(range(n + 1), d)), d


@st.composite
def holed_skeleta(draw):
    """(complex, d, field): a `holed_facets` complex over GF(2), GF(3) or
    GF(5).  Random complexes of a few facets seldom have a star row that
    reduces to zero at one element and is a star row at another below it;
    these mostly do."""
    facets, d = draw(holed_facets())
    field = PrimeField(draw(st.sampled_from([2, 3, 5]), label="p"))
    return SimplicialComplex.from_facets(facets), d, field


def holed_skeleton_sheaves(data, complex_, d, field):
    """The constant sheaf on the complex and a kernel sheaf
    (`incidence_kernel_sheaf`) on its faces of dimension d - 1 to d + 1."""
    k = data.draw(st.integers(d - 1, d + 1), label="kernel faces")
    return [Sheaf.constant(complex_.face_poset, field), incidence_kernel_sheaf(complex_, field, k)]


@st.composite
def holed_skeleton_sheaf(draw):
    """One of `holed_skeleton_sheaves` on a `holed_skeleta` complex."""
    complex_, d, field = draw(holed_skeleta())
    if draw(st.booleans(), label="kernel"):
        return incidence_kernel_sheaf(complex_, field, draw(st.integers(d - 1, d + 1)))
    return Sheaf.constant(complex_.face_poset, field)


@st.composite
def vertex_star_sums(draw):
    """The sum of the constant sheaves on one to three vertex stars of a
    skeleton, over GF(2), GF(3) or GF(5): stalks of dims 0 to 3, and maps
    that project, so are neither identities nor square."""
    n = draw(st.integers(2, 5), label="n")
    complex_ = skeleton_of_simplex(n, draw(st.integers(1, min(n, 3)), label="d"))
    poset = complex_.face_poset
    vertices = draw(st.lists(st.sampled_from(complex_.simplices_of_dim(0)), min_size=1, max_size=3),
                    label="stars")
    field = PrimeField(draw(st.sampled_from([2, 3, 5]), label="p"))
    return extension_by_zero_sheaf(poset, field, [poset.star(v) for v in vertices])


@settings(max_examples=80, deadline=None, derandomize=True)
@example(sheaf=zero_stalk_chain())
@example(sheaf=zero_stalk_diamond())
@given(sheaf=st.one_of(functorial_sheaves(max_generators=3), vertex_star_sums(), holed_skeleton_sheaf()))
def test_order_complex_resolution_matches_the_per_chain_oracle(sheaf):
    """The per-pair face patterns give the per-chain build's labels, degree
    offset and rows, dict entry order included."""
    expected = order_complex_oracle.raw(order_complex_oracle.order_complex_resolution(sheaf))
    assert order_complex_oracle.raw(order_complex_resolution(sheaf)) == expected


# -- MakeExact against the row-basis screen ------------------------------------------


def assert_same_as_the_screen(build):
    """`build()` gives the same raw complex, dict entry order included, with
    the top-pivot MakeExact (its skips checked) as with the screen."""
    with mock.patch("posheaf.resolution.image_complement_rows", screen_oracle.checked_complement):
        new = screen_oracle.raw(build())
    with mock.patch("posheaf.resolution._append_complement", screen_oracle.append_complement):
        old = screen_oracle.raw(build())
    assert new == old


@PROPERTY_SETTINGS
@example(sheaf=incidence_kernel_sheaf(  # skel(5,4) less the face 01234, kernel on the 4-faces
    SimplicialComplex.from_facets([*combinations(range(6), 5)][1:] + [*combinations(range(6), 4)]),
    PrimeField(3), 4))
@given(sheaf=st.one_of(functorial_sheaves(max_generators=3), holed_skeleton_sheaf()))
def test_make_exact_matches_the_screen_on_resolutions(sheaf):
    """The pinned example holds zero-row witnesses at tops of the next
    degree's W, so it reaches the filter that leaves those out."""
    assert_same_as_the_screen(lambda: minimal_resolution_constant(sheaf.poset, sheaf.field))
    assert_same_as_the_screen(lambda: minimal_resolution_sheaf(sheaf))


@PROPERTY_SETTINGS
@given(sheaf=st.one_of(functorial_sheaves(), holed_skeleton_sheaf()), source=dags(max_elements=5),
       data=st.data())
def test_make_exact_matches_the_screen_on_pullbacks(sheaf, source, data):
    """Pullback along a random monotone map that is not injective."""
    f = _draw_monotone_map(data, source, sheaf.poset)
    assume(len(set(f.assignment.values())) < len(f.assignment))
    assert_same_as_the_screen(lambda: pullback(f, minimal_resolution_sheaf(sheaf)))


@PROPERTY_SETTINGS
@given(facets=st.one_of(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
                                min_size=1, max_size=4),
                       holed_facets().map(lambda case: case[0])),
       fold=st.lists(st.integers(0, 4), min_size=6, max_size=6),
       p=st.sampled_from([2, 3, 5]))
def test_make_exact_matches_the_screen_on_simplicial_pullbacks(facets, fold, p):
    """Pullback of the constant sheaf's resolution along a simplicial map
    onto the image complex, vertex v going to fold[v]; six vertices onto
    five, so the map is never injective on vertices.  The source is a few
    random facets or a `holed_facets` skeleton."""
    source = SimplicialComplex.from_facets(facets)
    target = SimplicialComplex.from_facets([{fold[v] for v in facet} for facet in facets])
    f = MonotoneMap.simplicial(source, target, {str(v): str(fold[v]) for v in range(6)})
    assume(len(set(f.assignment.values())) < len(f.assignment))
    field = PrimeField(p)
    assert_same_as_the_screen(
        lambda: pullback(f, minimal_resolution_constant(target.face_poset, field)))


@PROPERTY_SETTINGS
@given(sheaf=st.one_of(functorial_sheaves(), holed_skeleton_sheaf()), data=st.data())
def test_make_exact_matches_the_screen_on_proper_pushforward(sheaf, data):
    """Extension by zero from a random locally closed set: an open star cut
    down to the closure of some of its elements."""
    poset = sheaf.poset
    star = poset.star(data.draw(st.sampled_from(poset.elements), label="open"))
    tops = data.draw(st.lists(st.sampled_from(sorted(star)), min_size=1, max_size=2), label="closed")
    zset = LocallyClosedSet(poset, star & poset.closure(tops))

    def build():
        on_z = proper_pullback(zset, minimal_resolution_sheaf(sheaf))
        return proper_pushforward(zset, on_z)

    assert_same_as_the_screen(build)


# -- MakeExact's cleared star scan against the uncleared one ------------------------


def assert_same_as_uncleared(build):
    """`build()` gives the same raw complex, dict entry order included, with
    the star scan that leaves out the rows found zero at an element above as
    with the one that feeds the kernel every star row (`star_scan_oracle`),
    and feeds it no more rows."""
    fed = Counter()

    def counted(route):
        def eliminate(field, rows, **kwargs):
            rows = list(rows)
            fed[route] += len(rows)
            return _eliminate(field, rows, **kwargs)
        return eliminate

    with mock.patch("posheaf.resolution._eliminate", counted("cleared")):
        cleared = screen_oracle.raw(build())
    with mock.patch("posheaf.resolution._append_complement", star_scan_oracle.append_complement), \
            mock.patch("star_scan_oracle._eliminate", counted("uncleared")):
        assert screen_oracle.raw(build()) == cleared
    assert fed["cleared"] <= fed["uncleared"]


@PROPERTY_SETTINGS
@given(case=holed_skeleta(), data=st.data())
def test_cleared_star_scan_matches_uncleared_on_resolutions(case, data):
    complex_, d, field = case
    kernel = holed_skeleton_sheaves(data, complex_, d, field)[1]
    assert_same_as_uncleared(lambda: minimal_resolution_constant(complex_.face_poset, field))
    assert_same_as_uncleared(lambda: minimal_resolution_sheaf(kernel))


@PROPERTY_SETTINGS
@given(case=holed_skeleta(), data=st.data())
def test_cleared_star_scan_matches_uncleared_on_pullbacks(case, data):
    """Pullback along a simplicial map onto the image complex that folds
    the n + 1 vertices onto n."""
    complex_, d, field = case
    n = len(complex_.vertices) - 1
    fold = data.draw(st.lists(st.integers(0, n - 1), min_size=n + 1, max_size=n + 1), label="fold")
    target = SimplicialComplex.from_facets(
        [{fold[int(v)] for v in complex_.face_of[e]} for e in complex_.face_poset.elements])
    f = MonotoneMap.simplicial(complex_, target, {str(v): str(fold[v]) for v in range(n + 1)})
    for sheaf in holed_skeleton_sheaves(data, target, d, field):
        res = minimal_resolution_sheaf(sheaf)
        assert_same_as_uncleared(lambda: pullback(f, res))


@PROPERTY_SETTINGS
@given(case=holed_skeleta(), data=st.data())
def test_cleared_star_scan_matches_uncleared_on_proper_pushforward(case, data):
    """Extension by zero from a locally closed set: an open star cut down to
    the closure of some of its elements."""
    complex_, d, field = case
    poset = complex_.face_poset
    star = poset.star(data.draw(st.sampled_from(poset.elements), label="open"))
    tops = data.draw(st.lists(st.sampled_from(sorted(star)), min_size=1, max_size=2), label="closed")
    zset = LocallyClosedSet(poset, star & poset.closure(tops))
    for sheaf in holed_skeleton_sheaves(data, complex_, d, field):
        on_z = proper_pullback(zset, minimal_resolution_sheaf(sheaf))
        assert_same_as_uncleared(lambda: proper_pushforward(zset, on_z))


# -- the star-row ranks MakeExact carries from one degree to the next ---------------


def _dense(rows):
    """Kernel rows (`_decoded`) as dense rows, as wide as the widest."""
    rows = [_decoded(row) for row in rows]
    ncols = max((j + 1 for row in rows for j in row), default=0)
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def assert_carried_ranks_match_the_dense_oracle(build):
    """Run `build()` with every MakeExact call checked against dense ranks:
    the rank recorded at the element is that of the matrix's star rows, and
    where the previous step's rank there is known, it is the rank of the
    image rows and the recorded rank is |stalk| minus it.  Every call against
    a previous matrix also checks the state carried from the step that built
    it against state built afresh: the image is that matrix's packed rows,
    and the column star lists are the current matrix's columns labeled at
    or above each element, ascending (`stalk_cols`).
    Returns what `build()` does and how many calls had the previous rank."""
    append, make_exact_inplace = resolution._append_complement, resolution._make_exact_inplace
    known = 0

    def fresh(eta_prev, eta_cur, element, stalks):
        assert stalks.image == [packed_row(eta_cur.field, row) for row in eta_prev.rows]
        assert stalks.cols == [stalk_cols(eta_cur, e) for e in eta_cur.poset.elements]
        return make_exact_inplace(eta_prev, eta_cur, element, stalks)

    def checked(stalks, element, image_rows=None):
        nonlocal known
        added = append(stalks, element, image_rows)
        m = stalks.m
        stalk = stalk_cols(m, element)
        if image_rows is None:
            image_rows = [stalks.image[i] for i in stalk]
        star = _dense([m.rows[i] for i in star_rows(m, element)])
        assert stalks.ranks[element] == rank(m.field, star)
        prev = stalks.prev_ranks.get(element)
        if prev is not None:
            assert prev == rank(m.field, _dense(image_rows))
            assert stalks.ranks[element] == len(stalk) - prev
            known += 1
        return added

    with mock.patch("posheaf.resolution._append_complement", checked), \
            mock.patch("posheaf.resolution._make_exact_inplace", fresh):
        return build(), known


@PROPERTY_SETTINGS
@given(sheaf=functorial_sheaves(), source=dags(max_elements=5), data=st.data())
def test_carried_ranks_match_the_dense_oracle(sheaf, source, data):
    """On the minimal resolution, a proper pushforward from a random locally
    closed set (as in the screen properties) and, where the drawn monotone
    map is not injective, a pullback."""
    poset = sheaf.poset
    res, known = assert_carried_ranks_match_the_dense_oracle(lambda: minimal_resolution_sheaf(sheaf))
    # degree 1 reads degree 0's ranks wherever the hull has a cokernel
    assert known or not any(m.rows for m in res.matrices)
    # the constant sheaf's degree 0 is given the hull rows' ranks at every element
    _, known = assert_carried_ranks_match_the_dense_oracle(
        lambda: minimal_resolution_constant(poset, sheaf.field))
    assert known >= len(poset.elements)
    star = poset.star(data.draw(st.sampled_from(poset.elements), label="open"))
    tops = data.draw(st.lists(st.sampled_from(sorted(star)), min_size=1, max_size=2), label="closed")
    zset = LocallyClosedSet(poset, star & poset.closure(tops))
    on_z = proper_pullback(zset, minimal_resolution_sheaf(sheaf))
    assert_carried_ranks_match_the_dense_oracle(lambda: proper_pushforward(zset, on_z))
    f = _draw_monotone_map(data, source, poset)
    if len(set(f.assignment.values())) < len(f.assignment):
        complex_ = minimal_resolution_sheaf(sheaf)
        assert_carried_ranks_match_the_dense_oracle(lambda: pullback(f, complex_))


# -- the star lists MakeExact reads its stalks and star rows off ---------------------


def assert_star_lists_hold(build):
    """Run `build()` with the star lists checked after every MakeExact call:
    `rows[k]` and `cols[k]` are the indices, ascending, of the matrix's rows
    and columns labeled at or above element k.  The expected lists are read
    off the labels (`star_rows`, `stalk_cols`) when a step's first call
    starts, then kept by this test itself: the rows a call adds, all labeled
    with its element, go after every row before them on the list of each
    element below it (`poset.leq`).  Returns what `build()` does and how many
    calls appended rows onto a list that already held some."""
    append, expected, onto = resolution._append_complement, {}, 0

    def checked(stalks, element, image_rows=None):
        nonlocal onto
        m = stalks.m
        poset, start = m.poset, m.nrows
        if stalks not in expected:  # a step's first call: nothing appended yet
            expected[stalks] = ([star_rows(m, e) for e in poset.elements],
                                [stalk_cols(m, e) for e in poset.elements])
        rows, cols = expected[stalks]
        below = [k for k, e in enumerate(poset.elements) if poset.leq(e, element)]
        added = append(stalks, element, image_rows)
        assert m.row_labels[start:] == [element] * added
        onto += added > 0 and any(rows[k] for k in below)
        for k in below:
            rows[k] += range(start, m.nrows)
        assert stalks.rows == rows
        assert stalks.cols == cols
        return added

    with mock.patch("posheaf.resolution._append_complement", checked):
        return build(), onto


@PROPERTY_SETTINGS
@given(case=holed_skeleta(), data=st.data())
def test_star_lists_hold_on_resolutions_and_proper_pushforward(case, data):
    """The constant sheaf's and a kernel sheaf's resolutions, a proper
    pushforward from an open star cut down to a closure, and a public
    `resolution_step` at one element seeded with some of the next matrix's
    rows (so its seed rows are not grouped by label)."""
    complex_, d, field = case
    poset = complex_.face_poset
    res, onto = assert_star_lists_hold(lambda: minimal_resolution_constant(poset, field))
    assert onto  # a batch went onto a list holding earlier rows
    for sheaf in holed_skeleton_sheaves(data, complex_, d, field):
        on_all, _ = assert_star_lists_hold(lambda: minimal_resolution_sheaf(sheaf))
    star = poset.star(data.draw(st.sampled_from(poset.elements), label="open"))
    tops = data.draw(st.lists(st.sampled_from(sorted(star)), min_size=1, max_size=2), label="closed")
    zset = LocallyClosedSet(poset, star & poset.closure(tops))
    on_z = proper_pullback(zset, on_all)
    assert_star_lists_hold(lambda: proper_pushforward(zset, on_z))
    eta0, eta1 = res.matrices[:2]
    keep = data.draw(st.lists(st.booleans(), min_size=eta1.nrows, max_size=eta1.nrows), label="kept rows")
    seed = LabeledMatrix(poset, field, eta1.col_labels, [lab for lab, k in zip(eta1.row_labels, keep) if k],
                         [row for row, k in zip(eta1.rows, keep) if k])
    element = data.draw(st.sampled_from(poset.elements), label="element")
    step, _ = assert_star_lists_hold(lambda: resolution_step(eta0, [element], seed=seed))
    assert step.row_labels[:seed.nrows] == seed.row_labels


@PROPERTY_SETTINGS
@given(sheaf=st.one_of(functorial_sheaves(), holed_skeleton_sheaf()), source=dags(max_elements=5),
       data=st.data())
def test_star_lists_hold_on_pullbacks(sheaf, source, data):
    """Pullback along a random monotone map: every degree after the first
    is seeded and carries its star lists."""
    f = _draw_monotone_map(data, source, sheaf.poset)
    complex_ = minimal_resolution_sheaf(sheaf)
    assert_star_lists_hold(lambda: pullback(f, complex_))


def _dense_dims(complex_, supports):
    """{degree: {key: dim}}, nonzero dims only, every rank dense: at `key`
    the term in degree d is matrix d's columns labeled in supports[key], and
    its differential the block of matrix d on the rows and columns so
    labeled."""
    field, out = complex_.field, {}
    for key, labels in supports.items():
        prev = 0
        for d, m in zip(complex_.degrees, complex_.matrices):
            rows = [row for lab, row in zip(m.row_labels, m.rows) if lab in labels]
            cols = [j for j, lab in enumerate(m.col_labels) if lab in labels]
            r = rank(field, [[row.get(j, 0) for j in cols] for row in rows])
            if h := len(cols) - r - prev:
                out.setdefault(d, {})[key] = h
            prev = r
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cut_and_rank_rule_match_dense_ranks(p, seed, data):
    """`hypercohomology`, `cohomology_sheaf_dims` and the hypercohomology of
    Ri_Z^! C, on a random sheaf's order-complex resolution C (generally not
    minimal) and a random locally closed Z, are the width - rank - previous
    rank dims of dense ranks of C's blocks: the whole matrices, the blocks
    on the star of each element and the blocks on Z."""
    rng = random.Random(seed)
    complex_ = order_complex_resolution(random_sheaf(rng, random_poset(rng, 6), PrimeField(p)))
    poset = complex_.poset
    whole = _dense_dims(complex_, {None: set(poset.elements)})
    assert hypercohomology(complex_) == {d: dims[None] for d, dims in whole.items()}
    stars = {e: poset.star(e) for e in poset.elements}
    assert cohomology_sheaf_dims(complex_) == _dense_dims(complex_, stars)
    star = poset.star(data.draw(st.sampled_from(poset.elements), label="open"))
    tops = data.draw(st.lists(st.sampled_from(sorted(star)), min_size=1, max_size=2), label="closed")
    zset = LocallyClosedSet(poset, star & poset.closure(tops))
    on_z = _dense_dims(complex_, {None: zset.members})
    assert hypercohomology(proper_pullback(zset, complex_)) == {
        d: dims[None] for d, dims in on_z.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sheaf=functorial_sheaves(), order_complex=st.booleans(), shift=st.integers(-2, 2))
def test_cleared_dims_match_the_uncleared_oracle_and_dense_ranks(sheaf, order_complex, shift):
    """`cohomology_sheaf_dims` and `hypercohomology`, which leave out of each
    rank the rows the next degree's top pivots prove dependent, give the
    dims, in the same order, of the per-element ranks they replaced
    (`rank_oracle`) and of dense ranks of the blocks, on a random sheaf's
    minimal resolution or its order-complex resolution (generally not
    minimal), shifted.  Clearing assumes that consecutive matrices compose
    to zero and does not check it; `validate` checks it here."""
    build = order_complex_resolution if order_complex else minimal_resolution_sheaf
    complex_ = build(sheaf).shifted(shift)
    assert complex_.validate().ok
    poset = complex_.poset
    cleared = cohomology_sheaf_dims(complex_)
    assert repr(cleared) == repr(rank_oracle.cohomology_sheaf_dims(complex_))
    assert cleared == _dense_dims(complex_, {e: poset.star(e) for e in poset.elements})
    cleared = hypercohomology(complex_)
    assert repr(cleared) == repr(rank_oracle.hypercohomology(complex_))
    whole = _dense_dims(complex_, {None: set(poset.elements)})
    assert cleared == {d: dims[None] for d, dims in whole.items()}
