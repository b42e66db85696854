import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from posheaf.derived import peel, same_derived_object
from posheaf.errors import InputError
from posheaf.matrix import InjectiveComplex, LabeledMatrix
from posheaf.poset import Poset, SimplicialComplex, skeleton_of_simplex
from posheaf.resolution import (
    cohomology_sheaf_dims,
    is_minimal,
    minimal_resolution_constant,
    minimal_resolution_sheaf,
    order_complex_resolution,
    resolution_step,
    star_complexity,
    star_complexity_bound,
    star_generators,
)
from posheaf.sheaf import NaturalTransformation, Sheaf, constant_sheaf

from conftest import (
    GF2,
    GF3,
    check_resolution_health,
    extension_by_zero_sheaf,
    incidence_kernel_sheaf,
    random_poset,
    random_sheaf,
    stalk_matrix,
    stalkwise_exactness_against_sheaf,
    with_top,
    zero_stalk_chain,
    zero_stalk_diamond,
)


def mult_table(complex_):
    return {d: dict(c) for d, c in complex_.multiplicities().items()}


class TestMakeExact:
    def test_nothing_to_add(self, tetra):
        poset = tetra.face_poset
        res = minimal_resolution_constant(poset)
        eta0, eta1 = res.matrices[0], res.matrices[1]
        extended = resolution_step(eta0, ["0"], seed=eta1)
        assert extended == eta1

    def test_extra_edges_triangle_row(self, simplex_star):
        # at triangle 23 one row is added, supported on the two cofacets
        extended, _ = _extra_edges_first_step_at("23", simplex_star)
        new_rows = [
            row
            for lab, row in zip(extended.row_labels, extended.rows)
            if lab == "23"
        ]
        assert len(new_rows) == 1
        cofacets = {
            j for j, lab in enumerate(extended.col_labels) if lab in ("234", "235")
        }
        assert set(new_rows[0]) == cofacets

    def test_extra_edges_bottom_adds_two(self, simplex_star):
        extended, seed = _extra_edges_first_step_at("∅", simplex_star, run_all=True)
        bottom_rows = [lab for lab in extended.row_labels if lab == "∅"]
        assert len(bottom_rows) == 2

    def test_precondition_checked(self, tetra):
        poset = tetra.face_poset
        res = minimal_resolution_constant(poset)
        with pytest.raises(InputError, match="compose to zero"):
            resolution_step(res.matrices[1], ["0"], seed=res.matrices[0])

    def test_nonzero_composition_refused(self, tetra):
        res = minimal_resolution_constant(tetra.face_poset)
        eta0, eta1 = res.matrices[0], res.matrices[1].copy()
        # one allowed entry, in a column that eta0 maps nonzero
        j = next(j for j, row in enumerate(eta0.rows) if row)
        eta1.add_row(eta0.row_labels[j], {j: 1})
        assert any(eta1.multiply(eta0).rows)
        with pytest.raises(InputError, match="compose to zero"):
            resolution_step(eta0, ["0"], seed=eta1)

    def test_seed_off_the_previous_rows_refused(self, tetra):
        # a seed with no rows composes to zero with anything: only the label
        # comparison refuses one whose columns are not eta_prev's rows; an
        # entry past eta_prev's rows is refused before the product reads it
        res = minimal_resolution_constant(tetra.face_poset)
        eta0 = res.matrices[0]
        labels = eta0.row_labels
        for seed in (LabeledMatrix(eta0.poset, GF2, labels[::-1]),
                     LabeledMatrix(eta0.poset, GF2, labels, [labels[0]], [{len(labels): 1}])):
            assert seed.col_labels != labels or seed.validate()
            with pytest.raises(InputError, match="compose to zero"):
                resolution_step(eta0, ["0"], seed=seed)

    def test_unknown_element_is_an_input_error(self, tetra):
        res = minimal_resolution_constant(tetra.face_poset)
        eta0, eta1 = res.matrices[0], res.matrices[1]
        with pytest.raises(InputError, match="'zz' is not in the poset"):
            resolution_step(eta0, ["zz"], seed=eta1)
        with pytest.raises(InputError, match="'zz' is not in the poset"):
            resolution_step(eta0, ["zz"])

    def test_complement_skipped_where_the_star_rows_span_the_kernel(self):
        # every degree knows the previous star-row ranks (degree 0 the hull
        # rows', rank 1), so only 63 of skel(6,3)'s 196 MakeExact calls need
        # a complement, and only degree 0's 35 eliminate the image afresh: the
        # 28 in later degrees read the witnesses the previous scan held there;
        # the 196 other visits (35, 70 and 91 elements in degrees 1 to 3) find
        # the stalk empty, record rank 0 and make no call
        from unittest import mock

        from posheaf import resolution

        with mock.patch("posheaf.resolution._append_complement",
                        wraps=resolution._append_complement) as make_exact_calls, \
                mock.patch("posheaf.resolution.image_complement_rows",
                           wraps=resolution.image_complement_rows) as complements:
            minimal_resolution_constant(skeleton_of_simplex(6, 3).face_poset)
        assert (make_exact_calls.call_count, complements.call_count) == (196, 35)

    def test_star_scan_skipped_where_the_carried_rank_shows_a_zero_kernel(self):
        # on skel(6,3), 98 of the 196 MakeExact calls know from the carried
        # ranks that the kernel is zero and skip the star rows' top pivots;
        # no row is packed after it is built, the new rows coming packed out
        # of the complement, and the hull's image row is packed once; the
        # matrices hold those rows through the ranks read afterwards
        from unittest import mock

        from posheaf import derived, matrix, resolution

        with mock.patch("posheaf.resolution._eliminate",
                        wraps=resolution._eliminate) as top_pivots, \
                mock.patch("posheaf.resolution.packed_row",
                           wraps=resolution.packed_row) as packs, \
                mock.patch("posheaf.matrix.packed_row", wraps=matrix.packed_row) as repacks:
            res = minimal_resolution_constant(skeleton_of_simplex(6, 3).face_poset)
            assert (top_pivots.call_count, packs.call_count) == (98, 1)
            cohomology_sheaf_dims(res), derived.hypercohomology(res)
        assert not [row for _, row in (c.args for c in repacks.call_args_list)
                    if type(row) is dict]  # packed rows pass through

    def test_hull_degree_zero_makes_no_call_where_the_stalk_is_empty(self):
        # on skel(6,3) with the extension by zero of the stars of 0 and 12, 9
        # of the 98 elements have no hull summand above them: degree 0 records
        # rank 0 there, as `resolution_step` does, and calls MakeExact at the
        # other 89; the result still resolves the sheaf
        from unittest import mock

        from posheaf import resolution
        from posheaf.sheaf import injective_hull

        poset = skeleton_of_simplex(6, 3).face_poset
        sheaf = extension_by_zero_sheaf(poset, GF2, [poset.star("0"), poset.star("12")])
        empty = [e for e, rows in injective_hull(sheaf)[1].items() if not rows]
        with mock.patch("posheaf.resolution._make_exact_against_image",
                        wraps=resolution._make_exact_against_image) as calls:
            res = minimal_resolution_sheaf(sheaf)
        assert (len(empty), calls.call_count) == (9, 89)
        assert not {e for (_, _, e), _ in calls.call_args_list} & set(empty)
        assert res.validate().ok and is_minimal(res)
        assert cohomology_sheaf_dims(res) == {0: {e: d for e, d in sheaf.stalk_dim.items() if d}}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_held_witnesses_are_gone_after_the_next_whole_poset_step(self, p):
        # each step holds its star scans' witnesses for the next (`_Stalks`),
        # and the next step, run over the whole poset, drops every entry it
        # visits, read or not: once it returns, none is left
        from unittest import mock

        from posheaf import resolution
        from posheaf.field import PrimeField

        step, sizes = resolution.resolution_step, []

        def checked(eta_prev, elements=None, seed=None, _carry=None):
            held = _carry[2] if _carry else {}
            sizes.append(len(held))
            out = step(eta_prev, elements, seed, _carry)
            assert held == {} and _carry[2] is not held
            return out

        poset = skeleton_of_simplex(6, 3).face_poset
        field = PrimeField(p)
        with mock.patch("posheaf.resolution.resolution_step", checked):
            minimal_resolution_constant(poset, field)
            minimal_resolution_sheaf(extension_by_zero_sheaf(poset, field, [poset.star("0")]))
        assert sizes and all(sizes[:2]) and sizes[-1] == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_star_scan_leaves_out_rows_found_dependent_above(self, p):
        # skel(6,3)'s star scans feed the kernel 700 rows, of which 196 reduce
        # to zero; fed every star row, they took 882, of which 378 reduced to
        # zero: the 182 left out were found zero at an element above
        from unittest import mock

        from posheaf import resolution
        from posheaf.field import PrimeField

        kernel, fed = resolution._eliminate, []

        def counted(field, rows, **kwargs):
            rows = list(rows)
            table, zeros = kernel(field, rows, **kwargs)
            fed.append((len(rows), len(zeros)))
            return table, zeros

        with mock.patch("posheaf.resolution._eliminate", counted):
            minimal_resolution_constant(skeleton_of_simplex(6, 3).face_poset, PrimeField(p))
        assert tuple(map(sum, zip(*fed))) == (700, 196)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_skipped_positions_reduce_to_zero(self, p):
        # every position MakeExact skips is a stalk row that reduces to zero,
        # and the rows it appends are the screen's, on the constant sheaf of
        # the 3-skeleton of the 5-simplex and on a kernel sheaf over it
        from unittest import mock

        import screen_oracle
        from posheaf.field import PrimeField
        from posheaf.poset import skeleton_of_simplex

        skipped = []

        def recording(field, stalk_rows, skip=(), coords=None, packed=None):
            skipped.extend(skip)
            return screen_oracle.checked_complement(field, stalk_rows, skip, coords, packed)

        complex_ = skeleton_of_simplex(5, 3)
        field = PrimeField(p)
        for build in (lambda: minimal_resolution_constant(complex_.face_poset, field),
                      lambda: minimal_resolution_sheaf(incidence_kernel_sheaf(complex_, field, 3))):
            with mock.patch("posheaf.resolution.image_complement_rows", recording):
                new = screen_oracle.raw(build())
            with mock.patch("posheaf.resolution._append_complement",
                            screen_oracle.append_complement):
                assert new == screen_oracle.raw(build())
        assert skipped


def _extra_edges_first_step_at(element, star_poset, run_all=False):
    extended_poset, top = with_top(star_poset)
    seed = LabeledMatrix(extended_poset, GF2, [top])
    for m in star_poset.maximal_elements():
        seed.add_row(m, {0: 1})
    eta0 = LabeledMatrix(extended_poset, GF2, seed.row_labels)
    order = list(reversed(star_poset.linear_extension))
    for e in order:
        if not run_all and e == element:
            eta0 = resolution_step(seed, [e], seed=eta0)
            break
        eta0 = resolution_step(seed, [e], seed=eta0)
    return eta0, seed


class TestResolutionStep:
    def test_zero_rows_terminates(self, tetra):
        poset = tetra.face_poset
        m = LabeledMatrix(poset, GF2, ["123"])
        nxt = resolution_step(m)
        assert nxt.ncols == 0 and not nxt.rows

    def test_tetra_first_step(self, tetra):
        poset = tetra.face_poset
        extended, top = with_top(poset)
        seed = LabeledMatrix(extended, GF2, [top])
        for m in poset.maximal_elements():
            seed.add_row(m, {0: 1})
        eta0 = resolution_step(seed, poset.linear_extension)
        assert sorted(eta0.row_labels) == sorted(
            e for e in poset.elements if tetra.dim(e) == 1
        )

    def test_extra_edges_second_step(self, simplex_star):
        res = minimal_resolution_constant(simplex_star)
        eta1 = res.matrices[1]
        assert sorted(set(eta1.row_labels)) == ["2", "3", "4", "5"]


class TestMinimalResolutionConstant:
    def test_point(self):
        p = Poset.from_covers(["pt"], [])
        res = minimal_resolution_constant(p)
        assert mult_table(res) == {0: {"pt": 1}}

    def test_extra_edges_stalk_blocks(self, simplex_star):
        # the stalk map of the first differential at an edge is a 3x3 block
        # whose kernel is the diagonal line
        res = minimal_resolution_constant(simplex_star)
        eta0 = res.matrices[0]
        for edge in ("2", "3", "4", "5"):
            stalk = stalk_matrix(eta0, edge)
            assert len(stalk) == 3 and all(len(r) == 3 for r in stalk)
            from dense_oracle import rank as dense_rank

            assert dense_rank(GF2, stalk) == 2
            ones = [sum(row) % 2 for row in stalk]
            assert all(v == 0 for v in ones)  # (1,1,1) spans the kernel

    def test_extra_edges_multiplicities(self, simplex_star):
        res = minimal_resolution_constant(simplex_star)
        assert mult_table(res) == {
            0: {"234": 1, "235": 1, "245": 1, "345": 1, "6": 1, "7": 1},
            1: {"23": 1, "24": 1, "25": 1, "34": 1, "35": 1, "45": 1, "∅": 2},
            2: {"2": 1, "3": 1, "4": 1, "5": 1},
            3: {"∅": 1},
        }
        check_resolution_health(res, simplex_star)

    def test_tetra_multiplicities(self, tetra, tetra_resolution):
        table = mult_table(tetra_resolution)
        assert all(table[0][e] == 1 for e in table[0]) and len(table[0]) == 4
        assert len(table[1]) == 6 and len(table[2]) == 4
        check_resolution_health(tetra_resolution, tetra.face_poset)

    def test_odd_prime(self, tetra):
        res3 = minimal_resolution_constant(tetra.face_poset, GF3)
        assert mult_table(res3) == mult_table(minimal_resolution_constant(tetra.face_poset))
        assert res3.validate().ok
        check_resolution_health(res3, tetra.face_poset)

    @pytest.mark.parametrize(
        "n, skip, p, summands, digest",
        [
            (8, 7, 2, 1131, "2e08272c37f92fdcc9e8d80e7918fef5ad87b8f5e98f9235a4919605cbb13b8e"),
            (7, 5, 3, 524, "c4f376b75d075e87179f38cf5ca8c62c09316c7b6f2aba0d7e27d04d3ef1aec2"),
        ],
    )
    def test_raw_output_pinned(self, n, skip, p, summands, digest):
        # sha256 of every matrix's labels and rows, with each row's entries in
        # ascending column order, as computed by the leftmost-pivot kernel and
        # unchanged by the top-pivot one; the complex is the 3-skeleton of the
        # n-simplex without every skip-th tetrahedron
        from posheaf.field import PrimeField
        from screen_oracle import ascending_digest

        facets = [f for i, f in enumerate(combinations(range(n + 1), 4)) if i % skip]
        poset = SimplicialComplex.from_facets(facets).face_poset
        res = minimal_resolution_constant(poset, PrimeField(p))
        assert res.total_summands() == summands
        assert ascending_digest(res) == digest


class TestMinimalResolutionSheaf:
    def test_constant_agrees_with_bootstrap(self):
        # the constant sheaf's own hull gives the same raw output (labels,
        # rows, dict entry order) as the general hull construction
        from posheaf.field import PrimeField
        from screen_oracle import raw

        rng = random.Random(12)
        posets = [random_poset(rng) for _ in range(100)] + [skeleton_of_simplex(5, 3).face_poset]
        # skel(n,3) less a third of its 3-faces, some leaving a triangle
        # maximal, so that maximal elements of two dimensions share a star
        holed = [SimplicialComplex.from_facets(
            [f for i, f in enumerate(combinations(range(n + 1), 4)) if i % 3 != r]
            + [*combinations(range(n + 1), 3)]) for n in (5, 6) for r in range(3)]
        assert any(c.dim(m) == 2 for c in holed for m in c.face_poset.maximal_elements())
        posets += [c.face_poset for c in holed]
        for p in (2, 3, 5):
            field = PrimeField(p)
            for poset in posets:
                direct = minimal_resolution_constant(poset, field)
                assert raw(direct) == raw(minimal_resolution_sheaf(constant_sheaf(poset, field)))

    def test_builds_no_hull_sheaf_or_transformation(self):
        # the hull reaches the driver as labels and sparse stalk rows only
        from unittest import mock

        sheaf = incidence_kernel_sheaf(skeleton_of_simplex(5, 3), GF3, 3)
        expected = mult_table(peel(order_complex_resolution(sheaf)))
        with mock.patch.object(Sheaf, "__init__", autospec=True,
                               side_effect=Sheaf.__init__) as sheaves, \
                mock.patch.object(NaturalTransformation, "__init__", autospec=True,
                                  side_effect=NaturalTransformation.__init__) as maps:
            res = minimal_resolution_sheaf(sheaf)
        assert (sheaves.call_count, maps.call_count) == (0, 0)
        assert mult_table(res) == expected

    def test_injective_input(self):
        p = Poset.from_covers(["y", "x"], [("y", "x")])
        f = Sheaf.injective(p, GF2, {"x": 1})
        res = minimal_resolution_sheaf(f)
        assert mult_table(res) == {0: {"x": 1}}

    def test_skyscraper_two_term(self):
        p = Poset.from_covers(["y", "x"], [("y", "x")])
        f = Sheaf(p, GF2, {"x": 1, "y": 0}, {})
        res = minimal_resolution_sheaf(f)
        assert mult_table(res) == {0: {"x": 1}, 1: {"y": 1}}
        stalkwise_exactness_against_sheaf(res, f)

    def test_raw_output_pinned_gf5(self):
        # sha256 of every matrix's labels and rows, with each row's entries in
        # ascending column order, as computed by MakeExact with the row-basis
        # screen; the sheaf is a fixed kernel sheaf on the 3-skeleton of the
        # 6-simplex
        from posheaf.field import PrimeField
        from posheaf.poset import skeleton_of_simplex
        from screen_oracle import ascending_digest

        sheaf = incidence_kernel_sheaf(skeleton_of_simplex(6, 3), PrimeField(5), 3)
        res = minimal_resolution_sheaf(sheaf)
        assert res.total_summands() == 71
        assert ascending_digest(res) == (
            "4ba7608631647adac1e57e5861e651824de1364dbecad75339042b16b377febe")

    @pytest.mark.parametrize("make_sheaf", [zero_stalk_chain, zero_stalk_diamond])
    def test_zero_stalk_inside_a_cover_path(self, make_sheaf):
        sheaf = make_sheaf()
        res = minimal_resolution_sheaf(sheaf)
        check_resolution_health(res, sheaf.poset)
        stalkwise_exactness_against_sheaf(res, sheaf)
        assert same_derived_object(res, peel(order_complex_resolution(sheaf)))

    def test_random_sheaves_exact(self):
        rng = random.Random(71)
        for _ in range(40):
            poset = random_poset(rng, 6)
            field = rng.choice((GF2, GF3))
            sheaf = random_sheaf(rng, poset, field)
            res = minimal_resolution_sheaf(sheaf)
            if res.matrices:
                check_resolution_health(res, poset)
            stalkwise_exactness_against_sheaf(res, sheaf)


class TestOrderComplexResolution:
    def test_point(self):
        p = Poset.from_covers(["pt"], [])
        f = Sheaf(p, GF2, {"pt": 2}, {})
        res = order_complex_resolution(f)
        assert mult_table(res) == {0: {"pt": 2}}

    def test_chain_peels_to_top(self):
        from posheaf.derived import peel

        p = Poset.from_covers(["a", "b"], [("a", "b")])
        res = order_complex_resolution(constant_sheaf(p))
        assert mult_table(res) == {0: {"a": 1, "b": 1}, 1: {"a": 1}}
        assert mult_table(peel(res)) == {0: {"b": 1}}

    def test_tetra_peels_to_minimal(self, tetra, tetra_resolution):
        from posheaf.derived import peel

        res = order_complex_resolution(constant_sheaf(tetra.face_poset))
        assert res.validate().ok
        assert mult_table(peel(res)) == mult_table(tetra_resolution)

    def test_exactness_for_general_sheaves(self):
        rng = random.Random(17)
        for _ in range(20):
            poset = random_poset(rng, 6)
            field = rng.choice((GF2, GF3))
            sheaf = random_sheaf(rng, poset, field)
            res = order_complex_resolution(sheaf)
            assert res.validate().ok
            stalkwise_exactness_against_sheaf(res, sheaf)

    @pytest.mark.parametrize("case, summands, digest", [
        ("constant-gf2", 540, "c87b9c2c0dc8848244597ebbb419e81793050a20510b6f81acbc04dc66ac1217"),
        ("kernel-gf3", 245, "50187d974b5e8b1484382b1f317be84c892983fb7f458248347adf4afc27180f"),
    ])
    def test_raw_output_pinned(self, case, summands, digest):
        # sha256 of every matrix's labels and rows, dict entry order included,
        # as computed by the route that built the order complex as a
        # SimplicialComplex and signed each incidence by sorting both chains
        from posheaf.field import PrimeField

        if case == "constant-gf2":
            sheaf = constant_sheaf(skeleton_of_simplex(4, 3).face_poset, PrimeField(2))
        else:
            sheaf = incidence_kernel_sheaf(skeleton_of_simplex(4, 2), PrimeField(3), 2)
        res = order_complex_resolution(sheaf)
        assert res.total_summands() == summands
        raw = [(m.col_labels, m.row_labels, [list(r.items()) for r in m.rows])
               for m in res.matrices]
        assert hashlib.sha256(repr(raw).encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("field", [GF2, GF3])
@pytest.mark.parametrize("route", [
    lambda sheaf: minimal_resolution_constant(sheaf.poset, sheaf.field),
    minimal_resolution_sheaf,
    order_complex_resolution,
    lambda sheaf: peel(order_complex_resolution(sheaf)),
], ids=["constant", "sheaf", "order-complex", "order-complex-peeled"])
def test_every_route_resolves_the_empty_poset_to_the_zero_complex(route, field):
    empty = Poset.from_covers([], [])
    assert route(constant_sheaf(empty, field)) == InjectiveComplex.empty(empty, field)


class TestMinimality:
    def test_worked_examples_minimal(self, tetra_resolution, pushforward_complexes):
        assert is_minimal(tetra_resolution)
        for key in ("sigma", "gamma", "Rg", "Rh", "Rl"):
            assert is_minimal(pushforward_complexes[key])

    def test_identity_complex_not_minimal(self):
        p = Poset.from_covers(["a"], [])
        eta = LabeledMatrix(p, GF2, ["a"])
        eta.add_row("a", {0: 1})
        tail = LabeledMatrix(p, GF2, ["a"])
        complex_ = InjectiveComplex(p, GF2, [eta, tail])
        assert complex_.validate().ok
        assert not is_minimal(complex_)

    def test_empty_minimal(self):
        p = Poset.from_covers(["a"], [])
        assert is_minimal(InjectiveComplex.empty(p, GF2))


class TestCohomologySheafDims:
    def test_resolution_recovers_sheaf(self, tetra):
        poset = tetra.face_poset
        res = minimal_resolution_constant(poset)
        dims = cohomology_sheaf_dims(res)
        assert dims == {0: {e: 1 for e in poset.elements}}

    def test_exact_complex_vanishes(self):
        p = Poset.from_covers(["a"], [])
        eta = LabeledMatrix(p, GF2, ["a"])
        eta.add_row("a", {0: 1})
        tail = LabeledMatrix(p, GF2, ["a"])
        complex_ = InjectiveComplex(p, GF2, [eta, tail])
        assert cohomology_sheaf_dims(complex_) == {}

    def test_cone_of_identity_vanishes(self, tetra_resolution):
        from posheaf.derived import ComplexMorphism, mapping_cone

        cone = mapping_cone(ComplexMorphism.identity(tetra_resolution))
        assert cohomology_sheaf_dims(cone) == {}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cleared_ranks_skip_rows_and_match_the_oracle(self, p):
        # on the constant sheaf of skel(5,3), minimal (shifted) and by chains,
        # the star ranks and the whole-matrix ranks leave out rows the
        # uncleared oracle reduces, and the dims agree, order included; the
        # rows fed are pinned, the same over every prime
        from unittest import mock

        import rank_oracle
        from posheaf import derived, matrix, resolution
        from posheaf.field import PrimeField

        def counting(module, kernel):
            counts, wrapped = [], getattr(module, kernel)
            patch = mock.patch.object(module, kernel, lambda field, rows, *rest: (
                counts.append(len(rows)) or wrapped(field, rows, *rest)))
            return counts, patch

        routes = [(cohomology_sheaf_dims, resolution, rank_oracle.cohomology_sheaf_dims,
                   rank_oracle, "_eliminate"),
                  (derived.hypercohomology, derived, rank_oracle.hypercohomology,
                   matrix, "_sparse_rank")]
        sheaf = constant_sheaf(skeleton_of_simplex(5, 3).face_poset, PrimeField(p))
        minimal = minimal_resolution_sheaf(sheaf).shifted(2)
        fed = []
        for complex_ in [minimal, order_complex_resolution(sheaf)]:
            for dims, module, oracle, oracle_module, kernel in routes:
                (cleared, patch), (full, oracle_patch) = (
                    counting(module, kernel), counting(oracle_module, kernel))
                with patch, oracle_patch:
                    got, expected = dims(complex_), oracle(complex_)
                assert repr(got) == repr(expected)
                assert len(cleared) == len(full) and sum(cleared) < sum(full)
                fed.append(sum(cleared))
        assert fed == [304, 64, 1380, 720]


class TestMultiplicityFormulas:
    def test_skeleton_closed_form_at_vertices(self):
        # m^j(St v) in the d-skeleton of the n-simplex
        for n in range(1, 7):
            for d in range(1, min(n, 3) + 1):
                sc = skeleton_of_simplex(n, d)
                res = minimal_resolution_constant(sc.face_poset)
                for j in range(0, d + 1):
                    got = star_generators(sc, "0", j, res)
                    assert got == _closed_form(n, d, j), (n, d, j)

    def test_star_complexity_bounds(self):
        sc = skeleton_of_simplex(3, 2)
        res = minimal_resolution_constant(sc.face_poset)
        assert star_complexity(sc, "0", 2, res) == Fraction(1, 7)
        assert star_complexity_bound(sc, "0", 2) == 1
        assert star_complexity(sc, "0", 3, res) == 0

    def test_star_complexity_approaches_bound(self):
        values = []
        for n in (4, 5, 6):
            sc = skeleton_of_simplex(n, 2)
            res = minimal_resolution_constant(sc.face_poset)
            value = star_complexity(sc, "0", 2, res)
            assert value <= star_complexity_bound(sc, "0", 2) == 1
            values.append(value)
        assert values == sorted(values)

    def test_star_complexity_on_non_pure_complex(self, sphere_wedge):
        # the star of an edge in the circle part has top dimension 1, so its
        # own dimension gap gives the bound, not the global dimension
        sigma = sphere_wedge["sigma"]
        res = minimal_resolution_constant(sigma.face_poset)
        assert star_complexity_bound(sigma, "56", 0) == 1
        assert star_complexity_bound(sigma, "56", 1) == 0
        assert star_complexity(sigma, "56", 0, res) == 1
        assert star_complexity(sigma, "56", 1, res) == 0
        for face in sigma.face_poset.elements:
            top = max(sigma.dim(t) for t in sigma.face_poset.star(face))
            gap = top - sigma.dim(face)
            for j in range(0, 4):
                value = star_complexity(sigma, face, j, res)
                if j <= gap:
                    assert value <= star_complexity_bound(sigma, face, j)
                else:
                    assert value == 0


def _closed_form(n, d, j):
    import math

    def safe_comb(a, b):
        if b == 0:
            return 1
        if a < 0 or b < 0 or b > a:
            return 0
        return math.comb(a, b)

    return safe_comb(n, d - j) * safe_comb(n - d + j - 1, j)


class TestUniqueness:
    def test_two_routes_agree_on_random_sheaves(self):
        from posheaf.derived import peel

        rng = random.Random(2024)
        done = 0
        while done < 30:
            poset = random_poset(rng, 7)
            field = rng.choice((GF2, GF3))
            sheaf = random_sheaf(rng, poset, field)
            direct = minimal_resolution_sheaf(sheaf)
            peeled = peel(order_complex_resolution(sheaf))
            assert mult_table(direct) == mult_table(peeled)
            done += 1


# -- the packed rows a driver-built matrix holds ---------------------------------------


def _held_form_build(p: int, build: str) -> InjectiveComplex:
    """A fixed complex over GF(p): the minimal resolution of the sum of the
    constant sheaves on three vertex stars of skel(4,3), extended by zero,
    its pullback to the closed star of a vertex, or the proper pushforward
    of the constant sheaf on the open star of a vertex."""
    from posheaf.derived import proper_pushforward, pullback
    from posheaf.field import PrimeField
    from posheaf.poset import LocallyClosedSet, MonotoneMap

    field, complex_ = PrimeField(p), skeleton_of_simplex(4, 3)
    poset = complex_.face_poset
    if build == "proper pushforward":
        zset = LocallyClosedSet(poset, poset.star("0"))
        return proper_pushforward(zset, minimal_resolution_sheaf(
            constant_sheaf(zset.restricted_poset(), field)))
    stars = [poset.star(v) for v in "012"]
    res = minimal_resolution_sheaf(extension_by_zero_sheaf(poset, field, stars))
    if build == "pullback":
        sub = poset.restrict(poset.closure(poset.star("0")))
        return pullback(MonotoneMap.inclusion(sub, poset), res)
    return res


@pytest.mark.parametrize("build", ["resolution", "pullback", "proper pushforward"])
@pytest.mark.parametrize("p", [2, 3, 5])
class TestHeldPackedRows:
    def test_held_rows_are_the_packed_dict_rows_and_give_the_oracle_dims(self, p, build):
        # the matrices the driver builds hold their packed rows (a pullback's
        # are cut from its cone, so hold none); ranks read on a fresh
        # complex agree with the oracle's, run afterwards
        import rank_oracle
        from posheaf.derived import hypercohomology
        from posheaf.matrix import packed_row

        complex_ = _held_form_build(p, build)
        held = [m.packed() for m in complex_.matrices]
        assert all((m._packed is held_m) == (build != "pullback")
                   for m, held_m in zip(complex_.matrices, held) if m.nrows)
        dims, hyper = cohomology_sheaf_dims(complex_), hypercohomology(complex_)
        assert held == [[packed_row(m.field, row) for row in m.rows] for m in complex_.matrices]
        assert dims and hyper
        assert dims == rank_oracle.cohomology_sheaf_dims(complex_)
        assert hyper == rank_oracle.hypercohomology(complex_)

    def test_an_entry_edited_after_the_rows_are_read_is_seen(self, p, build):
        # drop an entry of a row whose column of the next matrix is nonzero:
        # the composition breaks and the ranks move, read from the edited
        # dict rows as on a copy that never held packed rows (not the oracle:
        # clearing assumes the composition is zero)
        from posheaf.derived import hypercohomology

        complex_ = _held_form_build(p, build)
        before = cohomology_sheaf_dims(complex_), hypercohomology(complex_)
        ms = complex_.matrices
        k, i = next((k, i) for k, (a, b) in enumerate(zip(ms, ms[1:]))
                    for i, row in enumerate(a.packed()) if row and any(i in r for r in b.rows))
        ms[k].rows[i].pop(next(iter(ms[k].rows[i])))
        after = cohomology_sheaf_dims(complex_), hypercohomology(complex_)
        copy = InjectiveComplex(complex_.poset, complex_.field, [m.copy() for m in ms],
                                complex_.degree_offset)
        assert after != before and after == (cohomology_sheaf_dims(copy), hypercohomology(copy))
        assert f"composition at degree {complex_.degree_offset + k} is nonzero" in (
            complex_.validate().issues)
