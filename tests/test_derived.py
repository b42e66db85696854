import hashlib
import random
import re

import pytest

from posheaf import derived
from posheaf.errors import InputError, SizeCapExceeded
from posheaf.matrix import InjectiveComplex, LabeledMatrix
from posheaf.poset import LocallyClosedSet, MonotoneMap, Poset
from posheaf.resolution import (
    cohomology_sheaf_dims,
    is_minimal,
    minimal_resolution_constant,
    minimal_resolution_sheaf,
)
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

from conftest import (
    GF2,
    GF3,
    GF5,
    check_resolution_health,
    extension_by_zero_sheaf,
    incidence_kernel_sheaf,
    random_monotone_map,
    random_poset,
    random_sheaf,
    simplicial_cohomology,
)


def mult_table(complex_):
    return {d: dict(c) for d, c in complex_.multiplicities().items()}


def point_complex(field=GF2):
    pt = Poset.from_covers(["pt"], [])
    return pt, InjectiveComplex(pt, field, [LabeledMatrix(pt, field, ["pt"])])


class TestPeel:
    def test_already_minimal_unchanged(self, tetra_resolution):
        peeled = peel(tetra_resolution)
        assert mult_table(peeled) == mult_table(tetra_resolution)

    def test_identity_complex_vanishes(self):
        p = Poset.from_covers(["a"], [])
        eta = LabeledMatrix(p, GF2, ["a"])
        eta.add_row("a", {0: 1})
        complex_ = InjectiveComplex(p, GF2, [eta, LabeledMatrix(p, GF2, ["a"])])
        assert not peel(complex_).matrices

    def test_rg_block_reduction(self, sphere_wedge, pushforward_complexes):
        # the relabeled complex has a rank-3 block of four 4-rows against
        # three 4-columns; peeling removes three rows and columns and leaves
        # one zero row labeled 4
        rg = pushforward_complexes["Rg"]
        eta0 = rg.matrices[0]
        four_rows = [lab for lab in eta0.row_labels if lab == "4"]
        assert len(four_rows) == 1
        idx = eta0.row_labels.index("4")
        assert eta0.rows[idx] == {}
        assert eta0.ncols == 6 and eta0.nrows == 10

    def test_peel_preserves_stalk_cohomology(self):
        rng = random.Random(99)
        from posheaf.resolution import order_complex_resolution

        for _ in range(20):
            poset = random_poset(rng, 6)
            field = rng.choice((GF2, GF3))
            sheaf = random_sheaf(rng, poset, field)
            res = order_complex_resolution(sheaf)
            peeled = peel(res)
            assert peeled.validate().ok
            assert is_minimal(peeled)
            assert cohomology_sheaf_dims(res) == cohomology_sheaf_dims(peeled)

    def test_scan_order_independent(self):
        rng = random.Random(3)
        from posheaf.resolution import order_complex_resolution

        for _ in range(10):
            poset = random_poset(rng, 6)
            sheaf = random_sheaf(rng, poset, GF2)
            res = order_complex_resolution(sheaf)
            reference = mult_table(peel(res))
            order = list(range(len(res.matrices)))
            rng.shuffle(order)
            assert mult_table(peel(res, _scan_order=order)) == reference

    @pytest.mark.parametrize(
        "n, d, p, order, digest",
        [
            (4, 2, 3, None, "1c6fb53483b7c0fa4ad2eb9230434b43bf4f783b29ea92162c11bbb175b11a4c"),
            (4, 3, 5, [2, 0, 3, 1],
             "6c9d996f7b0b0c038b2eb9574016cece89ebfff86f9c3a559a35e43501e4a556"),
        ],
    )
    def test_raw_output_pinned(self, n, d, p, order, digest):
        # sha256 of the JSON of peel's raw output, entry order included, as
        # computed by the peel that deleted every pivot row and column at once
        from posheaf.field import PrimeField
        from posheaf.io import complex_to_json, dumps
        from posheaf.poset import skeleton_of_simplex
        from posheaf.resolution import order_complex_resolution
        from posheaf.sheaf import constant_sheaf

        poset = skeleton_of_simplex(n, d).face_poset
        res = order_complex_resolution(constant_sheaf(poset, PrimeField(p)))
        text = dumps(complex_to_json(peel(res, _scan_order=order)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, d, p, seed, raw_digest, peeled_digest",
        [
            (5, 3, 3, 1, "9109bf373f1ee4e2a2e3ce033035e774e2bed07acc97d33f120c69d92d8c6e17",
             "1577eee8a21d706302a7751f55589d4a7c8ba09cfaf99faf033bfcdfd549f224"),
            (4, 3, 2, 7, "852f18ea636cbdf8bb26ba0ab17ffacc5927826f01a5e487a12224b83e0b52e6",
             "2fe09374bd719ca3c0b8ff2b1e30c376c2042a8c98a935871a734f03196183fd"),
            (5, 3, 5, 2, "f4d01e72cbf0f46acb9d4ab7a8c9d715e32eaa5519cc4942f3452d0cd808ac93",
             "23e59f330fe6650392bcae86f1185099f1bf651af3035aa007105522ed02f7d2"),
        ],
    )
    def test_raw_output_pinned_on_vertex_star_sums(self, n, d, p, seed, raw_digest,
                                                   peeled_digest):
        # sha256 of the JSON of the order-complex resolution and of its peel,
        # entry order included, as computed by the resolution built one
        # (chain, stalk coordinate) at a time and the peel that mirrored its
        # operations on the neighbour matrices.  The sheaf is the sum of the
        # constant sheaves on three seeded vertex stars of skel(n, d): zero
        # stalks, stalks of dimension up to 3, non-identity restrictions.
        from posheaf.field import PrimeField
        from posheaf.io import complex_to_json, dumps
        from posheaf.poset import skeleton_of_simplex
        from posheaf.resolution import order_complex_resolution

        rng = random.Random(seed)
        simplicial = skeleton_of_simplex(n, d)
        poset = simplicial.face_poset
        stars = [poset.star(v) for v in rng.sample(simplicial.simplices_of_dim(0), 3)]
        res = order_complex_resolution(extension_by_zero_sheaf(poset, PrimeField(p), stars))
        for complex_, digest in ((res, raw_digest), (peel(res), peeled_digest)):
            text = dumps(complex_to_json(complex_))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_refuses_a_complex_that_does_not_compose_to_zero(self):
        # [c] -> [b] -> [a] on the chain a < b < c with both maps 1: no pivot
        # lands on the nonzero composite, so only the entry check sees it
        chain = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
        first = LabeledMatrix(chain, GF2, ["c"], ["b"], [{0: 1}])
        second = LabeledMatrix(chain, GF2, ["b"], ["a"], [{0: 1}])
        third = LabeledMatrix(chain, GF2, ["a"])
        complex_ = InjectiveComplex(chain, GF2, [first, second, third])
        assert not complex_.validate().ok
        with pytest.raises(InputError, match="compose to zero"):
            peel(complex_)
        # nothing before peel checks a pushed complex, so the entry check is
        # also the guard of the public pushforward
        with pytest.raises(InputError, match="compose to zero"):
            pushforward(MonotoneMap.identity(chain), complex_)

    def test_split_off_row_of_the_previous_matrix_is_emptied(self):
        # [pi] -> [pi]^2 -> [pi], maps (1, 1)^T and (1, 1): the pivot (0, 0) of
        # the second matrix, taken first, splits off row 0 of the first, which
        # is nonzero until it is emptied; a pivot there would then split off
        # the live column and leave one [pi] behind
        pt = Poset.from_covers(["pi"], [])
        first = LabeledMatrix(pt, GF2, ["pi"], ["pi", "pi"], [{0: 1}, {0: 1}])
        second = LabeledMatrix(pt, GF2, ["pi", "pi"], ["pi"], [{0: 1, 1: 1}])
        complex_ = InjectiveComplex(pt, GF2, [first, second, LabeledMatrix(pt, GF2, ["pi"])])
        assert not peel(complex_, _scan_order=[1, 0]).matrices

    def test_agrees_with_identity_pullback_minimization(self):
        # two independent minimization routes: pivot peeling and the exact
        # mapping cone over the identity cylinder
        rng = random.Random(5150)
        from posheaf.resolution import order_complex_resolution

        done = 0
        while done < 15:
            poset = random_poset(rng, 6)
            field = rng.choice((GF2, GF3))
            sheaf = random_sheaf(rng, poset, field)
            res = order_complex_resolution(sheaf)
            if not res.matrices:
                continue
            via_peel = peel(res)
            via_cone = pullback(MonotoneMap.identity(poset), res)
            assert mult_table(via_peel) == mult_table(via_cone)
            done += 1


class TestPushforward:
    def test_identity(self, tetra_resolution):
        f = MonotoneMap.identity(tetra_resolution.poset)
        assert mult_table(pushforward(f, tetra_resolution)) == mult_table(tetra_resolution)

    def test_rg_profile(self, pushforward_complexes):
        rg = pushforward_complexes["Rg"]
        table = mult_table(rg)
        assert table[0] == {t: 1 for t in ("013", "014", "034", "123", "124", "234")}
        assert table[1] == {
            **{e: 1 for e in ("01", "03", "04", "12", "13", "14", "23", "24", "34")},
            "4": 1,
        }
        assert table[2] == {v: 1 for v in ("0", "1", "2", "3", "4")}

    def test_rh_profile(self, pushforward_complexes):
        table = mult_table(pushforward_complexes["Rh"])
        assert table[0] == {
            **{t: 1 for t in ("013", "014", "034", "123", "124", "234")},
            "14": 1, "34": 1, "13": 1,
        }
        assert table[1] == {
            **{e: 1 for e in ("01", "03", "04", "12", "13", "14", "23", "24", "34")},
            "4": 2, "1": 1, "3": 1,
        }
        assert table[2] == {v: 1 for v in ("0", "1", "2", "3", "4")}

    def test_rl_profile(self, pushforward_complexes):
        table = mult_table(pushforward_complexes["Rl"])
        assert table[0] == {t: 1 for t in ("013", "014", "034", "123", "124", "234")}
        assert table[1] == {
            e: 1 for e in ("01", "03", "04", "12", "13", "14", "23", "24", "34")
        }
        assert table[2] == {v: 1 for v in ("0", "1", "2", "3")}

    def test_functoriality_of_composition(self):
        # R(g∘f)_* = Rg_* Rf_* on 20 random pairs of maps over each field
        for field in (GF2, GF3, GF5):
            rng = random.Random(6)
            done = 0
            while done < 20:
                a = random_poset(rng, 6)
                b = random_poset(rng, 6)
                c = random_poset(rng, 6)
                f = random_monotone_map(rng, a, b)
                g = random_monotone_map(rng, b, c) if f else None
                if f is None or g is None:
                    continue
                sheaf = random_sheaf(rng, a, field)
                res = minimal_resolution_sheaf(sheaf)
                composed = MonotoneMap(a, c, {e: g(f(e)) for e in a.elements})
                lhs = pushforward(composed, res)
                rhs = pushforward(g, pushforward(f, res))
                assert mult_table(lhs) == mult_table(rhs)
                assert same_derived_object(lhs, rhs)
                done += 1


class TestPullback:
    def test_point_bootstrap(self, tetra, tetra_resolution):
        pt, point = point_complex()
        f = MonotoneMap.constant(tetra.face_poset, pt, "pt")
        pulled = pullback(f, point)
        assert mult_table(pulled) == mult_table(tetra_resolution)
        check_resolution_health(pulled, tetra.face_poset)

    def test_section7_pull_rg(self, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        b_sub = lam.restrict({"4", "24"})
        inclusion = MonotoneMap.inclusion(b_sub, lam)
        pulled = pullback(inclusion, pushforward_complexes["Rg"])
        assert mult_table(pulled) == {0: {"24": 1}, 1: {"4": 1}}
        # the differential [24] -> [4] is the zero map
        assert not any(pulled.matrices[0].rows)

    def test_section7_pull_rh(self, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        b_sub = lam.restrict({"4", "24"})
        inclusion = MonotoneMap.inclusion(b_sub, lam)
        pulled = pullback(inclusion, pushforward_complexes["Rh"])
        assert mult_table(pulled) == {0: {"24": 1}}

    @pytest.mark.parametrize("offset", [0, -2])
    def test_empty_complex_pulls_back_to_the_zero_complex(self, offset):
        pt = Poset.from_covers(["pt"], [])
        chain = Poset.from_covers(["a", "b"], [("a", "b")])
        empty = InjectiveComplex(pt, GF3, [], offset)
        pulled = pullback(MonotoneMap.constant(chain, pt, "pt"), empty)
        assert pulled == InjectiveComplex.empty(chain, GF3)

    def test_pullback_minimal_even_from_non_minimal(self):
        rng = random.Random(44)
        from posheaf.resolution import order_complex_resolution

        done = 0
        while done < 10:
            tgt = random_poset(rng, 5)
            src = random_poset(rng, 5)
            f = random_monotone_map(rng, src, tgt)
            if f is None:
                continue
            res = order_complex_resolution(random_sheaf(rng, tgt, GF2))
            pulled = pullback(f, res)
            assert is_minimal(pulled)
            assert pulled.validate().ok
            done += 1

    def test_raw_output_pinned_non_injective_simplicial(self):
        # sha256 of every matrix's labels and rows, with each row's entries in
        # ascending column order, as computed by MakeExact with the row-basis
        # screen: a fixed GF(3) kernel sheaf on the 2-skeleton of the
        # 4-simplex, resolved and pulled back along the simplicial map that
        # folds vertex 5 onto vertex 0
        from posheaf.field import PrimeField
        from posheaf.poset import skeleton_of_simplex
        from screen_oracle import ascending_digest

        src, tgt = skeleton_of_simplex(5, 2), skeleton_of_simplex(4, 2)
        f = MonotoneMap.simplicial(src, tgt, {"5": "0"})
        res = minimal_resolution_sheaf(incidence_kernel_sheaf(tgt, PrimeField(3), 2))
        pulled = pullback(f, res)
        assert pulled.total_summands() == 93
        assert ascending_digest(pulled) == (
            "56a90e5cef44201a75250ad6b6c95a09be6318829aee82fb11fe9d1098917000")


class TestProperPushforward:
    def test_closed_set_extends_by_zero(self, tetra, tetra_resolution):
        poset = tetra.face_poset
        closed = poset.closure(["01"])
        sub = poset.restrict(closed)
        res = minimal_resolution_constant(sub)
        zset = LocallyClosedSet(poset, closed)
        lifted = InjectiveComplex(sub, GF2, res.matrices, res.degree_offset)
        pushed = proper_pushforward(zset, lifted)
        assert mult_table(pushed) == mult_table(res)

    def test_section7_extension_of_two_term(self, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        zset = LocallyClosedSet(lam, ["4", "24"])
        pulled = pullback(
            MonotoneMap.inclusion(zset.restricted_poset(), lam),
            pushforward_complexes["Rg"],
        )
        pushed = proper_pushforward(zset, pulled)
        assert mult_table(pushed) == {0: {"24": 1}, 1: {"4": 1, "2": 1}}
        eta0 = pushed.matrices[0]
        by_label = dict(zip(eta0.row_labels, eta0.rows))
        assert by_label["4"] == {} and by_label["2"] == {0: 1}

    def test_section7_extension_of_one_term(self, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        zset = LocallyClosedSet(lam, ["4", "24"])
        pulled = pullback(
            MonotoneMap.inclusion(zset.restricted_poset(), lam),
            pushforward_complexes["Rh"],
        )
        pushed = proper_pushforward(zset, pulled)
        assert mult_table(pushed) == {0: {"24": 1}, 1: {"2": 1}}
        assert hypercohomology(pushed) == {}

    @pytest.mark.parametrize("members, offset", [(["01", "0"], 0), (["01", "0"], 2), ([], 1)])
    def test_empty_complex_extends_to_the_zero_complex(self, tetra, members, offset):
        zset = LocallyClosedSet(tetra.face_poset, members)
        empty = InjectiveComplex(zset.restricted_poset(), GF3, [], offset)
        pushed = proper_pushforward(zset, empty)
        assert pushed == InjectiveComplex.empty(tetra.face_poset, GF3)

    def test_refuses_a_complex_ordered_otherwise_than_z(self):
        # same elements as Z, but a < b, c here and b, c < a in the ambient poset
        res = minimal_resolution_constant(Poset.from_covers("abc", [("a", "b"), ("a", "c")]))
        ambient = Poset.from_covers("abc", [("b", "a"), ("c", "a")])
        with pytest.raises(InputError, match="order differs"):
            proper_pushforward(LocallyClosedSet(ambient, "abc"), res)


class TestProperPullback:
    def test_whole_poset(self, tetra_resolution):
        zset = LocallyClosedSet(tetra_resolution.poset, tetra_resolution.poset.elements)
        sub = proper_pullback(zset, tetra_resolution)
        assert mult_table(sub) == mult_table(tetra_resolution)

    def test_section7_shriek_rg(self, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        zset = LocallyClosedSet(lam, ["4", "24"])
        sub = proper_pullback(zset, pushforward_complexes["Rg"])
        assert mult_table(sub) == {1: {"24": 1, "4": 1}, 2: {"4": 1}}
        assert hypercohomology(sub) == {1: 1}
        assert is_minimal(sub)

    def test_section7_shriek_rh(self, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        zset = LocallyClosedSet(lam, ["4", "24"])
        sub = proper_pullback(zset, pushforward_complexes["Rh"])
        assert mult_table(sub) == {1: {"24": 1, "4": 2}, 2: {"4": 1}}
        assert hypercohomology(sub) == {1: 2}

    def test_round_trip_over_z(self):
        rng = random.Random(10)
        for _ in range(20):
            ambient = random_poset(rng, 7)
            members = set(rng.sample(ambient.elements, rng.randint(1, len(ambient))))
            if not ambient.is_locally_closed(members):
                continue
            zset = LocallyClosedSet(ambient, members)
            sub = zset.restricted_poset()
            sheaf = random_sheaf(rng, sub, GF2)
            res = minimal_resolution_sheaf(sheaf)
            if not res.matrices:
                continue
            back = proper_pullback(zset, proper_pushforward(zset, res))
            assert mult_table(back) == mult_table(res)


@pytest.mark.parametrize("functor, message", [
    ("push", "map's source"),
    ("pull", "map's target"),
    ("shriek-push", "does not live on the locally closed set"),
    ("shriek-pull", "ambient poset"),
])
def test_functors_refuse_a_complex_on_the_wrong_poset(functor, message):
    # the complex lives on the chain a < b; the map, Z and the ambient poset
    # on the chain a < b < c
    on_ab = minimal_resolution_constant(Poset.from_covers("ab", [("a", "b")]))
    abc = Poset.from_covers("abc", [("a", "b"), ("b", "c")])
    zset = LocallyClosedSet(abc, "bc")
    call = {
        "push": lambda: pushforward(MonotoneMap.identity(abc), on_ab),
        "pull": lambda: pullback(MonotoneMap.identity(abc), on_ab),
        "shriek-push": lambda: proper_pushforward(zset, on_ab),
        "shriek-pull": lambda: proper_pullback(zset, on_ab),
    }[functor]
    with pytest.raises(InputError, match=message):
        call()


class TestHypercohomology:
    def test_extra_edges_star(self, simplex_star):
        res = minimal_resolution_constant(simplex_star)
        assert hypercohomology(res) == {0: 1}

    def test_tetra_sphere(self, tetra_resolution):
        assert hypercohomology(tetra_resolution) == {0: 1, 2: 1}

    def test_section7_composite(self, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        zset = LocallyClosedSet(lam, ["4", "24"])
        pulled = pullback(
            MonotoneMap.inclusion(zset.restricted_poset(), lam),
            pushforward_complexes["Rg"],
        )
        pushed = proper_pushforward(zset, pulled)
        assert hypercohomology(pushed) == {1: 1}

    def test_agrees_with_pushforward_to_point(self, tetra_resolution):
        pt = Poset.from_covers(["pt"], [])
        f = MonotoneMap.constant(tetra_resolution.poset, pt, "pt")
        pushed = pushforward(f, tetra_resolution)
        assert {d: c["pt"] for d, c in pushed.multiplicities().items()} == \
            hypercohomology(tetra_resolution)

    def test_matches_simplicial_cohomology(self, sphere_wedge):
        for key in ("sigma", "lambda", "gamma"):
            sc = sphere_wedge[key]
            res = minimal_resolution_constant(sc.face_poset)
            assert hypercohomology(res) == simplicial_cohomology(sc)


class TestEulerCharacteristic:
    def test_tetra(self, tetra_resolution):
        assert euler_characteristic(tetra_resolution) == 2

    def test_extra_edges(self, simplex_star):
        res = minimal_resolution_constant(simplex_star)
        assert euler_characteristic(res) == 6 - 8 + 4 - 1 == 1

    def test_section7(self, pushforward_complexes):
        assert euler_characteristic(pushforward_complexes["Rg"]) == 6 - 10 + 5 == 1
        assert euler_characteristic(pushforward_complexes["Rh"]) == 9 - 13 + 5 == 1
        assert euler_characteristic(pushforward_complexes["Rl"]) == 6 - 9 + 4 == 1

    def test_additivity_over_partitions(self):
        rng = random.Random(12)
        done = 0
        while done < 15:
            poset = random_poset(rng, 7)
            closed = poset.closure(rng.sample(poset.elements, rng.randint(1, len(poset))))
            open_part = set(poset.elements) - closed
            if not closed or not open_part:
                continue
            sheaf = random_sheaf(rng, poset, GF2)
            res = minimal_resolution_sheaf(sheaf)
            if not res.matrices:
                continue
            closed_set = LocallyClosedSet(poset, closed)
            open_set = LocallyClosedSet(poset, open_part)
            chi = euler_characteristic(res)
            shriek_closed = proper_pullback(closed_set, res)
            star_open = pullback(
                MonotoneMap.inclusion(open_set.restricted_poset(), poset), res
            )
            assert chi == euler_characteristic(shriek_closed) + euler_characteristic(
                star_open
            )
            extended = proper_pushforward(open_set, star_open)
            star_closed = pullback(
                MonotoneMap.inclusion(closed_set.restricted_poset(), poset), res
            )
            assert chi == euler_characteristic(extended) + euler_characteristic(
                star_closed
            )
            done += 1


class TestMappingCone:
    def test_identity_cone_exact(self, tetra_resolution):
        cone = mapping_cone(ComplexMorphism.identity(tetra_resolution))
        assert cohomology_sheaf_dims(cone) == {}
        assert hypercohomology(cone) == {}

    def test_zero_map_shifts(self, tetra_resolution):
        empty = InjectiveComplex.empty(tetra_resolution.poset, GF2)
        cone = mapping_cone(ComplexMorphism(tetra_resolution, empty, {}))
        shifted = tetra_resolution.shifted(1)
        assert mult_table(cone) == mult_table(shifted)
        assert hypercohomology(cone) == {
            d - 1: v for d, v in hypercohomology(tetra_resolution).items()
        }

    def test_empty_sides(self, tetra):
        # 0 -> G has cone G; F -> 0 has cone F[1] with its differentials
        # negated; 0 -> 0 has cone 0
        poset = tetra.face_poset
        res = minimal_resolution_constant(poset, GF3)
        empty = InjectiveComplex.empty(poset, GF3)
        negated = [LabeledMatrix(poset, GF3, m.col_labels, m.row_labels,
                                 [{j: GF3.neg(v) for j, v in row.items()} for row in m.rows])
                   for m in res.matrices]
        assert mapping_cone(ComplexMorphism(empty, res, {})) == res
        assert mapping_cone(ComplexMorphism(res, empty, {})) == InjectiveComplex(
            poset, GF3, negated, res.degree_offset - 1)
        assert mapping_cone(ComplexMorphism(empty, empty, {})) == empty

    @pytest.mark.parametrize("fault, message", [
        ("labels", "component 0 has mismatched labels"),
        ("component", r"component 0: entry \(0,0\) = 3 not a reduced nonzero scalar"),
        ("square", "square at degree 0 does not commute"),
    ])
    def test_refuses_an_invalid_morphism(self, fault, message):
        # the identity of [x] -> [y] on the chain y < x, broken in one place
        p = Poset.from_covers(["y", "x"], [("y", "x")])
        eta = LabeledMatrix(p, GF2, ["x"], ["y"], [{0: 1}])
        complex_ = InjectiveComplex(p, GF2, [eta, LabeledMatrix(p, GF2, ["y"])])
        components = dict(ComplexMorphism.identity(complex_).components)
        if fault == "labels":
            components[0] = LabeledMatrix(p, GF2, ["y"], ["y"])
        elif fault == "component":
            components[0] = LabeledMatrix(p, GF2, ["x"], ["x"], [{0: 3}])
        else:
            del components[1]  # a zero component in degree 1
        alpha = ComplexMorphism(complex_, complex_, components)
        [issue] = alpha.validate().issues
        assert re.fullmatch(message, issue)
        with pytest.raises(InputError, match=message):
            mapping_cone(alpha)

    def test_refuses_complexes_over_different_fields(self):
        # read over GF(3), the GF(2) identity would fail a square, not name the fault
        p = Poset.from_covers(["y", "x"], [("y", "x")])
        gf2, gf3 = (InjectiveComplex(p, field, [LabeledMatrix(p, field, ["x"], ["y"], [{0: 1}]),
                                                LabeledMatrix(p, field, ["y"])])
                    for field in (GF2, GF3))
        components = ComplexMorphism.identity(gf2).components
        with pytest.raises(InputError, match="^complexes are over different fields$"):
            ComplexMorphism(gf2, gf3, components)

    def test_cone_detects_quasi_isomorphism(self):
        # a non-surjective morphism between different resolutions: cone not exact
        p = Poset.from_covers(["y", "x"], [("y", "x")])
        single = InjectiveComplex(p, GF2, [LabeledMatrix(p, GF2, ["x"])])
        double = InjectiveComplex(p, GF2, [LabeledMatrix(p, GF2, ["y"])])
        cone = mapping_cone(ComplexMorphism(single, double, {}))
        assert cohomology_sheaf_dims(cone) != {}


class TestHomSpaceDims:
    def test_single_summand(self):
        p = Poset.from_covers(["a"], [])
        single = InjectiveComplex(p, GF2, [LabeledMatrix(p, GF2, ["a"])])
        assert hom_space_dims(single, single) == (1, 0, 1)

    def test_identity_differential_homotopy(self):
        p = Poset.from_covers(["a"], [])
        eta = LabeledMatrix(p, GF2, ["a"])
        eta.add_row("a", {0: 1})
        complex_ = InjectiveComplex(p, GF2, [eta, LabeledMatrix(p, GF2, ["a"])])
        morphisms, null, derived_dim = hom_space_dims(complex_, complex_)
        assert derived_dim == 0
        assert morphisms >= 1

    def test_tetra_endomorphisms(self, tetra_resolution):
        morphisms, null, derived_dim = hom_space_dims(tetra_resolution, tetra_resolution)
        assert morphisms - null >= 1
        # identity is not null-homotopic on a minimal complex
        assert derived_dim >= 1

    def test_size_cap(self, tetra_resolution, monkeypatch):
        monkeypatch.setattr(derived, "HOM_SYSTEM_VARIABLE_CAP", 3)
        with pytest.raises(SizeCapExceeded):
            hom_space_dims(tetra_resolution, tetra_resolution)

    def test_refuses_complexes_over_different_fields(self):
        from posheaf.poset import skeleton_of_simplex

        poset = skeleton_of_simplex(2, 1).face_poset
        gf2, gf3 = (minimal_resolution_constant(poset, field) for field in (GF2, GF3))
        assert hom_space_dims(gf2, gf2) == hom_space_dims(gf3, gf3) == (1, 0, 1)
        for I, J in [(gf3, gf2), (gf2, gf3)]:
            with pytest.raises(InputError, match="^complexes are over different fields$"):
                hom_space_dims(I, J)

    def test_graded_endomorphisms_match_cohomology(self, tetra_resolution, sphere_wedge):
        # hom into the shifted complex recovers the cohomology of the space
        wedge_res = minimal_resolution_constant(sphere_wedge["sigma"].face_poset)
        for res, expected in (
            (tetra_resolution, {0: 1, 1: 0, 2: 1, 3: 0}),
            (wedge_res, {0: 1, 1: 1, 2: 1, 3: 0}),
        ):
            for n, dim in expected.items():
                assert hom_space_dims(res, res.shifted(n))[2] == dim

    def test_disconnected_components_counted(self):
        from posheaf.poset import SimplicialComplex

        two = SimplicialComplex.from_facets(["01", "23"])
        res = minimal_resolution_constant(two.face_poset)
        assert hom_space_dims(res, res) == (2, 0, 2)

    def test_single_term_reduces_to_hom_formula(self):
        from collections import Counter

        from posheaf.sheaf import hom_dim_injective

        rng = random.Random(606)
        for _ in range(25):
            poset = random_poset(rng, 6)
            field = rng.choice((GF2, GF3))
            i_labels = [rng.choice(poset.elements) for _ in range(rng.randint(1, 3))]
            j_labels = [rng.choice(poset.elements) for _ in range(rng.randint(1, 3))]
            I = InjectiveComplex(poset, field, [LabeledMatrix(poset, field, i_labels)])
            J = InjectiveComplex(poset, field, [LabeledMatrix(poset, field, j_labels)])
            expected = hom_dim_injective(Counter(i_labels), Counter(j_labels), poset)
            assert hom_space_dims(I, J) == (expected, 0, expected)


class TestDualize:
    def test_empty(self):
        p = Poset.from_covers(["a", "b"], [("a", "b")])
        for offset in (0, 3):
            dual = dualize(InjectiveComplex(p, GF3, [], offset))
            assert dual == InjectiveComplex.empty(p.opposite(), GF3)

    def test_single_summand(self):
        p = Poset.from_covers(["a", "b"], [("a", "b")])
        single = InjectiveComplex(p, GF2, [LabeledMatrix(p, GF2, ["b"])])
        dual = dualize(single)
        assert dual.degree_offset == 0
        assert mult_table(dual) == {0: {"b": 1}}
        assert dual.poset.leq("b", "a")

    def test_involution(self, tetra_resolution):
        dd = dualize(dualize(tetra_resolution))
        assert mult_table(dd) == mult_table(tetra_resolution)
        assert dd.validate().ok

    def test_dual_is_valid_on_opposite(self, tetra_resolution):
        dual = dualize(tetra_resolution)
        assert dual.validate().ok
        assert dual.degree_offset == -2


class TestPullbackViaProper:
    def test_identity(self, tetra_resolution):
        f = MonotoneMap.identity(tetra_resolution.poset)
        assert pullback_via_proper_check(f, tetra_resolution)

    def test_section7(self, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        b_sub = lam.restrict({"4", "24"})
        inclusion = MonotoneMap.inclusion(b_sub, lam)
        assert pullback_via_proper_check(inclusion, pushforward_complexes["Rg"])

    def test_random_triples(self):
        rng = random.Random(314)
        done = 0
        while done < 25:
            tgt = random_poset(rng, 6)
            src = random_poset(rng, 6)
            f = random_monotone_map(rng, src, tgt)
            if f is None:
                continue
            res = minimal_resolution_sheaf(random_sheaf(rng, tgt, GF2))
            if not res.matrices:
                continue
            assert pullback_via_proper_check(f, res)
            done += 1


class TestSameDerivedObject:
    def test_distinguishes(self, tetra_resolution, pushforward_complexes):
        assert same_derived_object(tetra_resolution, tetra_resolution)
        assert not same_derived_object(
            pushforward_complexes["Rg"], pushforward_complexes["Rh"]
        )
