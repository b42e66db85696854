import random
import re
import sys
from unittest import mock

import pytest

from posheaf.errors import InputError
from posheaf.poset import Poset
from posheaf.sheaf import (
    NaturalTransformation,
    Sheaf,
    constant_sheaf,
    hom_dim_injective,
    injective_hull,
)

from dense_oracle import identity, rank
from conftest import (
    GF2,
    GF3,
    GF5,
    hull_inclusion,
    kernel_sheaf,
    naturality_system_nullity,
    random_labeled_matrix,
    random_poset,
    random_sheaf,
    zero_stalk_chain,
    zero_stalk_diamond,
)


@pytest.fixture
def two_chain():
    return Poset.from_covers(["y", "x"], [("y", "x")])


@pytest.fixture
def vee():
    return Poset.from_covers(["w", "x", "y"], [("w", "x"), ("w", "y")])


@pytest.fixture
def diamond():
    return Poset.from_covers(
        ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    )


class TestConstantSheaf:
    def test_point(self):
        p = Poset.from_covers(["pt"], [])
        k = constant_sheaf(p)
        assert k.stalk_dim == {"pt": 1}

    def test_tetra(self, tetra):
        k = constant_sheaf(tetra.face_poset)
        assert len(k.stalk_dim) == 14
        assert all(d == 1 for d in k.stalk_dim.values())
        assert k.validate().ok

    def test_empty(self):
        p = Poset.from_covers([], [])
        k = constant_sheaf(p)
        assert k.stalk_dim == {}


class TestStalkDims:
    def test_refuses_a_stalk_at_an_unknown_element(self, two_chain):
        with pytest.raises(InputError, match=r"^stalk given for unknown element 'zz'$"):
            Sheaf(two_chain, GF2, {"x": 1, "zz": 3}, {})

    def test_refuses_a_negative_stalk(self, two_chain):
        with pytest.raises(InputError, match=r"^stalk dimension of 'x' is negative$"):
            Sheaf(two_chain, GF2, {"x": -2}, {})

    @pytest.mark.parametrize("dim", [1.5, 2.0, "2", "two", True, None])
    def test_refuses_a_stalk_that_is_not_an_int(self, two_chain, dim):
        # no silent truncation of 1.5 or parse of "2", no bare ValueError on "two"
        message = re.escape(f"stalk dimension of 'x' must be an integer, got {dim!r}")
        with pytest.raises(InputError, match=f"^{message}$"):
            Sheaf(two_chain, GF2, {"x": dim, "y": 1}, {})

    def test_refuses_a_restriction_on_a_non_cover_pair(self, two_chain):
        # the reversed cover, and an element paired with itself
        for pair in [("x", "y"), ("x", "x")]:
            message = re.escape(f"restriction given for non-cover pair {pair}")
            with pytest.raises(InputError, match=f"^{message}$"):
                Sheaf(two_chain, GF2, {"x": 1, "y": 1}, {pair: [[1]]})


class TestValidateSheaf:
    def test_constant_valid(self, diamond):
        assert constant_sheaf(diamond).validate().ok

    def test_two_distinct_maps_still_a_sheaf(self, vee):
        # distinct endomorphisms on the two branches: a valid sheaf,
        # whether or not it is injective
        b = Sheaf(
            vee,
            GF3,
            {"w": 2, "x": 2, "y": 2},
            {("w", "x"): [[1, 0], [0, 1]], ("w", "y"): [[0, 1], [1, 0]]},
        )
        assert b.validate().ok

    def test_perturbed_diamond_fails(self, diamond):
        good = {
            ("a", "b"): [[1]],
            ("a", "c"): [[1]],
            ("b", "d"): [[1]],
            ("c", "d"): [[1]],
        }
        sheaf = Sheaf(diamond, GF3, {e: 1 for e in diamond.elements}, good)
        assert sheaf.validate().ok
        bad = dict(good)
        bad[("c", "d")] = [[2]]
        sheaf = Sheaf(diamond, GF3, {e: 1 for e in diamond.elements}, bad)
        report = sheaf.validate()
        assert not report.ok
        assert "functoriality" in report.first_violation


    def test_hexagon_paths_of_length_three_disagree(self):
        # a < b1 < b2 < c and a < d1 < d2 < c: no two paths of length two
        # share their ends, so only the whole paths can disagree
        p = Poset.from_covers(
            ["a", "b1", "b2", "d1", "d2", "c"],
            [("a", "b1"), ("b1", "b2"), ("b2", "c"), ("a", "d1"), ("d1", "d2"), ("d2", "c")],
        )
        maps = {cover: [[1]] for cover in p.covers}
        assert Sheaf(p, GF3, {e: 1 for e in p.elements}, maps).validate().ok
        maps[("d2", "c")] = [[0]]
        report = Sheaf(p, GF3, {e: 1 for e in p.elements}, maps).validate()
        assert report.first_violation == (
            "functoriality fails between a and c: paths via b1 and d1 disagree"
        )

    def test_validated_once(self, diamond):
        # the sheaf is immutable: the caller and both resolution routes
        # share its one functoriality check
        from posheaf.matrix import ValidationReport
        from posheaf.resolution import minimal_resolution_sheaf, order_complex_resolution

        sheaf = constant_sheaf(diamond, GF3)
        with mock.patch("posheaf.sheaf.ValidationReport", wraps=ValidationReport) as made:
            assert sheaf.validate().ok
            order_complex_resolution(sheaf)
            minimal_resolution_sheaf(sheaf)
            assert sheaf.validate().ok
        assert made.call_count == 1


class TestRestrictionMap:
    def test_composition_along_a_path_longer_than_the_recursion_limit(self):
        names = [f"e{i}" for i in range(400)]
        sheaf = constant_sheaf(Poset.from_covers(names, list(zip(names, names[1:]))))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            assert sheaf.restriction_map(names[0], names[-1]) == [[1]]
        finally:
            sys.setrecursionlimit(limit)

    def test_composition_through_a_zero_stalk(self):
        chain, diamond = zero_stalk_chain(), zero_stalk_diamond()
        assert chain.validate().ok
        assert diamond.validate().ok
        assert chain.restriction_map("x", "z") == [[0]]
        assert diamond.restriction_map("a", "d") == [[0]]

    def test_refuses_a_pair_that_is_not_below(self, two_chain):
        with pytest.raises(InputError, match="^x is not below y$"):
            constant_sheaf(two_chain).restriction_map("x", "y")


class TestMaximalVectors:
    def test_refuses_an_unknown_element(self, two_chain):
        with pytest.raises(InputError, match="^unknown element 'zz'$"):
            constant_sheaf(two_chain).maximal_vectors("zz")

    def test_maximal_element(self, two_chain):
        f = Sheaf(two_chain, GF2, {"x": 3, "y": 1}, {("y", "x"): [[1], [0], [0]]})
        assert f.maximal_vectors("x") == identity(3)

    def test_constant_non_maximal(self, diamond):
        k = constant_sheaf(diamond)
        assert k.maximal_vectors("a") == []
        assert k.maximal_vectors("d") == [[1]]

    def test_zero_above(self, two_chain):
        # stalk W at the top, zero at the bottom
        f = Sheaf(two_chain, GF2, {"x": 2, "y": 0}, {})
        assert f.maximal_vectors("x") == identity(2)
        assert f.maximal_vectors("y") == []

    def test_cover_intersection_suffices(self, diamond):
        rng = random.Random(4)
        for _ in range(20):
            sheaf = random_sheaf(rng, diamond, GF3)
            for e in diamond.elements:
                basis = sheaf.maximal_vectors(e)
                for v in basis:
                    for t in diamond.elements:
                        if t != e and diamond.leq(e, t):
                            image = [
                                sum(
                                    row[c] * v[c] for c in range(len(v))
                                ) % 3
                                for row in sheaf.restriction_map(e, t)
                            ]
                            assert all(x == 0 for x in image)


class TestInjectiveHull:
    def test_constant_diagonal_embedding(self, tetra):
        k = constant_sheaf(tetra.face_poset)
        alpha, labels = hull_inclusion(k)
        assert sorted(labels) == sorted(tetra.face_poset.maximal_elements())
        for e in tetra.face_poset.elements:
            col = [row[0] for row in alpha.components[e]]
            assert all(v == 1 for v in col)
        assert alpha.validate().ok
        assert alpha.is_injective()

    def test_skyscraper(self, two_chain):
        f = Sheaf(two_chain, GF2, {"x": 2, "y": 0}, {})
        alpha, labels = hull_inclusion(f)
        assert labels == ["x", "x"]
        assert alpha.components["x"] == identity(2)

    def test_labels_and_sparse_rows(self, two_chain):
        # one {coordinate: value} row per summand above the element, zeros left out
        f = Sheaf(two_chain, GF3, {"x": 2, "y": 2}, {("y", "x"): [[1, 0], [0, 0]]})
        assert injective_hull(f) == (["y", "x", "x"], {"y": [{1: 1}, {0: 1}, {}],
                                                       "x": [{0: 1}, {1: 1}]})

    def test_already_injective(self, two_chain):
        f = Sheaf.injective(two_chain, GF2, {"x": 1})
        alpha, labels = hull_inclusion(f)
        assert labels == ["x"]
        assert alpha.components["x"] == [[1]]
        assert alpha.components["y"] == [[1]]

    def test_hull_minimality_criterion(self):
        # maximal vectors of the hull at pi coincide with the embedded M_F(pi)
        rng = random.Random(17)
        for field in (GF2, GF3, GF5):
            for _ in range(15):
                poset = random_poset(rng, 6)
                sheaf = random_sheaf(rng, poset, field)
                alpha, labels = hull_inclusion(sheaf)
                assert alpha.validate().ok
                assert alpha.is_injective()
                hull = alpha.target
                for e in poset.elements:
                    hull_max = hull.maximal_vectors(e)
                    expected = sum(1 for lab in labels if lab == e)
                    assert len(hull_max) == expected
                    # each maximal vector of the hull lies in the image of alpha
                    comp = alpha.components[e]
                    assert len(comp) == hull.stalk_dim[e]
                    cols = [
                        [comp[r][c] for r in range(len(comp))]
                        for c in range(sheaf.stalk_dim[e])
                    ]
                    for vec in hull_max:
                        stacked = cols + [vec]
                        assert rank(field, stacked) == rank(field, cols) or not cols

    def test_every_vector_reaches_a_maximal_one(self):
        # nonzero stalk vectors restrict to a nonzero maximal vector somewhere above
        rng = random.Random(29)
        from dense_oracle import mat_vec

        for _ in range(25):
            poset = random_poset(rng, 6)
            field = rng.choice((GF2, GF3))
            sheaf = random_sheaf(rng, poset, field)
            for e in poset.elements:
                dim = sheaf.stalk_dim[e]
                if dim == 0 or dim > 2:
                    continue
                for coded in range(1, field.p**dim):
                    vec = [(coded // field.p**i) % field.p for i in range(dim)]
                    found = False
                    for t in poset.elements:
                        if not poset.leq(e, t):
                            continue
                        image = mat_vec(field, sheaf.restriction_map(e, t), vec)
                        if all(x % field.p == 0 for x in image):
                            continue
                        basis = sheaf.maximal_vectors(t)
                        if basis and rank(field, basis + [image]) == rank(field, basis):
                            found = True
                            break
                    assert found, "vector never becomes maximal"

    def test_invalid_sheaf_rejected(self, diamond):
        bad = Sheaf(
            diamond,
            GF3,
            {e: 1 for e in diamond.elements},
            {
                ("a", "b"): [[1]],
                ("a", "c"): [[1]],
                ("b", "d"): [[1]],
                ("c", "d"): [[2]],
            },
        )
        with pytest.raises(InputError):
            injective_hull(bad)


class TestNaturalTransformation:
    def test_refuses_a_wrong_shaped_component(self, two_chain):
        sheaf = Sheaf(two_chain, GF2, {"x": 1, "y": 2}, {("y", "x"): [[1, 0]]})
        with pytest.raises(InputError, match=r"component at 'y' has shape 2x1, expected 2x2"):
            NaturalTransformation(sheaf, sheaf, {"y": [[1], [0]]})

    def test_refuses_a_component_at_an_unknown_element(self, two_chain):
        sheaf = constant_sheaf(two_chain)
        with pytest.raises(InputError, match="unknown element 'z'"):
            NaturalTransformation(sheaf, sheaf, {"x": [[1]], "z": [[1]]})

    def test_naturality_square_that_fails(self, two_chain):
        # the identity at y but zero at x does not commute with the restriction y -> x
        sheaf = constant_sheaf(two_chain)
        report = NaturalTransformation(sheaf, sheaf, {"y": [[1]], "x": [[0]]}).validate()
        assert report.issues == ["naturality square fails on y < x"]
        assert NaturalTransformation(sheaf, sheaf, {"y": [[1]], "x": [[1]]}).validate().ok

    def test_refuses_sheaves_on_different_posets(self, two_chain, vee):
        with pytest.raises(InputError, match="^source and target live on different posets$"):
            NaturalTransformation(constant_sheaf(two_chain), constant_sheaf(vee), {})

    def test_refuses_sheaves_over_different_fields(self, two_chain):
        # a GF(3) component [[2]] would read as [[0]] over GF(2) and pass validate
        source, target = constant_sheaf(two_chain, GF2), constant_sheaf(two_chain, GF3)
        with pytest.raises(InputError, match="different fields"):
            NaturalTransformation(source, target, {"x": [[2]]})


class TestHomDimInjective:
    def test_single_summands(self, two_chain):
        assert hom_dim_injective({"x": 1}, {"y": 1}, two_chain) == 1
        assert hom_dim_injective({"y": 1}, {"x": 1}, two_chain) == 0

    def test_tetra_incidence_count(self, tetra):
        poset = tetra.face_poset
        triangles = {e: 1 for e in poset.elements if tetra.dim(e) == 2}
        edges = {e: 1 for e in poset.elements if tetra.dim(e) == 1}
        assert hom_dim_injective(triangles, edges, poset) == 12

    def test_powers(self, two_chain):
        assert hom_dim_injective({"x": 3}, {"x": 3}, two_chain) == 9

    def test_against_naturality_system(self):
        rng = random.Random(41)
        for _ in range(50):
            poset = random_poset(rng, 6)
            field = rng.choice((GF2, GF3))
            i_mult = {
                e: rng.randint(0, 2) for e in rng.sample(poset.elements, len(poset))
            }
            j_mult = {
                e: rng.randint(0, 2) for e in rng.sample(poset.elements, len(poset))
            }
            expected = naturality_system_nullity(poset, field, i_mult, j_mult)
            assert hom_dim_injective(i_mult, j_mult, poset) == expected


class TestKernelSheafHelper:
    def test_kernel_sheaf_is_functorial(self):
        rng = random.Random(55)
        for _ in range(25):
            poset = random_poset(rng, 6)
            field = rng.choice((GF2, GF3))
            m = random_labeled_matrix(rng, poset, field)
            sheaf = kernel_sheaf(m)
            assert sheaf.validate().ok
