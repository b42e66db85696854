import random
from itertools import combinations

import pytest

from posheaf.errors import InputError
from posheaf.poset import (
    LocallyClosedSet,
    MonotoneMap,
    Poset,
    SimplicialComplex,
    face_name,
    mapping_cylinder,
    order_complex,
    skeleton_of_simplex,
    star_subposet,
)

from conftest import random_poset


def brute_star(complex_, face):
    """Oracle: supersets by direct enumeration."""
    base = complex_.face_of[face]
    return {name for name, f in complex_.face_of.items() if base <= f}


def brute_closure(poset, members):
    return {e for e in poset.elements if any(poset.leq(e, s) for s in members)}


class TestFromFacets:
    def test_path_graph(self):
        sc = SimplicialComplex.from_facets([[0, 1], [1, 2]])
        assert sorted(sc.face_poset.elements) == ["0", "01", "1", "12", "2"]
        assert sc.face_poset.height == 1

    def test_tetrahedron_skeleton(self):
        sc = SimplicialComplex.from_facets(combinations("0123", 3))
        assert len(sc.faces) == 14
        assert sc.face_poset.height == 2

    def test_extra_edges_complex(self):
        facets = ["".join(c) for c in combinations("01234", 4)] + ["15", "16"]
        sc = SimplicialComplex.from_facets(facets)
        # 5 + 2 vertices, 10 + 2 edges, 10 triangles, 5 tetrahedra
        assert len(sc.faces) == 7 + 12 + 10 + 5
        assert "15" in sc.face_poset.index and "16" in sc.face_poset.index

    def test_empty_facet_rejected(self):
        with pytest.raises(InputError):
            SimplicialComplex.from_facets([[]])

    def test_multi_character_vertices_get_comma_names(self):
        # vertex 12 and edge {1,2} would both be "12" under the one-character rule
        sc = SimplicialComplex.from_facets([["1", "2"], ["2", "12"]])
        assert sorted(sc.face_poset.elements) == ["1", "1,2", "12", "2", "2,12"]
        assert sc.face_poset.leq("12", "2,12") and not sc.face_poset.leq("12", "1,2")

    def test_skeleton_with_two_digit_vertices(self):
        sc = skeleton_of_simplex(12, 1)
        assert len(sc.faces) == 13 + 78
        assert {"12", "1,2", "10,12"} <= set(sc.face_poset.elements)
        assert not sc.face_poset.validate()

    def test_face_order_follows_vertex_order(self):
        sc = skeleton_of_simplex(12, 1)
        elements = sc.face_poset.elements
        assert elements[:13] == sc.vertices == [str(i) for i in range(13)]
        assert elements[13:16] == ["0,1", "0,2", "0,3"]
        assert elements.index("0,9") < elements.index("0,10") < elements.index("1,2")

    def test_deterministic_order(self):
        sc = SimplicialComplex.from_facets(["21", "13"])
        dims = [sc.dim(e) for e in sc.face_poset.elements]
        assert dims == sorted(dims)


class TestStarClosure:
    def test_star_of_maximal(self, tetra):
        assert tetra.face_poset.star("123") == {"123"}

    def test_star_of_edge(self):
        sc = SimplicialComplex.from_facets(combinations("1234", 3))
        assert sc.face_poset.star("12") == brute_star(sc, "12") == {"12", "123", "124"}

    def test_star_matches_superset_enumeration(self):
        facets = ["".join(c) for c in combinations("01234", 4)] + ["15", "16"]
        sc = SimplicialComplex.from_facets(facets)
        for face in ("4", "1", "15", "012"):
            assert sc.face_poset.star(face) == brute_star(sc, face)
        assert sc.face_poset.star("4") == {
            "4", "04", "14", "24", "34",
            "014", "024", "034", "124", "134", "234",
            "0124", "0134", "0234", "1234",
        }

    def test_closure_single_min(self):
        p = Poset.from_covers(["a", "b"], [("a", "b")])
        assert p.closure(["a"]) == {"a"}

    def test_closure_sphere_pair(self, sphere_wedge):
        lam = sphere_wedge["lambda"].face_poset
        assert lam.closure(["4", "24"]) == {"4", "24", "2"}

    def test_closure_everything(self, tetra):
        p = tetra.face_poset
        assert p.closure(p.elements) == set(p.elements)

    def test_star_closure_random(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_poset(rng)
            e = rng.choice(p.elements)
            star = p.star(e)
            assert p.closure(star) >= star
            assert p.closure(star) & star == star
            members = set(rng.sample(p.elements, rng.randint(1, len(p))))
            assert p.closure(members) == brute_closure(p, members)
            assert p.closure(p.closure(members)) == p.closure(members)


class TestLocallyClosed:
    def test_singleton(self, tetra):
        assert tetra.face_poset.is_locally_closed({"12"})

    def test_sphere_pair(self, sphere_wedge):
        assert sphere_wedge["lambda"].face_poset.is_locally_closed({"4", "24"})

    def test_gap_is_not_convex(self, tetra):
        # 01 sits strictly between 0 and 012 but is excluded
        assert not tetra.face_poset.is_locally_closed({"0", "012"})

    def test_construct_rejects_non_convex(self, tetra):
        with pytest.raises(InputError):
            LocallyClosedSet(tetra.face_poset, {"0", "012"})

    @pytest.mark.parametrize(
        "query", ["is_locally_closed", "is_open", "star_of_set", "restrict", "closure"]
    )
    def test_unknown_element_is_an_input_error(self, tetra, query):
        with pytest.raises(InputError, match=r"^unknown element 'nope'$"):
            getattr(tetra.face_poset, query)(["12", "nope"])

    def test_matches_open_in_closure(self):
        rng = random.Random(13)
        for _ in range(30):
            p = random_poset(rng)
            members = set(rng.sample(p.elements, rng.randint(1, len(p))))
            closure = p.closure(members)
            sub = p.restrict(closure)
            assert p.is_locally_closed(members) == sub.is_open(members)


class TestLinearExtension:
    def test_topological(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_poset(rng)
            assert not p.validate()
            pos = {e: i for i, e in enumerate(p.linear_extension)}
            for a, b in p.covers:
                assert pos[a] < pos[b]

    def test_height(self, tetra):
        assert tetra.face_poset.height == 2

    def test_long_chain_builds_fast(self):
        import time

        names = [f"c{i}" for i in range(1100)]
        start = time.perf_counter()
        chain = Poset.from_covers(names, list(zip(names, names[1:])))
        assert time.perf_counter() - start < 0.1
        assert chain.height == 1099 and chain.linear_extension == names
        assert chain.down_bits("c1099") == (1 << 1100) - 1

    def test_antisymmetry_rejected_on_a_longer_cycle(self):
        with pytest.raises(InputError, match="antisymmetric: b and c"):
            Poset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("c", "b")])

    def test_antisymmetry_rejected(self):
        with pytest.raises(InputError):
            Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    def test_leq_pairs_cycle_rejected_and_reflexive_pairs_ignored(self):
        with pytest.raises(InputError, match="antisymmetric: b and c"):
            Poset.from_leq_pairs(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "b")])
        p = Poset.from_leq_pairs(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")])
        assert p.covers == [("a", "b")]

    def test_implied_and_repeated_covers_are_dropped(self):
        # a < c and a < d follow from a < b < c < d; the true covers keep
        # their input order
        p = Poset.from_covers(
            ["a", "b", "c", "d"],
            [("c", "d"), ("a", "c"), ("a", "b"), ("b", "c"), ("a", "b"), ("a", "d")],
        )
        assert p.covers == [("c", "d"), ("a", "b"), ("b", "c")]
        assert p.leq("a", "d") and p.validate() == []


class TestMappingCylinder:
    def test_collapse_to_point(self, tetra):
        point = Poset.from_covers(["pt"], [])
        f = MonotoneMap.constant(tetra.face_poset, point, "pt")
        cyl, inc_src, inc_tgt = mapping_cylinder(f)
        assert len(cyl) == len(tetra.face_poset) + 1
        top = inc_tgt("pt")
        assert all(cyl.leq(inc_src(e), top) for e in tetra.face_poset.elements)

    def test_identity_doubles(self):
        p = Poset.from_covers(["a", "b"], [("a", "b")])
        cyl, inc_src, inc_tgt = mapping_cylinder(MonotoneMap.identity(p))
        assert len(cyl) == 4
        for e in p.elements:
            assert cyl.leq(inc_src(e), inc_tgt(e))

    def test_star_union_lemma(self):
        # poset Pi = (a <= b, c), Lambda = diamond a'<=b',c'<=d'
        pi = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
        lam = Poset.from_covers(
            ["a'", "b'", "c'", "d'"],
            [("a'", "b'"), ("a'", "c'"), ("b'", "d'"), ("c'", "d'")],
        )
        f = MonotoneMap(pi, lam, {"a": "a'", "b": "b'", "c": "c'"})
        cyl, inc_src, inc_tgt = mapping_cylinder(f)
        star_a = cyl.star(inc_src("a"))
        assert star_a == {inc_src(x) for x in ("a", "b", "c")} | {
            inc_tgt(x) for x in ("a'", "b'", "c'", "d'")
        }

    def test_star_union_random(self):
        rng = random.Random(23)
        from conftest import random_monotone_map

        for _ in range(20):
            src = random_poset(rng, 6)
            tgt = random_poset(rng, 6)
            f = random_monotone_map(rng, src, tgt)
            if f is None:
                continue
            cyl, inc_src, inc_tgt = mapping_cylinder(f)
            for e in src.elements:
                expected = {inc_src(x) for x in src.star(e)} | {
                    inc_tgt(x) for x in tgt.star(f(e))
                }
                assert cyl.star(inc_src(e)) == expected

    def test_name_collision_renamed(self):
        p = Poset.from_covers(["a"], [])
        f = MonotoneMap.identity(p)
        cyl, inc_src, inc_tgt = mapping_cylinder(f)
        assert inc_src("a") != inc_tgt("a")
        assert len(set(cyl.elements)) == 2


class TestOrderComplex:
    def test_point(self):
        p = Poset.from_covers(["x"], [])
        k, t = order_complex(p)
        assert len(k.faces) == 1
        assert t("x") == "x"

    def test_chain(self):
        p = Poset.from_covers(["a", "b"], [("a", "b")])
        k, t = order_complex(p)
        assert {face_name(f) for f in k.faces} == {"a", "b", "ab"}
        assert t("ab") == "b"

    def test_tetra_subdivision_counts(self, tetra):
        k, t = order_complex(tetra.face_poset)
        by_dim = {}
        for f in k.faces:
            by_dim[len(f) - 1] = by_dim.get(len(f) - 1, 0) + 1
        assert by_dim == {0: 14, 1: 36, 2: 24}
        # terminal map is order preserving and hits top simplices
        for f in k.faces:
            top = next(e for e in f if all(tetra.face_poset.leq(x, e) for x in f))
            assert t(k.name_of[f]) == top

    def test_maximal_chains_are_top_simplices(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_poset(rng, 6)
            k, _ = order_complex(p)
            top = {frozenset(f) for f in k.faces if len(f) - 1 == p.height}
            assert top, "every poset has a maximal chain"


class TestStarSubposet:
    def test_relabeled_star(self, simplex_star):
        assert len(simplex_star) == 17
        assert "∅" in simplex_star.index
        assert simplex_star.leq("∅", "234")
        assert simplex_star.star("4") == {"4", "24", "34", "45", "234", "245", "345"}

    def test_monotone_map_rejects_non_monotone(self):
        p = Poset.from_covers(["a", "b"], [("a", "b")])
        q = Poset.from_covers(["x", "y"], [("x", "y")])
        with pytest.raises(InputError):
            MonotoneMap(p, q, {"a": "y", "b": "x"})


class TestRefusals:
    def test_empty_face(self):
        with pytest.raises(InputError, match="^empty face$"):
            SimplicialComplex([frozenset("0"), frozenset()])

    def test_face_missing_a_subset(self):
        with pytest.raises(InputError, match="^face 01 is missing its subset 1$"):
            SimplicialComplex([frozenset("0"), frozenset("01")])

    def test_image_face_not_in_the_target(self):
        # 1 -> 2 sends the edge 01 to 02, which the two-vertex target lacks
        source = SimplicialComplex.from_facets([["0", "1"]])
        target = SimplicialComplex.from_facets([["0"], ["2"]])
        with pytest.raises(InputError, match="^image face 02 not in target complex$"):
            MonotoneMap.simplicial(source, target, {"1": "2"})


class TestValidateBrokenPoset:
    """`Poset.validate` on posets built by hand with broken invariants;
    up-sets are bitsets over the element positions."""

    def test_irreflexive(self):
        broken = Poset(["a", "b"], [0b11, 0b00], [("a", "b")])
        assert broken.validate() == ["leq not reflexive at b", "covers do not generate leq"]

    def test_intransitive(self):
        broken = Poset(["a", "b", "c"], [0b011, 0b110, 0b100], [("a", "b"), ("b", "c")])
        assert broken.validate() == ["leq not transitive at a <= b",
                                     "covers do not generate leq"]

    def test_covers_that_do_not_generate_the_order(self):
        assert Poset(["a", "b"], [0b11, 0b10], []).validate() == ["covers do not generate leq"]

    def test_linear_extension_against_a_cover(self):
        broken = Poset.from_covers(["a", "b"], [("a", "b")])
        broken.linear_extension = ["b", "a"]
        assert broken.validate() == ["linear extension violates a < b"]
