import random
from collections import Counter
from itertools import combinations

import pytest

from posheaf.errors import InputError
from posheaf.matrix import InjectiveComplex, LabeledMatrix
from posheaf.poset import LocallyClosedSet, Poset, SimplicialComplex
from posheaf.resolution import minimal_resolution_constant, minimal_resolution_sheaf
from posheaf.derived import hypercohomology
from posheaf.morse import (
    MorseAnalysis,
    MorseFunction,
    betti_table,
    compact_support_cohomology,
    critical_elements,
    in_microsupport_shriek,
    in_microsupport_star,
    morse_inequalities,
    multiplicity_oracle,
    restrict_star,
    shriek_microsupport_dims,
    supp_shriek,
    supp_star,
    verify_morse_theorem,
)

from conftest import GF2, random_poset, random_sheaf


def mult_table(complex_):
    return {d: dict(c) for d, c in complex_.multiplicities().items()}


class TestSupports:
    def test_tetra_supports(self, tetra, tetra_resolution):
        assert supp_shriek(tetra_resolution) == set(tetra.face_poset.elements)
        assert supp_star(tetra_resolution) == set(tetra.face_poset.elements)

    def test_empty(self, tetra):
        empty = InjectiveComplex.empty(tetra.face_poset, GF2)
        assert supp_shriek(empty) == set()
        assert supp_star(empty) == set()

    def test_shriek_support_refuses_a_non_minimal_complex(self):
        # [a] -> [a] by the identity: exact, yet its multiplicities name a
        p = Poset.from_covers(["a"], [])
        eta = LabeledMatrix(p, GF2, ["a"], ["a"], [{0: 1}])
        complex_ = InjectiveComplex(p, GF2, [eta, LabeledMatrix(p, GF2, ["a"])])
        with pytest.raises(InputError, match="requires a minimal complex"):
            supp_shriek(complex_)
        assert supp_star(complex_) == set()

    def test_closures_coincide(self):
        rng = random.Random(8)
        for _ in range(25):
            poset = random_poset(rng, 7)
            sheaf = random_sheaf(rng, poset, GF2)
            res = minimal_resolution_sheaf(sheaf)
            cl_shriek = poset.closure(supp_shriek(res)) if supp_shriek(res) else set()
            cl_star = poset.closure(supp_star(res)) if supp_star(res) else set()
            assert cl_shriek == cl_star

    def test_singleton_bridge(self):
        rng = random.Random(16)
        for _ in range(15):
            poset = random_poset(rng, 6)
            res = minimal_resolution_sheaf(random_sheaf(rng, poset, GF2))
            if not res.matrices:
                continue
            support = supp_shriek(res)
            for e in poset.elements:
                zset = LocallyClosedSet(poset, [e])
                assert in_microsupport_shriek(zset, res) == (e in support)


class TestMicrosupport:
    def test_section7_verdicts(self, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        b = LocallyClosedSet(lam, ["4", "24"])
        rg, rh = pushforward_complexes["Rg"], pushforward_complexes["Rh"]
        assert in_microsupport_star(b, rg)
        assert in_microsupport_shriek(b, rg)
        assert shriek_microsupport_dims(b, rg) == {1: 1}
        assert not in_microsupport_star(b, rh)
        assert in_microsupport_shriek(b, rh)
        assert shriek_microsupport_dims(b, rh) == {1: 2}

    def test_whole_poset(self, tetra_resolution):
        zset = LocallyClosedSet(
            tetra_resolution.poset, tetra_resolution.poset.elements
        )
        assert in_microsupport_star(zset, tetra_resolution)
        assert in_microsupport_shriek(zset, tetra_resolution)


class TestMorseFunction:
    def test_sphere_function_valid(self, sphere_morse):
        assert len(sphere_morse.total_order) == 11
        assert all(len(f) in (1, 2) for f in sphere_morse.fibers.values())

    def test_rejects_non_refining_order(self, sphere_wedge):
        from conftest import MORSE_LEVELS

        with pytest.raises(InputError):
            MorseFunction.from_levels(
                sphere_wedge["lambda"].face_poset,
                MORSE_LEVELS,
                list("BACDEFGHIJK"),
            )

    def test_rejects_non_locally_closed_fiber(self, tetra):
        # 0 < 01 < 012 puts lo below hi below lo: the levels admit no order
        # that makes the map monotone, and the fibers of a monotone map are
        # always locally closed
        poset = tetra.face_poset
        levels = {e: "lo" if e in ("0", "012") else "hi" for e in poset.elements}
        with pytest.raises(InputError, match="not antisymmetric"):
            MorseFunction.from_levels(poset, levels, ["lo", "hi"])

    @pytest.mark.parametrize("order, repeated", [("aab", "a"), ("abb", "b")])
    def test_rejects_a_repeated_level(self, tetra, order, repeated):
        # faces without vertex 3 form a closed fiber, those with it an open one
        poset = tetra.face_poset
        levels = {e: "b" if "3" in e else "a" for e in poset.elements}
        f = MorseFunction.from_levels(poset, levels, ["a", "b"]).map
        with pytest.raises(InputError, match=f"total order repeats level '{repeated}'"):
            MorseFunction.from_levels(poset, levels, list(order))
        with pytest.raises(InputError, match=f"total order repeats level '{repeated}'"):
            MorseFunction(f, list(order))

    def test_sublevels_closed_superlevels_open(self, sphere_morse):
        poset = sphere_morse.map.source
        for x in sphere_morse.total_order:
            sub = sphere_morse.sublevel(x)
            assert poset.closure(sub) == sub
            sup = sphere_morse.superlevel(x)
            assert poset.is_open(sup)


class TestCriticalElements:
    def test_section7_table(self, sphere_morse, pushforward_complexes):
        rg = pushforward_complexes["Rg"]
        rh = pushforward_complexes["Rh"]
        # B is *-critical and !-critical for Rg; only !-critical for Rh
        assert "B" in critical_elements(sphere_morse, rg, "star")
        assert "B" in critical_elements(sphere_morse, rg, "shriek")
        rh_star = critical_elements(sphere_morse, rh, "star")
        rh_shriek = critical_elements(sphere_morse, rh, "shriek")
        assert "B" not in rh_star and "B" in rh_shriek
        # the singleton fibers of the perfect Morse function stay critical
        for crit in (rh_star, rh_shriek):
            assert {"A", "K"} <= crit

    def test_classical_reduction_interval_fibers(self, tetra, tetra_resolution):
        # a perfect discrete Morse function on the sphere: pairs plus two
        # singleton fibers; *-critical levels are exactly the singletons
        levels = {
            "0": "a",
            "1": "b", "01": "b",
            "2": "c", "02": "c",
            "3": "d", "03": "d",
            "12": "e", "012": "e",
            "13": "f", "013": "f",
            "23": "g", "023": "g",
            "123": "h",
        }
        mf = MorseFunction.from_levels(tetra.face_poset, levels, list("abcdefgh"))
        star_crit = critical_elements(mf, tetra_resolution, "star")
        singleton_fibers = {x for x, f in mf.fibers.items() if len(f) == 1}
        assert star_crit == singleton_fibers == {"a", "h"}

    def test_interval_fibers_random_refinements(self, tetra, tetra_resolution):
        # reduction to classical discrete Morse theory on interval fibers
        rng = random.Random(77)
        poset = tetra.face_poset
        pairing = [
            ("0", None),
            ("1", "01"), ("2", "02"), ("3", "03"),
            ("12", "012"), ("13", "013"), ("23", "023"),
            ("123", None),
        ]
        for _ in range(5):
            order = list(range(len(pairing)))
            levels = {}
            names = []
            for k, (a, b) in enumerate(pairing):
                name = f"L{k}"
                names.append(name)
                levels[a] = name
                if b:
                    levels[b] = name
            mf = MorseFunction.from_levels(poset, levels, names)
            star_crit = critical_elements(mf, tetra_resolution, "star")
            assert star_crit == {"L0", f"L{len(pairing) - 1}"}


class TestBettiTables:
    def test_top_row_equals_global(self, sphere_morse, pushforward_complexes):
        rg = pushforward_complexes["Rg"]
        table = betti_table(sphere_morse, rg, "sublevel", "star")
        assert table["K"] == hypercohomology(rg)

    def test_tetra_final_row(self, tetra, tetra_resolution):
        levels = {e: e for e in tetra.face_poset.elements}
        order = list(tetra.face_poset.linear_extension)
        mf = MorseFunction.from_levels(tetra.face_poset, levels, order)
        table = betti_table(mf, tetra_resolution, "sublevel", "star")
        assert table[order[-1]] == {0: 1, 2: 1}

    def test_section7_final_row(self, sphere_morse, pushforward_complexes):
        table = betti_table(
            sphere_morse, pushforward_complexes["Rg"], "sublevel", "star"
        )
        assert table["K"] == {0: 1, 1: 1, 2: 1}

    def test_superlevel_first_row_is_global(self, sphere_morse, pushforward_complexes):
        rh = pushforward_complexes["Rh"]
        table = betti_table(sphere_morse, rh, "superlevel", "star")
        assert table["A"] == hypercohomology(rh)

    def test_open_sets_star_equals_shriek(self, sphere_morse, pushforward_complexes):
        # superlevel rows restrict by submatrices; the cylinder pullback agrees
        rg = pushforward_complexes["Rg"]
        star = betti_table(sphere_morse, rg, "superlevel", "star")
        shriek = betti_table(sphere_morse, rg, "superlevel", "shriek")
        assert star == shriek
        for x in sphere_morse.total_order:
            zset = LocallyClosedSet(rg.poset, sphere_morse.superlevel(x))
            assert star[x] == hypercohomology(restrict_star(zset, rg))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_cleared_tables_skip_rows_and_match_the_uncleared_ones(self, p):
        # max-vertex levels on skel(5,3), minimal (shifted) and by chains:
        # the submatrix tables leave out rows the uncleared elimination
        # reduces, and agree with it
        from unittest import mock

        from posheaf import morse
        from posheaf.field import PrimeField
        from posheaf.poset import skeleton_of_simplex
        from posheaf.resolution import order_complex_resolution
        from posheaf.sheaf import constant_sheaf

        complex_ = skeleton_of_simplex(5, 3)
        poset, order = complex_.face_poset, list(complex_.vertices)
        levels = {f: max(complex_.face_of[f], key=order.index) for f in poset.elements}
        mf = MorseFunction.from_levels(poset, levels, order)
        sheaf = constant_sheaf(poset, PrimeField(p))
        cleared_ranks, kernel = morse._filtration_ranks, morse._eliminate
        for resolution in [minimal_resolution_sheaf(sheaf).shifted(2),
                           order_complex_resolution(sheaf)]:
            fed, tables = Counter(), {}
            for route, ranks in (("cleared", cleared_ranks),
                                 ("uncleared", lambda m, step, walk, tops: cleared_ranks(
                                     m, step, walk, {}))):
                with mock.patch.object(morse, "_filtration_ranks", ranks), \
                        mock.patch.object(morse, "_eliminate", lambda field, rows, **kw: (
                            fed.update({route: len(rows)}) or kernel(field, rows, **kw))):
                    tables[route] = [betti_table(mf, resolution, *key) for key in (
                        ("sublevel", "shriek"), ("superlevel", "star"), ("superlevel", "shriek"))]
            assert tables["cleared"] == tables["uncleared"]
            assert 0 < fed["cleared"] < fed["uncleared"]


class TestMorseAnalysis:
    def test_each_table_and_fiber_computed_once(
        self, sphere_morse, pushforward_complexes, monkeypatch
    ):
        import posheaf.morse as morse_module

        calls = Counter()

        def count(name):
            original = getattr(morse_module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(morse_module, name, counted)

        for name in ("betti_table", "pullback", "_sublevel_walk", "proper_pullback",
                     "proper_pushforward"):
            count(name)
        rg = pushforward_complexes["Rg"]
        analysis = MorseAnalysis(sphere_morse, rg)
        for _ in range(2):
            crit = {v: analysis.critical(v) for v in ("shriek", "star")}
            tables = {
                (d, v): analysis.table(d, v)
                for d in ("sublevel", "superlevel")
                for v in ("shriek", "star")
            }
            assert analysis.theorem().ok
            assert all(analysis.inequalities(v).ok for v in ("shriek", "star"))
        levels = sphere_morse.total_order
        fibers = sum(1 for x in levels if sphere_morse.fibers[x])
        assert calls["betti_table"] == 3
        # one walk down the sublevels, shared by the sublevel-star table and
        # the star fibers: a cylinder pullback per non-empty fiber but the
        # lowest, whose cylinder complex gives that fiber's star dims; the
        # shriek fibers are submatrix blocks, so no fiber is restricted or
        # extended by zero on its own
        assert calls["_sublevel_walk"] == 1
        assert calls["pullback"] == fibers - 1
        assert calls["proper_pullback"] == 0
        assert calls["proper_pushforward"] == 0
        assert crit == {v: critical_elements(sphere_morse, rg, v) for v in ("shriek", "star")}
        for (d, v), table in tables.items():
            assert table == betti_table(sphere_morse, rg, d, v)

    @pytest.mark.parametrize("method, args", [
        ("betti_table", ("up", "star")),
        ("betti_table", ("sublevel", "sideways")),
        ("table", ("sideways", "star")),
        ("table", ("superlevel", "up")),
        ("fiber_dims", ("both",)),
        ("critical", ("foo",)),
        ("inequalities", ("x",)),
    ])
    def test_refuses_an_unknown_direction_or_variant(
        self, sphere_morse, pushforward_complexes, method, args
    ):
        rg = pushforward_complexes["Rg"]
        analysis = MorseAnalysis(sphere_morse, rg)
        if method == "betti_table":
            args = (sphere_morse, rg) + args
        call = betti_table if method == "betti_table" else getattr(analysis, method)
        with pytest.raises(InputError, match="unknown .*'(up|sideways|both|foo|x)'"):
            call(*args)

    def test_refuses_a_complex_off_the_domain(self):
        def skeleton(d):
            return SimplicialComplex.from_facets(combinations("0123", d + 1)).face_poset

        edges = skeleton(1)
        mf = MorseFunction.from_levels(edges, {f: max(f) for f in edges.elements}, list("0123"))
        with pytest.raises(InputError, match="not live on the Morse function's domain"):
            MorseAnalysis(mf, minimal_resolution_constant(skeleton(2)))

    def test_betti_table_refuses_a_complex_off_the_domain(self, tetra):
        edge = Poset.from_covers(["0", "1", "01"], [("0", "01"), ("1", "01")])
        mf = MorseFunction.from_levels(edge, {"0": "0", "1": "1", "01": "1"}, ["0", "1"])
        with pytest.raises(InputError,
                           match="^complex does not live on the Morse function's domain$"):
            betti_table(mf, minimal_resolution_constant(tetra.face_poset), "sublevel", "shriek")


class TestMorseTheorem:
    def test_section7_complexes_pass(self, sphere_morse, pushforward_complexes):
        for key in ("Rg", "Rh", "Rl"):
            report = verify_morse_theorem(sphere_morse, pushforward_complexes[key])
            assert report.ok, report.violations
            assert report.checks > 0

    def test_changes_only_at_singletons(self, tetra, tetra_resolution):
        levels = {
            "0": "a",
            "1": "b", "01": "b",
            "2": "c", "02": "c",
            "3": "d", "03": "d",
            "12": "e", "012": "e",
            "13": "f", "013": "f",
            "23": "g", "023": "g",
            "123": "h",
        }
        mf = MorseFunction.from_levels(tetra.face_poset, levels, list("abcdefgh"))
        report = verify_morse_theorem(mf, tetra_resolution)
        assert report.ok
        table = betti_table(mf, tetra_resolution, "sublevel", "star")
        rows = [table[x] for x in mf.total_order]
        changes = {
            mf.total_order[k]
            for k in range(len(rows))
            if rows[k] != (rows[k - 1] if k else {})
        }
        assert changes == {"a", "h"}

    def test_empty_complex_vacuous(self, sphere_morse, sphere_wedge):
        empty = InjectiveComplex.empty(sphere_wedge["lambda"].face_poset, GF2)
        report = verify_morse_theorem(sphere_morse, empty)
        assert report.ok

    def test_random_instances(self):
        rng = random.Random(2718)
        done = 0
        while done < 20:
            poset = random_poset(rng, 8)
            mf = _random_chain_morse(rng, poset)
            res = minimal_resolution_sheaf(random_sheaf(rng, poset, GF2))
            if not res.matrices:
                continue
            report = verify_morse_theorem(mf, res)
            assert report.ok, report.violations
            done += 1


def _random_chain_morse(rng, poset):
    """Monotone map onto a chain by cutting a linear extension: fibers are
    automatically locally closed."""
    n = len(poset)
    cuts = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    if cuts[-1] != n:
        cuts.append(n)
    names = [f"c{k}" for k in range(len(cuts))]
    levels = {}
    start = 0
    for k, end in enumerate(cuts):
        for e in poset.linear_extension[start:end]:
            levels[e] = names[k]
        start = end
    return MorseFunction.from_levels(poset, levels, names)


class TestMorseInequalities:
    def test_section7(self, sphere_morse, pushforward_complexes):
        for key in ("Rg", "Rh", "Rl"):
            for variant in ("shriek", "star"):
                report = morse_inequalities(
                    sphere_morse, pushforward_complexes[key], variant
                )
                assert report.ok, (key, variant, report.violations)
                assert report.euler_total == 1

    def test_perfect_function_euler_split(self, tetra, tetra_resolution):
        levels = {
            "0": "a",
            "1": "b", "01": "b",
            "2": "c", "02": "c",
            "3": "d", "03": "d",
            "12": "e", "012": "e",
            "13": "f", "013": "f",
            "23": "g", "023": "g",
            "123": "h",
        }
        mf = MorseFunction.from_levels(tetra.face_poset, levels, list("abcdefgh"))
        report = morse_inequalities(mf, tetra_resolution, "star")
        assert report.ok
        assert report.euler_total == 2
        assert report.euler_critical_sum == 2

    def test_concentrated_collapses(self, simplex_star):
        res = minimal_resolution_constant(simplex_star)
        levels = {e: "one" for e in simplex_star.elements}
        mf = MorseFunction.from_levels(simplex_star, levels, ["one"])
        for variant in ("shriek", "star"):
            report = morse_inequalities(mf, res, variant)
            assert report.ok

    def test_random_instances(self):
        rng = random.Random(1618)
        done = 0
        while done < 25:
            poset = random_poset(rng, 8)
            mf = _random_chain_morse(rng, poset)
            res = minimal_resolution_sheaf(random_sheaf(rng, poset, GF2))
            if not res.matrices:
                continue
            for variant in ("shriek", "star"):
                report = morse_inequalities(mf, res, variant)
                assert report.ok, report.violations
            done += 1


class TestCompactSupportOracle:
    def test_top_star(self, tetra):
        star = tetra.face_poset.star("123")
        assert compact_support_cohomology(tetra, star) == {2: 1}

    def test_edge_star(self):
        sc = SimplicialComplex.from_facets(combinations("1234", 3))
        star = sc.face_poset.star("12")
        assert compact_support_cohomology(sc, star) == {2: 1}
        assert multiplicity_oracle(sc, "12") == {1: 1}

    def test_rejects_non_open(self, tetra):
        with pytest.raises(InputError):
            compact_support_cohomology(tetra, {"0"})

    def test_extra_edges_bottom(self):
        facets = ["".join(c) for c in combinations("12345", 4)] + ["16", "17"]
        big = SimplicialComplex.from_facets(facets)
        oracle = multiplicity_oracle(big, "1")
        assert oracle == {1: 2, 3: 1}

    def test_oracle_matches_resolution_on_skeletons(self):
        from posheaf.poset import skeleton_of_simplex

        for n in range(1, 5):
            for d in range(1, min(n, 3) + 1):
                sc = skeleton_of_simplex(n, d)
                res = minimal_resolution_constant(sc.face_poset)
                table = mult_table(res)
                for face in sc.face_poset.elements:
                    expected = multiplicity_oracle(sc, face)
                    got = {
                        deg: counts.get(face, 0)
                        for deg, counts in table.items()
                        if counts.get(face, 0)
                    }
                    assert got == expected, (n, d, face)

    def test_coboundary_signs_follow_the_vertex_order(self):
        # (-1)^i for the dropped vertex's position i in vertex order (2 before
        # 10).  Flipping every sign keeps every rank, so the dims cannot tell:
        # the rows fed to the rank are pinned
        from unittest import mock

        from posheaf import morse

        sc = SimplicialComplex.from_facets([["1", "2", "10"]])
        with mock.patch("posheaf.morse._sparse_rank", wraps=morse._sparse_rank) as ranks:
            assert compact_support_cohomology(sc, sc.face_poset.elements, 3) == {0: 1}
        names = {d: [e for e in sc.face_poset.elements if sc.dim(e) == d] for d in range(4)}
        signed = {upper: {names[d][j]: v for j, v in row.items()}
                  for d, call in enumerate(ranks.call_args_list)
                  for upper, row in zip(names[d + 1], call.args[1])}
        assert signed == {"1,2": {"2": 1, "1": 2}, "1,10": {"10": 1, "1": 2},
                          "2,10": {"10": 1, "2": 2}, "1,2,10": {"2,10": 1, "1,10": 2, "1,2": 1}}

    def test_signs_on_projective_plane(self):
        # a minimal triangulation of the projective plane: the torsion is
        # visible over GF(2) and invisible over GF(3), so the signed
        # coboundary, the signed resolution and the oracle must all agree
        # field by field
        from posheaf.field import PrimeField

        sc = SimplicialComplex.from_facets(
            ["123", "124", "135", "146", "156", "236", "245", "256", "345", "346"]
        )
        expected_h = {2: {0: 1, 1: 1, 2: 1}, 3: {0: 1}}
        for p in (2, 3):
            res = minimal_resolution_constant(sc.face_poset, PrimeField(p))
            assert hypercohomology(res) == expected_h[p]
            assert compact_support_cohomology(
                sc, sc.face_poset.elements, p
            ) == expected_h[p]
            table = mult_table(res)
            for face in sc.face_poset.elements:
                got = {
                    deg: counts.get(face, 0)
                    for deg, counts in table.items()
                    if counts.get(face, 0)
                }
                assert got == multiplicity_oracle(sc, face, p)


def _doctored_verdicts(trials=200, seed=23):
    """Theorem and inequality verdicts of `trials` analyses of skel(5,2)
    under max-vertex levels, each with random rows of its Betti tables and
    random fiber dims overwritten, so that both outcomes of every comparison
    and every partial sum occur."""
    import copy
    from posheaf.poset import skeleton_of_simplex

    rng = random.Random(seed)
    sc = skeleton_of_simplex(5, 2)
    order = sorted(sc.vertices)
    rng.shuffle(order)
    rank = {v: k for k, v in enumerate(order)}
    levels = {f: max(sc.face_of[f], key=rank.__getitem__) for f in sc.face_poset.elements}
    mf = MorseFunction.from_levels(sc.face_poset, levels, order)
    res = minimal_resolution_constant(sc.face_poset)
    base = MorseAnalysis(mf, res)
    for direction in ("sublevel", "superlevel"):
        for variant in ("shriek", "star"):
            base.table(direction, variant)
            base.fiber_dims(variant)

    def random_dims():
        if rng.random() < 0.2:
            return {}
        degrees = sorted(rng.sample(range(-1, 4), rng.randint(1, 2)))
        return {d: rng.randint(1, 3) for d in degrees}

    out = []
    for _ in range(trials):
        analysis = MorseAnalysis(mf, res)
        analysis._tables = copy.deepcopy(base._tables)
        analysis._fiber_dims = copy.deepcopy(base._fiber_dims)
        for _ in range(rng.randint(0, 3)):
            table = analysis._tables[rng.choice(sorted(analysis._tables))]
            x = rng.choice(order)
            table[x] = dict(table[rng.choice(order)]) if rng.random() < 0.3 else random_dims()
        for _ in range(rng.randint(0, 2)):
            dims = analysis._fiber_dims[rng.choice(["shriek", "star"])]
            dims[rng.choice(sorted(dims))] = random_dims()
        theorem = analysis.theorem()
        verdict = [theorem.violations, theorem.checks]
        for variant in ("shriek", "star"):
            report = analysis.inequalities(variant)
            verdict.append((report.violations, report.rows, report.euler_total,
                            report.euler_critical_sum))
        out.append(verdict)
    return out


class TestDoctoredVerdicts:
    def test_verdicts_are_pinned(self):
        """Pins every violation text, check count, partial-sum row and Euler
        sum of the doctored analyses, so that a rewrite of the theorem or the
        inequalities keeps their verdicts off valid input too."""
        import hashlib

        verdicts = _doctored_verdicts()
        theorem_violations = sum(len(v[0]) for v in verdicts)
        inequality_violations = sum(len(r[0]) for v in verdicts for r in v[2:])
        assert (theorem_violations, inequality_violations) == (177, 424)
        digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
        assert digest == "0b5e361ee99ccea61ac7d1e1c7dcbb3146906344cc4035135963c4f1251258de"
