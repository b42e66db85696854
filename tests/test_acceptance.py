"""Acceptance suite: every criterion is one test that records a PASS/FAIL
line, printed in the terminal summary (see conftest).  Tolerances are exact
unless a runtime bound is stated."""

import json
import math
import random
import time
from itertools import combinations

from posheaf.poset import (
    LocallyClosedSet,
    MonotoneMap,
    SimplicialComplex,
    skeleton_of_simplex,
    star_subposet,
)
from posheaf.resolution import (
    cohomology_sheaf_dims,
    is_minimal,
    minimal_resolution_constant,
    minimal_resolution_sheaf,
    order_complex_resolution,
    star_complexity,
    star_complexity_bound,
    star_generators,
)
from posheaf.sheaf import hom_dim_injective
from posheaf.derived import (
    euler_characteristic,
    hypercohomology,
    peel,
    proper_pullback,
    pullback_via_proper_check,
    pushforward,
)
from posheaf.morse import (
    critical_elements,
    in_microsupport_shriek,
    in_microsupport_star,
    morse_inequalities,
    multiplicity_oracle,
    shriek_microsupport_dims,
    verify_morse_theorem,
)

from conftest import (
    GF2,
    GF3,
    check_resolution_health,
    naturality_system_nullity,
    random_monotone_map,
    random_poset,
    random_sheaf,
)

ACCEPTANCE_RESULTS: list[str] = []


def record(number, description, passed=True):
    ACCEPTANCE_RESULTS.append(
        f"{'PASS' if passed else 'FAIL'} criterion {number:>2}: {description}"
    )
    assert passed, f"criterion {number}: {description}"


def mult_table(complex_):
    return {d: dict(c) for d, c in complex_.multiplicities().items()}


def test_criterion_01_extra_edges_golden(simplex_star):
    started = time.perf_counter()
    res = minimal_resolution_constant(simplex_star)
    elapsed = time.perf_counter() - started
    expected = {
        0: {"234": 1, "235": 1, "245": 1, "345": 1, "6": 1, "7": 1},
        1: {"23": 1, "24": 1, "25": 1, "34": 1, "35": 1, "45": 1, "∅": 2},
        2: {"2": 1, "3": 1, "4": 1, "5": 1},
        3: {"∅": 1},
    }
    ok = mult_table(res) == expected
    ok = ok and res.matrix(2).rank() == 1
    ok = ok and is_minimal(res) and res.validate().ok
    ok = ok and cohomology_sheaf_dims(res) == {0: {e: 1 for e in simplex_star.elements}}
    ok = ok and elapsed < 1.0
    record(1, f"4-simplex star golden multiplicities, rank, minimality ({elapsed:.3f}s)", ok)


def test_criterion_02_tetrahedron_golden():
    sc = SimplicialComplex.from_facets(combinations("1234", 3))
    started = time.perf_counter()
    res = minimal_resolution_constant(sc.face_poset)
    elapsed = time.perf_counter() - started
    table = mult_table(res)
    ok = (
        set(table[0]) == {"123", "124", "134", "234"}
        and set(table[1]) == {"12", "13", "14", "23", "24", "34"}
        and set(table[2]) == {"1", "2", "3", "4"}
        and all(v == 1 for counts in table.values() for v in counts.values())
    )
    ok = ok and hypercohomology(res) == {0: 1, 2: 1}
    ok = ok and euler_characteristic(res) == 2
    ok = ok and elapsed < 1.0
    record(2, f"tetrahedron golden test: (4,6,4), H=(1,0,1), chi=2 ({elapsed:.3f}s)", ok)


def test_criterion_03_multiplicity_oracle(sphere_wedge):
    checked = 0
    ok = True
    complexes = []
    for n in range(1, 6):
        for d in range(1, min(n, 3) + 1):
            complexes.append(skeleton_of_simplex(n, d))
    complexes.append(sphere_wedge["sigma"])
    complexes.append(sphere_wedge["gamma"])
    for sc in complexes:
        res = minimal_resolution_constant(sc.face_poset)
        table = mult_table(res)
        for face in sc.face_poset.elements:
            expected = multiplicity_oracle(sc, face)
            got = {
                deg: counts[face]
                for deg, counts in table.items()
                if counts.get(face)
            }
            ok = ok and got == expected
            checked += 1
    record(3, f"multiplicities equal the compact-support oracle at {checked} simplices", ok)


def test_criterion_04_star_complexity_closed_form():
    def safe_comb(a, b):
        if b == 0:
            return 1
        if a < 0 or b < 0 or b > a:
            return 0
        return math.comb(a, b)

    ok = True
    checked_vertices = 0
    for n in range(1, 7):
        for d in range(1, min(n, 3) + 1):
            sc = skeleton_of_simplex(n, d)
            res = minimal_resolution_constant(sc.face_poset)
            for v in (name for name in sc.face_poset.elements if sc.dim(name) == 0):
                for j in range(0, d + 2):
                    expected = safe_comb(n, d - j) * safe_comb(n - d + j - 1, j)
                    ok = ok and star_generators(sc, v, j, res) == expected
                checked_vertices += 1
            for face in sc.face_poset.elements:
                for j in range(0, d + 2):
                    value = star_complexity(sc, face, j, res)
                    bound = star_complexity_bound(sc, face, j)
                    ok = ok and value <= max(bound, 0 if j > d else bound)
                    if j > sc.dimension() - sc.dim(face):
                        ok = ok and value == 0
    record(4, f"closed-form star generators at {checked_vertices} vertices; bounds hold", ok)


def test_criterion_05_section7_profiles(sphere_wedge, pushforward_complexes):
    rg, rh, rl = (pushforward_complexes[k] for k in ("Rg", "Rh", "Rl"))
    tri = {t: 1 for t in ("013", "014", "034", "123", "124", "234")}
    edges = {e: 1 for e in ("01", "03", "04", "12", "13", "14", "23", "24", "34")}
    verts = {v: 1 for v in ("0", "1", "2", "3", "4")}
    ok = mult_table(rg) == {0: tri, 1: {**edges, "4": 1}, 2: verts}
    ok = ok and mult_table(rh) == {
        0: {**tri, "14": 1, "34": 1, "13": 1},
        1: {**edges, "4": 2, "1": 1, "3": 1},
        2: verts,
    }
    ok = ok and mult_table(rl) == {
        0: tri,
        1: edges,
        2: {v: 1 for v in ("0", "1", "2", "3")},
    }
    lam = sphere_wedge["lambda"].face_poset
    b = LocallyClosedSet(lam, ["4", "24"])
    ok = ok and in_microsupport_star(b, rg)
    ok = ok and in_microsupport_shriek(b, rg)
    ok = ok and shriek_microsupport_dims(b, rg) == {1: 1}
    ok = ok and not in_microsupport_star(b, rh)
    ok = ok and in_microsupport_shriek(b, rh)
    ok = ok and shriek_microsupport_dims(b, rh) == {1: 2}
    record(5, "Rg/Rh/Rl profiles and the four B={4,24} microsupport verdicts", ok)


def test_criterion_06_morse_theorem_section7(
    sphere_morse, pushforward_complexes, tmp_path
):
    from posheaf.cli import main as cli_main
    from posheaf.io import complex_to_json, dumps
    from test_cli import MORSE_JSON

    ok = True
    for key in ("Rg", "Rh", "Rl"):
        complex_ = pushforward_complexes[key]
        report = verify_morse_theorem(sphere_morse, complex_)
        ok = ok and report.ok
        # betti rows change only at critical elements, all four variants
        crit = {
            variant: critical_elements(sphere_morse, complex_, variant)
            for variant in ("shriek", "star")
        }
        from posheaf.morse import betti_table

        gating = {
            ("sublevel", "shriek"): ("next", crit["shriek"]),
            ("sublevel", "star"): ("next", crit["star"]),
            ("superlevel", "star"): ("prev", crit["shriek"]),
            ("superlevel", "shriek"): ("prev", crit["shriek"]),
        }
        for (direction, variant), (side, critical) in gating.items():
            table = betti_table(sphere_morse, complex_, direction, variant)
            levels = sphere_morse.total_order
            rows = (
                [{}] + [table[x] for x in levels]
                if direction == "sublevel"
                else [table[x] for x in levels] + [{}]
            )
            for k in range(len(levels)):
                changed = rows[k] != rows[k + 1]
                gate = levels[k]
                if changed:
                    ok = ok and gate in critical
        # exit code 0 from the CLI with --verify
        cpath = tmp_path / f"{key}.json"
        cpath.write_text(dumps(complex_to_json(complex_)))
        mpath = tmp_path / "morse.json"
        mpath.write_text(json.dumps(MORSE_JSON))
        ok = ok and cli_main(["morse", str(cpath), str(mpath), "--verify"]) == 0
    record(6, "Morse rows change only at critical elements; cmd_morse --verify exits 0", ok)


def test_criterion_07_morse_inequalities(sphere_morse, pushforward_complexes):
    ok = True
    for key in ("Rg", "Rh", "Rl"):
        for variant in ("shriek", "star"):
            report = morse_inequalities(sphere_morse, pushforward_complexes[key], variant)
            ok = ok and report.ok
    rng = random.Random(1_000_003)
    done = 0
    while done < 50:
        poset = random_poset(rng, 8)
        mf = _random_chain_morse(rng, poset)
        res = minimal_resolution_sheaf(random_sheaf(rng, poset, GF2))
        if not res.matrices:
            continue
        for variant in ("shriek", "star"):
            report = morse_inequalities(mf, res, variant)
            ok = ok and report.ok
        done += 1
    record(7, "Morse inequalities and Euler equality on section-7 and 50 random instances", ok)


def _random_chain_morse(rng, poset):
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
    from posheaf.morse import MorseFunction

    return MorseFunction.from_levels(poset, levels, names)


def test_criterion_08_pullback_via_proper():
    rng = random.Random(88_000_001)
    done = 0
    ok = True
    while done < 100:
        tgt = random_poset(rng, 8)
        src = random_poset(rng, 8)
        f = random_monotone_map(rng, src, tgt)
        if f is None:
            continue
        res = minimal_resolution_sheaf(random_sheaf(rng, tgt, rng.choice((GF2, GF3))))
        if not res.matrices:
            continue
        ok = ok and pullback_via_proper_check(f, res)
        done += 1
    record(8, "pullback-via-proper identity on 100 random (poset, map, complex) triples", ok)


def test_criterion_09_uniqueness_cross_check():
    ok = True
    for field in (GF2, GF3):
        rng = random.Random(90_000_000 + field.p)
        done = 0
        while done < 100:
            poset = random_poset(rng, 7)
            sheaf = random_sheaf(rng, poset, field)
            direct = minimal_resolution_sheaf(sheaf)
            peeled = peel(order_complex_resolution(sheaf))
            ok = ok and mult_table(direct) == mult_table(peeled)
            done += 1
    record(9, "inductive and peeled order-complex resolutions agree on 100 sheaves x GF(2), GF(3)", ok)


def test_criterion_10_length_bound_and_condition4(sphere_wedge, pushforward_complexes):
    ok = True
    posets = []
    for n in range(1, 6):
        for d in range(1, min(n, 3) + 1):
            posets.append(skeleton_of_simplex(n, d).face_poset)
    posets += [
        sphere_wedge[k].face_poset for k in ("sigma", "lambda", "gamma")
    ]
    for poset in posets:
        res = minimal_resolution_constant(poset)
        try:
            check_resolution_health(res, poset)
        except AssertionError:
            ok = False
    rng = random.Random(404)
    for _ in range(60):
        poset = random_poset(rng, 8)
        field = rng.choice((GF2, GF3))
        res = minimal_resolution_sheaf(random_sheaf(rng, poset, field))
        if not res.matrices:
            continue
        try:
            check_resolution_health(res, poset)
        except AssertionError:
            ok = False
    for key in ("Rg", "Rh", "Rl"):
        complex_ = pushforward_complexes[key]
        ok = ok and is_minimal(complex_)
    record(10, "length bound and minimality condition on every produced resolution", ok)


def test_criterion_11_hom_formula():
    rng = random.Random(11_011)
    ok = True
    for _ in range(50):
        poset = random_poset(rng, 6)
        field = rng.choice((GF2, GF3))
        i_mult = {e: rng.randint(0, 2) for e in poset.elements}
        j_mult = {e: rng.randint(0, 2) for e in poset.elements}
        expected = naturality_system_nullity(poset, field, i_mult, j_mult)
        ok = ok and hom_dim_injective(i_mult, j_mult, poset) == expected
    record(11, "hom dimension formula equals naturality-system nullity on 50 pairs", ok)


def test_criterion_12_performance():
    times = {}
    models = {}
    for n in range(5, 10):
        sc = skeleton_of_simplex(n, 2)
        poset = sc.face_poset
        best = min(
            _timed(lambda: minimal_resolution_constant(poset)) for _ in range(3)
        )
        times[n] = best
        s = max(len(poset.star(e)) for e in poset.elements)
        models[n] = len(poset) * s**3
    ok = times[9] < 10.0
    constant = times[5] / models[5]
    for n in range(6, 10):
        ok = ok and times[n] <= 4 * constant * models[n]
    record(
        12,
        f"Dnk(9,2) resolution in {times[9]:.3f}s (<10s); scaling within 4x of n*s^3",
        ok,
    )


def _timed(thunk):
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started
