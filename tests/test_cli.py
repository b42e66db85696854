import copy
import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest

import posheaf
from posheaf.cli import main
from posheaf.derived import proper_pullback
from posheaf.field import PrimeField
from posheaf.io import complex_from_json, complex_to_json, dumps, poset_to_json, sheaf_to_json
from posheaf.poset import LocallyClosedSet, MonotoneMap, Poset, skeleton_of_simplex
from posheaf.resolution import minimal_resolution_constant

from conftest import extension_by_zero_sheaf, zero_stalk_chain, zero_stalk_diamond


TETRA_FACETS = "\n".join("".join(c) for c in combinations("1234", 3)) + "\n# comment\n"

SPHERE_FACETS = "013 014 034 123 124 234 45 46 56".split()
MORSE_JSON = {
    "levels": {
        "2": "A", "4": "B", "24": "B", "3": "C", "23": "C", "1": "D", "12": "D",
        "0": "E", "03": "E", "34": "F", "234": "F", "04": "G", "034": "G",
        "14": "H", "124": "H", "01": "I", "014": "I", "13": "J", "123": "J",
        "013": "K",
    },
    "order": list("ABCDEFGHIJK"),
}


# sha256 of the stdout of the golden cases below (`--format json` for
# complexes, text and CSV for Morse tables): CLI output must stay
# byte-identical on them.
GOLDEN_SHA256 = {
    "sheaf-small": "407f185ae82012dc6963c095097949caa1576298158a05fb40cdb53d65af5384",
    "sheaf-gf3": "7d6180d3d1dfb9fcd007aeb96e0f84b387cf80416453bb73fb7f3167209d561f",
    "shriek-pull": "c11fae08560b755e6c8f0d3bcd00ce0d95ac428d222e9079563fe735f09d98a4",
    "shriek-push": "f05903d977f22c527d9f1ab1e2be0bc07554d270b4afea1ce563797cb7a37c91",
    "pull": "2a3d45994a3d7cfabadb44c812295c79b3567fe481d518e2f10ea8494bc0b89b",
    "pull-non-injective": "4e7cc1e056434daf7fbf4ad6995f683c7df5e64be47916f8a9aa620a7bbd0913",
    "peel-gf2": "bdcd791a1301db75d7a2ea8cd7b23349785e7cf8f26216961e877b26dd738056",
    "peel-gf3": "c94fe2a240f669e4ba4f51304222794800762865c0ba3c531269005b0f1ac0e1",
    "push-g": "d0bdd5bca731dbf3746a9c6019589717cbf2bf0ff93dfc8dfbffea5ebd676d06",
    "morse-verify": "6e998d7f46fb652e914f9f92083c5674818c41de9ca19c98b635230951611201",
    "morse-verify-csv": "0ec64a1842a8b7a42cfd75c54cce1daf3d4497fd819b3232956c46f6b64fe0b4",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.txt"
    path.write_text("\n".join(" ".join(f) for f in combinations("1234", 3)))
    return str(path)


@pytest.fixture
def lambda_complex_file(tmp_path, sphere_wedge):
    res = minimal_resolution_constant(sphere_wedge["lambda"].face_poset)
    path = tmp_path / "lambda.json"
    path.write_text(dumps(complex_to_json(res)))
    return str(path)


@pytest.fixture
def rg_complex_file(tmp_path, pushforward_complexes):
    path = tmp_path / "rg.json"
    path.write_text(dumps(complex_to_json(pushforward_complexes["Rg"])))
    return str(path)


@pytest.fixture
def rh_complex_file(tmp_path, pushforward_complexes):
    path = tmp_path / "rh.json"
    path.write_text(dumps(complex_to_json(pushforward_complexes["Rh"])))
    return str(path)


class TestResolve:
    def test_tetra_text(self, tetra_file, capsys):
        assert main(["resolve", tetra_file]) == 0
        out = capsys.readouterr().out
        assert "degree 0" in out and "eta^0" in out
        assert "[123]" in out

    def test_single_facet(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("0 1 2\n")
        assert main(["resolve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "degree 0: [012]" in out
        assert "degree 1" not in out

    def test_star_restriction(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        facets = [" ".join(c) for c in combinations("12345", 4)] + ["1 6", "1 7"]
        path.write_text("\n".join(facets))
        assert main(["resolve", str(path), "--star", "1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        complex_ = complex_from_json(data)
        table = {d: dict(c) for d, c in complex_.multiplicities().items()}
        assert table[3] == {"∅": 1}
        assert table[1]["∅"] == 2

    def test_round_trip(self, tetra_file, capsys):
        assert main(["resolve", tetra_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        complex_ = complex_from_json(data)
        assert len(complex_.matrices) == 3

    def test_order_complex_method(self, tetra_file, capsys):
        assert main(
            ["resolve", tetra_file, "--method", "order-complex", "--peel",
             "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        complex_ = complex_from_json(json.loads(out))
        table = {d: dict(c) for d, c in complex_.multiplicities().items()}
        assert {d: sum(c.values()) for d, c in table.items()} == {0: 4, 1: 6, 2: 4}
        assert _sha256(out) == GOLDEN_SHA256["peel-gf2"]

    def test_order_complex_method_gf3_golden(self, tetra_file, capsys):
        assert main(
            ["resolve", tetra_file, "--method", "order-complex", "--peel",
             "--field", "3", "--format", "json"]
        ) == 0
        assert _sha256(capsys.readouterr().out) == GOLDEN_SHA256["peel-gf3"]

    def test_field_three(self, tetra_file, capsys):
        assert main(["resolve", tetra_file, "--field", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["field"] == 3

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # the JSON resolution of skel(7,3) (about 170 kB) overfills a 64 kB
        # pipe buffer, so the reader closes the pipe while the writer blocks
        path = tmp_path / "skel73.txt"
        path.write_text("\n".join(" ".join(map(str, f)) for f in combinations(range(8), 4)))
        src = str(Path(posheaf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        with subprocess.Popen(
            [sys.executable, "-m", "posheaf.cli", "resolve", str(path), "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.read(10) == b'{\n  "degre'
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 0

    def test_bad_input_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n")
        assert main(["resolve", str(path), "--star", "9"]) == 1

    def test_missing_file(self):
        assert main(["resolve", "/nonexistent/file.txt"]) == 1

    @pytest.mark.parametrize("poset, sheaf, extra, message", [
        ({"covers": []}, None, [], "poset JSON missing key 'elements'"),
        ({"elements": "abc", "covers": []}, None, [],
         "poset 'elements' must be a JSON array, got str"),
        ({"elements": ["a", "b"], "covers": "ab"}, None, [],
         "poset 'covers' must be a JSON array, got str"),
        ({"elements": ["a", "b"], "covers": ["ab"]}, None, [],
         "cover must be a JSON array, got str"),
        ({"elements": ["a", "b"], "covers": [["a", "b", "a"]]}, None, [],
         "poset JSON needs [lower, upper] cover pairs"),
        ({"elements": ["a"], "covers": [["a", "a"]]}, None, [], "cover (a, a) is reflexive"),
        ({"elements": ["a", "a"], "covers": []}, None, [], "duplicate element ids"),
        ({"elements": ["a", "b"], "covers": [["a", "b"]]}, {"maps": {"ab": [[1]]}}, [],
         "restriction key 'ab' is not of the form 'a<b'"),
        ({"elements": ["a"], "covers": []}, None, ["--star", "a"],
         "--star applies to simplicial complex inputs only"),
    ], ids=["no-elements", "elements-string", "covers-string", "cover-string", "cover-triple",
            "reflexive-cover", "repeated-element", "key-without-lt", "star"])
    def test_poset_json_refusal_names_the_fault(self, tmp_path, capsys, poset, sheaf, extra,
                                                message):
        poset_path = tmp_path / "poset.json"
        poset_path.write_text(json.dumps(poset))
        argv = ["resolve", str(poset_path)] + extra
        if sheaf is not None:
            sheaf_path = tmp_path / "sheaf.json"
            sheaf_path.write_text(json.dumps(sheaf))
            argv += ["--sheaf", str(sheaf_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_max_elements_cap(self, tetra_file):
        assert main(["resolve", tetra_file, "--max-elements", "3"]) == 3

    def test_max_elements_stops_face_enumeration(self, tmp_path, capsys):
        # one facet on 15 vertices has 2^15 - 1 faces; the cap stops the
        # enumeration instead of refusing the finished face poset
        import time

        path = tmp_path / "big.txt"
        path.write_text(" ".join(str(v) for v in range(15)) + "\n")
        start = time.perf_counter()
        assert main(["resolve", str(path), "--max-elements", "100"]) == 3
        assert time.perf_counter() - start < 2.0
        assert "more than 100 faces" in capsys.readouterr().err

    def test_max_elements_counts_distinct_faces(self, tetra_file):
        # four triangles of the tetrahedron boundary: 14 faces, though the
        # facets list 4 * 7 = 28 subsets
        assert main(["resolve", tetra_file, "--max-elements", "14"]) == 0
        assert main(["resolve", tetra_file, "--max-elements", "13"]) == 3

    def test_max_elements_caps_the_star(self, tmp_path):
        # with --star the cap applies to the star of vertex 0 (32 faces), not
        # to the complex (68 faces)
        path = tmp_path / "big.txt"
        path.write_text(" ".join(str(v) for v in range(6)) + "\n9 10\n10 11\n")
        assert main(["resolve", str(path), "--star", "0", "--max-elements", "32"]) == 0
        assert main(["resolve", str(path), "--star", "0", "--max-elements", "31"]) == 3
        # the star of the facet 10,11 is that face alone
        assert main(["resolve", str(path), "--star", "10,11", "--max-elements", "1"]) == 0
        assert main(["resolve", str(path), "--star", "10,11", "--max-elements", "0"]) == 3

    def test_max_elements_refuses_the_star_before_enumeration(self, tmp_path, capsys):
        # the star of a vertex of one 13-vertex facet has 2^12 faces; the
        # whole complex, 2^13 - 1, is never built
        import time

        path = tmp_path / "big13.txt"
        path.write_text(" ".join(str(v) for v in range(13)) + "\n")
        start = time.perf_counter()
        assert main(["resolve", str(path), "--star", "0", "--max-elements", "100"]) == 3
        assert time.perf_counter() - start < 1.0
        assert "the star of '0' has more than 100 faces" in capsys.readouterr().err

    def test_star_never_enumerates_faces_outside_it(self, tmp_path, capsys):
        # the 40-vertex facet without vertex 0 has 2^40 - 1 faces; the star
        # of 0 has two, and resolves as in the file without that facet
        import time

        far, near = tmp_path / "far.txt", tmp_path / "near.txt"
        far.write_text("0 1\n" + " ".join(str(v) for v in range(2, 42)) + "\n")
        near.write_text("0 1\n")
        start = time.perf_counter()
        assert main(["resolve", str(far), "--star", "0", "--format", "json"]) == 0
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert main(["resolve", str(near), "--star", "0", "--format", "json"]) == 0
        assert out == capsys.readouterr().out

    def test_non_prime_field_exit_code(self, tetra_file, capsys):
        assert main(["resolve", tetra_file, "--field", "4"]) == 1
        assert "not prime" in capsys.readouterr().err

    def test_huge_field_is_a_size_cap(self, tetra_file, tmp_path, capsys):
        huge = str(4 * 10**24)
        assert main(["resolve", tetra_file, "--field", huge]) == 3
        assert "modulus" in capsys.readouterr().err
        assert main(["resolve", tetra_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        data["field"] = int(huge)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        assert main(["functor", "shriek-pull", str(path), "--set", "1"]) == 3

    @pytest.mark.parametrize("dim", [[1], 1.5, True, "2", " 1_0"])
    def test_non_integer_stalk_exit_code(self, tmp_path, capsys, dim):
        poset_path = tmp_path / "poset.json"
        poset_path.write_text(json.dumps({"elements": ["a"], "covers": []}))
        sheaf_path = tmp_path / "sheaf.json"
        sheaf_path.write_text(json.dumps({"stalks": {"a": dim}, "maps": {}}))
        assert main(["resolve", str(poset_path), "--sheaf", str(sheaf_path)]) == 1
        assert "stalk dimension" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stalks, code, message",
        [
            ({"a": -1}, 1, "negative"),
            ({"zz": 1}, 1, "unknown element"),
            ({"a": 10**12}, 3, "total stalk dimension 1000000000000"),
            # two faults: the cap is read first; stalks that sum to 0 pass it,
            # and `Sheaf` refuses the second before it allocates the first
            ({"zz": 10**12}, 3, "total stalk dimension 1000000000000"),
            ({"a": 10**12, "b": -10**12}, 1, "unknown element 'b'"),
            ({"a": 10**12, "ab": -10**12}, 1, "stalk dimension of 'ab' is negative"),
        ],
    )
    def test_hostile_stalks_exit_code(self, tmp_path, capsys, stalks, code, message):
        poset_path = tmp_path / "poset.json"
        poset_path.write_text(json.dumps({"elements": ["a", "ab"], "covers": [["a", "ab"]]}))
        sheaf_path = tmp_path / "sheaf.json"
        sheaf_path.write_text(json.dumps({"stalks": stalks, "maps": {}}))
        assert main(["resolve", str(poset_path), "--sheaf", str(sheaf_path)]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sheaf",
        [
            {"stalks": {"a": 1}, "maps": {"a<ab": 7}},
            {"stalks": {"a": 1}, "maps": {"a<ab": [7]}},
            {"stalks": [1, 2]},
            {"stalks": {"a": 1}, "maps": []},
            [1],
        ],
        ids=["map-number", "map-row-number", "stalks-list", "maps-list", "sheaf-list"],
    )
    def test_wrong_json_container_exit_code(self, tmp_path, capsys, sheaf):
        poset_path = tmp_path / "poset.json"
        poset_path.write_text(json.dumps({"elements": ["a", "ab"], "covers": [["a", "ab"]]}))
        sheaf_path = tmp_path / "sheaf.json"
        sheaf_path.write_text(json.dumps(sheaf))
        assert main(["resolve", str(poset_path), "--sheaf", str(sheaf_path)]) == 1
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("method", [[], ["--method", "inductive"]])
    def test_peel_without_the_order_complex_method_exit_code(self, tetra_file, capsys, method):
        assert main(["resolve", tetra_file, "--peel"] + method) == 1
        assert capsys.readouterr().err == (
            "input error: --peel applies to --method order-complex only\n")

    @pytest.mark.parametrize("facets, star", [
        ("1,2\n1 2\n", []),
        ("0 1,2\n0 1 2\n", ["--star", "0"]),
    ], ids=["complex", "star"])
    def test_colliding_face_names_exit_code(self, tmp_path, capsys, facets, star):
        # the vertex "1,2" and the edge {1, 2} take one name
        path = tmp_path / "collide.txt"
        path.write_text(facets)
        assert main(["resolve", str(path)] + star) == 1
        assert capsys.readouterr().err == (
            "input error: face names collide; use distinct vertex ids\n")

    def test_facet_names_that_would_collide(self, tmp_path, capsys):
        # vertex 12 and edge {1,2}: names are comma-joined for the whole complex
        path = tmp_path / "collide.txt"
        path.write_text("1 2\n2 12\n")
        assert main(["resolve", str(path), "--star", "2", "--format", "json"]) == 0
        complex_ = complex_from_json(json.loads(capsys.readouterr().out))
        assert sorted(complex_.poset.elements) == ["1", "12", "∅"]

    def test_internal_value_error_is_not_an_input_error(self, tetra_file, monkeypatch):
        import posheaf.cli as cli_module

        def broken(poset, field):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli_module, "minimal_resolution_constant", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["resolve", tetra_file])

    def test_internal_recursion_error_is_not_an_input_error(self, tetra_file, monkeypatch):
        import posheaf.cli as cli_module

        def broken(poset, field):
            raise RecursionError("internal recursion")

        monkeypatch.setattr(cli_module, "minimal_resolution_constant", broken)
        with pytest.raises(RecursionError, match="internal recursion"):
            main(["resolve", tetra_file])

    def test_overlong_json_integer_exit_code(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # integer longer than Python's digit limit
        path = tmp_path / "poset.json"
        path.write_text('{"elements": [' + "1" * 5000 + '], "covers": []}')
        assert main(["resolve", str(path)]) == 1
        assert capsys.readouterr().err.startswith("input error: malformed JSON")

    @pytest.mark.parametrize("case, message", [
        ("hexagon", "input error: functoriality fails between a and c"),
        ("implied-cover", "input error: restriction key 'a<c' is not a cover relation"),
    ])
    @pytest.mark.parametrize("method", [[], ["--method", "order-complex"],
                                        ["--method", "order-complex", "--peel"]])
    def test_non_functorial_sheaf_exit_code(self, capsys, case, message, method):
        # the hexagon's two cover paths from a to c, of length three, compose
        # differently; a < c in the other poset follows from a < b < c, so
        # it is no cover and carries no map of its own
        data = Path(__file__).parent / "data"
        argv = ["resolve", str(data / f"{case}-poset.json"),
                "--sheaf", str(data / f"{case}-sheaf.json")]
        assert main(argv + method) == 1
        assert capsys.readouterr().err.startswith(message)

    def test_sheaf_input(self, tmp_path, capsys):
        poset_path = tmp_path / "poset.json"
        poset_path.write_text(
            json.dumps({"elements": ["y", "x"], "covers": [["y", "x"]]})
        )
        sheaf_path = tmp_path / "sheaf.json"
        sheaf_path.write_text(json.dumps({"stalks": {"x": 1}, "maps": {}}))
        assert main(
            ["resolve", str(poset_path), "--sheaf", str(sheaf_path), "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        complex_ = complex_from_json(json.loads(out))
        table = {d: dict(c) for d, c in complex_.multiplicities().items()}
        assert table == {0: {"x": 1}, 1: {"y": 1}}
        assert _sha256(out) == GOLDEN_SHA256["sheaf-small"]

    @pytest.mark.parametrize("make_sheaf", [zero_stalk_chain, zero_stalk_diamond])
    def test_sheaf_with_a_zero_stalk_inside_a_cover_path(self, tmp_path, capsys, make_sheaf):
        sheaf = make_sheaf()
        poset_path = tmp_path / "poset.json"
        poset_path.write_text(json.dumps(poset_to_json(sheaf.poset)))
        sheaf_path = tmp_path / "sheaf.json"
        sheaf_path.write_text(json.dumps(sheaf_to_json(sheaf)))
        field = str(sheaf.field.p)
        for method in ("inductive", "order-complex"):
            assert main(["resolve", str(poset_path), "--sheaf", str(sheaf_path),
                         "--field", field, "--method", method]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["inductive", "order-complex"])
    def test_sheaf_validated_once(self, tmp_path, method, capsys):
        from unittest import mock

        from posheaf.matrix import ValidationReport

        poset_path = tmp_path / "poset.json"
        poset_path.write_text(json.dumps(poset_to_json(skeleton_of_simplex(3, 2).face_poset)))
        sheaf_path = tmp_path / "sheaf.json"
        sheaf_path.write_text(json.dumps({"stalks": {"1": 1, "12": 1}, "maps": {"1<12": [[1]]}}))
        with mock.patch("posheaf.sheaf.ValidationReport", wraps=ValidationReport) as made:
            assert main(["resolve", str(poset_path), "--sheaf", str(sheaf_path),
                         "--method", method]) == 0
        assert made.call_count == 1

    def test_sheaf_input_gf3_golden(self, tmp_path, capsys):
        poset = skeleton_of_simplex(3, 2).face_poset
        field = PrimeField(3)
        sheaf = extension_by_zero_sheaf(
            poset, field, [poset.star("1"), poset.star("2"), poset.star("12")]
        )
        poset_path = tmp_path / "poset.json"
        poset_path.write_text(json.dumps(poset_to_json(poset)))
        sheaf_path = tmp_path / "sheaf.json"
        sheaf_path.write_text(json.dumps(sheaf_to_json(sheaf)))
        assert main(
            ["resolve", str(poset_path), "--sheaf", str(sheaf_path), "--field", "3",
             "--format", "json"]
        ) == 0
        assert _sha256(capsys.readouterr().out) == GOLDEN_SHA256["sheaf-gf3"]


class TestFunctor:
    def test_push_identity(self, lambda_complex_file, tmp_path, capsys, sphere_wedge):
        lam = sphere_wedge["lambda"].face_poset
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"assignment": {e: e for e in lam.elements}}))
        tgt_path = tmp_path / "tgt.json"
        tgt_path.write_text(json.dumps(poset_to_json(lam)))
        assert main(
            ["functor", "push", lambda_complex_file, "--map", str(map_path),
             "--target-poset", str(tgt_path), "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert complex_from_json(data).total_summands() == 20

    def test_push_section7_g(self, tmp_path, capsys, sphere_wedge):
        sigma = sphere_wedge["sigma"].face_poset
        res = minimal_resolution_constant(sigma)
        complex_path = tmp_path / "sigma.json"
        complex_path.write_text(dumps(complex_to_json(res)))
        g = sphere_wedge["g"]
        map_path = tmp_path / "g.json"
        map_path.write_text(json.dumps({"assignment": g.assignment}))
        tgt_path = tmp_path / "lam.json"
        tgt_path.write_text(json.dumps(poset_to_json(sphere_wedge["lambda"].face_poset)))
        assert main(
            ["functor", "push", str(complex_path), "--map", str(map_path),
             "--target-poset", str(tgt_path), "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        table = {
            d: dict(c) for d, c in complex_from_json(json.loads(out)).multiplicities().items()
        }
        assert table[1]["4"] == 1 and len(table[0]) == 6
        assert _sha256(out) == GOLDEN_SHA256["push-g"]

    def test_push_onto_the_image_poset_by_default(self, tmp_path, capsys, sphere_wedge):
        sigma, g = sphere_wedge["sigma"].face_poset, sphere_wedge["g"]
        complex_path = tmp_path / "sigma.json"
        complex_path.write_text(dumps(complex_to_json(minimal_resolution_constant(sigma))))
        map_path = tmp_path / "g.json"
        map_path.write_text(json.dumps({"assignment": g.assignment}))
        # the order the images of all comparable pairs generate
        names = list(dict.fromkeys(g(e) for e in sigma.elements))
        pairs = [(g(a), g(b)) for a in sigma for b in sigma if sigma.leq(a, b) and g(a) != g(b)]
        tgt_path = tmp_path / "image.json"
        tgt_path.write_text(json.dumps(poset_to_json(Poset.from_leq_pairs(names, pairs))))
        argv = ["functor", "push", str(complex_path), "--map", str(map_path), "--format", "json"]
        assert main(argv) == 0
        implicit = capsys.readouterr().out
        assert main(argv + ["--target-poset", str(tgt_path)]) == 0
        assert implicit == capsys.readouterr().out

    def test_shriek_pull_section7(self, rh_complex_file, capsys):
        assert main(
            ["functor", "shriek-pull", rh_complex_file, "--set", "4,24",
             "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        complex_ = complex_from_json(json.loads(out))
        table = {d: dict(c) for d, c in complex_.multiplicities().items()}
        assert table == {1: {"24": 1, "4": 2}, 2: {"4": 1}}
        assert _sha256(out) == GOLDEN_SHA256["shriek-pull"]

    def test_shriek_push_section7(self, tmp_path, capsys, sphere_wedge, pushforward_complexes):
        lam = sphere_wedge["lambda"].face_poset
        zset = LocallyClosedSet(lam, ["4", "24"])
        sub_path = tmp_path / "sub.json"
        sub_path.write_text(
            dumps(complex_to_json(proper_pullback(zset, pushforward_complexes["Rh"])))
        )
        ambient_path = tmp_path / "lam.json"
        ambient_path.write_text(json.dumps(poset_to_json(lam)))
        assert main(
            ["functor", "shriek-push", str(sub_path), "--set", "4,24",
             "--ambient", str(ambient_path), "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        complex_ = complex_from_json(json.loads(out))
        assert complex_.poset == lam
        assert _sha256(out) == GOLDEN_SHA256["shriek-push"]

    def test_shriek_push_refuses_a_complex_ordered_otherwise(self, tmp_path, capsys):
        # the complex lives on a < b, c; the ambient poset has b, c < a
        res = minimal_resolution_constant(Poset.from_covers("abc", [("a", "b"), ("a", "c")]))
        complex_path = tmp_path / "res.json"
        complex_path.write_text(dumps(complex_to_json(res)))
        ambient_path = tmp_path / "ambient.json"
        ambient = Poset.from_covers("abc", [("b", "a"), ("c", "a")])
        ambient_path.write_text(json.dumps(poset_to_json(ambient)))
        assert main(
            ["functor", "shriek-push", str(complex_path), "--set", "a,b,c",
             "--ambient", str(ambient_path)]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "order differs" in captured.err

    def test_pull_section7(self, rg_complex_file, tmp_path, capsys, sphere_wedge):
        lam = sphere_wedge["lambda"].face_poset
        sub = lam.restrict({"4", "24"})
        src_path = tmp_path / "b.json"
        src_path.write_text(json.dumps(poset_to_json(sub)))
        map_path = tmp_path / "inc.json"
        map_path.write_text(json.dumps({"assignment": {"4": "4", "24": "24"}}))
        assert main(
            ["functor", "pull", rg_complex_file, "--map", str(map_path),
             "--source-poset", str(src_path), "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        table = {
            d: dict(c) for d, c in complex_from_json(json.loads(out)).multiplicities().items()
        }
        assert table == {0: {"24": 1}, 1: {"4": 1}}
        assert _sha256(out) == GOLDEN_SHA256["pull"]

    def test_pull_along_a_non_injective_map(self, tmp_path, capsys):
        """The tetrahedron boundary folded onto the triangle (3 -> 2), whose
        cylinder has pairs s' < f(s) that other pairs imply.  The output
        depends on the cylinder's order, not on its cover list, which
        `test_cylinder_is_the_closure_of_its_generating_pairs` pins."""
        sphere, triangle = skeleton_of_simplex(3, 2), skeleton_of_simplex(2, 2)
        fold = MonotoneMap.simplicial(sphere, triangle, {"3": "2"})
        complex_path = tmp_path / "triangle.json"
        complex_path.write_text(
            dumps(complex_to_json(minimal_resolution_constant(triangle.face_poset, PrimeField(2))))
        )
        src_path = tmp_path / "sphere.json"
        src_path.write_text(json.dumps(poset_to_json(sphere.face_poset)))
        map_path = tmp_path / "fold.json"
        map_path.write_text(json.dumps({"assignment": fold.assignment}))
        assert main(
            ["functor", "pull", str(complex_path), "--map", str(map_path),
             "--source-poset", str(src_path), "--format", "json"]
        ) == 0
        assert _sha256(capsys.readouterr().out) == GOLDEN_SHA256["pull-non-injective"]

    @pytest.mark.parametrize("field", ["x", [2], float("inf"), True, "3"])
    def test_non_integer_field_exit_code(self, tetra_file, tmp_path, capsys, field):
        assert main(["resolve", tetra_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        data["field"] = field
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["functor", "shriek-pull", str(path), "--set", "1"]) == 1
        assert "field must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("row_label, message", [
        ("b", "matrix at degree 0: nonzero entry in row b, column a: labels not ordered"),
        ("a", "last matrix has rows; complex is not closed off"),
    ])
    def test_inconsistent_complex_exit_code(self, tmp_path, capsys, row_label, message):
        # one matrix, [a] -> [row_label], on the chain a < b
        data = {"field": 2, "poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                "matrices": [{"cols": ["a"], "rows": [{"label": row_label,
                                                       "entries": {"0": 1}}]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["functor", "shriek-pull", str(path), "--set", "a"]) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_rows_that_do_not_match_the_next_columns_exit_code(self, tmp_path, capsys):
        # on the chain a < b, degree 0's row [a] is not degree 1's column [b]
        data = {"field": 2, "poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
                "matrices": [{"cols": ["a"], "rows": [{"label": "a", "entries": {}}]},
                             {"cols": ["b"], "rows": []}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["functor", "shriek-pull", str(path), "--set", "a"]) == 1
        assert capsys.readouterr().err == (
            "input error: rows of degree 0 do not match columns of degree 1\n")

    def test_column_index_out_of_range_exit_code(self, tetra_file, tmp_path, capsys):
        assert main(["resolve", tetra_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # -1 would silently name the last column; in degree 1 an index past
        # the previous degree's rows must be refused before composing
        for degree, index in [(0, "999"), (0, "-1"), (1, "999"), (1, "-1")]:
            bad = copy.deepcopy(data)
            bad["matrices"][degree]["rows"][0]["entries"] = {index: 1}
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            assert main(["functor", "shriek-pull", str(path), "--set", "1"]) == 1
            assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("slot, bad, message", [
        ("offset", "0", "degree_offset must be an integer, got '0'"),
        ("entry", "1", "matrix entry must be an integer, got '1'"),
        ("key", "0", "matrix column index must be a plain integer key, got '0"),
        ("key", "+", "matrix column index must be a plain integer key, got '+"),
        ("key", " ", "matrix column index must be a plain integer key, got ' "),
    ], ids=["offset", "entry", "leading-zero", "plus", "space"])
    def test_string_number_or_non_canonical_key_exit_code(self, tetra_file, tmp_path, capsys,
                                                           slot, bad, message):
        # numbers are JSON numbers, and a column index is a key only as
        # matrix_to_json writes it: "01" and "1" would both name column 1
        assert main(["resolve", tetra_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        row = data["matrices"][0]["rows"][0]
        if slot == "offset":
            data["degree_offset"] = bad
        elif slot == "entry":
            row["entries"] = dict.fromkeys(row["entries"], bad)
        else:
            row["entries"] = {bad + j: v for j, v in row["entries"].items()}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["functor", "shriek-pull", str(path), "--set", "1"]) == 1
        assert capsys.readouterr().err.startswith(f"input error: {message}")

    @pytest.mark.parametrize("where", ["row", "column"])
    def test_unknown_label_exit_code(self, tetra_file, tmp_path, capsys, where):
        # a label that is not a poset element is named as such, not as a missing key
        assert main(["resolve", tetra_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        matrix = data["matrices"][0]
        if where == "row":
            matrix["rows"][0]["label"] = "zz"
        else:
            matrix["cols"][0] = "zz"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["functor", "shriek-pull", str(path), "--set", "1"]) == 1
        assert capsys.readouterr().err.startswith(
            f"input error: matrix {where} label 'zz' is not a poset element")

    def test_assignment_list_exit_code(self, lambda_complex_file, tmp_path, capsys, sphere_wedge):
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"assignment": ["4", "24"]}))
        tgt_path = tmp_path / "tgt.json"
        tgt_path.write_text(json.dumps(poset_to_json(sphere_wedge["lambda"].face_poset)))
        assert main(
            ["functor", "push", lambda_complex_file, "--map", str(map_path),
             "--target-poset", str(tgt_path)]
        ) == 1
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment, target, message", [
        ({"a": "x", "b": "x"}, [], "assignment missing element 'c'"),
        ({"a": "x", "b": "x", "c": "nope"}, ["--target-poset", "{target}"],
         "assignment hits unknown target 'nope'"),
    ], ids=["missing-element", "unknown-target"])
    def test_push_map_that_misses_its_posets_exit_code(self, tmp_path, capsys, assignment,
                                                       target, message):
        vee = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
        paths = {name: tmp_path / f"{name}.json" for name in ("complex", "map", "target")}
        paths["complex"].write_text(dumps(complex_to_json(minimal_resolution_constant(vee))))
        paths["map"].write_text(json.dumps({"assignment": assignment}))
        paths["target"].write_text(json.dumps({"elements": ["x"], "covers": []}))
        argv = ["functor", "push", "{complex}", "--map", "{map}"] + target
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "where, value",
        [("matrices", {"0": 1}), ("cols", 3), ("rows", 5), ("row", [1]), ("entries", [1])],
    )
    def test_wrong_complex_container_exit_code(self, tetra_file, tmp_path, capsys, where, value):
        assert main(["resolve", tetra_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        matrix = data["matrices"][0]
        if where == "matrices":
            data["matrices"] = value
        elif where == "row":
            matrix["rows"][0] = value
        elif where == "entries":
            matrix["rows"][0]["entries"] = value
        else:
            matrix[where] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["functor", "shriek-pull", str(path), "--set", "1"]) == 1
        assert "input error:" in capsys.readouterr().err

    def test_max_elements_cap(self, lambda_complex_file, capsys):
        argv = ["functor", "shriek-pull", lambda_complex_file, "--set", "4,24"]
        assert main(argv + ["--max-elements", "5"]) == 3
        assert "above --max-elements=5" in capsys.readouterr().err
        assert main(argv) == 0

    def test_non_locally_closed_set_rejected(self, lambda_complex_file):
        assert main(
            ["functor", "shriek-pull", lambda_complex_file, "--set", "4,234"]
        ) == 1

    @pytest.mark.parametrize("kind, given, missing", [
        ("push", [], "--map"),
        ("pull", [], "--map"),
        ("pull", ["--map", "{map}"], "--source-poset"),
        ("shriek-pull", [], "--set"),
        ("shriek-push", [], "--set"),
        ("shriek-push", ["--set", "4"], "--ambient"),
    ])
    def test_missing_option_exit_code(self, lambda_complex_file, tmp_path, capsys,
                                      kind, given, missing):
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"assignment": {}}))
        argv = ["functor", kind, lambda_complex_file] + [
            arg.format(map=map_path) for arg in given]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: functor {kind} needs {missing}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, missing", [
        ("push", "--map"), ("pull", "--map"), ("shriek-pull", "--set"), ("shriek-push", "--set"),
    ])
    def test_missing_option_refused_before_the_complex_is_read(self, tmp_path, capsys,
                                                               kind, missing):
        assert main(["functor", kind, str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err == f"input error: functor {kind} needs {missing}\n"


class TestMorseCommand:
    def test_verify_rg(self, rg_complex_file, tmp_path, capsys):
        morse_path = tmp_path / "morse.json"
        morse_path.write_text(json.dumps(MORSE_JSON))
        assert main(["morse", rg_complex_file, str(morse_path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "critical elements:" in out
        assert "verified" in out
        assert _sha256(out) == GOLDEN_SHA256["morse-verify"]

    def test_verify_csv_golden(self, rg_complex_file, tmp_path, capsys):
        morse_path = tmp_path / "morse.json"
        morse_path.write_text(json.dumps(MORSE_JSON))
        assert main(
            ["morse", rg_complex_file, str(morse_path), "--verify", "--format", "csv"]
        ) == 0
        assert _sha256(capsys.readouterr().out) == GOLDEN_SHA256["morse-verify-csv"]

    def test_verify_rh(self, rh_complex_file, tmp_path):
        morse_path = tmp_path / "morse.json"
        morse_path.write_text(json.dumps(MORSE_JSON))
        assert main(["morse", rh_complex_file, str(morse_path), "--verify"]) == 0

    def test_trivial_function_single_row(self, lambda_complex_file, tmp_path, capsys, sphere_wedge):
        lam = sphere_wedge["lambda"].face_poset
        morse_path = tmp_path / "trivial.json"
        morse_path.write_text(
            json.dumps({"levels": {e: "one" for e in lam.elements}, "order": ["one"]})
        )
        assert main(["morse", lambda_complex_file, str(morse_path)]) == 0
        out = capsys.readouterr().out
        assert "sublevel star" in out

    def test_csv_output(self, rg_complex_file, tmp_path, capsys):
        morse_path = tmp_path / "morse.json"
        morse_path.write_text(json.dumps(MORSE_JSON))
        assert main(
            ["morse", rg_complex_file, str(morse_path), "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("table,level,critical")

    def test_invalid_morse_function(self, rg_complex_file, tmp_path):
        morse_path = tmp_path / "bad.json"
        bad = dict(MORSE_JSON, order=list("BACDEFGHIJK"))
        morse_path.write_text(json.dumps(bad))
        assert main(["morse", rg_complex_file, str(morse_path)]) == 1

    def test_repeated_level_exit_code(self, rg_complex_file, tmp_path, capsys):
        morse_path = tmp_path / "repeat.json"
        morse_path.write_text(json.dumps(dict(MORSE_JSON, order=list("ABCDEFGHIJKK"))))
        assert main(["morse", rg_complex_file, str(morse_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: total order repeats level 'K'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("order", [list("BCDEFGHIJK"), list("ABCDEFGHIJ")],
                             ids=["lowest-left-out", "highest-left-out"])
    def test_order_that_leaves_out_a_level_exit_code(self, rg_complex_file, tmp_path, capsys,
                                                     order):
        morse_path = tmp_path / "order.json"
        morse_path.write_text(json.dumps(dict(MORSE_JSON, order=order)))
        assert main(["morse", rg_complex_file, str(morse_path)]) == 1
        assert capsys.readouterr().err == (
            "input error: total order must enumerate the level poset\n")

    def test_verification_failure_exit_code(
        self, rg_complex_file, tmp_path, monkeypatch
    ):
        from posheaf.morse import MorseAnalysis, MorseTheoremReport

        morse_path = tmp_path / "morse.json"
        morse_path.write_text(json.dumps(MORSE_JSON))
        monkeypatch.setattr(
            MorseAnalysis,
            "theorem",
            lambda self: MorseTheoremReport(violations=["forced failure"]),
        )
        assert main(["morse", rg_complex_file, str(morse_path), "--verify"]) == 2

    def test_max_elements_cap(self, rg_complex_file, tmp_path, capsys):
        morse_path = tmp_path / "morse.json"
        morse_path.write_text(json.dumps(MORSE_JSON))
        argv = ["morse", rg_complex_file, str(morse_path), "--max-elements"]
        assert main(argv + ["19"]) == 3
        assert "above --max-elements=19" in capsys.readouterr().err
        assert main(argv + ["20"]) == 0


@pytest.mark.parametrize("argv", [
    ["resolve", "{chain}"],
    ["functor", "push", "{point}", "--map", "{map}", "--target-poset", "{chain}"],
    ["functor", "pull", "{point}", "--map", "{map}", "--source-poset", "{chain}"],
    ["functor", "shriek-push", "{point}", "--set", "pt", "--ambient", "{chain}"],
    ["functor", "shriek-pull", "{chain_complex}", "--set", "c0"],
    ["morse", "{chain_complex}", "{map}"],
])
def test_over_cap_json_posets_are_refused_before_they_are_built(argv, tmp_path, capsys):
    """A poset JSON, or the poset of a complex JSON, with more elements than
    --max-elements never reaches `Poset.from_covers`."""
    chain = Poset.from_covers([f"c{i}" for i in range(6)], [(f"c{i}", f"c{i + 1}")
                                                           for i in range(5)])
    point = Poset.from_covers(["pt"], [])
    files = {
        "chain": poset_to_json(chain),
        "chain_complex": complex_to_json(minimal_resolution_constant(chain)),
        "point": complex_to_json(minimal_resolution_constant(point)),
        "map": {"assignment": {"pt": "c0"}},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(dumps(data))
    argv = [arg.format(**{name: tmp_path / f"{name}.json" for name in files}) for arg in argv]
    with mock.patch.object(Poset, "from_covers", wraps=Poset.from_covers) as spy:
        assert main(argv + ["--max-elements", "5"]) == 3
        assert "above --max-elements=5" in capsys.readouterr().err
        assert all(len(call.args[0]) < 6 for call in spy.call_args_list)
        # at the cap the chain is built, whatever the rest of argv then does
        assert main(argv + ["--max-elements", "6"]) in (0, 1)
        assert any(len(call.args[0]) == 6 for call in spy.call_args_list)


# where each id slot sits in the inputs of `test_non_string_id_exit_code`,
# and the command that reads each input
_ID_SLOTS = {
    "poset element": ("poset", ["elements", 0]),
    "cover member": ("poset", ["covers", 0, 1]),
    "matrix column label": ("complex", ["matrices", 0, "cols", 0]),
    "matrix row label": ("complex", ["matrices", 0, "rows", 0, "label"]),
    "map target of 'c'": ("map", ["assignment", "c"]),
    "level of 'c'": ("morse", ["levels", "c"]),
    "morse order entry": ("morse", ["order", 1]),
}
_ID_COMMANDS = {
    "poset": ["resolve", "{poset}"],
    "complex": ["functor", "shriek-pull", "{complex}", "--set", "a"],
    "map": ["functor", "push", "{complex}", "--map", "{map}"],
    "morse": ["morse", "{complex}", "{morse}"],
}


@pytest.mark.parametrize("bad", [None, True, 1, {"a": 1}], ids=["null", "true", "1", "object"])
@pytest.mark.parametrize("slot", list(_ID_SLOTS))
def test_non_string_id_exit_code(slot, bad, tmp_path, capsys):
    """An id that is not a JSON string is an input error naming its slot,
    wherever an id is read."""
    vee = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    files = {
        "poset": poset_to_json(vee),
        "complex": complex_to_json(minimal_resolution_constant(vee)),
        "map": {"assignment": {"a": "x", "b": "x", "c": "x"}},
        "morse": {"levels": {"a": "lo", "b": "hi", "c": "hi"}, "order": ["lo", "hi"]},
    }
    planted, (*parents, last) = _ID_SLOTS[slot]
    node = files[planted]
    for key in parents:
        node = node[key]
    node[last] = bad
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, data in files.items():
        paths[name].write_text(json.dumps(data))
    assert main([arg.format(**paths) for arg in _ID_COMMANDS[planted]]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        f"input error: {slot} must be a JSON string, got {type(bad).__name__}")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["functor", "push", "{complex}", "--map", "{map}"],
    ["functor", "pull", "{complex}", "--map", "{map}", "--source-poset", "{poset}"],
    ["morse", "{complex}", "{morse}"],
], ids=["push", "pull", "morse"])
def test_unknown_source_element_exit_code(argv, tmp_path, capsys):
    """A map or Morse levels object that names an element outside the
    source is refused, naming the element, not its image."""
    vee = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
    files = {
        "poset": poset_to_json(vee),
        "complex": complex_to_json(minimal_resolution_constant(vee)),
        "map": {"assignment": {"a": "a", "b": "b", "c": "c", "zz": "b"}},
        "morse": {"levels": {"a": "lo", "b": "hi", "c": "hi", "zz": "q"}, "order": ["lo", "hi"]},
    }
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, data in files.items():
        paths[name].write_text(json.dumps(data))
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "input error: assignment given for unknown element 'zz'"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["resolve", "{tetra}", "--field", "x"],
    ["resolve", "{tetra}", "--method", "foo"],
    ["resolve", "{tetra}", "--max-elements", "-1"],
    ["functor", "push", "{tetra}", "--max-elements", "-1"],
    ["functor", "bogus", "{tetra}"],
    ["morse"],
    ["morse", "{tetra}", "{tetra}", "--max-elements", "-1"],
    ["bogus"],
    [],
])
def test_usage_errors_exit_1_with_the_usage(argv, tetra_file, capsys):
    # exit 2 is a violated Morse comparison; a malformed command line is an input error
    assert main([arg.format(tetra=tetra_file) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: posheaf")
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["resolve", "{dir}"],
    ["resolve", "{binary}"],
    ["resolve", "{tetra}", "--sheaf", "{dir}"],
    ["functor", "shriek-pull", "{dir}", "--set", "4"],
    ["functor", "push", "{complex}", "--map", "{dir}"],
    ["functor", "pull", "{complex}", "--map", "{map}", "--source-poset", "{dir}"],
    ["functor", "shriek-push", "{complex}", "--set", "4", "--ambient", "{dir}"],
    ["morse", "{dir}", "{map}"],
    ["morse", "{complex}", "{dir}"],
], ids=["resolve-dir", "resolve-not-utf8", "sheaf-dir", "complex-dir", "map-dir",
        "source-poset-dir", "ambient-dir", "morse-complex-dir", "morse-json-dir"])
def test_unreadable_input_path_exit_1(argv, tmp_path, tetra_file, lambda_complex_file, capsys):
    """A directory, or a file that is not UTF-8, is an input error wherever
    it is named, with the reader's message and no traceback."""
    (tmp_path / "map.json").write_text(json.dumps({"assignment": {}}))
    (tmp_path / "binary.txt").write_bytes(b"0 1\n\xff\xfe\n")
    paths = {"dir": tmp_path, "binary": tmp_path / "binary.txt", "tetra": tetra_file,
             "complex": lambda_complex_file, "map": tmp_path / "map.json"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Is a directory" in err or "utf-8" in err


@pytest.mark.parametrize("argv", [["--help"], ["resolve", "--help"], ["morse", "-h"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: posheaf")
