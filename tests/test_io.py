import json
import random
import re
from unittest import mock

import pytest

from posheaf.errors import InputError, SizeCapExceeded
from posheaf.field import PrimeField
from posheaf.io import (
    complex_from_json,
    complex_to_json,
    dumps,
    map_from_json,
    morse_from_json,
    poset_from_json,
    poset_to_json,
    read_facets_text,
    render_complex_text,
    render_multiplicity_table,
    sheaf_from_json,
    sheaf_to_json,
    vertex_map_from_json,
)
from posheaf.matrix import LabeledMatrix
from posheaf.poset import Poset, skeleton_of_simplex
from posheaf.resolution import minimal_resolution_constant

from conftest import GF2, GF3
import io_oracle


class TestFacetsText:
    def test_comments_and_blanks(self):
        sc = read_facets_text("# heading\n\n0 1\n1 2  # trailing\n")
        assert sorted(sc.face_poset.elements) == ["0", "01", "1", "12", "2"]

    def test_empty_input(self):
        with pytest.raises(InputError):
            read_facets_text("# nothing\n")


class TestPosetJson:
    def test_round_trip(self, tetra):
        data = poset_to_json(tetra.face_poset)
        again = poset_from_json(json.loads(json.dumps(data)))
        assert again == tetra.face_poset

    def test_missing_key(self):
        with pytest.raises(InputError):
            poset_from_json({"elements": ["a"]})

    @pytest.mark.parametrize(
        "data",
        [{"elements": "ab", "covers": []}, {"elements": ["a", "b"], "covers": ["ab"]}],
        ids=["elements-string", "cover-string"],
    )
    def test_strings_for_arrays_rejected(self, data):
        with pytest.raises(InputError):
            poset_from_json(data)


class TestSheafJson:
    def test_round_trip(self):
        poset = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
        data = {"stalks": {"a": 1, "b": 2, "c": 1}, "maps": {"a<b": [[1], [0]]}}
        sheaf = sheaf_from_json(data, poset, GF2)
        assert sheaf.restriction[("b", "c")] == [[0, 0]]  # omitted maps are zero
        again = sheaf_from_json(sheaf_to_json(sheaf), poset, GF2)
        assert again.stalk_dim == sheaf.stalk_dim
        assert again.restriction == sheaf.restriction

    def test_stalk_cap_refused_before_the_sheaf_is_built(self):
        poset = Poset.from_covers(["a", "b"], [("a", "b")])
        data = {"stalks": {"a": 10**12, "zz": 1}, "maps": {"a<b": [[1]]}}
        with mock.patch("posheaf.io.Sheaf") as built:
            with pytest.raises(SizeCapExceeded,
                               match="total stalk dimension 1000000000001") as refused:
                sheaf_from_json(data, poset, GF2, max_total=10)
        built.assert_not_called()
        assert str(refused.value).endswith("above --max-elements=10")  # names the cap
        sheaf = sheaf_from_json({"stalks": {"a": 10}}, poset, GF2, max_total=10)
        assert sheaf.stalk_dim == {"a": 10, "b": 0}

    def test_non_cover_key_rejected(self):
        poset = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(InputError):
            sheaf_from_json({"stalks": {}, "maps": {"a<c": [[1]]}}, poset, GF2)

    def test_one_pass_over_the_covers(self):
        # the cover check reads the covers once however many maps are given
        class CountingList(list):
            passes = 0

            def __iter__(self):
                CountingList.passes += 1
                return super().__iter__()

        names = [f"e{i}" for i in range(30)]
        covers = list(zip(names, names[1:]))
        poset = Poset.from_covers(names, covers)
        poset.covers = CountingList(poset.covers)
        passes = []
        for n_maps in (1, len(covers)):
            CountingList.passes = 0
            maps = {f"{a}<{b}": [[1]] for a, b in covers[:n_maps]}
            sheaf_from_json({"stalks": {e: 1 for e in names}, "maps": maps}, poset, GF2)
            passes.append(CountingList.passes)
        assert passes[0] == passes[1]


class TestMapJson:
    def test_element_map(self, sphere_wedge):
        lam = sphere_wedge["lambda"].face_poset
        f = map_from_json(
            {"assignment": {e: e for e in lam.elements}}, lam, lam
        )
        assert all(f(e) == e for e in lam.elements)

    def test_vertex_map_extends_to_faces(self, sphere_wedge):
        f = vertex_map_from_json(
            {"assignment": {"5": "4", "6": "4"}},
            sphere_wedge["sigma"],
            sphere_wedge["lambda"],
        )
        assert f("56") == "4"
        assert f("45") == "4"
        assert f("013") == "013"


class TestComplexJson:
    def test_round_trip_gf3(self, tetra):
        res = minimal_resolution_constant(tetra.face_poset, GF3)
        again = complex_from_json(json.loads(dumps(complex_to_json(res))))
        assert again == res

    def test_validation_on_ingest(self, tetra):
        res = minimal_resolution_constant(tetra.face_poset)
        data = complex_to_json(res)
        entries = data["matrices"][0]["rows"][0]["entries"]
        entries.pop(next(iter(entries)))  # composition is no longer zero
        with pytest.raises(InputError):
            complex_from_json(data)

    def test_one_label_check_per_entry(self):
        # label order is checked in one per-entry pass, `LabeledMatrix.validate`,
        # once per matrix, on up-set bits: no `Poset.leq` call, and composition
        # is tested on packed rows, with no product built
        res = minimal_resolution_constant(skeleton_of_simplex(6, 3).face_poset)
        data = json.loads(dumps(complex_to_json(res)))
        entries = sum(len(row["entries"]) for m in data["matrices"] for row in m["rows"])
        spies = [mock.patch.object(cls, name, autospec=True, side_effect=getattr(cls, name))
                 for cls, name in ((LabeledMatrix, "validate"), (Poset, "leq"),
                                   (LabeledMatrix, "multiply"))]
        with spies[0] as validate, spies[1] as leq, spies[2] as multiply:
            assert complex_from_json(data) == res
        assert entries == 1449
        assert (validate.call_count, leq.call_count, multiply.call_count) == (len(res.matrices), 0, 0)


# The faults the reader must report as it did before the fast path: column
# keys not written the plain way or out of range, entries that are not ints or
# not reduced, a bad row label, a label-order violation, a broken composition.
BAD_KEYS = ["01", "+1", " 1", "-1", "999"]
ODD_ENTRIES = [1.0, 2.5, True, "1", 10**30, -1, 0]
FAULTS = ("key", "entry", "label", "order", "compose")
MESSAGES = ("plain integer key", "must be an integer", "is not a poset element",
            "must be a JSON string", "out of range", "labels not ordered", "is nonzero")


def _fault(rng, data, poset, p, kind, m, i):
    """Put one fault of `kind` into row i of matrix m of complex JSON `data`."""
    mat = data["matrices"][m]
    row = mat["rows"][i]
    entries = row["entries"]
    if kind == "key":
        value = entries.pop(rng.choice([*entries])) if entries and rng.random() < 0.5 else 1
        entries[rng.choice(BAD_KEYS)] = value
    elif kind == "entry":
        entries[rng.choice([*entries]) if entries else "0"] = rng.choice(ODD_ENTRIES)
    elif kind == "label":
        row["label"] = rng.choice(["no such face", 7, None])
    elif kind == "order" and row["label"] in poset.index:
        bad = [j for j, c in enumerate(mat["cols"]) if not poset.leq(row["label"], c)]
        if bad:
            entries[str(rng.choice(bad))] = rng.randint(1, p - 1)
    elif kind == "compose" and (ints := [k for k, v in entries.items() if type(v) is int]):
        key = rng.choice(ints)
        entries[key] = (entries[key] + rng.randint(1, p - 1)) % p


def _read(reader, data):
    """("ok", every matrix's labels and rows, entry order included) or ("error", message)."""
    kind, got = io_oracle.outcome(reader, data)
    if kind == "ok":
        got = (got.degree_offset, [(m.col_labels, m.row_labels, [[*r.items()] for r in m.rows])
                                   for m in got.matrices])
    return kind, got


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reader_matches_the_oracle_on_faulty_complex_json(p):
    """`complex_from_json` returns the complex `io_oracle` reads, or raises
    InputError with its message, on a resolved complex JSON with one or two
    faults, the two sometimes in one row (a row's entries are read before its
    label, so that pins which error is raised)."""
    res = minimal_resolution_constant(skeleton_of_simplex(4, 2).face_poset, PrimeField(p))
    text, rng, seen = dumps(complex_to_json(res)), random.Random(p), set()
    with_rows = [m for m, mat in enumerate(res.matrices) if mat.nrows]
    for _ in range(200):
        data = json.loads(text)
        m, i = None, None
        for kind in rng.sample(FAULTS, rng.randint(1, 2)):
            if m is None or rng.random() < 0.5:
                m = rng.choice(with_rows)
                i = rng.randrange(res.matrices[m].nrows)
            _fault(rng, data, res.poset, p, kind, m, i)
        got = _read(complex_from_json, data)
        assert got == _read(io_oracle.complex_from_json, data)
        seen |= {"ok"} if got[0] == "ok" else {f for f in MESSAGES if f in got[1]}
    assert seen == {"ok", *MESSAGES}


def test_entries_are_read_before_the_row_label():
    res = minimal_resolution_constant(skeleton_of_simplex(4, 2).face_poset)
    data = json.loads(dumps(complex_to_json(res)))
    row = data["matrices"][1]["rows"][0]
    row["label"], row["entries"]["01"] = "no such face", 1
    message = "matrix column index must be a plain integer key, got '01'"
    for reader in (complex_from_json, io_oracle.complex_from_json):
        with pytest.raises(InputError, match=re.escape(message)):
            reader(data)


class TestMorseJson:
    def test_missing_element(self, sphere_wedge):
        lam = sphere_wedge["lambda"].face_poset
        with pytest.raises(InputError):
            morse_from_json({"levels": {"2": "A"}, "order": ["A"]}, lam)


class TestRendering:
    def test_multiplicity_table_powers(self, simplex_star):
        res = minimal_resolution_constant(simplex_star)
        text = render_multiplicity_table(res)
        assert "[∅]^2" in text
        assert text.splitlines()[0].startswith("degree 0:")

    def test_complex_text_sections(self, tetra):
        res = minimal_resolution_constant(tetra.face_poset)
        text = render_complex_text(res)
        assert "eta^0" in text and "eta^1" in text
        assert "eta^2" not in text  # the trailing zero differential is omitted
