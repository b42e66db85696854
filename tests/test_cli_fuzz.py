"""Hostile-input fuzz of the command line.

Valid `resolve --sheaf`, `functor` and `morse` JSON documents and facets
text are mutated: values and keys somewhere in them are replaced by
containers of the wrong type, huge or negative numbers, unknown labels or a
reversed cover (a cycle), and the field by non-primes.  The sheaf keeps a
zero stalk inside a cover path.  Every run must end with exit code 0, 1 or
3; an exception escaping `main` is the traceback a user would see.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posheaf.cli import main
from posheaf.io import complex_to_json, poset_to_json, sheaf_to_json
from posheaf.resolution import minimal_resolution_sheaf

from conftest import zero_stalk_diamond

FUZZ_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

DIAMOND = zero_stalk_diamond()
POSET = poset_to_json(DIAMOND.poset)
SHEAF = sheaf_to_json(DIAMOND)
COMPLEX = complex_to_json(minimal_resolution_sheaf(DIAMOND))
MORSE = {"levels": {"a": "L0", "b": "L1", "c": "L1", "d": "L2"}, "order": ["L0", "L1", "L2"]}
# push onto a < c, pull from x < y, push the diamond into the diamond under e
PUSH_MAP = {"assignment": {"a": "a", "b": "a", "c": "c", "d": "c"}}
PUSH_TARGET = {"elements": ["a", "c"], "covers": [["a", "c"]]}
PULL_MAP = {"assignment": {"x": "a", "y": "d"}}
PULL_SOURCE = {"elements": ["x", "y"], "covers": [["x", "y"]]}
AMBIENT = {"elements": ["a", "b", "c", "d", "e"],
           "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"], ["d", "e"]]}

HOSTILE_VALUES = st.sampled_from([
    None, True, 0, -1, -10**12, 10**12, 2.5, "", "zzz", "d<a", [], {}, [[]],
    ["d", "a"], [["d", "a"]], {"zzz": 1}, {"label": "zzz", "entries": {"0": 1}},
])
HOSTILE_KEYS = st.sampled_from(["zzz", "a<zzz", "d<a", "a<d", "-1", "99"])


def _slots(node, out):
    """Every (container, key) of a JSON document, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


@st.composite
def mutated(draw, document):
    """The document, or a copy with one to three values or dict keys
    replaced by hostile ones, or a hostile value in its place."""
    kind = draw(st.sampled_from(["as is", "mutated", "mutated", "replaced"]))
    if kind == "as is":
        return document
    if kind == "replaced":
        return copy.deepcopy(draw(HOSTILE_VALUES))
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            container[draw(HOSTILE_KEYS)] = container.pop(key)
        else:
            container[key] = copy.deepcopy(draw(HOSTILE_VALUES))
    return doc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Writes an input file, the same one for every example, and returns
    its path."""
    directory = tmp_path_factory.mktemp("fuzz")

    def write(name, content):
        path = directory / name
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)

    return write


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@FUZZ_SETTINGS
@given(
    poset=mutated(POSET),
    sheaf=mutated(SHEAF),
    field=st.sampled_from(["2", "3", "5", "0", "1", "4", "-3", "9"]),
    method=st.sampled_from([[], ["--method", "order-complex", "--peel"]]),
)
def test_resolve_sheaf_json(files, poset, sheaf, field, method):
    argv = ["resolve", files("poset.json", poset), "--sheaf", files("sheaf.json", sheaf),
            "--field", field, "--max-elements", "50"] + method
    assert _exit_code(argv) in (0, 1, 3)


@FUZZ_SETTINGS
@given(
    complex_=mutated(COMPLEX),
    kind=st.sampled_from(["push", "push-image", "pull", "shriek-pull", "shriek-push"]),
    data=st.data(),
)
def test_functor_json(files, complex_, kind, data):
    argv = ["functor", kind.removesuffix("-image"), files("complex.json", complex_)]
    if kind == "push":
        argv += ["--map", files("map.json", data.draw(mutated(PUSH_MAP))),
                 "--target-poset", files("target.json", data.draw(mutated(PUSH_TARGET)))]
    elif kind == "push-image":
        argv += ["--map", files("map.json", data.draw(mutated(PUSH_MAP)))]
    elif kind == "pull":
        argv += ["--map", files("map.json", data.draw(mutated(PULL_MAP))),
                 "--source-poset", files("source.json", data.draw(mutated(PULL_SOURCE)))]
    elif kind == "shriek-pull":
        argv += ["--set", data.draw(st.sampled_from(["b,d", "c,d", "a,d", "zzz", ",", "d"]))]
    else:
        argv += ["--set", data.draw(st.sampled_from(["a,b,c,d", "a,c", "e", "zzz"])),
                 "--ambient", files("ambient.json", data.draw(mutated(AMBIENT)))]
    assert _exit_code(argv) in (0, 1, 3)


@FUZZ_SETTINGS
@given(complex_=mutated(COMPLEX), morse=mutated(MORSE),
       flags=st.sampled_from([[], ["--verify"], ["--format", "csv", "--verify"]]))
def test_morse_json(files, complex_, morse, flags):
    argv = ["morse", files("complex.json", complex_), files("morse.json", morse)] + flags
    assert _exit_code(argv) in (0, 1, 3)


TOKENS = st.sampled_from(["0", "1", "2", "3", "10", "a", "1,2", "#", "0 #x"])


@FUZZ_SETTINGS
@given(
    lines=st.lists(st.lists(TOKENS, max_size=6), max_size=4),
    star=st.sampled_from([[], ["--star", "0"], ["--star", "01"], ["--star", "10"],
                          ["--star", "1,2"], ["--star", ""], ["--star", "zzz"]]),
    cap=st.sampled_from(["0", "1", "8", "64"]),
)
def test_facets_text(files, lines, star, cap):
    text = "\n".join(" ".join(line) for line in lines)
    argv = ["resolve", files("facets.txt", text), "--max-elements", cap] + star
    assert _exit_code(argv) in (0, 1, 3)


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("where", ["poset", "sheaf", "complex", "morse"])
def test_deeply_nested_json(files, where):
    docs = {"poset": POSET, "sheaf": SHEAF, "complex": COMPLEX, "morse": MORSE}
    docs[where] = DEEP
    if where in ("poset", "sheaf"):
        argv = ["resolve", files("poset.json", docs["poset"]),
                "--sheaf", files("sheaf.json", docs["sheaf"]), "--field", "3"]
    else:
        argv = ["morse", files("complex.json", docs["complex"]),
                files("morse.json", docs["morse"])]
    assert _exit_code(argv) == 1
