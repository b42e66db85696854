"""Readers and writers: facet lists, poset/sheaf/map/Morse JSON, complex JSON
and the figure-style text rendering."""

from __future__ import annotations

import json
import math

from .errors import InputError, SizeCapExceeded
from .field import PrimeField
from .matrix import InjectiveComplex, LabeledMatrix
from .poset import MonotoneMap, Poset, SimplicialComplex
from .sheaf import Sheaf


def _as_int(value, what: str) -> int:
    """A number field of JSON input as an int; anything else, a fractional
    number, a string or a boolean included, is an input error."""
    if type(value) not in (int, float) or value % 1:  # NaN % 1 and inf % 1 are NaN
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _column_key(key: str) -> int:
    """A matrix column index, read only as `matrix_to_json` writes it: "1", not "01" or "+1"."""
    try:
        if str(index := int(key)) == key:
            return index
    except ValueError:
        pass
    raise InputError(f"matrix column index must be a plain integer key, got {key!r}")


def _as(value, kind: type, what: str):
    """A JSON object (`kind` dict), array (list) or string (str) field of the
    input, ids included; anything else is an input error."""
    if not isinstance(value, kind):
        noun = {dict: "object", list: "array", str: "string"}[kind]
        raise InputError(f"{what} must be a JSON {noun}, got {type(value).__name__}")
    return value


def _key(data: dict, key: str, what: str):
    """`data[key]`; a missing key, and no other KeyError, is an input error."""
    try:
        return data[key]
    except KeyError:
        raise InputError(f"{what} missing key {key!r}") from None


def _element(value, poset: Poset, what: str) -> str:
    """A poset element named in the input; an unknown one is an input error."""
    label = _as(value, str, what)
    if label not in poset.index:
        raise InputError(f"{what} {label!r} is not a poset element")
    return label


def read_facets_text(text: str, max_faces: float = math.inf) -> SimplicialComplex:
    """The complex of a facets file (see `parse_facets`).  Refuses
    (SizeCapExceeded) a complex with more than `max_faces` faces."""
    return SimplicialComplex.from_facets(parse_facets(text), max_faces)


def parse_facets(text: str) -> list[list[str]]:
    """One facet per line, whitespace-separated vertex ids, '#' comments."""
    facets = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        facets.append(line.split())
    if not facets:
        raise InputError("no facets found")
    return facets


def poset_to_json(poset: Poset) -> dict:
    return {"elements": list(poset.elements), "covers": [list(c) for c in poset.covers]}


def poset_from_json(data: dict, max_elements: float = math.inf) -> Poset:
    """The poset of poset JSON; SizeCapExceeded, before anything is built,
    when it names more than `max_elements` distinct elements."""
    data = _as(data, dict, "poset JSON")
    elements = [_as(e, str, "poset element")
                for e in _as(_key(data, "elements", "poset JSON"), list, "poset 'elements'")]
    if len(set(elements)) > max_elements:
        raise SizeCapExceeded(f"input has {len(set(elements))} elements, "
                              f"above --max-elements={max_elements}")
    covers = [[_as(e, str, "cover member") for e in _as(c, list, "cover")]
              for c in _as(_key(data, "covers", "poset JSON"), list, "poset 'covers'")]
    if any(len(c) != 2 for c in covers):
        raise InputError("poset JSON needs [lower, upper] cover pairs")
    return Poset.from_covers(elements, covers)


def _assignment_from_json(data: dict) -> dict[str, str]:
    data = _as(data, dict, "map JSON")
    assignment = _as(_key(data, "assignment", "map JSON"), dict, "map 'assignment'")
    return {k: _as(v, str, f"map target of {k!r}") for k, v in assignment.items()}


def map_from_json(data: dict, source: Poset, target: Poset) -> MonotoneMap:
    return MonotoneMap(source, target, _assignment_from_json(data))


def sheaf_from_json(data: dict, poset: Poset, field: PrimeField,
                    max_total: float = math.inf) -> Sheaf:
    """{"stalks": {"elem": dim}, "maps": {"a<b": [[...]]}}; omitted maps are
    zero.  SizeCapExceeded, before any map is built, when the stalk dimensions
    sum above `max_total`; `Sheaf` refuses unknown elements and non-int or negative stalks."""
    given = _as(_as(data, dict, "sheaf JSON").get("stalks", {}), dict, "sheaf 'stalks'")
    stalks = {k: _as_int(v, f"stalk dimension of {k!r}") for k, v in given.items()}
    if (total := sum(stalks.values())) > max_total:
        raise SizeCapExceeded(f"sheaf has total stalk dimension {total}, "
                              f"above --max-elements={max_total}")
    maps, covers = {}, set(poset.covers)
    for key, mat in _as(data.get("maps", {}), dict, "sheaf 'maps'").items():
        if "<" not in key:
            raise InputError(f"restriction key {key!r} is not of the form 'a<b'")
        a, b = key.split("<", 1)
        if (a, b) not in covers:
            raise InputError(f"restriction key {key!r} is not a cover relation")
        maps[(a, b)] = [
            [_as_int(x, f"entry of restriction {key!r}") for x in _as(row, list, f"row of {key!r}")]
            for row in _as(mat, list, f"restriction {key!r}")
        ]
    return Sheaf(poset, field, stalks, maps)


def sheaf_to_json(sheaf: Sheaf) -> dict:
    maps = {}
    for (a, b), mat in sheaf.restriction.items():
        if any(any(row) for row in mat):
            maps[f"{a}<{b}"] = mat
    return {
        "stalks": {e: d for e, d in sheaf.stalk_dim.items() if d},
        "maps": maps,
    }


def matrix_to_json(m: LabeledMatrix) -> dict:
    return {
        "cols": list(m.col_labels),
        "rows": [
            {"label": lab, "entries": {str(j): v for j, v in row.items()}}
            for lab, row in zip(m.row_labels, m.rows)
        ],
    }


def matrix_from_json(data: dict, poset: Poset, field: PrimeField) -> LabeledMatrix:
    """One pass per entry, a row's entries before its label: a plain key and
    an int entry are taken at once, any other goes through `_column_key` or
    `_as_int`; each is reduced mod p once, zeros dropped, as `add_row` does
    (`complex_from_json` says what is checked where)."""
    data = _as(data, dict, "matrix")
    cols = _as(_key(data, "cols", "matrix"), list, "matrix 'cols'")
    m = LabeledMatrix(poset, field, [_element(c, poset, "matrix column label") for c in cols])
    plain, body = {str(j): j for j in range(m.ncols)}, m.rows
    for row in _as(_key(data, "rows", "matrix"), list, "matrix 'rows'"):
        row = _as(row, dict, "matrix row")
        entries = {}
        for j, v in _as(_key(row, "entries", "matrix row"), dict, "row 'entries'").items():
            j = plain[j] if j in plain else _column_key(j)
            if v := (v if type(v) is int else _as_int(v, "matrix entry")) % field.p:
                entries[j] = v
        m.row_labels.append(_element(_key(row, "label", "matrix row"), poset, "matrix row label"))
        body.append(entries)
    return m


def complex_to_json(complex_: InjectiveComplex) -> dict:
    return {
        "field": complex_.field.p,
        "degree_offset": complex_.degree_offset,
        "poset": poset_to_json(complex_.poset),
        "matrices": [matrix_to_json(m) for m in complex_.matrices],
    }


def complex_from_json(data: dict, max_elements: float = math.inf) -> InjectiveComplex:
    """The complex of complex JSON; its poset is capped as in `poset_from_json`.
    `matrix_from_json` raises at the first malformed column key, non-integer
    entry or bad row label.  Then `InjectiveComplex.validate` reports each
    column out of range and each entry whose row label is not at or below its
    column label, on up-set bits, and if there is none, each pair of matrices
    that does not compose to zero, on packed rows (`_composes_to_zero`)."""
    data = _as(data, dict, "complex JSON")
    field = PrimeField(_as_int(_key(data, "field", "complex JSON"), "field"))
    poset = poset_from_json(_key(data, "poset", "complex JSON"), max_elements)
    matrices = [
        matrix_from_json(m, poset, field)
        for m in _as(_key(data, "matrices", "complex JSON"), list, "complex 'matrices'")
    ]
    offset = _as_int(data.get("degree_offset", 0), "degree_offset")
    complex_ = InjectiveComplex(poset, field, matrices, offset)
    complex_.validate().raise_if_failed()
    return complex_


def morse_from_json(data: dict, domain: Poset):
    """{"levels": {"elem": "levelName"}, "order": ["levelName", ...]}"""
    from .morse import MorseFunction

    data = _as(data, dict, "morse JSON")
    levels = {e: _as(x, str, f"level of {e!r}")
              for e, x in _as(_key(data, "levels", "morse JSON"), dict, "morse 'levels'").items()}
    order = [_as(x, str, "morse order entry")
             for x in _as(_key(data, "order", "morse JSON"), list, "morse 'order'")]
    return MorseFunction.from_levels(domain, levels, order)


def render_complex_text(complex_: InjectiveComplex) -> str:
    """All differentials in the figure style plus the multiplicity table."""
    parts = [render_multiplicity_table(complex_)]
    for d in complex_.degrees:
        m = complex_.matrix(d)
        if m.nrows == 0:
            continue
        parts.append(m.print_text(title=f"eta^{d}"))
    return "\n\n".join(parts)


def render_multiplicity_table(complex_: InjectiveComplex) -> str:
    table = complex_.multiplicities()
    if not table:
        return "(zero complex)"
    lines = []
    for d in sorted(table):
        counts = table[d]
        pieces = [
            f"[{lab}]" + (f"^{n}" if n > 1 else "")
            for lab, n in sorted(counts.items(), key=lambda kv: complex_.poset.index[kv[0]])
        ]
        lines.append(f"degree {d}: " + " + ".join(pieces))
    return "\n".join(lines)


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True)
