"""The complex JSON reader as it was, kept as a reference for its accepted
inputs and its messages: each entry read through `_column_key` and
`_as_int`, reduced as `add_row` did, then label order checked by one
`Poset.leq` call per entry, and composition by building each product with
`multiply`.  The library now reads plain keys and int entries on a fast path,
tests label order on up-set bits and composition on packed rows; the tests
check that it returns this reader's complex or raises its message.
"""

from __future__ import annotations

import math

from posheaf.errors import InputError
from posheaf.field import PrimeField
from posheaf.io import _as, _as_int, _column_key, _element, _key, poset_from_json
from posheaf.matrix import InjectiveComplex, LabeledMatrix, ValidationReport


def matrix_from_json(data, poset, field) -> LabeledMatrix:
    data = _as(data, dict, "matrix")
    cols = _as(_key(data, "cols", "matrix"), list, "matrix 'cols'")
    m = LabeledMatrix(poset, field, [_element(c, poset, "matrix column label") for c in cols])
    for row in _as(_key(data, "rows", "matrix"), list, "matrix 'rows'"):
        row = _as(row, dict, "matrix row")
        entries = {
            _column_key(j): _as_int(v, "matrix entry")
            for j, v in _as(_key(row, "entries", "matrix row"), dict, "row 'entries'").items()
        }
        m.row_labels.append(_element(_key(row, "label", "matrix row"), poset, "matrix row label"))
        m.rows.append({j: v % field.p for j, v in entries.items() if v % field.p})  # add_row
    return m


def validate_matrix(self: LabeledMatrix) -> list[str]:
    issues = []
    p = self.field.p
    for lab in self.row_labels + self.col_labels:
        if lab not in self.poset.index:
            issues.append(f"label {lab!r} not in poset")
            return issues
    for i, row in enumerate(self.rows):
        for j, v in row.items():
            if not 0 < v < p:
                issues.append(f"entry ({i},{j}) = {v} not a reduced nonzero scalar")
            if not (0 <= j < self.ncols):
                issues.append(f"entry ({i},{j}) out of range")
            elif not self.poset.leq(self.row_labels[i], self.col_labels[j]):
                issues.append(
                    f"nonzero entry in row {self.row_labels[i]},"
                    f" column {self.col_labels[j]}: labels not ordered"
                )
    return issues


def validate_complex(self: InjectiveComplex) -> ValidationReport:
    issues = []
    for d, m in zip(self.degrees, self.matrices):
        for msg in validate_matrix(m):
            issues.append(f"matrix at degree {d}: {msg}")
        if m.poset is not self.poset and m.poset != self.poset:
            issues.append(f"matrix at degree {d} bound to a different poset")
        if m.field != self.field:
            issues.append(f"matrix at degree {d} over a different field")
    if issues:  # composing needs in-range entries
        return ValidationReport(issues)
    for d, a, b in zip(self.degrees, self.matrices, self.matrices[1:]):
        if a.row_labels != b.col_labels:
            issues.append(f"rows of degree {d} do not match columns of degree {d + 1}")
        elif any(b.multiply(a).rows):
            issues.append(f"composition at degree {d} is nonzero")
    if self.matrices and self.matrices[-1].nrows:
        issues.append("last matrix has rows; complex is not closed off")
    return ValidationReport(issues)


def complex_from_json(data, max_elements: float = math.inf) -> InjectiveComplex:
    data = _as(data, dict, "complex JSON")
    field = PrimeField(_as_int(_key(data, "field", "complex JSON"), "field"))
    poset = poset_from_json(_key(data, "poset", "complex JSON"), max_elements)
    matrices = [
        matrix_from_json(m, poset, field)
        for m in _as(_key(data, "matrices", "complex JSON"), list, "complex 'matrices'")
    ]
    offset = _as_int(data.get("degree_offset", 0), "degree_offset")
    complex_ = InjectiveComplex(poset, field, matrices, offset)
    validate_complex(complex_).raise_if_failed()
    return complex_


def outcome(read, data):
    """What `read(data)` gives: ("ok", complex) or ("error", message)."""
    try:
        return "ok", read(data)
    except InputError as exc:
        return "error", str(exc)
