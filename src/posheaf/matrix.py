"""Poset-labeled sparse matrices over GF(p) and complexes thereof.

A labeled matrix represents a natural transformation between direct sums of
indecomposable injective sheaves: columns are the domain summands, rows the
codomain summands, and an entry in a row labeled ``s`` and a column labeled
``p`` can be nonzero only if ``s <= p``.  Rows are stored sparsely as
``column index -> nonzero value`` dicts, so extracting the stalk map at an
element is just a row selection (held packed too: see `LabeledMatrix`).
One kernel, `_eliminate`, reduces on the highest coordinate, on rows in the
forms of `packed_row`: ranks and top pivots read its pivot table,
complements the combinations that take rows to zero, which `_witness_rows`
decodes into the caller's coordinates (its column indices, ascending).
"""

from __future__ import annotations

from collections import Counter

from .errors import InputError, OperationNotAllowed
from .field import PrimeField
from .poset import Poset


class LabeledMatrix:
    """Held packed form: a matrix the exactness driver builds keeps its rows'
    `packed_row`s, in order, for `packed()`, until `rows` is read or set (the
    reader may edit the dicts); `packed()` then packs afresh, keeping nothing.
    The driver appends to `_rows` and them in lockstep; methods here read
    `_rows` and edit only new matrices."""

    def __init__(self, poset: Poset, field: PrimeField, col_labels, row_labels=None, rows=None):
        self.poset = poset
        self.field = field
        self.col_labels: list[str] = list(col_labels)
        self.row_labels: list[str] = list(row_labels or [])
        self.rows = [dict(r) for r in rows] if rows else [{} for _ in self.row_labels]
        if len(self._rows) != len(self.row_labels):
            raise InputError("row count does not match row labels")

    @property
    def rows(self) -> list[dict[int, int]]:
        self._packed = None
        return self._rows

    @rows.setter
    def rows(self, rows: list[dict[int, int]]) -> None:
        self._packed, self._rows = None, rows

    def packed(self, skip=()) -> list:
        """The rows as `packed_row`s, less those whose indices are in `skip`:
        the held list itself if there is one and nothing is skipped."""
        if (held := self._packed) is not None:
            return [r for i, r in enumerate(held) if i not in skip] if skip else held
        return [packed_row(self.field, r) for i, r in enumerate(self._rows) if i not in skip]

    # -- basics --------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.row_labels)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    def copy(self) -> "LabeledMatrix":
        return LabeledMatrix(self.poset, self.field, self.col_labels, self.row_labels, self._rows)

    def is_zero(self) -> bool:
        return all(not r for r in self._rows)

    def __eq__(self, other):
        return (
            isinstance(other, LabeledMatrix)
            and other.field == self.field
            and other.col_labels == self.col_labels
            and other.row_labels == self.row_labels
            and other._rows == self._rows
        )

    def __repr__(self):
        return f"<LabeledMatrix {self.nrows}x{self.ncols} over GF({self.field.p})>"

    def add_row(self, label: str, entries: dict[int, int]) -> None:
        """Append a row reduced mod p; `validate` is the check of its entries."""
        p = self.field.p
        self.row_labels.append(label)
        self.rows.append({j: r for j, v in entries.items() if (r := v % p)})

    def validate(self) -> list[str]:
        issues, p, index, n = [], self.field.p, self.poset.index, self.ncols
        for lab in self.row_labels + self.col_labels:
            if lab not in index:
                return [f"label {lab!r} not in poset"]
        bits = [1 << index[lab] for lab in self.col_labels]
        for i, (lab, row) in enumerate(zip(self.row_labels, self._rows)):
            up = self.poset.up_bits(lab)
            for j, v in row.items():
                if not 0 < v < p:
                    issues.append(f"entry ({i},{j}) = {v} not a reduced nonzero scalar")
                if not (0 <= j < n):
                    issues.append(f"entry ({i},{j}) out of range")
                elif not bits[j] & up:
                    issues.append(f"nonzero entry in row {lab}, column {self.col_labels[j]}:"
                                  " labels not ordered")
        return issues

    # -- submatrices and products ---------------------------------------------

    def submatrix(self, row_set, col_set) -> "LabeledMatrix":
        """Keep rows/columns whose labels lie in the given sets, preserving order."""
        row_set = set(row_set)
        col_set = set(col_set)
        keep_cols = [j for j, lab in enumerate(self.col_labels) if lab in col_set]
        col_pos = {j: k for k, j in enumerate(keep_cols)}
        keep_rows = [i for i, lab in enumerate(self.row_labels) if lab in row_set]
        out = LabeledMatrix(self.poset, self.field, [self.col_labels[j] for j in keep_cols],
                            [self.row_labels[i] for i in keep_rows])
        for k, i in enumerate(keep_rows):
            out._rows[k] = {col_pos[j]: v for j, v in self._rows[i].items() if j in col_pos}
        return out

    def diagonal_entry(self) -> tuple[int, int, int] | None:
        """First nonzero entry (row, column, value) in a same-label diagonal
        block, scanning rows in order; None if every such block is zero."""
        col_labels, rows = self.col_labels, self._rows
        for i in range(self.nrows):
            row_lab = self.row_labels[i]
            for j, v in rows[i].items():
                if col_labels[j] == row_lab:
                    return i, j, v
        return None

    def multiply(self, other: "LabeledMatrix") -> "LabeledMatrix":
        """self @ other (self's columns must match other's rows, order included)."""
        if self.col_labels != other.row_labels:
            raise InputError("label sequences do not match for multiplication")
        p = self.field.p
        out = LabeledMatrix(self.poset, self.field, other.col_labels, self.row_labels)
        out.rows = [{j: r for j, v in acc.items() if (r := v % p)}
                    for acc in _product_rows(self, other)]
        return out

    def transpose(self, poset: Poset | None = None) -> "LabeledMatrix":
        """Transpose, swapping row and column labels (used on the opposite poset)."""
        target = poset or self.poset
        out = LabeledMatrix(target, self.field, self.row_labels, self.col_labels)
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                out._rows[j][i] = v
        return out

    # -- rank and rendering ---------------------------------------------------

    def rank(self) -> int:
        return _sparse_rank(self.field, self._rows)

    def print_text(self, title: str = "") -> str:
        """Figure-style rendering: first row column labels, first column row labels."""
        header = [title] + list(self.col_labels)
        body = [[lab] + [str(row[j]) if j in row else "·" for j in range(self.ncols)]
                for lab, row in zip(self.row_labels, self._rows)]
        table = [header] + body
        widths = [max(len(r[c]) for r in table) for c in range(len(header))] if header else []
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table]
        return "\n".join(lines)


# -- row and column operations -----------------------------------------------


def row_op(m: LabeledMatrix, kind: str, i: int, j: int | None = None, scalar: int = 1):
    """Allowed elementary row operation, returning a new matrix.

    kinds: 'add' (row i += scalar * row j), 'scale' (row i *= scalar,
    nonzero), 'swap' (rows i, j).  The label rule: a multiple of one line is
    added into another only along the label order, so that every entry keeps
    its row label below its column label.  Row j goes into row i when
    label(i) <= label(j), column j into column i when label(j) <= label(i).
    """
    return _line_op(m, kind, i, j, scalar, "row")


def col_op(m: LabeledMatrix, kind: str, i: int, j: int | None = None, scalar: int = 1):
    """Allowed elementary column operation, returning a new matrix: `row_op`'s
    kinds on columns, under its label rule.  It is `row_op` on the transpose
    over the opposite poset, where label(j) <= label(i) is the row rule."""
    t = m.transpose(m.poset.opposite())
    return _line_op(t, kind, i, j, scalar, "column").transpose(m.poset)


def _line_op(m: LabeledMatrix, kind: str, i: int, j: int | None, scalar: int, noun: str):
    """`row_op`, naming the lines `noun` in its errors."""
    if j is None and kind in ("add", "swap"):
        raise OperationNotAllowed(f"{kind} needs a second {noun}")
    out, p = m.copy(), m.field.p
    if kind == "add":
        if i == j:
            raise OperationNotAllowed(f"source and destination {noun}s coincide")
        if not m.poset.leq(m.row_labels[i], m.row_labels[j]):
            raise OperationNotAllowed(f"cannot add {noun} labeled {m.row_labels[j]} into "
                                      f"{noun} labeled {m.row_labels[i]}")
        if scalar % p:
            _axpy(out.rows[i], out.rows[j], scalar % p, p)
    elif kind == "scale":
        if scalar % p == 0:
            raise OperationNotAllowed("scaling by zero")
        out.rows[i] = {c: v * scalar % p for c, v in out.rows[i].items()}
    elif kind == "swap":
        out.rows[i], out.rows[j] = out.rows[j], out.rows[i]
        out.row_labels[i], out.row_labels[j] = out.row_labels[j], out.row_labels[i]
    else:
        raise InputError(f"unknown {noun} operation {kind!r}")
    return out


def _axpy(target: dict, src: dict, s: int, p: int):
    """target += s * src over GF(p), new entries going in at the end in src's order."""
    for j, v in src.items():
        if new := (target.get(j, 0) + s * v) % p:
            target[j] = new
        else:
            target.pop(j, None)


def _column_index(rows, ncols: int) -> list[list[int]]:
    """Column -> ascending list of the rows with an entry there."""
    cols: list[list[int]] = [[] for _ in range(ncols)]
    for r, row in enumerate(rows):
        for j in row:
            cols[j].append(r)
    return cols


# -- the elimination kernel -----------------------------------------------------


def packed_row(field: PrimeField, row):
    """A row in the kernel's form: over GF(2) an int whose bit j is set iff
    column j holds an odd entry; over GF(3) the pair (ones, twos) of ints
    whose bit j is set iff column j holds 1, resp. 2, mod 3 (never both;
    after Boothby and Bradshaw, arXiv:0901.1413); over p >= 5 the dict.
    Rows already in that form pass through."""
    if field.p == 2:
        if type(row) is int:
            return row
        bits = 0
        for j, v in row.items():
            if v & 1:
                bits |= 1 << j
        return bits
    if field.p != 3 or type(row) is tuple:
        return row
    ones = twos = 0
    for j, v in row.items():
        if (v := v % 3) == 1:
            ones |= 1 << j
        elif v:
            twos |= 1 << j
    return ones, twos


def _eliminate(field: PrimeField, rows, witness=False, skip=(), table=None):
    """The elimination kernel, on the highest coordinate.  Each of `rows`
    (`packed_row`s; dict entries are reduced mod p and zeros dropped) is
    reduced against the rows stored before it and, if nonzero, stored under
    its top coordinate, over odd p scaled to 1 there.  Returns that pivot
    table, whose keys are the span's top pivots (the highest coordinates of
    its vectors, one per dimension, whatever the row order), and the rows t
    that reduce to zero, in the span of a resumed table and the rows fed
    before them: their positions, or with `witness` pairs (t, u_t), u_t the
    raw combination of `rows` taken to zero (`_witness_rows`).  Positions in
    `skip` are passed over; `rows` are unchanged.  A `table` from an earlier
    call without `witness` is resumed and extended in place, so rows fed in
    chunks give the table of one call on all of them.

    Each step adds to the row the multiple of a stored pivot that clears its
    top.  Over GF(3) that is the pivot or its negative, the planes swapped;
    two plane pairs add in 7 bitwise operations (check the 9 pairs of
    coordinate values), and a row whose top holds 2 is stored negated.  So
    every step, table and witness is the dict form's, decoded.  Over odd p a
    step that leaves the row's top nonzero raises AssertionError: a wrong
    add or an unscaled pivot would otherwise cycle forever.  Over GF(2) XOR
    with a pivot of the same top always clears it.

    With `witness`, `rows` is a list of n rows, and row t carries its
    combination below the columns, which each step updates with the rest:
    column j moves to coordinate n + j (a bit, in both planes over GF(3), or
    a key), coordinate t (of the ones) is set to 1, and the table's keys are
    n above the columns.  A row reduces to zero when no column is left."""
    p, zeros = field.p, []
    table = {} if table is None else table
    n = len(rows) if witness else 0
    live = ((t, row) for t, row in enumerate(rows) if t not in skip) if skip else enumerate(rows)
    if p == 2 and not witness:
        for t, row in live:
            while (piv := table.get(top := row.bit_length() - 1)) is not None:
                row ^= piv
            if row:
                table[top] = row
            else:
                zeros.append(t)
    elif p == 2:
        for t, row in live:
            row = row << n | 1 << t
            while (top := row.bit_length() - 1) >= n and (piv := table.get(top)) is not None:
                row ^= piv
            if top >= n:
                table[top] = row
            else:
                zeros.append((t, row))
    elif p == 3:
        for t, (one, two) in live:
            if witness:  # tested per row: a lifting generator measured slower here
                one, two = one << n | 1 << t, two << n
            while True:
                a, b = one.bit_length(), two.bit_length()
                if (top := (a if a > b else b) - 1) < n or (piv := table.get(top)) is None:
                    break
                x, y = piv if b > a else piv[::-1]  # row += piv where it holds 2, -piv where 1
                s = (one | y) ^ (two | x)
                one, two = (two | y) ^ s, (one | x) ^ s
                if one >> top or two >> top:
                    raise AssertionError(f"a reduction step left the top at {top}")
            if top >= n:
                table[top] = (one, two) if a > b else (two, one)
            else:
                zeros.append((t, (one, two)) if witness else t)
    else:
        live = ((t, {**row, t - n: 1}) for t, row in live) if witness else live
        for t, row in live:
            row = {j + n: v % p for j, v in row.items() if v % p}
            while row and (top := max(row)) >= n and (piv := table.get(top)) is not None:
                _axpy(row, piv, p - row[top], p)
                if top in row:
                    raise AssertionError(f"a reduction step left the top at {top}")
            if row and top >= n:
                inv = field.inv(row[top])
                table[top] = {j: (v * inv) % p for j, v in row.items()}
            else:
                zeros.append((t, row) if witness else t)
    return table, zeros


def _witness_rows(field: PrimeField, zeros, coords, drop=()) -> tuple[list, list]:
    """`_eliminate`'s witnesses `zeros` as dicts keyed by `coords` (ascending) and
    their `packed_row`s, built in one loop, less those of rows t with coords[t] in `drop`."""
    p, dicts, packed = field.p, [], []
    for t, row in zeros:
        if coords[t] in drop:
            continue
        if p == 2:  # the bits left
            u, bits = {}, 0
            while row:
                low = row & -row
                u[c := coords[low.bit_length() - 1]] = 1
                bits |= 1 << c
                row ^= low
        elif p == 3:  # the bits left in either plane, 2 where `two` has them
            (one, two), u, x, y = row, {}, 0, 0  # (x, y): u's planes
            one |= two
            while one:
                low = one & -one
                bit = 1 << (c := coords[low.bit_length() - 1])
                u[c], x, y = (2, x, y | bit) if two & low else (1, x | bit, y)
                one ^= low
            bits = x, y
        else:  # a dict is its own packed form
            u = bits = {coords[j]: v for j, v in sorted(row.items())}
        dicts.append(u)
        packed.append(bits)
    return dicts, packed


def _sparse_rank(field: PrimeField, rows, table=None) -> int:
    """Rank of `rows` (dicts with any integer entries, or `packed_row`s) as
    the number of top pivots: resolution rows are close to triangular in their
    highest column, so eliminating there fills in far less than leftmost.
    A `table` is resumed as `_eliminate` does; its keys are the top pivots."""
    return len(_eliminate(field, (packed_row(field, row) for row in rows), table=table)[0])


def image_complement_rows(field: PrimeField, stalk_rows, skip=(), coords=None, packed=None) -> list[dict]:
    """Basis of the orthogonal complement of the column space of a stalk matrix.

    `stalk_rows` are the rows of eta^{d-1}(pi), dicts or `packed_row`s; call
    this matrix M.  The vectors are `_eliminate`'s witnesses, keyed by
    `coords` (default: the positions) and packed into a list `packed`
    (`_witness_rows`): one u_t, with u_t M = 0, per row t that reduces to
    zero, in row order.  Positions in `skip` are not reduced and give no
    vector; each must be a row that would reduce to zero, so that, storing
    nothing, it changes no other vector.

    The vectors depend only on M's rows and their order, not on the pivot
    rule.  Row t reduces to zero exactly when it lies in the span of the rows
    before it.  The witness stored with a row lives on that row and stored
    rows before it, so u_t is 1 at t and otherwise on the earlier rows that
    do not reduce to zero.  Those are independent, so u_t is the only vector
    with that support (two would differ by a vanishing combination)."""
    rows = [packed_row(field, row) if type(row) is dict else row for row in stalk_rows]
    dicts, bits = _witness_rows(field, _eliminate(field, rows, witness=True, skip=skip)[1],
                                range(len(rows)) if coords is None else coords)
    if packed is not None:
        packed += bits
    return dicts


def _product_rows(b: LabeledMatrix, a: LabeledMatrix):
    """The rows of b @ a one at a time, as dicts of unreduced sums."""
    a_rows = a._rows
    for row in b._rows:
        acc: dict[int, int] = {}
        for k, v in row.items():
            for j, w in a_rows[k].items():
                acc[j] = acc.get(j, 0) + v * w
        yield acc


def _product_is_zero(b: LabeledMatrix, a: LabeledMatrix) -> bool:
    """Whether b @ a = 0 (entries in range), each entry tested mod p once."""
    p = b.field.p
    return not any(v % p for acc in _product_rows(b, a) for v in acc.values())


def _composes_to_zero(b: LabeledMatrix, a: LabeledMatrix) -> bool:
    """`_product_is_zero`, over GF(2) and GF(3) on a's `packed()` rows."""
    if (p := b.field.p) > 3:
        return _product_is_zero(b, a)
    packed = a.packed()
    for row in b._rows:
        one = two = 0
        for k, v in row.items():
            if p == 2:
                one ^= packed[k] if v & 1 else 0
            elif v % 3:
                x, y = packed[k] if v % 3 == 1 else packed[k][::-1]
                s = (one | y) ^ (two | x)
                one, two = (two | y) ^ s, (one | x) ^ s
        if one or two:
            return False
    return True


# -- complexes ----------------------------------------------------------------


class InjectiveComplex:
    """A bounded complex of injective sheaves as composable labeled matrices.

    ``matrices[i]`` is the differential out of the term in degree
    ``degree_offset + i``; its columns name that term's indecomposable
    summands.  The last matrix has no rows (the complex ends), and
    consecutive matrices satisfy rows == next columns and compose to zero.
    """

    def __init__(self, poset: Poset, field: PrimeField, matrices, degree_offset: int = 0):
        self.poset = poset
        self.field = field
        self.matrices: list[LabeledMatrix] = list(matrices)
        self.degree_offset = degree_offset

    @classmethod
    def empty(cls, poset: Poset, field: PrimeField) -> "InjectiveComplex":
        return cls(poset, field, [], 0)

    @classmethod
    def single_term(cls, poset, field, labels, degree: int = 0) -> "InjectiveComplex":
        return cls(poset, field, [LabeledMatrix(poset, field, labels)], degree)

    def is_empty(self) -> bool:
        return not self.matrices

    @property
    def degrees(self) -> range:
        return range(self.degree_offset, self.degree_offset + len(self.matrices))

    def matrix(self, d: int) -> LabeledMatrix | None:
        i = d - self.degree_offset
        return self.matrices[i] if 0 <= i < len(self.matrices) else None

    def term(self, d: int) -> list[str]:
        m = self.matrix(d)
        return list(m.col_labels) if m is not None else []

    def multiplicities(self) -> dict[int, Counter]:
        return {d: counts for d in self.degrees if (counts := Counter(self.term(d)))}

    def total_summands(self) -> int:
        return sum(m.ncols for m in self.matrices)

    def shifted(self, k: int) -> "InjectiveComplex":
        """Degree shift: term(d) of the result equals term(d + k) of self."""
        return InjectiveComplex(self.poset, self.field, self.matrices, self.degree_offset - k)

    def trimmed(self) -> "InjectiveComplex":
        """Closed off with a zero differential if the last matrix has rows,
        then without its leading and trailing zero terms."""
        ms = list(self.matrices)
        if ms and ms[-1].nrows:
            ms.append(LabeledMatrix(self.poset, self.field, ms[-1].row_labels))
        off = self.degree_offset
        while ms and ms[0].ncols == 0:
            ms.pop(0)
            off += 1
        while ms and ms[-1].ncols == 0 and ms[-1].nrows == 0:
            ms.pop()
        if not ms:
            return InjectiveComplex.empty(self.poset, self.field)
        return InjectiveComplex(self.poset, self.field, ms, off)

    def restricted(self, poset: Poset, members=None, rename=None) -> "InjectiveComplex":
        """The complex bound to `poset`, each matrix cut (`submatrix`) to the
        rows and columns labeled in `members` if given, its labels renamed
        through the dict `rename` if given, entries unchanged.  Not trimmed."""
        f, out = (lambda lab: lab) if rename is None else rename.__getitem__, []
        for m in self.matrices:  # a fresh copy, cut or whole, bound and renamed in place
            m = m.copy() if members is None else m.submatrix(members, members)
            m.poset, m.col_labels = poset, [*map(f, m.col_labels)]
            m.row_labels = [*map(f, m.row_labels)]
            out.append(m)
        return InjectiveComplex(poset, self.field, out, self.degree_offset)

    def dims(self, ranks) -> dict[int, dict]:
        """{degree: {key: dim}}, nonzero dims only, by width - rank - previous
        rank, walking down: `ranks(m, tops)` gives {key: (width, rank)} per
        matrix m (columns, and the rank of m's rows on them; 0 if left out),
        and may leave out (clear) m's rows whose indices are in `tops[key]`,
        an index container (not bits) of the top pivots of the next matrix's
        rows there, setting it to m's own.  The lemma: rows of m at the next
        matrix's top pivots reduce to zero.  rho, a combination of the next
        matrix's rows with top s, has rho m = 0, so row s of m lies in the
        span of rows t < s; by induction on s the rows at no top span all, so
        the rank stays.  Star rows (labeled above an element) lie on its star
        columns, so this holds per element too."""
        out, above, tops = {}, {}, {}
        for d in reversed(range(self.degree_offset - 1, self.degrees.stop)):
            below = {} if (m := self.matrix(d)) is None else ranks(m, tops)
            out[d + 1] = {key: h for key, (width, rank) in above.items()
                          if (h := width - rank - below.get(key, (0, 0))[1])}
            above = below
        return {d: dims for d, dims in reversed(out.items()) if dims}

    def validate(self) -> "ValidationReport":
        issues = []
        for d, m in zip(self.degrees, self.matrices):
            for msg in m.validate():
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
            elif not _composes_to_zero(b, a):
                issues.append(f"composition at degree {d} is nonzero")
        if self.matrices and self.matrices[-1].nrows:
            issues.append("last matrix has rows; complex is not closed off")
        return ValidationReport(issues)

    def __eq__(self, other):
        return (
            isinstance(other, InjectiveComplex)
            and other.field == self.field
            and other.degree_offset == self.degree_offset
            and other.matrices == self.matrices
            and other.poset == self.poset
        )


class ValidationReport:
    def __init__(self, issues):
        self.issues = list(issues)

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def first_violation(self) -> str | None:
        return self.issues[0] if self.issues else None

    def raise_if_failed(self):
        if self.issues:
            raise InputError("; ".join(self.issues))

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "ValidationReport(ok)" if self.ok else f"ValidationReport({self.issues!r})"
