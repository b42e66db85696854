import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import posheaf
from posheaf.errors import InputError, OperationNotAllowed
from posheaf.field import PrimeField
from posheaf.matrix import (
    InjectiveComplex,
    LabeledMatrix,
    _composes_to_zero,
    _eliminate,
    _sparse_rank,
    col_op,
    image_complement_rows,
    packed_row,
    row_op,
)
from posheaf.poset import Poset, SimplicialComplex
from posheaf.resolution import minimal_resolution_constant

from conftest import GF2, GF3, GF5, random_labeled_matrix, random_poset, stalk_cols, stalk_matrix


@pytest.fixture(scope="module")
def tetra_matrices():
    """Tetrahedron on vertices 1..4 with explicit hand-written differentials."""
    sc = SimplicialComplex.from_facets(combinations("1234", 3))
    poset = sc.face_poset
    eta0 = LabeledMatrix(poset, GF2, ["234", "134", "124", "123"])
    for lab, entries in [
        ("34", {0: 1, 1: 1}),
        ("24", {0: 1, 2: 1}),
        ("23", {0: 1, 3: 1}),
        ("14", {1: 1, 2: 1}),
        ("13", {1: 1, 3: 1}),
        ("12", {2: 1, 3: 1}),
    ]:
        eta0.add_row(lab, entries)
    eta1 = LabeledMatrix(poset, GF2, ["34", "24", "23", "14", "13", "12"])
    for lab, entries in [
        ("4", {0: 1, 1: 1, 3: 1}),
        ("3", {0: 1, 2: 1, 4: 1}),
        ("2", {1: 1, 2: 1, 5: 1}),
        ("1", {3: 1, 4: 1, 5: 1}),
    ]:
        eta1.add_row(lab, entries)
    eta2 = LabeledMatrix(poset, GF2, ["4", "3", "2", "1"])
    return poset, eta0, eta1, eta2


class TestSubmatrix:
    def test_empty(self, tetra_matrices):
        poset, eta0, _, _ = tetra_matrices
        sub = eta0.submatrix(set(), set())
        assert sub.nrows == 0 and sub.ncols == 0

    def test_full(self, tetra_matrices):
        poset, eta0, _, _ = tetra_matrices
        assert eta0.submatrix(poset.elements, poset.elements) == eta0

    def test_star_block_is_stalk(self, tetra_matrices):
        poset, eta0, _, _ = tetra_matrices
        stalk = stalk_matrix(eta0, "12")
        assert stalk == [[1, 1]]  # one row (12), columns 124, 123

    def test_star_complement_block_vanishes(self):
        rng = random.Random(2)
        for _ in range(40):
            p = random_poset(rng)
            m = random_labeled_matrix(rng, p, GF3)
            tau = rng.choice(p.elements)
            star = p.star(tau)
            rest = set(p.elements) - star
            assert not any(m.submatrix(star, rest).rows)


class TestMultiply:
    def test_multiply_by_zero(self, tetra_matrices):
        poset, eta0, eta1, _ = tetra_matrices
        zero = LabeledMatrix(poset, GF2, eta1.row_labels)
        zero.add_row("1", {})
        assert not any(zero.multiply(eta1).rows)

    def test_known_compositions_vanish(self, tetra_matrices):
        _, eta0, eta1, _ = tetra_matrices
        assert not any(eta1.multiply(eta0).rows)

    def test_label_mismatch(self, tetra_matrices):
        poset, eta0, eta1, _ = tetra_matrices
        with pytest.raises(InputError):
            eta0.multiply(eta1)

    def test_stalk_restriction_property(self):
        rng = random.Random(9)

        def dense_mult(field, a, b, b_ncols):
            out = [[0] * b_ncols for _ in a]
            for i, row in enumerate(a):
                for k, v in enumerate(row):
                    if v:
                        for j in range(b_ncols):
                            out[i][j] = (out[i][j] + v * b[k][j]) % field.p
            return out

        cases = 0
        while cases < 200:
            p = random_poset(rng)
            field = rng.choice((GF2, GF3))
            m = random_labeled_matrix(rng, p, field)
            n = LabeledMatrix(p, field, list(m.row_labels))
            for lab in (rng.choice(p.elements) for _ in range(rng.randint(0, 3))):
                entries = {
                    j: rng.randint(1, field.p - 1)
                    for j, col in enumerate(n.col_labels)
                    if p.leq(lab, col) and rng.random() < 0.7
                }
                n.add_row(lab, entries)
            product = n.multiply(m)
            assert not product.validate()
            tau = rng.choice(p.elements)
            expected = dense_mult(
                field,
                stalk_matrix(n, tau),
                stalk_matrix(m, tau),
                len(stalk_cols(m, tau)),
            )
            assert stalk_matrix(product, tau) == expected
            cases += 1


class TestComposesToZero:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_is_the_product_tested_for_zero(self, p):
        """`_composes_to_zero(b, a)` is `not any(b.multiply(a).rows)` on random
        label-respecting pairs: b @ a nonzero, zero because a resolution's
        differentials compose to zero, and zero only mod p, where a row of b
        takes c times a row of a and p - c times its copy (1 and 2 over GF(3))."""
        field, rng, seen = PrimeField(p), random.Random(p), set()
        for _ in range(150):
            poset = random_poset(rng, 6)
            ms = minimal_resolution_constant(poset, field).matrices
            if rng.random() < 0.2 and len(ms) > 1:
                (a, b), kind = rng.choice([*zip(ms, ms[1:])]), "resolution"
            else:
                a, kind = random_labeled_matrix(rng, poset, field, max_cols=5, max_rows=4), "random"
                if a.nrows:  # a copy of one row of a, for a row of b to cancel mod p
                    i = rng.randrange(a.nrows)
                    a.add_row(a.row_labels[i], a.rows[i])
                b = LabeledMatrix(poset, field, a.row_labels)
                for _ in range(rng.randint(0, 3)):
                    lab = rng.choice(poset.elements)
                    b.add_row(lab, {k: rng.randint(1, p - 1) for k, up in enumerate(a.row_labels)
                                    if poset.leq(lab, up) and rng.random() < 0.5})
                if a.nrows and a.rows[i] and rng.random() < 0.5:
                    c, kind = rng.randint(1, p - 1), "cancel" if not b.nrows else kind
                    b.add_row(rng.choice(poset.elements_of(poset.down_bits(a.row_labels[i]))),
                              {i: c, a.nrows - 1: p - c})
            zero = not any(b.multiply(a).rows)
            assert _composes_to_zero(b, a) == zero
            seen.add((kind, zero))
        assert seen >= {("random", False), ("random", True), ("resolution", True), ("cancel", True)}


class TestRank:
    def test_zero_matrix(self, tetra_matrices):
        poset, _, _, eta2 = tetra_matrices
        m = LabeledMatrix(poset, GF2, ["123"])
        m.add_row("1", {})
        assert m.rank() == 0

    def test_tetra_matrices_rank(self, tetra_matrices):
        _, eta0, eta1, _ = tetra_matrices
        assert eta0.rank() == 3
        assert eta1.rank() == 3

    def test_star_example_rank(self, simplex_star):
        # eta^0 of the 4-simplex example, rows as printed (8x6, signs mod 2)
        eta0 = LabeledMatrix(simplex_star, GF2, ["234", "235", "245", "345", "6", "7"])
        rows = [
            ("23", {0: 1, 1: 1}),
            ("24", {0: 1, 2: 1}),
            ("25", {1: 1, 2: 1}),
            ("34", {0: 1, 3: 1}),
            ("35", {1: 1, 3: 1}),
            ("45", {2: 1, 3: 1}),
            ("∅", {3: 1, 4: 1}),
            ("∅", {4: 1, 5: 1}),
        ]
        for lab, entries in rows:
            eta0.add_row(lab, entries)
        assert eta0.rank() == 5

    def test_odd_prime_rows_are_reduced_before_elimination(self):
        # An entry that is 0 mod p must not become a pivot to invert.
        # The GF(3) pivot is the plane pair (ones, twos), scaled to 1 at its top.
        assert _eliminate(GF3, [packed_row(GF3, {0: 1, 1: 3})])[0] == {0: (1, 0)}
        assert _eliminate(GF3, [packed_row(GF3, {0: -1, 1: 3})])[0] == {0: (1, 0)}
        assert _eliminate(GF3, [packed_row(GF3, {0: 0})])[0] == {}
        assert _sparse_rank(GF3, [{0: 1, 1: 3}, {0: 0, 1: 0}, {0: -2, 2: 6}]) == 1

    @pytest.mark.parametrize("call", [
        "_eliminate(PrimeField(3), [packed_row(PrimeField(3), {0: 1})], table={0: (0, 1)})",
        "_eliminate(PrimeField(5), [{0: 1}], table={0: {0: 2}})",
        "_eliminate(PrimeField(7), [{0: 1}], table={0: {0: 3}})",
        "_eliminate(PrimeField(11), [{0: 1}], table={0: {0: 2}})",
    ])
    def test_a_step_that_keeps_the_top_fails_instead_of_looping(self, call):
        # a pivot holding 2 at its top (unscaled) never clears a row's top;
        # the kernel raises, and the child's timeout fails the test if it loops
        src = str(Path(posheaf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("from posheaf.field import PrimeField\n"
                "from posheaf.matrix import _eliminate, packed_row\n" + call)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=30)
        assert proc.returncode == 1
        assert "AssertionError: a reduction step left the top at 0" in proc.stderr


class TestImageComplement:
    def test_identity(self):
        rows = [{0: 1}, {1: 1}]
        assert image_complement_rows(GF2, rows) == []

    def test_ones_column(self):
        # the map k -> k^2 with matrix (1, 1)^T: complement generated by (1, 1)
        rows = [{0: 1}, {0: 1}]
        basis = image_complement_rows(GF2, rows)
        assert basis == [{0: 1, 1: 1}]

    def test_zero_map(self):
        rows = [{}, {}, {}]
        basis = image_complement_rows(GF3, rows)
        assert basis == [{0: 1}, {1: 1}, {2: 1}]

    def test_spans_left_kernel(self):
        rng = random.Random(21)
        from dense_oracle import rank as dense_rank

        for _ in range(60):
            field = rng.choice((GF2, GF3))
            nrows = rng.randint(0, 5)
            ncols = rng.randint(0, 4)
            rows = [
                {
                    j: rng.randint(1, field.p - 1)
                    for j in range(ncols)
                    if rng.random() < 0.5
                }
                for _ in range(nrows)
            ]
            rows = [{j: v for j, v in r.items() if v} for r in rows]
            basis = image_complement_rows(field, rows)
            dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
            r = dense_rank(field, dense)
            assert len(basis) == nrows - r
            for vec in basis:
                for j in range(ncols):
                    dot = sum(vec.get(i, 0) * dense[i][j] for i in range(nrows))
                    assert dot % field.p == 0


class TestRowColOps:
    def test_swap_always_legal(self, tetra_matrices):
        _, eta0, _, _ = tetra_matrices
        swapped = row_op(eta0, "swap", 0, 1)
        assert swapped.row_labels[0] == "24" and swapped.row_labels[1] == "34"

    def test_illegal_row_add(self, simplex_star):
        m = LabeledMatrix(simplex_star, GF2, ["234"])
        m.add_row("∅", {0: 1})
        m.add_row("23", {0: 1})
        # adding the bottom-labeled row into the 23-labeled row is not allowed
        with pytest.raises(OperationNotAllowed):
            row_op(m, "add", 1, 0)

    def test_legal_row_add_downward(self, simplex_star):
        m = LabeledMatrix(simplex_star, GF2, ["234"])
        m.add_row("234", {0: 1})
        m.add_row("23", {0: 1})
        added = row_op(m, "add", 1, 0)  # row labeled 234 into row labeled 23
        assert added.rows[1] == {}

    def test_ops_invertible(self):
        rng = random.Random(31)

        for _ in range(60):
            p = random_poset(rng)
            field = rng.choice((GF2, GF3))
            m = random_labeled_matrix(rng, p, field, max_cols=4, max_rows=4)
            ops = []  # (operation, kind, i, j, scalar, inverse scalar)
            if m.nrows >= 2:
                pairs = [
                    (i, j)
                    for i in range(m.nrows)
                    for j in range(m.nrows)
                    if i != j and p.leq(m.row_labels[j], m.row_labels[i])
                ]
                if pairs:
                    src, dest = rng.choice(pairs)
                    scalar = rng.randint(1, field.p - 1)
                    ops.append((row_op, "add", dest, src, scalar, field.neg(scalar)))
                ops.append((row_op, "swap", 0, m.nrows - 1, 1, 1))
            if m.nrows:
                scalar = rng.randint(1, field.p - 1)
                ops.append((row_op, "scale", 0, None, scalar, field.inv(scalar)))
            if m.ncols >= 2:
                pairs = [
                    (i, j)
                    for i in range(m.ncols)
                    for j in range(m.ncols)
                    if i != j and p.leq(m.col_labels[i], m.col_labels[j])
                ]
                if pairs:
                    src, dest = rng.choice(pairs)
                    scalar = rng.randint(1, field.p - 1)
                    ops.append((col_op, "add", dest, src, scalar, field.neg(scalar)))
                ops.append((col_op, "swap", 0, m.ncols - 1, 1, 1))
            scalar = rng.randint(1, field.p - 1)
            ops.append((col_op, "scale", 0, None, scalar, field.inv(scalar)))
            current = m
            for op, kind, i, j, scalar, inverse in ops:
                stepped = op(current, kind, i, j, scalar)
                back = op(stepped, kind, i, j, inverse)
                assert back == current
                current = stepped

    @pytest.mark.parametrize("field", [GF2, GF3, GF5], ids=["gf2", "gf3", "gf5"])
    def test_ops_are_products_with_elementary_matrices(self, field):
        # a row operation is E @ M and a column operation M @ E, with E the
        # elementary matrix of the operation; an addition is refused exactly
        # where its lines' labels break the label rule, in the lines' wording
        from dense_oracle import identity, mat_mul

        rng = random.Random(47 + field.p)
        for _ in range(40):
            p = random_poset(rng)
            m = random_labeled_matrix(rng, p, field, max_cols=4, max_rows=4)
            dense = [[row.get(j, 0) for j in range(m.ncols)] for row in m.rows]
            before = [dict(row) for row in m.rows]
            for op, noun, labels in ((row_op, "row", m.row_labels),
                                     (col_op, "column", m.col_labels)):
                n = len(labels)
                for i in range(n):
                    for j in range(n):
                        scalar = rng.randint(1, field.p - 1)
                        cases = [("scale", None, scalar)]
                        if i != j:
                            cases += [("swap", j, 1), ("add", j, scalar)]
                        for kind, src, s in cases:
                            e = identity(n)
                            if kind == "scale":
                                e[i][i] = s
                            elif kind == "swap":
                                e[i][i] = e[j][j] = 0
                                e[i][j] = e[j][i] = 1
                            elif op is row_op:  # row i += s * row j
                                e[i][j] = s
                            else:  # column i += s * column j
                                e[j][i] = s
                            legal = kind != "add" or (
                                p.leq(labels[i], labels[j]) if op is row_op
                                else p.leq(labels[j], labels[i]))
                            if not legal:
                                with pytest.raises(OperationNotAllowed, match=f"{noun} labeled"):
                                    op(m, kind, i, src, s)
                                continue
                            out = op(m, kind, i, src, s)
                            want = (mat_mul(field, e, dense) if op is row_op
                                    else mat_mul(field, dense, e))
                            assert [[r.get(c, 0) for c in range(m.ncols)] for r in out.rows] == want
                            assert all(0 not in r.values() for r in out.rows)
                            swapped = list(labels)
                            if kind == "swap":
                                swapped[i], swapped[j] = swapped[j], swapped[i]
                            assert (out.row_labels, out.col_labels) == (
                                (swapped, m.col_labels) if op is row_op else (m.row_labels, swapped))
            assert m.rows == before  # inputs untouched

    def test_refusals_name_the_line(self, simplex_star):
        m = LabeledMatrix(simplex_star, GF3, ["234", "23"])
        with pytest.raises(OperationNotAllowed, match="columns coincide"):
            col_op(m, "add", 0, 0)
        with pytest.raises(OperationNotAllowed,
                           match="cannot add column labeled 234 into column labeled 23$"):
            col_op(m, "add", 1, 0)
        with pytest.raises(OperationNotAllowed, match="scaling by zero"):
            col_op(m, "scale", 0, None, 3)
        with pytest.raises(InputError, match="unknown column operation"):
            col_op(m, "shear", 0, 1)
        assert col_op(m, "add", 0, 1, 2) == m  # no rows: the legal addition changes nothing

    def test_add_and_swap_without_a_second_line_are_refused(self, simplex_star):
        m = LabeledMatrix(simplex_star, GF3, ["234", "23"], ["23", "2"], [{1: 1}, {0: 2}])
        for op, noun in ((row_op, "row"), (col_op, "column")):
            for kind in ("add", "swap"):
                with pytest.raises(OperationNotAllowed, match=f"^{kind} needs a second {noun}$"):
                    op(m, kind, 0)


class TestValidateComplex:
    def test_empty_valid(self, tetra_matrices):
        poset, _, _, _ = tetra_matrices
        assert InjectiveComplex.empty(poset, GF2).validate().ok

    def test_known_complex_valid(self, tetra_matrices):
        poset, eta0, eta1, eta2 = tetra_matrices
        complex_ = InjectiveComplex(poset, GF2, [eta0, eta1, eta2])
        assert complex_.validate().ok

    def test_flipped_entry_reported(self, tetra_matrices):
        poset, eta0, eta1, eta2 = tetra_matrices
        broken = eta1.copy()
        del broken.rows[0][0]  # drop a legal entry: composition no longer zero
        report = InjectiveComplex(poset, GF2, [eta0, broken, eta2]).validate()
        assert not report.ok
        assert "composition" in report.issues[0]

    def test_mismatched_labels_reported(self, tetra_matrices):
        poset, eta0, eta1, eta2 = tetra_matrices
        shuffled = eta1.copy()
        shuffled.col_labels = list(reversed(shuffled.col_labels))
        report = InjectiveComplex(poset, GF2, [eta0, shuffled, eta2]).validate()
        assert not report.ok

    def test_trimmed_closes_the_tail(self, tetra_matrices):
        poset, eta0, eta1, _ = tetra_matrices
        closed = InjectiveComplex(poset, GF2, [eta0, eta1], 2).trimmed()
        assert closed.validate().ok
        assert closed.matrices[:2] == [eta0, eta1]
        assert closed.term(4) == eta1.row_labels and not closed.matrices[2].nrows
        # a head without columns goes, and its rows become the only term
        head = LabeledMatrix(poset, GF2, [], ["12", "3"])
        assert InjectiveComplex(poset, GF2, [head]).trimmed() == InjectiveComplex(
            poset, GF2, [LabeledMatrix(poset, GF2, ["12", "3"])], 1
        )

    def test_label_order_violation_reported(self, tetra_matrices):
        poset, eta0, _, _ = tetra_matrices
        bad = eta0.copy()
        bad.rows[0][2] = 1  # row 34 against column 124: 34 is not below 124
        assert any("not ordered" in msg for msg in bad.validate())

    def test_row_count_must_match_the_row_labels(self):
        p = Poset.from_covers(["a"], [])
        with pytest.raises(InputError, match="^row count does not match row labels$"):
            LabeledMatrix(p, GF2, ["a"], ["a"], [{}, {}])

    def test_unknown_label_reported(self):
        p = Poset.from_covers(["a"], [])
        assert LabeledMatrix(p, GF2, ["a"], ["zz"]).validate() == ["label 'zz' not in poset"]

    def test_matrix_bound_to_another_poset_or_field_reported(self):
        # labels that the complex's poset knows, on a matrix that is not its own
        p = Poset.from_covers(["a", "b"], [("a", "b")])
        elsewhere = Poset.from_covers(["a"], [])
        for matrix, issue in [
            (LabeledMatrix(elsewhere, GF2, ["a"]), "bound to a different poset"),
            (LabeledMatrix(p, GF3, ["a"]), "over a different field"),
        ]:
            report = InjectiveComplex(p, GF2, [matrix]).validate()
            assert report.issues == [f"matrix at degree 0 {issue}"]


class TestRendering:
    def test_round_trip_json(self, tetra_matrices):
        import json

        from posheaf.io import complex_from_json, complex_to_json, dumps

        poset, eta0, eta1, eta2 = tetra_matrices
        complex_ = InjectiveComplex(poset, GF2, [eta0, eta1, eta2])
        data = json.loads(dumps(complex_to_json(complex_)))
        again = complex_from_json(data)
        assert again == complex_

    def test_text_layout(self, tetra_matrices):
        _, eta0, _, _ = tetra_matrices
        text = eta0.print_text("eta0")
        lines = text.splitlines()
        assert lines[0].split() == ["eta0", "234", "134", "124", "123"]
        assert lines[1].split() == ["34", "1", "1", "·", "·"]
