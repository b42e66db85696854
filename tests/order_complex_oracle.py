"""The order-complex resolution built chain by chain, kept as a reference:
the library builds each last-position face's signed pattern once per pair
of last two elements and reads each element's up-set once, and the tests
check that its output, dict entry order included, is what this version
gives.  Here every chain asks the poset for the elements above its last
one, and every face of every chain asks the sheaf for its restriction map.
"""

from __future__ import annotations

from posheaf.matrix import InjectiveComplex, LabeledMatrix


def chains(poset) -> list[list[tuple[str, ...]]]:
    """The strictly increasing chains as element tuples, grouped by length,
    each group in lexicographic order of the element indices."""
    groups = [[(e,) for e in poset.elements]]
    while groups[-1]:
        groups.append([
            chain + (e,)
            for chain in groups[-1]
            for e in poset.elements_of(poset.up_bits(chain[-1]) & ~(1 << poset.index[chain[-1]]))
        ])
    return groups[:-1]


def order_complex_resolution(sheaf) -> InjectiveComplex:
    """Drop-in for `posheaf.resolution.order_complex_resolution`."""
    sheaf.validate().raise_if_failed()
    poset, field = sheaf.poset, sheaf.field
    dims, minus_one = sheaf.stalk_dim, field.neg(1)
    groups = chains(poset)
    matrices = []
    for lowers, uppers in zip(groups, groups[1:] + [[]]):
        offset, col_labels = {}, []
        for chain in lowers:
            offset[chain] = len(col_labels)
            col_labels += [chain[0]] * dims[chain[-1]]
        mat = LabeledMatrix(poset, field, col_labels)
        for upper in uppers:
            rows = [{} for _ in range(dims[upper[-1]])]
            if not rows:
                continue
            for drop in range(len(upper)):
                lower = upper[:drop] + upper[drop + 1:]
                sign, base = minus_one if drop % 2 else 1, offset[lower]
                if drop < len(lower):  # the last element stays, and F(e <= e) is 1
                    for mi, row in enumerate(rows):
                        row[base + mi] = sign
                    continue
                for row, entries in zip(rows, sheaf.restriction_map(lower[-1], upper[-1])):
                    for mj, x in enumerate(entries):
                        if x:
                            row[base + mj] = sign * x % field.p
            mat.row_labels += [upper[0]] * len(rows)
            mat.rows += rows
        matrices.append(mat)
    return InjectiveComplex(poset, field, matrices, 0).trimmed()


def raw(complex_: InjectiveComplex):
    """The degree offset and, per matrix, the labels and every row's entries
    in dict order: equal iff two complexes are equal entry order included."""
    return complex_.degree_offset, [(m.col_labels, m.row_labels, [list(r.items()) for r in m.rows])
                                    for m in complex_.matrices]
