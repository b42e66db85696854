"""The benchmark's three workloads: seeded inputs, the timed job, and a check
of every job's result by a route other than the one timed.

Each workload builds a fixed pool of inputs of one size class from the seed,
so every run executes whole passes over the same job mix.  Jobs call the
library through module attributes (``resolution.minimal_resolution_constant``,
not a name imported here), so the span recorder's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import random
import re
from itertools import combinations

import posheaf.cli as cli
import posheaf.io as pio
from posheaf import derived, morse, poset, resolution, sheaf
from posheaf.field import PrimeField


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _composable(complex_) -> bool:
    """Each matrix's rows match the next one's columns and the last has none."""
    ms = complex_.matrices
    return all(a.row_labels == b.col_labels for a, b in zip(ms, ms[1:])) and not (ms and ms[-1].nrows)


def _multiplicity_rows(complex_) -> dict:
    """{element: {degree: multiplicity}} with zero entries omitted."""
    out: dict = {}
    for d, counts in complex_.multiplicities().items():
        for e, n in counts.items():
            if n:
                out.setdefault(e, {})[d] = n
    return out


class ResolveGF2:
    """Constant-sheaf resolution, cohomology sheaves and hypercohomology over
    GF(2) on a seeded relabeling of skel(9,4) with 10% of its 4-faces dropped
    (612 faces for every seed; 4602 summands on every seed measured).  The
    elimination kernel and the star-row scan do most of the work; peel,
    Morse and I/O do none."""

    name = "resolve-gf2"
    pool = 2

    def build(self, seed: int, workdir) -> list:
        inputs = []
        for k in range(self.pool):
            rng = _rng(self.name, seed, k)
            perm = list(range(10))
            rng.shuffle(perm)
            top = list(combinations(range(10), 5))
            dropped = set(rng.sample(range(len(top)), len(top) // 10))
            facets = [f for i, f in enumerate(top) if i not in dropped]
            facets += list(combinations(range(10), 4))
            complex_ = poset.SimplicialComplex.from_facets(
                [[str(perm[v]) for v in facet] for facet in facets]
            )
            inputs.append(complex_)
        return inputs

    def reference(self, complex_) -> dict:
        faces = complex_.face_poset.elements
        return {
            "hypercohomology": morse.compact_support_cohomology(complex_, faces),
            "multiplicities": {
                f: m for f in faces if (m := morse.multiplicity_oracle(complex_, f))
            },
            "coh_dims": {0: {e: 1 for e in faces}},
        }

    def job(self, complex_):
        res = resolution.minimal_resolution_constant(complex_.face_poset)
        coh = resolution.cohomology_sheaf_dims(res)
        return {"resolution": res, "coh_dims": coh, "hypercohomology": derived.hypercohomology(res)}

    def check(self, ref: dict, result: dict) -> bool:
        return (
            _composable(result["resolution"])
            and result["hypercohomology"] == ref["hypercohomology"]
            and result["coh_dims"] == ref["coh_dims"]
            and _multiplicity_rows(result["resolution"]) == ref["multiplicities"]
        )


class DerivedGF3:
    """Order-complex resolution plus peel of a seeded extension-by-zero sheaf
    over GF(3) on skel(5,3) (56 faces; the sum of the constant sheaves on
    three vertex stars, total stalk dimension 78 for every seed), the
    inductive route and same_derived_object, then proper pushforward of the
    proper pullback to a seeded vertex star.  Peel does most of the work, the
    kernel little; the odd prime keeps it off any GF(2)-only path."""

    name = "derived-gf3"
    pool = 2
    field = PrimeField(3)

    def build(self, seed: int, workdir) -> list:
        inputs = []
        for k in range(self.pool):
            rng = _rng(self.name, seed, k)
            complex_ = poset.skeleton_of_simplex(5, 3)
            P = complex_.face_poset
            vertices = complex_.simplices_of_dim(0)
            ups = [P.star(v) for v in rng.sample(vertices, 3)]
            dims = {e: sum(e in u for u in ups) for e in P.elements}
            restriction = {}
            for a, b in P.covers:
                cols = [i for i, u in enumerate(ups) if a in u]
                rows = [i for i, u in enumerate(ups) if b in u]
                restriction[(a, b)] = [[int(r == c) for c in cols] for r in rows]
            F = sheaf.Sheaf(P, self.field, dims, restriction)
            zset = poset.LocallyClosedSet(P, P.star(rng.choice(vertices)))
            inputs.append((F, zset))
        return inputs

    def reference(self, item) -> dict:
        F, zset = item
        inductive = resolution.minimal_resolution_sheaf(F)
        pushpull = derived.proper_pushforward(zset, derived.proper_pullback(zset, inductive))
        return {"resolution": inductive, "pushpull": pushpull}

    def job(self, item):
        F, zset = item
        peeled = derived.peel(resolution.order_complex_resolution(F))
        agree = derived.same_derived_object(peeled, resolution.minimal_resolution_sheaf(F))
        pushpull = derived.proper_pushforward(zset, derived.proper_pullback(zset, peeled))
        return {"peeled": peeled, "agree": agree, "pushpull": pushpull}

    def check(self, ref: dict, result: dict) -> bool:
        return (
            result["agree"] is True
            and _composable(result["peeled"])
            and _composable(result["pushpull"])
            and resolution.is_minimal(result["peeled"])
            and derived.same_derived_object(result["peeled"], ref["resolution"])
            and derived.same_derived_object(result["pushpull"], ref["pushpull"])
        )


_TABLE_HEADER = re.compile(r"^(sublevel|superlevel) (shriek|star) \(dims in degrees \[([-\d, ]*)\]\):$")
_TABLE_ROW = re.compile(r"^\s+(\S+)\s+(-?\d+(?:,-?\d+)*)$")


def parse_morse_text(text: str) -> tuple[dict, list[str]]:
    """Betti tables {(direction, variant): [(level, {degree: dim})]} and the
    lines outside the tables, from `posheaf morse` text output."""
    tables: dict = {}
    other: list[str] = []
    current = None
    for line in text.splitlines():
        header = _TABLE_HEADER.match(line)
        row = _TABLE_ROW.match(line) if current is not None else None
        if header:
            degrees = [int(d) for d in header.group(3).split(",")]
            current = tables.setdefault((header.group(1), header.group(2)), [])
        elif row:
            values = [int(v) for v in row.group(2).split(",")]
            if len(values) != len(degrees):
                raise ValueError(f"row width {len(values)} != {len(degrees)} degrees: {line!r}")
            current.append((row.group(1), {d: v for d, v in zip(degrees, values) if v}))
        else:
            current = None
            other.append(line)
    return tables, other


class MorseCli:
    """`posheaf morse complex.json morse.json --verify` run in-process on the
    resolved constant sheaf of skel(6,3) (98 faces, 336 summands), levels =
    max vertex under a seeded vertex order, default --jobs 1.  The kernel
    answers hundreds of small rank queries; pullback's mapping cylinders,
    from_leq_pairs and the JSON parse/render do the rest."""

    name = "morse-cli"
    pool = 2

    def build(self, seed: int, workdir) -> list:
        inputs = []
        for k in range(self.pool):
            rng = _rng(self.name, seed, k)
            complex_ = poset.skeleton_of_simplex(6, 3)
            order = list(complex_.vertices)
            rng.shuffle(order)
            rank = {v: i for i, v in enumerate(order)}
            levels = {
                name: max(complex_.face_of[name], key=rank.__getitem__)
                for name in complex_.face_poset.elements
            }
            res = resolution.minimal_resolution_constant(complex_.face_poset)
            complex_path = workdir / f"{self.name}-{k}-complex.json"
            morse_path = workdir / f"{self.name}-{k}-morse.json"
            complex_path.write_text(pio.dumps(pio.complex_to_json(res)), encoding="utf-8")
            morse_path.write_text(json.dumps({"levels": levels, "order": order}), encoding="utf-8")
            inputs.append((complex_, order, str(complex_path), str(morse_path)))
        return inputs

    def reference(self, item) -> dict:
        """The cohomology of each sublevel set {max vertex <= x}: the full
        subcomplex on the first vertices of the order, which is what the
        sublevel-star row restricts the constant sheaf to."""
        complex_, order, _c, _m = item
        sublevel = []
        for i, x in enumerate(order):
            first = set(order[: i + 1])
            sub = poset.SimplicialComplex([f for f in complex_.faces if f <= first])
            sublevel.append((x, morse.compact_support_cohomology(sub, sub.face_poset.elements)))
        return {"order": order, "sublevel_star": sublevel, "hypercohomology": sublevel[-1][1]}

    def job(self, item):
        _complex, _order, complex_path, morse_path = item
        out = _stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["morse", complex_path, morse_path, "--verify"])
        return {"exit_code": code, "stdout": out.getvalue()}

    def check(self, ref: dict, result: dict) -> bool:
        if result["exit_code"] != 0:
            return False
        tables, other = parse_morse_text(result["stdout"])
        if not any(line.startswith("verified: ") for line in other):
            return False
        order = ref["order"]
        if sorted(tables) != sorted((d, v) for d in ("sublevel", "superlevel") for v in ("shriek", "star")):
            return False
        if any([level for level, _ in rows] != order for rows in tables.values()):
            return False
        total = ref["hypercohomology"]
        return (
            tables[("sublevel", "star")] == ref["sublevel_star"]
            and tables[("superlevel", "star")] == tables[("superlevel", "shriek")]
            and tables[("superlevel", "star")][0][1] == total
            and tables[("sublevel", "shriek")][-1][1] == total
        )


WORKLOADS = {w.name: w for w in (ResolveGF2(), DerivedGF3(), MorseCli())}
