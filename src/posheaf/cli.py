"""Command-line front end.

Subcommands: `resolve` (minimal or order-complex resolutions of constant
sheaves, and of sheaf JSON inputs), `functor` (the four derived functors) and
`morse` (critical elements, Betti tables and verification).

Exit codes: 0 success, 1 input error (a malformed command line included,
with the usage on stderr), 2 verification failure, 3 size-cap refusal;
`--help` exits 0.  A reader that closes the output pipe early (`| head`)
ends the run with exit 0 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import io as pio
from .errors import InputError, SizeCapExceeded
from .field import PrimeField
from .matrix import InjectiveComplex
from .poset import (LocallyClosedSet, Poset, face_name, generated_faces, image_poset,
                    link_cone, vertex_separator)
from .resolution import (
    minimal_resolution_constant,
    minimal_resolution_sheaf,
    order_complex_resolution,
)
from .sheaf import constant_sheaf
from .derived import (
    peel,
    proper_pullback,
    proper_pushforward,
    pullback,
    pushforward,
)
from .morse import MorseAnalysis

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFICATION = 2
EXIT_SIZE_CAP = 3


def _read(path: str) -> str:
    """The text of `path` ('-' for stdin); a path that cannot be read (missing,
    a directory, no permission) or is not UTF-8 is an InputError."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from None


def _parse_json(text: str):
    """The JSON document in `text`; malformed or too deeply nested is an InputError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON: {exc}") from None


def _load_poset_input(path: str, star: str | None, max_elements: int) -> Poset:
    """A facets file (.txt or anything non-JSON) or a poset JSON file."""
    text = _read(path)
    if text.lstrip().startswith("{"):
        if star is not None:
            raise InputError("--star applies to simplicial complex inputs only")
        return pio.poset_from_json(_parse_json(text), max_elements)
    if star is None:
        return pio.read_facets_text(text, max_elements).face_poset
    return _star_poset(pio.parse_facets(text), star, max_elements)


def _star_poset(facets, requested: str, max_elements: int) -> Poset:
    """The star of the requested face, built as the cone over its link: a
    star with more than `max_elements` faces is refused while its link is
    enumerated, and faces outside the star are never enumerated."""
    vertex_sets = [frozenset(facet) for facet in facets]
    face = _face_lookup(requested, vertex_sets)
    try:
        # the star's faces other than `face`, with the vertices of `face` removed
        link = generated_faces([g - face for g in vertex_sets if g > face], max_elements - 1)
        if len(link) + 1 > max_elements:  # a cap of 0, which leaves no room for `face`
            raise SizeCapExceeded
    except SizeCapExceeded:
        raise SizeCapExceeded(
            f"the star of {requested!r} has more than {max_elements} faces"
        ) from None
    return link_cone(link, vertex_separator(set().union(*vertex_sets)))


def _face_lookup(requested: str, facets: list[frozenset]) -> frozenset:
    """The face --star names: `requested` if it is a face's name under the
    complex's separator, else its comma-separated or, without commas,
    one-character vertex tokens."""
    separator = vertex_separator(set().union(*facets))
    named = requested.split(separator) if separator else list(requested)
    tokens = requested.split(",") if "," in requested else list(requested)
    for candidate, must_be_name in ((named, True), (tokens, False)):
        face = frozenset(candidate)
        if (face and len(face) == len(candidate) and any(face <= g for g in facets)
                and (not must_be_name or face_name(face, separator) == requested)):
            return face
    raise InputError(f"face {requested!r} not in the complex")


def _emit_complex(complex_: InjectiveComplex, fmt: str):
    if fmt == "json":
        print(pio.dumps(pio.complex_to_json(complex_)))
    else:
        print(pio.render_complex_text(complex_))


def cmd_resolve(args) -> int:
    if args.peel and args.method != "order-complex":
        raise InputError("--peel applies to --method order-complex only")
    field = PrimeField(args.field)
    poset = _load_poset_input(args.input, args.star, args.max_elements)
    sheaf = (pio.sheaf_from_json(_parse_json(_read(args.sheaf)), poset, field, args.max_elements)
             if args.sheaf else None)
    if args.method == "order-complex":
        target = sheaf if sheaf is not None else constant_sheaf(poset, field)
        resolution = order_complex_resolution(target)
        if args.peel:
            resolution = peel(resolution)
    elif sheaf is not None:
        resolution = minimal_resolution_sheaf(sheaf)
    else:
        resolution = minimal_resolution_constant(poset, field)
    _emit_complex(resolution, args.format)
    return EXIT_OK


def _load_complex(path: str, max_elements: int) -> InjectiveComplex:
    return pio.complex_from_json(_parse_json(_read(path)), max_elements)


def _load_poset(path: str, max_elements: int) -> Poset:
    return pio.poset_from_json(_parse_json(_read(path)), max_elements)


# the options each functor kind needs, in the order they are checked
_FUNCTOR_OPTIONS = {"push": ("map",), "pull": ("map", "source_poset"),
                    "shriek-push": ("set", "ambient"), "shriek-pull": ("set",)}


def cmd_functor(args) -> int:
    for option in _FUNCTOR_OPTIONS[args.kind]:
        if not getattr(args, option):
            raise InputError(f"functor {args.kind} needs --{option.replace('_', '-')}")
    complex_ = _load_complex(args.complex, args.max_elements)
    if args.kind == "push":
        map_data = _parse_json(_read(args.map))
        target = (_load_poset(args.target_poset, args.max_elements) if args.target_poset
                  else image_poset(complex_.poset, pio._assignment_from_json(map_data)))
        result = pushforward(pio.map_from_json(map_data, complex_.poset, target), complex_)
    elif args.kind == "pull":
        map_data = _parse_json(_read(args.map))
        source = _load_poset(args.source_poset, args.max_elements)
        result = pullback(pio.map_from_json(map_data, source, complex_.poset), complex_)
    else:
        pull = args.kind == "shriek-pull"
        ambient = complex_.poset if pull else _load_poset(args.ambient, args.max_elements)
        zset = LocallyClosedSet(ambient, [s for s in args.set.split(",") if s])
        result = (proper_pullback if pull else proper_pushforward)(zset, complex_)
    _emit_complex(result, args.format)
    return EXIT_OK


def cmd_morse(args) -> int:
    complex_ = _load_complex(args.complex, args.max_elements)
    mf = pio.morse_from_json(_parse_json(_read(args.morse)), complex_.poset)
    analysis = MorseAnalysis(mf, complex_)
    crit = {variant: analysis.critical(variant) for variant in ("shriek", "star")}
    tables = {
        (direction, variant): analysis.table(direction, variant)
        for direction in ("sublevel", "superlevel")
        for variant in ("shriek", "star")
    }
    if args.format == "csv":
        _print_morse_csv(mf, crit, tables)
    else:
        _print_morse_text(mf, crit, tables)
    if args.verify:
        theorem = analysis.theorem()
        failures = list(theorem.violations)
        for variant in ("shriek", "star"):
            report = analysis.inequalities(variant)
            failures += [f"{variant}: {v}" for v in report.violations]
        if failures:
            for line in failures:
                print(f"VIOLATION {line}", file=sys.stderr)
            return EXIT_VERIFICATION
        print(f"verified: {theorem.checks} Morse comparisons, inequalities hold")
    return EXIT_OK


def _table_degrees(tables) -> list[int]:
    degs = set().union(*(row for table in tables.values() for row in table.values()))
    return list(range(min(degs), max(degs) + 1)) if degs else [0]


def _print_morse_text(mf, crit, tables):
    degrees = _table_degrees(tables)
    print("critical elements:")
    for variant in ("shriek", "star"):
        marks = " ".join(x if x in crit[variant] else "-" for x in mf.total_order)
        print(f"  {variant:>7}: {marks}")
    for (direction, variant), table in tables.items():
        print(f"{direction} {variant} (dims in degrees {degrees}):")
        width = max(len(x) for x in mf.total_order)
        for x in mf.total_order:
            print(f"  {x:>{width}}  " + ",".join(str(table[x].get(d, 0)) for d in degrees))


def _print_morse_csv(mf, crit, tables):
    degrees = _table_degrees(tables)
    writer = csv.writer(sys.stdout)
    writer.writerow(["table", "level", "critical"] + [f"H{d}" for d in degrees])
    for variant in ("shriek", "star"):
        for x in mf.total_order:
            writer.writerow(
                [f"critical-{variant}", x, int(x in crit[variant])]
                + ["" for _ in degrees]
            )
    for (direction, variant), table in tables.items():
        for x in mf.total_order:
            writer.writerow(
                [f"{direction}-{variant}", x, int(x in crit[variant])]
                + [table[x].get(d, 0) for d in degrees]
            )


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, an input error, rather than argparse's 2, which
    this CLI keeps for verification failures.  Subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _cap(text: str) -> int:
    """A --max-elements value: an int, not negative."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posheaf",
        description="Injective resolutions and derived functors on finite posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    resolve = sub.add_parser("resolve", help="minimal injective resolution")
    resolve.add_argument("input", help="facets file or poset JSON ('-' for stdin)")
    resolve.add_argument("--sheaf", help="sheaf JSON (default: constant sheaf)")
    resolve.add_argument(
        "--method", choices=("inductive", "order-complex"), default="inductive"
    )
    resolve.add_argument("--field", type=int, default=2,
                         help="prime modulus below 3.3e24 (default 2); a larger one exits 3")
    resolve.add_argument("--format", choices=("text", "json"), default="text")
    resolve.add_argument("--star", help="restrict to the star of a face, relabeled")
    resolve.add_argument(
        "--peel", action="store_true", help="minimize an order-complex resolution"
    )
    resolve.add_argument("--max-elements", type=_cap, default=10_000,
                         help="cap on elements and on a --sheaf's total stalk dimension")
    resolve.set_defaults(func=cmd_resolve)

    functor = sub.add_parser("functor", help="derived functors of a complex")
    functor.add_argument(
        "kind", choices=("push", "pull", "shriek-push", "shriek-pull")
    )
    functor.add_argument("complex", help="complex JSON ('-' for stdin)")
    functor.add_argument("--map", help="map JSON with an 'assignment' object")
    functor.add_argument("--source-poset", help="poset JSON for the pull source")
    functor.add_argument("--target-poset", help="poset JSON for the push target")
    functor.add_argument("--set", help="comma-separated locally closed set")
    functor.add_argument("--ambient", help="poset JSON for shriek-push")
    functor.add_argument("--format", choices=("text", "json"), default="text")
    functor.add_argument("--max-elements", type=_cap, default=10_000)
    functor.set_defaults(func=cmd_functor)

    morse = sub.add_parser("morse", help="Morse tables for a complex")
    morse.add_argument("complex", help="complex JSON ('-' for stdin)")
    morse.add_argument("morse", help="morse JSON with levels and order")
    morse.add_argument("--format", choices=("text", "csv"), default="text")
    morse.add_argument(
        "--verify",
        action="store_true",
        help="check the Morse theorem and inequalities; exit 2 on violation",
    )
    morse.add_argument("--max-elements", type=_cap, default=10_000)
    morse.set_defaults(func=cmd_morse)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1)
        return exc.code
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SizeCapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
