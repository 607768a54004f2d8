"""Command-line front end.

Subcommands: orbits (cycle decomposition of one map), curve (the curve
behind a quartic map, its group structure, and the cycle-length catalog),
conjugate (normal form of a reciprocal map), bluher (root-count sweep of
x^(2^k+1) + x + a), and selftest (the built-in verification suite).

Field elements on the command line are written either as powers of the
field's primitive element ("g^12", or "g" for the generator itself) or as
hex encodings ("0x1a").  Exit codes: 0 success, 1 invariant violation,
2 usage error, 3 resource bound exceeded.

Each command's options are declared once, in _COMMANDS.  A canonical
command line is read straight off that table; any other goes to the
argparse parser built from it, which also owns help, usage and errors.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from .conjugacy import (TauMap, bluher_counts, bluher_distribution,
                        bluher_root_count, fixed_point_count,
                        solve_conjugation)
from .curves import (curve_from_map, cycle_catalog, group_structure,
                     line_cycle_counts, twist_and_extension)
from .fields import (BinaryField, FieldElement, InvariantViolationError,
                     ResourceLimitError, check_table_degree)
from .maps import MapSpec, ProjPoint
from .reporting import (check_prediction, cycle_paths, cycles_to_dict,
                        element_echo, emit_dot, point_label, report_text,
                        to_json)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# A bluher sweep refuses degrees above this.  Its counts reach 2^n - 1,
# which here has 4,300 decimal digits, the most Python converts to a string
# by default; wider sweeps would also build ever larger 2^n-sized integers.
SWEEP_DEGREE_LIMIT = 14_284


def _echo(args: SimpleNamespace) -> dict:
    """The parsed command line, as a report's `input:` line echoes it: every
    attribute that holds a value, with the modulus in hex."""
    out = {key: value for key, value in vars(args).items() if value is not None}
    if args.modulus is not None:
        out["modulus"] = f"{args.modulus:#x}"
    return out


def parse_element(field: BinaryField, text: str) -> FieldElement:
    """"g", "g^i" (primitive-element power) or a hex encoding."""
    token = text.strip().lower()
    if not token:
        raise ValueError("empty field element")
    if token.startswith("g"):
        rest = token[1:]
        try:
            exponent = int(rest.removeprefix("^")) if rest else 1
        except ValueError:
            raise ValueError(f"malformed element {text!r}") from None
        return field.primitive_element() ** exponent
    try:
        bits = int(token, 16)
    except ValueError:
        raise ValueError(f"malformed element {text!r} (want g^i or hex)") from None
    return field.element(bits)


def _field(args: SimpleNamespace) -> BinaryField:
    if args.degree < 1:
        raise ValueError("--degree must be a positive integer")
    return BinaryField(args.degree, args.modulus)


def _map(args: SimpleNamespace, field: BinaryField) -> MapSpec:
    return MapSpec(args.map, parse_element(field, args.a),
                   parse_element(field, args.b), args.k)


# -- subcommands --------------------------------------------------------------------


def run_orbits(args: SimpleNamespace) -> str:
    check_table_degree(args.degree)  # a listing needs tables: refuse first
    field = _field(args)
    cs = _map(args, field).cycle_structure()
    if args.format == "dot":
        return emit_dot(cs)
    if args.format == "json":
        return to_json(cycles_to_dict(cs))
    return report_text({"config": _echo(args),
                        "cycle_summary": {str(l): c
                                          for l, c in cs.summary.items()},
                        "cycles": cycle_paths(cs)})


def _catalog_rows(entries, degree: int) -> list[dict]:
    return [dict(e._asdict(), over=degree,
                 possible_lengths=list(e.possible_lengths)) for e in entries]


def run_curve(args: SimpleNamespace) -> str:
    if args.map != "theta" or args.k != 2:
        raise ValueError("curve analysis applies to theta maps with k=2 "
                         "(the duplication shape)")
    check_table_degree(args.degree)  # a listing needs tables: refuse first
    field = _field(args)
    mp = _map(args, field)
    summary = mp.cycle_structure().summary
    curve = curve_from_map(mp.a, mp.b)
    gs1 = group_structure(curve)
    twist, gs2 = twist_and_extension(gs1, field.order)
    cat1, cat2 = cycle_catalog(gs1), cycle_catalog(gs2)
    want = line_cycle_counts(cat1, cycle_catalog(twist))
    if want != summary:
        raise InvariantViolationError(
            f"catalogs of the curve and its twist predict cycles {want}, "
            f"observed {summary}")
    predicted, observed = sorted({e.length for e in cat2}), sorted(summary)
    check_prediction(predicted, observed)

    doc = {
        "config": _echo(args),
        "cycle_summary": {str(l): c for l, c in summary.items()},
        "curve": {"a1": element_echo(curve.a1), "a2": element_echo(curve.a2),
                  "base": gs1._asdict(), "extension": gs2._asdict()},
        "catalog": _catalog_rows(cat1, field.degree)
                   + _catalog_rows(cat2, 2 * field.degree),
        "predicted_lengths": predicted,
        "observed_lengths": observed,
        "notes": [f"F_2^{field.degree}: catalogs of the curve ({gs1.order} "
                  f"points) and its twist ({twist.order} points) match the "
                  f"{sum(summary.values())} cycles of the line exactly"],
    }
    return to_json(doc) if args.format == "json" else report_text(doc)


def run_conjugate(args: SimpleNamespace) -> str:
    if args.map != "psi":
        raise ValueError("conjugation applies to psi maps (pass --map psi)")
    field = _field(args)
    mp = _map(args, field)
    data = solve_conjugation(mp)  # checked exactly on its whole line

    transcript = {
        "extension_degree": data.ext_degree,
        "relative_degree": data.embedding.relative_degree,
        "c": element_echo(data.c), "c1": element_echo(data.c1),
        "c2": element_echo(data.c2), "c3": element_echo(data.c3),
        "normal_form": data.normal_form().describe(),
        "system_holds": data.system_holds(),
        "verified_points": data.embedding.ext.order + 1,
    }

    fixed = [ProjPoint.from_int(field, x) for x in mp.pair.fixed_points()]
    transcript["fixed_points"] = [point_label(p) for p in fixed]
    transcript["fixed_point_count"] = len(fixed)
    if data.is_base_field:
        theorem = fixed_point_count(data.c, args.k)
        if theorem != len(fixed):
            raise InvariantViolationError(
                f"theorem count {theorem} != {len(fixed)} observed fixed points")
        transcript["theorem_count"] = theorem
        source = sorted((ProjPoint.from_int(field, x) for x in
                         data.normal_form().pair.fixed_points()), key=point_label)
        transcript["normal_form_fixed_points"] = [point_label(p) for p in source]
        tau = TauMap(data)
        images = {p: tau.eval(p) for p in source}
        if set(images.values()) != set(fixed):
            raise InvariantViolationError(
                f"tau maps the normal form's fixed points to "
                f"{sorted(map(point_label, images.values()))}, not to the "
                f"map's {transcript['fixed_points']}")
        transcript["tau_images"] = {
            point_label(p): point_label(q) for p, q in images.items()}

    doc = {"config": _echo(args), "conjugacy": transcript}
    return to_json(doc) if args.format == "json" else report_text(doc)


def run_bluher(args: SimpleNamespace) -> str:
    """Root counts of x^(2^k+1) + x + a.  A sweep over every nonzero a takes
    its histogram from Bluher's theorem (bluher_distribution) at every
    degree; the per-a counts it lists up to 256 elements come from one image
    pass (bluher_counts), which checks its histogram against the theorem.
    The one --a value is counted on the eigenlines of its map.  The field
    is built only for what reads it: --a, the listing, and the check of
    --modulus; a degree below 1 counts as listed, so _field refuses it.  A
    sweep past SWEEP_DEGREE_LIMIT is refused before anything is built."""
    if args.a is None and args.degree > SWEEP_DEGREE_LIMIT:
        raise ResourceLimitError(
            f"a sweep of degree {args.degree} counts past 4300 digits; "
            f"sweeps stop at degree {SWEEP_DEGREE_LIMIT}")
    listed = args.a is None and args.degree <= 8
    if args.a is not None or listed or args.modulus is not None:
        field = _field(args)
    if args.k < 1:
        raise ValueError("--k must be at least 1")
    theorem = bluher_distribution(args.k, args.degree)
    if args.a is None:
        values = range(1, field.order) if listed else ()
        counts = bluher_counts(args.k, field)[1:] if values else ()
    else:
        a = parse_element(field, args.a)
        values, counts = [a.bits], [bluher_root_count(a, args.k)]
    histogram = theorem if args.a is None else {counts[0]: 1}
    # past 20 digits the exponent is written symbolically
    exponent = (1 << args.k) + 1 if args.k < 64 else f"(2^{args.k}+1)"
    payload = {
        "polynomial": f"x^{exponent} + x + a",
        "values_swept": sum(histogram.values()),
        "allowed_counts": sorted(theorem),
        "histogram": {str(c): m for c, m in histogram.items() if m},
    }
    if values:
        payload["counts"] = {point_label(ProjPoint.finite(field.element(v))): c
                             for v, c in zip(values, counts)}
    doc = {"config": _echo(args), "root_counts": payload}
    return to_json(doc) if args.format == "json" else report_text(doc)


# -- argument parsing ----------------------------------------------------------------


def _hex_int(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(f"invalid hex value {text!r}") from None


def _report_options(kind: str | None, formats: tuple[str, ...] = ("text", "json")
                    ) -> list[tuple[str, dict]]:
    """--degree, --modulus, then --map, --a and --b when kind names the
    default map family (bluher has none), then --k and --format."""
    options = [
        ("--degree", dict(type=int, required=True, metavar="N",
                          help="field degree: work over F_{2^N}")),
        ("--modulus", dict(type=_hex_int, metavar="HEX",
                           help="irreducible modulus bits (default: built-in)")),
    ]
    if kind is not None:
        options += [
            ("--map", dict(choices=("theta", "psi"), default=kind,
                           help=f"map family (default {kind})")),
            ("--a", dict(required=True, metavar="ELT",
                         help="coefficient a (g^i or hex, nonzero)")),
            ("--b", dict(required=True, metavar="ELT",
                         help="coefficient b (g^i or hex)")),
        ]
    return options + [
        ("--k", dict(type=int, default=2, metavar="K",
                     help="Frobenius exponent: the map uses x^(2^K)")),
        ("--format", dict(choices=formats, default="text", help="output format")),
    ]


# The report commands: each one's handler, help line and options, as
# (flag, add_argument keywords).  build_parser hands the keywords to
# argparse; _read_canonical applies the same converters (type), choices,
# defaults and required flags.  The attribute is the flag's name.
_COMMANDS = {
    "orbits": (run_orbits, "cycle decomposition of the map",
               _report_options("theta", ("text", "dot", "json"))),
    "curve": (run_curve,
              "curve, group structure, and catalog behind a quartic theta map",
              _report_options("theta")),
    "conjugate": (run_conjugate, "normal form of a reciprocal map",
                  _report_options("psi")),
    "bluher": (run_bluher, "root counts of x^(2^k+1) + x + a",
               _report_options(None) + [
                   ("--a", dict(metavar="ELT",
                                help="restrict the sweep to one a value"))]),
}


def build_parser():
    """The argparse parser of every command line; it parses whatever
    _read_canonical declines, and writes help, usage and error texts."""
    import argparse  # canonical command lines never load it
    parser = argparse.ArgumentParser(
        prog="f2dyn",
        description="Cycle structure of x -> a*x^(2^k) + b and its "
                    "reciprocal over binary fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, spec in options:
            p.add_argument(flag, **spec)
    p = sub.add_parser("selftest", help="run the verification suite")
    p.add_argument("--quick", action="store_true",
                   help="only the four worked-example checks")
    return parser


def _read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The attributes build_parser().parse_args(argv) sets, read off
    _COMMANDS without argparse, for argv in canonical form: a report
    command, then exact `--flag VALUE` pairs, each flag at most once and no
    value starting with "-".  None for any other argv (help, abbreviations,
    `--flag=value`, a bad value, a missing option), which argparse then
    parses or reports."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    options = _COMMANDS[argv[0]][2]
    specs, given = dict(options), {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        spec = specs.get(flag)
        if spec is None or flag in given or text.startswith("-"):
            return None
        convert, choices = spec.get("type"), spec.get("choices")
        try:
            value = text if convert is None else convert(text)
        except Exception:  # int's ValueError, _hex_int's ArgumentTypeError
            return None  # argparse reruns the converter and reports it
        if choices is not None and value not in choices:
            return None
        given[flag] = value
    args = {"command": argv[0]}
    for flag, spec in options:
        if flag not in given and spec.get("required"):
            return None
        args[flag[2:]] = given.get(flag, spec.get("default"))
    return SimpleNamespace(**args)


def run(args: SimpleNamespace) -> str:
    """Execute one parsed command line and return its report document."""
    return _COMMANDS[args.command][0](args)


def main(argv: list[str] | None = None) -> int:
    # What is alive when a command starts, the imported package above all,
    # outlives it.  Frozen for the command, it is not rescanned by the
    # collections the command triggers.  Measured on main() alone (Python
    # 3.11, 2 vCPUs, median of 9 fresh processes): the JSON listing of
    # `orbits --degree 16`, which without the freeze runs one collection of
    # an older generation, takes 78 ms with it and 89 ms without.  The text
    # listing (about 50 ms) runs young collections only, and conjugate 12,
    # bluher 8 and curve 9 run none; none of them changes.  gc.unfreeze
    # thaws every frozen object, so a caller's freeze is left to the caller.
    if gc.get_freeze_count():
        return _command(argv)
    gc.freeze()
    try:
        return _command(argv)
    finally:
        gc.unfreeze()


def _command(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_canonical(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.command == "selftest":
        from . import selftest  # only this command pays for its import
        return selftest.run(quick=args.quick)
    try:
        sys.stdout.write(run(args))
    except ValueError as exc:  # refused input, FieldMismatchError among them
        print(f"f2dyn: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"f2dyn: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolationError as exc:
        print(f"f2dyn: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
