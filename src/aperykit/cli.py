"""Command-line front end.

Subcommands expose every computation in the package: ``analyze`` (gap
data and symmetry), ``apery`` (Apery set with representations), ``typeset``
(type set, pseudo-Frobenius numbers, per-ordering extremal sets),
``affine`` (Apery sets of affine monoids), ``hasse`` (covering relations
as DOT), ``staircase`` (ASCII slice of the staircase complement) and
``verify`` (seeded oracle-equivalence sweeps).

Exit codes: 0 on success, 1 on bad input or a closed output pipe, 2 on
a broken internal invariant (which should never happen and means a bug).
With ``--format json`` errors go to stderr as JSON too.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii

from . import affine as affine_mod
from . import apery as apery_mod
from . import homology as homology_mod
from . import semigroup as sg
from .errors import BadAxesError, InternalInvariantError, ScanLimitError
from .groebner import GroebnerBasis, buchberger, ideal_generators, pack_exponent, reducer_for
from .orders import parse_apery_descriptor, parse_order_descriptor
from .sampling import random_semigroup
from .semigroup import NumericalSemigroup


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise _UsageError(message, self.format_usage())


class _UsageError(ValueError):
    def __init__(self, message, usage):
        super().__init__(message)
        self.usage = usage


def _parse_gens(text: str) -> NumericalSemigroup:
    try:
        gens = [int(p) for p in text.replace(" ", "").split(",") if p]
    except ValueError as exc:
        raise ValueError(f"could not parse generators from {text!r}") from exc
    return NumericalSemigroup(gens)


def _parse_affine_gens(text: str, dim: int):
    try:
        points = [tuple(map(int, chunk.split(","))) for chunk in text.split(";") if chunk.strip()]
    except ValueError:
        raise ValueError(f"--gens takes integer points, e.g. 2,0;1,1;0,2; got {text!r}") from None
    return affine_mod.AffineMonoid(dim, tuple(points))


def _basis_payload(basis: GroebnerBasis) -> dict:
    return {
        "order": basis.order.label,
        "elements": [
            {"lead": list(b.lead), "trail": list(b.trail)} for b in basis.elements
        ],
    }


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for report values.

    Reports hold dicts with ``str`` keys, lists and tuples, ``str``, ``int``,
    ``bool`` and ``None``; anything else raises ``TypeError``.  ``json``'s
    indented output comes from its pure-Python encoder, several times slower
    than these joins on the long integer lists reports carry.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if {*map(type, value)} == {int}:
            body = map(str, value)
        else:
            body = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(body) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = [
            encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json_text(report))
    else:
        for key, value in report.items():
            if isinstance(value, dict):
                print(f"{key}:")
                for k2, v2 in value.items():
                    print(f"  {k2}: {v2}")
            else:
                print(f"{key}: {value}")


def _cmd_analyze(args) -> int:
    S = _parse_gens(args.gens)
    inv = sg.selmer_invariants(S, S.generators[0])
    if len(S.generators) >= 2:
        gorenstein = len(sg.typeset_bruteforce(S)) == 1
    else:
        gorenstein = True
    report = {
        "generators": list(S.generators),
        "frobenius": inv.frobenius,
        "genus": inv.genus,
        "gaps": list(inv.gaps),
        "symmetric": inv.symmetric,
        "gorenstein": gorenstein,
    }
    _emit(report, args.format)
    return 0


def _cmd_apery(args) -> int:
    S = _parse_gens(args.gens)
    if args.wrt not in S.generators:
        raise ValueError(f"--wrt must be one of the generators {S.generators}")
    j = S.generators.index(args.wrt) + 1
    target, inner, flavor = j, None, "lex"
    if args.order:
        target, inner, flavor = parse_apery_descriptor(args.order, len(S.generators))
    if target != j:
        raise ValueError(f"--order {args.order!r} does not target generator {args.wrt}")
    report_obj = apery_mod.apery_delta(S, j, inner=inner, flavor=flavor, method=args.strategy)
    report = {
        "generators": list(S.generators),
        "wrt": report_obj.wrt,
        "apery": list(report_obj.elements),
        "representations": {
            str(n): list(e) for n, e in sorted(report_obj.representations.items())
        },
        "orders": [report_obj.order_used],
    }
    if args.dump_basis:
        report["basis"] = _basis_payload(report_obj.basis)
    _emit(report, args.format)
    return 0


def _cmd_typeset(args) -> int:
    S = _parse_gens(args.gens)
    tr = apery_mod.type_set(S)
    report = {
        "generators": list(S.generators),
        "type_set": list(tr.type_set),
        "pf": list(tr.pf),
        "type": tr.type,
        "gorenstein": tr.gorenstein,
        "extremal": {label: list(part) for label, part in tr.extremal_sets.items()},
        "orders": list(tr.extremal_sets),
    }
    _emit(report, args.format)
    return 0


def _cmd_affine(args) -> int:
    M = _parse_affine_gens(args.gens, args.dim)
    k = len(M.generators)
    try:
        lam = [int(p) for p in args.lam.split(",")]
    except ValueError:
        raise ValueError(f"--lambda takes generator indices, e.g. 1,3; got {args.lam!r}") from None
    bad = [i for i in lam if not 1 <= i <= k]
    if bad:
        raise ValueError(f"--lambda index {bad[0]} is out of range 1..{k}")
    indices = tuple(i - 1 for i in lam)
    rep = affine_mod.apery_affine(M, indices=indices)
    report = {
        "dim": M.dim,
        "generators": [list(g) for g in M.generators],
        "lambda": [i + 1 for i in rep.lambda_indices],
        "apery": [list(p) for p in rep.elements],
        "representations": {
            ",".join(map(str, p)): list(e) for p, e in sorted(rep.representations.items())
        },
        "orders": [rep.order_used],
    }
    _emit(report, args.format)
    return 0


def _cmd_hasse(args) -> int:
    S = _parse_gens(args.gens)
    wrt = args.wrt if args.wrt is not None else S.generators[-1]
    edges = sg.hasse_diagram(S, wrt)
    nodes = sg.apery_bruteforce(S, wrt)
    sinks = sorted(set(nodes) - {x for x, _ in edges})
    if args.format == "json":
        _emit({"nodes": nodes, "edges": [list(e) for e in edges], "sinks": sinks}, "json")
    elif args.format == "text":
        for x, y in edges:
            print(f"{x} -> {y}")
        print(f"sinks: {sinks}")
    else:
        print("digraph apery {")
        print("  rankdir=LR;")
        for n in nodes:
            print(f'  "{n}";')
        for x, y in edges:
            print(f'  "{x}" -> "{y}";')
        print("}")
    return 0


def render_staircase(basis: GroebnerBasis, fixed: dict, axes, extent) -> str:
    """ASCII slice of the staircase: '#' inside, 'o' in the complement.

    ``fixed`` assigns values to every variable except the two in ``axes``
    (missing ones default to 0); ``extent`` is the (width, height) of the
    rendered grid, at most ``APERYKIT_MAX_SCAN`` cells.  Variable indices
    are 0 for x, i for y_i.
    """
    m = basis.order.num_vars
    ax, ay = axes
    if ax == ay or not (0 <= ax < m and 0 <= ay < m):
        raise BadAxesError(f"axes must be two distinct variable indices below {m}")
    if ax in fixed or ay in fixed:
        raise BadAxesError("a fixed variable cannot also be an axis")
    if any(not (0 <= c < m) for c in fixed):
        raise BadAxesError("fixed variable index out of range")
    if any(int(value) < 0 for value in fixed.values()):
        raise ValueError("fixed exponents must be nonnegative")
    width, height = extent
    limit = sg.max_scan_limit()
    if width < 1 or height < 1:
        raise ValueError(f"extent must be positive, got {width},{height}")
    if width * height > limit:
        raise ScanLimitError(f"{width}x{height} grid exceeds APERYKIT_MAX_SCAN={limit}")
    base = [0] * m
    for c, value in fixed.items():
        base[c] = int(value)
    names = ["x"] + [f"y{i}" for i in range(1, m)]
    covered = reducer_for(basis).reducible
    lines = []
    for row in range(height - 1, -1, -1):
        cells = []
        for col in range(width):
            point = list(base)
            point[ax] = col
            point[ay] = row
            cells.append("#" if covered(pack_exponent(point)) else "o")
        lines.append(f"{row:>3} " + " ".join(cells))
    lines.append("    " + " ".join(f"{c}" for c in range(width)))
    header = f"{names[ay]} (vertical) vs {names[ax]} (horizontal)"
    fixed_desc = ", ".join(f"{names[c]}={v}" for c, v in sorted(fixed.items()))
    if fixed_desc:
        header += f" at {fixed_desc}"
    return "\n".join([header] + lines)


def _var_index(name: str, m: int) -> int:
    name = name.strip()
    if name == "x":
        return 0
    if name.startswith("y") and name[1:].isdecimal():
        i = int(name[1:])
        if 1 <= i < m:
            return i
    raise ValueError(f"unknown variable {name!r}")


def _cmd_staircase(args) -> int:
    S = _parse_gens(args.gens)
    order = parse_order_descriptor(args.order, S.generators)
    basis = buchberger(ideal_generators(S, order), order)
    m = order.num_vars
    ax_names = args.axes.split(",")
    if len(ax_names) != 2:
        raise BadAxesError("--axes needs exactly two variables, e.g. y1,y2")
    axes = tuple(_var_index(n, m) for n in ax_names)
    fixed = {}
    if args.fix:
        for part in args.fix.split(","):
            name, _, value = part.partition("=")
            c = _var_index(name, m)
            try:
                fixed[c] = int(value)
            except ValueError:
                msg = f"--fix takes name=integer pairs, e.g. x=2,y3=0; got {part!r}"
                raise ValueError(msg) from None
    for c in range(m):
        if c not in axes and c not in fixed:
            fixed[c] = 0
    try:
        width, height = (int(p) for p in args.extent.split(","))
    except ValueError:
        raise ValueError(f"--extent takes two integers width,height; got {args.extent!r}") from None
    text = render_staircase(basis, fixed, axes, (width, height))
    if args.format == "json":
        _emit({"grid": text.splitlines(), "order": order.label}, "json")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    rng = random.Random(args.seed)
    failures = 0
    checks = 0

    def run(name: str, cases) -> None:
        nonlocal failures, checks
        bad = [c for c in cases if c is not None]
        checks += 1
        if bad:
            failures += 1
            print(f"FAIL {name}: {len(bad)} mismatches, first: {bad[0]}")
        else:
            print(f"ok {name}")

    corpus = [
        random_semigroup(rng, args.kmin, args.kmax, args.max_gen)
        for _ in range(args.count)
    ]
    reports = {}  # check_delta's direct report per monoid, reread by check_typeset

    def check_delta(S):
        # both routes on one basis: each must match the definition, and
        # both must pick the same representation per element
        expect = sg.apery_bruteforce(S, S.generators[-1])
        k = len(S.generators)
        direct = reports[S] = apery_mod.apery_delta(S, k)
        scan = apery_mod.apery_delta(S, k, method="scan", basis=direct.basis)
        for got in (scan, direct):
            if list(got.elements) != expect:
                return (S.generators, list(got.elements), expect)
        if scan.points != direct.points:
            return (S.generators, "scan and direct representations differ")
        return None

    def check_typeset(S):
        # the intersection over k-1 orderings against the definition and
        # against the maximal elements of Ap(S, a_k) under <=_S in one report
        expect = sg.typeset_bruteforce(S)
        got = list(apery_mod.type_set(S).type_set)
        report = reports[S]
        members = set(report.elements)
        maximal = [
            w for w in report.elements if not any(w + a in members for a in S.generators[:-1])
        ]
        if got != expect or maximal != expect:
            return (S.generators, got, maximal, expect)
        return None

    def check_selmer(S):
        inv = sg.selmer_invariants(S, S.generators[0])
        gap_list = sg.gaps(S)
        if inv.genus != len(gap_list) or inv.frobenius != max(gap_list):
            return (S.generators,)
        return None

    def check_affine(S):
        M = affine_mod.AffineMonoid(1, tuple((a,) for a in S.generators))
        j = rng.randrange(len(S.generators))
        rep = affine_mod.apery_affine(M, indices=(j,))
        expect = sg.apery_bruteforce(S, S.generators[j])
        if sorted(p[0] for p in rep.elements) != expect:
            return (S.generators, j)
        return None

    run("apery: staircase vs definition scan", map(check_delta, corpus))
    run("typeset: extremal intersection vs one-report maxima vs definition",
        map(check_typeset, corpus))
    run("invariants: Apery formulas vs gap scan", map(check_selmer, corpus))
    run("affine d=1 reduction vs definition", map(check_affine, corpus))
    if args.homology:
        def check_pf(S):
            got = homology_mod.pf_via_homology(S)
            expect = sg.pf_bruteforce(S)
            if got != expect:
                return (S.generators, got, expect)
            return None

        run("pf: homology vs definition", map(check_pf, corpus))
    print(f"passed {checks - failures}/{checks} suites on {args.count} monoids (seed {args.seed})")
    if failures:
        raise InternalInvariantError(f"{failures} verification suites failed")
    return 0


@functools.cache  # argparse keeps no state between parses: one parser serves all
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aperykit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dot=False):
        choices = ["json", "text"] + (["dot"] if dot else [])
        p.add_argument(
            "--format", choices=choices, default="dot" if dot else "json",
            help="output format",
        )

    p = sub.add_parser("analyze", help="gaps, Frobenius number, genus, symmetry")
    p.add_argument("--gens", required=True, help="comma-separated generators")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("apery", help="Apery set with normal-form representations")
    p.add_argument("--gens", required=True)
    p.add_argument("--wrt", type=int, required=True, help="generator to compute against")
    p.add_argument("--order", help="ordering descriptor, e.g. apery:j=4,inner=1-3-2,revlex")
    p.add_argument(
        "--strategy", choices=["scan", "direct"], default="direct",
        help="enumeration route: direct (default) walks the face x = y_j = 0; "
        "scan is the classification route, kept as the cross-check",
    )
    p.add_argument("--dump-basis", action="store_true", help="include the reduced basis")
    common(p)
    p.set_defaults(func=_cmd_apery)

    p = sub.add_parser("typeset", help="type set, PF numbers, Gorenstein flag")
    p.add_argument("--gens", required=True)
    common(p)
    p.set_defaults(func=_cmd_typeset)

    p = sub.add_parser("affine", help="Apery set of a pointed affine monoid")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--gens", required=True, help="semicolon-separated points, e.g. 2,0;1,1;0,2")
    p.add_argument("--lambda", dest="lam", required=True, help="1-based generator indices")
    common(p)
    p.set_defaults(func=_cmd_affine)

    p = sub.add_parser("hasse", help="covering relations of the Apery poset")
    p.add_argument("--gens", required=True)
    p.add_argument("--wrt", type=int, help="defaults to the largest generator")
    common(p, dot=True)
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("staircase", help="ASCII slice of the staircase complement")
    p.add_argument("--gens", required=True)
    p.add_argument("--order", default="lex", help="lex or apery:j=<i>[,...]")
    p.add_argument("--axes", required=True, help="two free variables, e.g. y1,y2")
    p.add_argument("--fix", help="fixed values, e.g. x=2,y3=0 (others default to 0)")
    p.add_argument("--extent", default="8,8", help="grid width,height")
    common(p)
    p.set_defaults(func=_cmd_staircase)

    p = sub.add_parser("verify", help="seeded cross-validation sweeps")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kmin", type=int, default=3)
    p.add_argument("--kmax", type=int, default=5)
    p.add_argument("--max-gen", type=int, default=60)
    p.add_argument("--homology", action="store_true", help="include the homology route")
    common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def _requested_format(argv) -> str:
    """The last ``--format`` value given in an argv that failed to parse."""
    probe = _Parser(add_help=False)
    probe.add_argument("--format", action="append", nargs="?", default=[])
    try:
        given = [f for f in probe.parse_known_args(argv)[0].format if f]
    except _UsageError:
        return "text"
    return given[-1] if given else "text"


def _report_error(exc: Exception, kind: str, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps({"error": str(exc), "kind": kind}), file=sys.stderr)
    else:
        prefix = "error" if kind == "user" else "internal error"
        print(f"{prefix}: {exc}", file=sys.stderr)
    return 1 if kind == "user" else 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        fmt = _requested_format(argv)
        if fmt != "json":
            sys.stderr.write(exc.usage)
        return _report_error(exc, "user", fmt)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here if the output fit the buffer
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at exit
        # cannot raise again (the SIGPIPE note in the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # every input-validation error
        return _report_error(exc, "user", args.format)
    except InternalInvariantError as exc:
        return _report_error(exc, "internal", args.format)


if __name__ == "__main__":
    sys.exit(main())
