"""Command-line entry point.

Subcommands load a complex (builtin name, file path, or algebroid bundle),
run one computation, and print either a short text summary or a
deterministic JSON report.  This module builds every report: the
computation modules return objects, and each report shape has one builder
here for its JSON fields and its text lines.  Validation failures, schema
problems and exhausted memory exit with status 1 and a one-line error on
stderr; ALGEBROIDS_VERBOSE=1 prints that error as a JSON object instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algebroid import _power_classes, invariant_sections, make_algebroid
from .char_classes import _ClassQuery, sign_class, surjectivity_check
# ``cohomology`` is not called here, but bench/test_oracles.py reaches the
# cohomology module's namespace through ``cli.cohomology``.
from .cohomology import TwistedCochain, cohomology, cohomology_dims, fundamental_cocycle  # noqa: F401
from .complexes import Complex
from .errors import AlgebroidError, InputError, OutOfMemoryError, SchemaError
from .jsonio import (
    SCHEMA_VERSION,
    _simplex_key,
    algebroid_from_json,
    cochain_from_json,
    dump_json,
    format_rational,
    load_json,
    map_from_json,
    parse_rational,
    representation_from_json,
    representation_to_json,
    resolve_complex_spec,
)
from .local_systems import (
    LocalSystem,
    _sym_range_rank,
    _sym_rank,
    from_representation,
    holonomy,
    pullback_system,
)


def _verbose() -> bool:
    return os.environ.get("ALGEBROIDS_VERBOSE", "") not in ("", "0")


def _parse_inline_rep(c: Complex, text: str, rank: int | None) -> LocalSystem:
    """Inline form: comma-separated name=value pairs, rank-1 values only."""
    images = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise SchemaError(f"bad --rep entry {piece!r}, expected name=value")
        key, _, value = piece.partition("=")
        key = key.strip()
        if key in images:
            raise InputError(f"--rep gives generator {key!r} twice", generator=key)
        images[key] = parse_rational(value.strip())
    return from_representation(c, images, rank=rank)


def _load_system(args, c: Complex) -> LocalSystem:
    if args.rep and args.rep_file:
        raise InputError("--rep and --rep-file both give a representation; pass one")
    if args.rank is not None and not args.rep:
        raise InputError("--rank applies only to an inline --rep")
    if args.rep:
        return _parse_inline_rep(c, args.rep, args.rank)
    if args.rep_file:
        return representation_from_json(c, load_json(args.rep_file))
    raise InputError("no representation given; use --rep or --rep-file")


def _load_omega(args, L: LocalSystem) -> TwistedCochain:
    spec = getattr(args, "omega", None)
    if spec in (None, "zero"):
        return TwistedCochain(L, 2)
    if spec == "fundamental":
        if L.rank != 1:
            raise InputError("the fundamental cocycle needs a rank-1 system")
        f = fundamental_cocycle(L.base)
        return TwistedCochain(L, 2, f.values)
    return cochain_from_json(L, load_json(spec))


def _emit(args, data: dict, text_lines) -> None:
    if args.json:
        print(dump_json(data))
    else:
        for line in text_lines:
            print(line)


def _counts_text(counts: tuple) -> str:
    words = ["vertices", "edges", "triangles"]
    parts = []
    for n, count in enumerate(counts):
        label = words[n] if n < len(words) else f"{n}-simplices"
        parts.append(f"{count} {label}")
    return ", ".join(parts)


def _validation_report(args, base: Complex, label: str, L, omega_closed: bool) -> int:
    """The validate report: the complex's counts, then the ``label`` system
    L (the adjoint or the representation) if one was checked, then omega."""
    counts = base.counts()
    report = {"schema_version": SCHEMA_VERSION, "ok": True, "counts": list(counts)}
    lines = ["complex ok: " + _counts_text(counts)]
    if L is not None:
        report.update(rank=L.rank, flat=True)
        lines.append(f"{label} ok: rank {L.rank}, flat")
    if omega_closed:
        report["omega_closed"] = True
        lines.append("omega ok: closed")
    _emit(args, report, lines)
    return 0


def cmd_validate(args) -> int:
    if args.algebroid:
        # the bundle holds its own complex, adjoint and omega
        for option in ("complex", "rep", "rep_file", "rank", "omega"):
            if getattr(args, option) is not None:
                flag = "--" + option.replace("_", "-")
                raise InputError(f"--algebroid cannot be combined with {flag}", option=flag)
        A = algebroid_from_json(load_json(args.algebroid))
        return _validation_report(args, A.base, "adjoint", A.adjoint, True)
    c = resolve_complex_spec(args.complex)
    L, omega_closed = None, False
    # omega lives in the representation, so it needs one
    if args.rep or args.rep_file or args.rank is not None or args.omega:
        L = _load_system(args, c)
        if args.omega:
            make_algebroid(L, _load_omega(args, L))
            omega_closed = True
    return _validation_report(args, c, "representation", L, omega_closed)


def cmd_cohomology(args) -> int:
    c = resolve_complex_spec(args.complex)
    L = _load_system(args, c)
    degrees = list(range(c.dimension + 1)) if args.degree is None else [args.degree]
    # no n-cochains above the base dimension, so H^n = 0 there; the dims up
    # to a huge degree would hold one zero per degree (a negative degree is
    # refused by cohomology_dims)
    all_dims = cohomology_dims(L, up_to=min(degrees[-1], c.dimension))
    dims = {n: all_dims[n] if n <= c.dimension else 0 for n in degrees}
    _emit(
        args,
        {
            "schema_version": SCHEMA_VERSION,
            "rank": L.rank,
            "dims": {str(n): d for n, d in dims.items()},
        },
        [" ".join(f"H{n}={d}" for n, d in dims.items())],
    )
    return 0


def cmd_chern_weil(args) -> int:
    if args.min_k > args.max_k:
        raise InputError(
            f"--min-k {args.min_k} is larger than --max-k {args.max_k}",
            min_k=args.min_k,
            max_k=args.max_k,
        )
    c = resolve_complex_spec(args.complex)
    L = _load_system(args, c)
    omega = _load_omega(args, L)
    A = make_algebroid(L, omega)
    if args.max_k > 1:
        # the last power is the largest: refuse it before building any other,
        # then the range (a negative --min-k is refused by its first power)
        _sym_rank(L.rank, args.max_k)
        if args.min_k >= 0:
            _sym_range_rank(L.rank, args.min_k, args.max_k)
    report = {"schema_version": SCHEMA_VERSION, "powers": {}}
    lines = []
    for k in range(args.min_k, args.max_k + 1):
        sections = invariant_sections(A, k)
        classes = _power_classes(A, k, sections.representatives)
        coordinates = [[format_rational(x) for x in cls.coordinates] for cls in classes]
        nonzero = [
            "(" + ", ".join(coords) + ")"
            for cls, coords in zip(classes, coordinates)
            if not cls.is_zero()
        ]
        report["powers"][str(k)] = {
            "invariant_sections": sections.dimension,
            "classes": coordinates,
        }
        lines.append(
            f"k={k}: invariant sections {sections.dimension}, "
            + ("nonzero classes " + "; ".join(nonzero) if nonzero else "image {0}")
        )
    _emit(args, report, lines)
    return 0


def _surjectivity_report(surjective: bool, certificate) -> tuple:
    """The ``surjective`` and ``certificate`` report fields of a
    ``surjectivity_check`` answer, and its text lines.  A certificate's line
    reads e.g. ``fundamental = -1/1 * l2*l3``: each term is a coefficient
    times a product of prime classes l_p."""
    fields = {"surjective": surjective, "certificate": []}
    lines = [f"surjective: {'true' if surjective else 'false'}"]
    for cert in certificate:
        terms = [(list(primes), format_rational(coeff)) for primes, coeff in cert.terms]
        fields["certificate"].append({
            "target": cert.target,
            "degree": cert.degree,
            "terms": [{"primes": primes, "coefficient": coeff} for primes, coeff in terms],
        })
        text = " + ".join(f"{coeff} * l" + "*l".join(map(str, primes)) for primes, coeff in terms)
        lines.append(f"  {cert.target} = {text}")
    return fields, lines


def cmd_char_classes(args) -> int:
    c = resolve_complex_spec(args.complex)
    L = _load_system(args, c)
    query = _ClassQuery(L)
    sign = [bit.value for bit in sign_class(L).coordinates()]
    lines = ["sign class: " + ("bits " + "".join(map(str, sign)) if any(sign) else "zero")]
    logs = {}
    for p, cls in query.logs.items():
        logs[str(p)] = [format_rational(x) for x in cls.coordinates()]
        pairs = ", ".join(
            "{}:{}".format("_".join(str(v) for v in e), format_rational(x))
            for e, x in sorted(cls.values.items())
        )
        lines.append(f"log class p={p}: {pairs}")
    if not logs:
        lines.append("log classes: none")
    dims = {degree: dim for degree, (dim, _) in query.image().items()}
    lines.append("image dims: " + " ".join(f"H{d}={dim}" for d, dim in dims.items()))
    data = {
        "schema_version": SCHEMA_VERSION,
        "generators": [_simplex_key("edge", e) for e in c.tree.non_tree_edges],
        "sign": sign,
        "logs": logs,
        "image_dims": {str(d): dim for d, dim in dims.items()},
    }
    if args.check_surjectivity:
        fields, surjectivity_lines = _surjectivity_report(*query.surjectivity())
        data.update(fields)
        lines += surjectivity_lines
    _emit(args, data, lines)
    return 0


def cmd_pullback(args) -> int:
    """Emit the pulled-back system, reduced to tree gauge, as a
    representation document usable with the source complex."""
    f = map_from_json(load_json(args.map))
    pulled = pullback_system(f, _load_system(args, f.target))
    gauged = from_representation(f.source, holonomy(pulled), rank=pulled.rank)
    data = representation_to_json(gauged)
    lines = [
        f"holonomy {key}: {value if gauged.rank == 1 else 'matrix'}"
        for key, value in sorted(data["entries"].items())
    ]
    _emit(args, data, lines or ["holonomy: trivial"])
    return 0


def cmd_surjectivity(args) -> int:
    c = resolve_complex_spec(args.complex)
    L = _load_system(args, c)
    fields, lines = _surjectivity_report(*surjectivity_check(L))
    _emit(args, {"schema_version": SCHEMA_VERSION, **fields}, lines)
    return 0


def _add_complex_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--complex",
        required=True,
        help="builtin:circleN / builtin:torusRxC or a path to a complex JSON file",
    )


def _add_rep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rep", help="inline rank-1 representation, e.g. a=2,b=3")
    p.add_argument("--rep-file", help="path to a representation JSON file")
    p.add_argument("--rank", type=int, help="fiber rank for inline representations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="flat local systems, twisted cohomology and characteristic classes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a complex, representation, or algebroid bundle")
    p.add_argument("--complex", help="complex to validate")
    p.add_argument("--algebroid", help="path to an algebroid bundle JSON file")
    _add_rep_args(p)
    p.add_argument("--omega", help="'zero', 'fundamental', or a cochain JSON path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="twisted cohomology dimensions")
    _add_complex_arg(p)
    _add_rep_args(p)
    p.add_argument("--degree", type=int, help="single degree (default: all)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("chern-weil", help="Chern-Weil classes of an algebroid")
    _add_complex_arg(p)
    _add_rep_args(p)
    p.add_argument("--omega", default="zero", help="'zero', 'fundamental', or a cochain JSON path")
    p.add_argument("--min-k", type=int, default=0)
    p.add_argument("--max-k", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chern_weil)

    p = sub.add_parser("char-classes", help="sign and log classes of a rank-1 system")
    _add_complex_arg(p)
    _add_rep_args(p)
    p.add_argument("--check-surjectivity", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_char_classes)

    p = sub.add_parser("pullback", help="pull a representation back along a simplicial map")
    p.add_argument("--map", required=True, help="path to a map JSON file")
    _add_rep_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("surjectivity", help="certified surjectivity on the torus model")
    _add_complex_arg(p)
    _add_rep_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_surjectivity)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "validate" and not args.complex and not args.algebroid:
            raise InputError("validate needs --complex or --algebroid")
        return args.func(args)
    except AlgebroidError as exc:
        error = exc
    except MemoryError:
        # reported after the except block has released the failed frames
        error = OutOfMemoryError("ran out of memory; the input is too large")
    payload = error.to_json()
    if _verbose():
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"error [{payload['code']}]: {payload['message']}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
