"""Command-line entry point.

Subcommands load a complex (builtin name, file path, or algebroid bundle),
run one computation, and print either a short text summary or a
deterministic JSON report.  Validation failures and schema problems exit
with status 1 and a structured error on stderr; ALGEBROIDS_VERBOSE=1 adds
diagnostic detail there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algebroid import chern_weil, invariant_sections, make_algebroid
from .char_classes import char_class_report, surjectivity_check
# ``cohomology`` is not called here, but bench/test_oracles.py reaches the
# cohomology module's namespace through ``cli.cohomology``.
from .cohomology import TwistedCochain, cohomology, cohomology_dims, fundamental_cocycle  # noqa: F401
from .complexes import Complex
from .errors import AlgebroidError, DegreeError, InputError, SchemaError
from .jsonio import (
    SCHEMA_VERSION,
    algebroid_from_json,
    cochain_from_json,
    dump_json,
    format_rational,
    load_json,
    map_from_json,
    parse_rational,
    representation_from_json,
    resolve_complex_spec,
)
from .local_systems import LocalSystem, from_representation, holonomy, pullback_system


def _verbose() -> bool:
    return os.environ.get("ALGEBROIDS_VERBOSE", "") not in ("", "0")


def _note(text: str) -> None:
    if _verbose():
        print(text, file=sys.stderr)


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
        images[key.strip()] = parse_rational(value.strip())
    return from_representation(c, images, rank=rank)


def _load_system(args, c: Complex) -> LocalSystem:
    if getattr(args, "rep", None):
        return _parse_inline_rep(c, args.rep, getattr(args, "rank", None))
    if getattr(args, "rep_file", None):
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


def cmd_validate(args) -> int:
    if args.algebroid:
        data = load_json(args.algebroid)
        A = algebroid_from_json(data)
        counts = A.base.counts()
        _note(f"tree gauge: {len(A.base.edges)} edges")
        _emit(
            args,
            {
                "schema_version": SCHEMA_VERSION,
                "ok": True,
                "counts": list(counts),
                "rank": A.adjoint.rank,
                "flat": True,
                "omega_closed": True,
            },
            [
                "complex ok: " + _counts_text(counts),
                f"adjoint ok: rank {A.adjoint.rank}, flat",
                "omega ok: closed",
            ],
        )
        return 0
    c = resolve_complex_spec(args.complex)
    counts = c.counts()
    report = {"schema_version": SCHEMA_VERSION, "ok": True, "counts": list(counts)}
    lines = ["complex ok: " + _counts_text(counts)]
    if args.rep or args.rep_file:
        L = _load_system(args, c)
        report["rank"] = L.rank
        report["flat"] = True
        lines.append(f"representation ok: rank {L.rank}, flat")
        if args.omega:
            omega = _load_omega(args, L)
            make_algebroid(L, omega)
            report["omega_closed"] = True
            lines.append("omega ok: closed")
    _emit(args, report, lines)
    return 0


def cmd_cohomology(args) -> int:
    c = resolve_complex_spec(args.complex)
    L = _load_system(args, c)
    if args.degree is None:
        degrees = list(range(c.dimension + 1))
    elif args.degree < 0:
        raise DegreeError("cohomology degree must be nonnegative")
    else:
        degrees = [args.degree]
    all_dims = cohomology_dims(L, up_to=degrees[-1])
    dims = {n: all_dims[n] for n in degrees}
    for n, d in dims.items():
        _note(f"H^{n}: dimension {d}")
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
    c = resolve_complex_spec(args.complex)
    L = _load_system(args, c)
    omega = _load_omega(args, L)
    A = make_algebroid(L, omega)
    report = {"schema_version": SCHEMA_VERSION, "powers": {}}
    lines = []
    for k in range(args.min_k, args.max_k + 1):
        sections = invariant_sections(A, k)
        classes = [chern_weil(A, phi, k) for phi in sections.basis]
        nonzero = [cls for cls in classes if not cls.is_zero()]
        report["powers"][str(k)] = {
            "invariant_sections": sections.dimension,
            "classes": [
                [format_rational(x) for x in cls.coordinates] for cls in classes
            ],
        }
        lines.append(
            f"k={k}: invariant sections {sections.dimension}, "
            + (
                "image {0}"
                if not nonzero
                else "nonzero classes "
                + "; ".join(
                    "(" + ", ".join(format_rational(x) for x in cls.coordinates) + ")"
                    for cls in nonzero
                )
            )
        )
    _emit(args, report, lines)
    return 0


def cmd_char_classes(args) -> int:
    c = resolve_complex_spec(args.complex)
    L = _load_system(args, c)
    report = char_class_report(L, check_surjectivity=args.check_surjectivity)
    data = report.to_json()
    lines = []
    sign_bits = data["sign"]
    lines.append(
        "sign class: "
        + ("zero" if not any(sign_bits) else "bits " + "".join(str(b) for b in sign_bits))
    )
    if report.logs:
        for p in sorted(report.logs):
            pairs = ", ".join(
                "{}:{}".format("_".join(str(v) for v in e), format_rational(x))
                for e, x in sorted(report.logs[p].values.items())
            )
            lines.append(f"log class p={p}: {pairs}")
    else:
        lines.append("log classes: none")
    lines.append(
        "image dims: "
        + " ".join(f"H{d}={report.image_dims[d]}" for d in sorted(report.image_dims))
    )
    if report.surjective is not None:
        lines.append(f"surjective: {'true' if report.surjective else 'false'}")
        for cert in report.certificate or []:
            terms = " + ".join(
                "{} * l{}".format(format_rational(coeff), "*l".join(str(p) for p in primes))
                for primes, coeff in cert.terms
            )
            lines.append(f"  {cert.target} = {terms}")
    _emit(args, data, lines)
    return 0


def cmd_pullback(args) -> int:
    """Emit the pulled-back system, reduced to tree gauge, as a
    representation document usable with the source complex."""
    f = map_from_json(load_json(args.map))
    L = _load_system(args, f.target)
    pulled = pullback_system(f, L)
    hol = holonomy(pulled)
    entries = {
        "edge_{}_{}".format(*e): (
            format_rational(m.entries[0][0])
            if pulled.rank == 1
            else [[format_rational(x) for x in row] for row in m.entries]
        )
        for e, m in sorted(hol.generator_images.items())
        if not m.is_identity()
    }
    data = {"schema_version": SCHEMA_VERSION, "rank": pulled.rank, "entries": entries}
    lines = [f"holonomy {key}: {value}" for key, value in sorted(entries.items())
             if pulled.rank == 1] or ["holonomy: trivial"]
    if pulled.rank > 1:
        lines = [f"holonomy {key}: matrix" for key in sorted(entries)] or ["holonomy: trivial"]
    _emit(args, data, lines)
    return 0


def cmd_surjectivity(args) -> int:
    c = resolve_complex_spec(args.complex)
    L = _load_system(args, c)
    surjective, certificate = surjectivity_check(L)
    data = {
        "schema_version": SCHEMA_VERSION,
        "surjective": surjective,
        "certificate": [
            {
                "target": cert.target,
                "degree": cert.degree,
                "terms": [
                    {"primes": list(primes), "coefficient": format_rational(coeff)}
                    for primes, coeff in cert.terms
                ],
            }
            for cert in certificate
        ],
    }
    lines = [f"surjective: {'true' if surjective else 'false'}"]
    for cert in certificate:
        terms = " + ".join(
            "{} * l{}".format(format_rational(coeff), "*l".join(str(p) for p in primes))
            for primes, coeff in cert.terms
        )
        lines.append(f"  {cert.target} = {terms}")
    _emit(args, data, lines)
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
        payload = exc.to_json()
        if _verbose():
            print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        else:
            print(f"error [{payload['code']}]: {payload['message']}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
