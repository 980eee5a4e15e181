"""Command line interface.

Commands operate on a JSON map document (see the io module) and print a
human table by default or JSON with --format json.  Exit status: 0 on
success or a passing check, 1 when a verification or convergence check
fails, 2 on malformed input, a ``build`` over its size limit or, for the
commands that build the map's tower, a map that is not finite-to-one and
surjective.
"""

from __future__ import annotations

import argparse
import io
import sys

from .complexes import homology_groups
from .errors import ComplexMismatch, IcssError, InvalidMultiplicity, ParseError
from .fixtures import fixture_names, get_fixture
from .io import (
    document_from_map,
    emit_map,
    emit_report,
    group_json,
    parse_map,
)
from .multiplicity import Tower
from .spectral import gvzss_report, icss_report
from .verify import run_all


def _load_map(path: str):
    """The map of the document at ``path``; "-" reads standard input.  The
    bytes are decoded as strict UTF-8, with universal newlines."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from None
    return parse_map(io.StringIO(text, newline=None).read()).to_simplicial_map()


def _load_valid_map(path: str):
    """The map of the document at ``path``, refused unless it is a finite
    surjective simplicial map, which every command building its tower needs."""
    f = _load_map(path)
    if not f.valid:
        raise ComplexMismatch("map must be simplicial, finite-to-one and surjective")
    return f


def cmd_validate(args) -> int:
    f = _load_map(args.file)
    rep = f.report
    payload = {
        "simplicial": rep.simplicial,
        "finite_to_one": rep.finite_to_one,
        "surjective": rep.surjective,
        "valid": rep.valid,
        "failures": [list(map(str, item)) for item in rep.failures[:20]],
    }
    sys.stdout.write(emit_report(payload, args.format))
    return 0 if rep.valid else 1


# the most simplices ``build`` makes over all the levels it builds; fold's
# W^1..W^14 have 65,546
MAX_BUILD_SIMPLICES = 100_000


def cmd_build(args) -> int:
    tower = Tower(_load_valid_map(args.file))
    # D^k is empty past the largest lift count, so one empty level stands for all
    top = args.k if args.kind == "W" else min(args.k, tower.k_max() + 1)
    # building a level builds those below it, and sum_delta N_delta^j
    # simplices make W^j, which contains D^j
    counts, total = tower.lifts.counts.values(), 0
    for j in range(1, top + 1):
        total += sum(N**j for N in counts)
        if total > MAX_BUILD_SIMPLICES:
            raise InvalidMultiplicity(
                f"{args.kind}^1..{args.kind}^{top} would have more than "
                f"{MAX_BUILD_SIMPLICES} simplices"
            )
    Z = tower.W(top) if args.kind == "W" else tower.D(top)
    payload = {
        "kind": args.kind,
        "k": args.k,
        "dim": Z.dim,
        "simplex_counts": [Z.n_simplices(d) for d in range(Z.dim + 1)],
        "vertices": [
            f"({Z.complex.labels[v_id]})"
            if Z.k == 1
            else "(" + ",".join(str(x) for x in Z.vertex_tuples[v_id]) + ")"
            for v_id in range(Z.complex.n_vertices)
        ],
    }
    sys.stdout.write(emit_report(payload, args.format))
    return 0


def cmd_homology(args) -> int:
    f = _load_map(args.file)
    payload = {
        side: {f"H_{n}": group_json(g) for n, g in enumerate(homology_groups(K))}
        for side, K in (("x", f.source), ("y", f.target))
    }
    sys.stdout.write(emit_report(payload, args.format))
    return 0


def _spectral_payload(report) -> dict:
    pages = []
    for (r, p, q), g in report.pages:
        pages.append({"r": r, "p": p, "q": q, **group_json(g)})
    degrees = []
    for d in report.degree_reports:
        degrees.append(
            {
                "n": d.n,
                "total_homology": group_json(d.total_homology),
                "target_homology": group_json(d.target_homology),
                "graded": [
                    {"p": cell[0], "q": cell[1], **group_json(g)}
                    for cell, g in d.graded
                ],
                "converged": d.converged,
            }
        )
    return {
        "kind": report.kind,
        "pages": pages,
        "degrees": degrees,
        "page_one_cross_checked": report.page_one_cross_checked,
        "converged": report.converged,
    }


def cmd_icss(args) -> int:
    f = _load_valid_map(args.file)
    report = icss_report(f)
    sys.stdout.write(emit_report(_spectral_payload(report), args.format))
    return 0 if report.converged else 1


def cmd_gvzss(args) -> int:
    f = _load_valid_map(args.file)
    report = gvzss_report(f)
    sys.stdout.write(emit_report(_spectral_payload(report), args.format))
    return 0 if report.converged else 1


def cmd_verify(args) -> int:
    f = _load_valid_map(args.file)
    reports = run_all(f)
    payload = {
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "details": [list(map(str, d)) for d in r.details[:5]],
            }
            for r in reports
        ],
        "passed": all(r.passed for r in reports),
    }
    sys.stdout.write(emit_report(payload, args.format))
    return 0 if payload["passed"] else 1


def cmd_fixtures(args) -> int:
    if not args.name:
        sys.stdout.write(
            emit_report({"fixtures": fixture_names()}, args.format)
        )
        return 0
    f = get_fixture(args.name, seed=args.seed)
    doc = document_from_map(f, metadata={"fixture": args.name})
    sys.stdout.write(emit_map(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icss",
        description="Multiple-point spaces and spectral sequences of "
        "finite simplicial maps over the integers.",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="check a map document")
    p.add_argument("file")

    p = add("build", cmd_build, help="build a multiple-point space")
    p.add_argument("file")
    p.add_argument("--kind", choices=("W", "D"), default="D")
    p.add_argument("--k", type=int, default=2)

    p = add("homology", cmd_homology, help="integral homology of source and target")
    p.add_argument("file")

    p = add("icss", cmd_icss, help="image-computing spectral sequence report")
    p.add_argument("file")

    p = add("gvzss", cmd_gvzss, help="fibre-product spectral sequence report")
    p.add_argument("file")

    p = add("verify", cmd_verify, help="run every structural check")
    p.add_argument("file")

    p = add("fixtures", cmd_fixtures, help="emit a built-in example document")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (IcssError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
