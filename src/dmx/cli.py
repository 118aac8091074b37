"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from . import verify
from .core import DeltaMatroid, Mask, SetSystem, certify_delta_matroid
from .formats import (
    MATROID_KIND,
    DmFile,
    dump_dm,
    dump_rg,
    parse_dm,
    parse_gf2,
    parse_rg,
)
from .gf2 import (
    BINARY_MAX_N,
    BinaryCertificate,
    Gf2SymmetricMatrix,
    delta_matroid_from_symmetric,
)
from .matroid import certify_matroid, classify_delta
from .ribbon import RibbonGraph


class CliError(Exception):
    """A user-facing error reported on stderr with exit code 2."""


def _default_seed() -> int:
    raw = os.environ.get("DMX_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise CliError("DMX_SEED must be an integer, got %r" % raw) from None


def _on_file(path: str, fn, *args):
    """fn(*args), with a failure reported as an error naming the file: an
    OSError, or a ValueError (a file that is not UTF-8, a ParseError or a
    failed validation)."""
    try:
        return fn(*args)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc.strerror or exc)) from None
    except ValueError as exc:
        raise CliError("%s: %s" % (path, exc)) from None


# the parser of each file kind; every command names the suffixes it reads.
# A parser's name is looked up per call, so a wrapper installed on it (as
# perfbench/tracer.py installs one) sees every parse.
PARSERS = {
    ".dm": lambda text: parse_dm(text),
    ".gf2": lambda text: parse_gf2(text),
    ".rg": lambda text: parse_rg(text),
}


def _read(path: str, *suffixes: str):
    """Read a UTF-8 file and parse it by its suffix, one of ``suffixes``."""
    suffix = Path(path).suffix
    if suffix not in suffixes:
        *rest, last = suffixes
        expected = "%s or %s" % (", ".join(rest), last) if rest else last
        raise CliError("%s: unknown file extension %r (expected %s)" % (path, suffix, expected))
    return _on_file(path, lambda: PARSERS[suffix](Path(path).read_text(encoding="utf-8")))


def _check_classify_size(path: str, n: int) -> None:
    if n > BINARY_MAX_N:
        raise CliError(
            "%s: classification is limited to ground size %d, got %d" % (path, BINARY_MAX_N, n)
        )


# Loop complementation by A yields at most min(|F|*2^|A|, 2^n) sets, each
# step toggling up to that many; op lc refuses a larger bound up front.
LC_MAX_SETS = 1 << 16


def _check_lc_size(path: str, d: DeltaMatroid, a: Mask) -> None:
    bound = min(len(d.family) << a.bit_count(), 1 << len(d.ground.labels))
    if bound > LC_MAX_SETS:
        raise CliError(
            "%s: loop complementation is limited to min(|F|*2^|A|, 2^n) <= %d sets, got %d"
            % (path, LC_MAX_SETS, bound)
        )


# With no vertex disc the quasi-tree family is empty, so a parsed .rg file
# without one is no ribbon graph.
NO_VERTEX_REASON = "no vertex disc (no vertex: line), so no spanning subgraph has a boundary"


def _valid(parsed) -> tuple[object, Optional[BinaryCertificate]]:
    """The object of a parsed file and its binarity certificate (None where
    none is computed), or a ValueError naming why the file is invalid: the
    one validity rule, which check reports and every other command enforces."""
    if isinstance(parsed, DmFile):
        if parsed.kind == MATROID_KIND:
            return certify_matroid(parsed.system)
        return certify_delta_matroid(parsed.system)
    if isinstance(parsed, RibbonGraph) and not parsed.vertices:
        raise ValueError(NO_VERTEX_REASON)
    return parsed, None


def _parse_set(labels: Sequence[str], spec: str, kind: str) -> Mask:
    """Comma-separated labels to a mask over ``labels``; "" is the empty set."""
    mask = 0
    for lab in spec.split(",") if spec else ():
        lab = lab.strip()
        if lab not in labels:
            raise CliError("--set: unknown %s label %r" % (kind, lab))
        mask |= 1 << labels.index(lab)
    return mask


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    parsed = _read(args.file, ".dm", ".gf2", ".rg")
    if isinstance(parsed, DmFile):
        print("kind: %s" % parsed.kind)
        print("ground: %s" % " ".join(parsed.system.ground.labels))
        print("feasible-sets: %d" % len(parsed.system.family))
    elif isinstance(parsed, RibbonGraph):
        print("kind: ribbon")
        print("vertices: %d" % len(parsed.vertices))
        print("edges: %d" % len(parsed.edges))
    elif isinstance(parsed, Gf2SymmetricMatrix):
        print("kind: gf2sym")
        print("order: %d" % parsed.order)
    else:
        print("kind: gf2")
        print("shape: %d %d" % (len(parsed.rows), parsed.cols))
    try:
        _valid(parsed)
    except ValueError as exc:
        print("valid: no")
        print("reason: %s" % exc)
    else:
        print("valid: yes")
    return 0


def cmd_op(args) -> int:
    d = _on_file(args.file, _valid, _read(args.file, ".dm"))[0]
    if args.operation == "dual":
        if args.set is not None:
            raise CliError("dual takes no --set argument")
        result: SetSystem = d.dual()
    else:
        a = _parse_set(d.ground.labels, args.set or "", "ground")
        if args.operation == "twist":
            result = d.twist(a)
        elif args.operation == "lc":
            _check_lc_size(args.file, d, a)
            result = d.loop_complement(a)
        elif args.operation == "delete":
            result = d.minor(delete=a)
        elif args.operation == "contract":
            result = d.minor(contract=a)
        else:  # pragma: no cover - argparse restricts choices
            raise CliError("unknown operation %r" % args.operation)
    print(dump_dm(result), end="")
    return 0


def _classify_lines(d: DeltaMatroid, cert: BinaryCertificate) -> list[str]:
    lines = ["even: %s" % ("yes" if d.parity() == "even" else "no")]
    if cert.verdict:
        lines.append("binary: yes")
        lines.append("binary-twist: %s" % d.render_set(cert.twist_set))
        rows = cert.matrix.rows
        n = cert.matrix.order
        lines.append(
            "binary-matrix: %s"
            % "|".join("".join(str((row >> j) & 1) for j in range(n)) for row in rows)
        )
    else:
        lines.append("binary: no")
    report = classify_delta(d)
    if report.bipartite:
        lines.append("bipartite: yes")
    else:
        lines.append("bipartite: no")
        lines.append("odd-circuit: %s" % d.render_set(report.odd_circuit_witness))
    if report.eulerian:
        lines.append("eulerian: yes")
        lines.append(
            "eulerian-partition: %s"
            % (" ".join(d.render_set(c) for c in report.eulerian_partition) or "-")
        )
    else:
        lines.append("eulerian: no")
    return lines


def cmd_classify(args) -> int:
    path = args.file
    parsed = _read(path, ".dm", ".gf2")
    if isinstance(parsed, DmFile):
        _check_classify_size(path, parsed.system.ground.size)
        d, cert = _on_file(path, _valid, parsed)
    elif isinstance(parsed, Gf2SymmetricMatrix):
        _check_classify_size(path, parsed.order)
        # D(A) holds the empty set, so A is its own certificate
        d = delta_matroid_from_symmetric(parsed)
        cert = BinaryCertificate(True, 0, parsed, None)
    else:
        raise CliError("%s: classification needs a symmetric (gf2sym) matrix" % path)
    for line in _classify_lines(d, cert):
        print(line)
    return 0


def cmd_enumerate(args) -> int:
    try:
        info = verify.enumerate_delta_matroids(args.n, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    for key, value in info.items():
        print("%s: %s" % (key, value))
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 0:
        raise CliError("--max-n must be at least 0, got %d" % args.max_n)
    if args.shards < 1:
        raise CliError("--shards must be at least 1, got %d" % args.shards)
    try:
        reports = verify.run_suite(
            [args.suite], max_n=args.max_n, seed=args.seed, shards=args.shards
        )
    except KeyError:
        raise CliError(
            "unknown suite %r (available: all, %s)" % (args.suite, ", ".join(verify.SUITE))
        ) from None
    if args.format == "records":
        for r in reports:
            print(verify.render_record(r))
    else:
        print("\n".join(verify.render_text(r) for r in reports), end="")
    return 0 if all(r.verdict for r in reports) else 1


def cmd_ribbon(args) -> int:
    if args.set is not None and args.action != "petrial":
        raise CliError("ribbon %s takes no --set argument" % args.action)
    graph = _on_file(args.file, _valid, _read(args.file, ".rg"))[0]
    if args.action == "classify":
        print("connected: %s" % ("yes" if graph.is_connected() else "no"))
        print("orientable: %s" % ("yes" if graph.is_orientable() else "no"))
        print("bipartite: %s" % ("yes" if graph.underlying_bipartite() else "no"))
        print("even-degrees: %s" % ("yes" if graph.underlying_eulerian() else "no"))
        print("boundary-components: %d" % graph.boundary_components())
        return 0
    if args.action == "petrial":
        # without --set the Petrial twists every edge
        mask = None if args.set is None else _parse_set(graph.edge_labels, args.set, "edge")
        print(dump_rg(graph.petrial(mask)), end="")
        return 0
    if args.action == "to-dm":
        print(dump_dm(_on_file(args.file, graph.delta_matroid)), end="")
        return 0
    raise CliError("unknown ribbon action %r" % args.action)  # pragma: no cover


# ---------------------------------------------------------------------------
# parser / entry points
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmx",
        description="Delta-matroid operation calculus, classification and verification.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="parse a file and report its validity")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("op", help="apply an operation to a delta-matroid file")
    p.add_argument("operation", choices=("twist", "lc", "dual", "delete", "contract"))
    p.add_argument("--set", default=None, help="comma-separated ground labels")
    p.add_argument("file")
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("classify", help="even/binary/bipartite/eulerian classification")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="count delta-matroids and their properties")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-n", type=int, default=3, dest="max_n")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ribbon", help="ribbon graph operations")
    p.add_argument("action", choices=("classify", "petrial", "to-dm"))
    p.add_argument("--set", default=None, help="comma-separated edge labels (petrial only)")
    p.add_argument("file")
    p.set_defaults(func=cmd_ribbon)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "seed", None) is None and args.func in (cmd_enumerate, cmd_verify):
            args.seed = _default_seed()
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def console() -> None:
    sys.exit(main())
