"""Command line interface.

Subcommands: construct, verify, decompose, search, table.  Exit codes:
0 success, 1 verification failure, 2 usage or format error.  Each
command verifies what it writes once: construct through construct's own
check, decompose and table through check_d_graceful, whose pass
base_blocks then reuses; all read the alpha certificate a labeling
keeps (Labeling.alpha_cert).  verify is the independent re-check of a
labeling from its file; it and decompose refuse a stated alpha block
other than the labeling's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .certificates import (CertificateError, decomposition_to_obj, dot_export,
                           graph_from_obj, labeling_to_obj, read_json,
                           read_labeling, write_json, write_labeling)
from .checking import InvalidParametersError, check_d_graceful
from .constructions import FAMILIES, ConstructionError, construct
from .decomp import (MultipartiteSpec, base_blocks, check_difference_classes,
                     proposition_table, verify_decomposition)
from .grids import GridGraph, build_grid
from .oracle import SearchConfig, search

# Largest host graph that construct, decompose and table take on, in
# vertices v = 2dn(q+1) of K_{(q+1) x 2dn} (n = 1 for construct).  It
# bounds every array they build: a labeling's labels and edges, and n
# base blocks' labels, edges and difference classes, each stay below v.
# At the limit construct peaks near 220 MiB and decompose near 400 MiB;
# the inputs the benchmark and the tests use stay below v = 70000.
MAX_V = 4_000_000

# Largest v that `decompose --full-check` accepts and that table checks
# exhaustively.  verify_decomposition builds its translates from the base
# blocks a chunk at a time, so its one v x v int64 count matrix (8 bytes
# per v^2) is nearly all it holds: a process peaks at about 31 MiB plus
# 8.0 bytes per v^2, 100 MiB measured at v = 3006, 222 at 4998, 404 at
# 6990 and 500 at 7830 (m = 2, n = 1), and 495 at v = 7794 (m = 2, n = 3)
# and 501 at 7848 (m = 5, n = 2).  So 7800 keeps one check under about
# 500 MiB.  Above it the difference-class check, O(n*e), is the
# certificate to use.
DECOMPOSE_FULL_CHECK_MAX_V = 7800


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _too_large(v: int) -> int:
    return _fail(2, f"too large: the host graph would have v = {v} vertices, above the "
                    f"limit of {MAX_V}")


def _parse_grid_arg(text: str) -> GridGraph:
    try:
        k_str, m_str = text.split(",")
        return build_grid(int(k_str), int(m_str))
    except ValueError as exc:
        raise InvalidParametersError(f"bad --grid value {text!r}: {exc}") from exc


def cmd_construct(args) -> int:
    family = FAMILIES[args.family]
    d = family.divisor(args.m)
    try:
        e = build_grid(args.k, args.m).num_edges
    except ValueError as exc:
        return _fail(2, f"invalid parameters: {exc}")
    v = MultipartiteSpec.host(e, d, 1).v
    if v > MAX_V:
        return _too_large(v)
    try:
        labeling = construct(args.k, args.m, family)
    except ConstructionError as exc:
        return _fail(1, f"construction failed verification: {exc}")
    # construct has verified the labeling and kept its alpha certificate
    alpha = labeling.alpha_cert
    try:
        write_labeling(args.out, labeling, d, alpha)
    except OSError as exc:
        return _fail(2, f"cannot write certificate: {exc}")
    print(f"wrote {args.out}: C_{{{4 * args.k}}}xP_{args.m}, d={d}, "
          f"labels in [0,{d * (e // d + 1) - 1}]")
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot_export(labeling))
        except OSError as exc:
            return _fail(2, f"cannot write DOT file: {exc}")
        print(f"wrote {args.dot}")
    return 0


def cmd_verify(args) -> int:
    try:
        labeling, d, alpha = read_labeling(args.certificate)
    except (OSError, CertificateError) as exc:
        return _fail(2, f"cannot read certificate: {exc}")
    g = labeling.graph
    try:
        report = check_d_graceful(labeling, d)
    except InvalidParametersError as exc:
        return _fail(2, f"invalid parameters: {exc}")
    e = g.num_edges
    print(f"graph: {g.num_vertices} vertices, {e} edges; d={d}, q={e // d}")
    if not report:
        print(f"INVALID ({report.describe()})")
        return 1
    print("labeling: valid")
    if args.alpha or alpha is not None:
        own = labeling.alpha_cert
        if own is None:
            print("INVALID (alpha-boundary-violation)")
            return 1
        if alpha is not None and alpha != own:
            print(f"INVALID (alpha-block-mismatch: stated boundary {alpha.boundary})")
            return 1
        print(f"alpha: valid, boundary {own.boundary}")
    return 0


def cmd_decompose(args) -> int:
    if args.n < 1:
        return _fail(2, f"--n must be >= 1, got {args.n}")
    try:
        labeling, d, alpha = read_labeling(args.infile)
    except (OSError, CertificateError) as exc:
        return _fail(2, f"cannot read certificate: {exc}")
    g = labeling.graph
    try:
        report = check_d_graceful(labeling, d)
    except InvalidParametersError as exc:
        return _fail(2, f"invalid parameters: {exc}")
    if not report:
        return _fail(1, f"labeling does not verify: {report.describe()}")
    v = MultipartiteSpec.host(g.num_edges, d, args.n).v
    if v > MAX_V:
        return _too_large(v)
    if alpha is not None and alpha != labeling.alpha_cert:
        return _fail(1, f"stated alpha block does not verify (alpha-block-mismatch: "
                        f"stated boundary {alpha.boundary})")
    if args.n > 1 and labeling.alpha_cert is None:
        return _fail(1, "alpha condition fails, cannot decompose with n > 1")
    dec = base_blocks(labeling, d, args.n)
    if args.full_check:
        if dec.spec.v > DECOMPOSE_FULL_CHECK_MAX_V:
            return _fail(2, f"--full-check is limited to v <= {DECOMPOSE_FULL_CHECK_MAX_V}"
                            f" (here v = {dec.spec.v}); drop --full-check to verify by"
                            " difference classes")
        result = verify_decomposition(dec)
    else:
        result = check_difference_classes(dec)
    if not result:
        return _fail(1, f"decomposition does not verify: {result.describe()}")
    if args.full_check:
        edges = dec.spec.edge_count
        print(f"{dec.spec.describe()}: {edges}/{edges} edges covered exactly once")
    else:
        print(f"{dec.spec.describe()}: {dec.n * g.num_edges} difference classes verified")
    try:
        write_json(args.out, decomposition_to_obj(dec))
    except OSError as exc:
        return _fail(2, f"cannot write decomposition: {exc}")
    print(f"wrote {args.out}")
    return 0


def cmd_search(args) -> int:
    if args.limit < 0:
        return _fail(2, f"--limit must be >= 0, got {args.limit}")
    if args.grid is not None:
        try:
            g = _parse_grid_arg(args.grid)
        except InvalidParametersError as exc:
            return _fail(2, str(exc))
    else:
        try:
            g = graph_from_obj(read_json(args.graph))
        except (OSError, CertificateError) as exc:
            return _fail(2, f"cannot read graph: {exc}")
    cfg = SearchConfig(d=args.d, alpha_only=args.alpha, max_results=args.limit)
    if args.count:
        cfg = dataclasses.replace(cfg, store_limit=0)
    try:
        result = search(g, cfg)
    except InvalidParametersError as exc:
        return _fail(2, str(exc))
    if args.count:
        print(result.count)
        return 0
    for labeling in result.labelings:
        alpha = labeling.alpha_cert if args.alpha else None
        print(json.dumps(labeling_to_obj(labeling, args.d, alpha),
                         separators=(",", ":")))
    if result.count > len(result.labelings):
        print(f"listed {len(result.labelings)} of {result.count} labelings; use "
              "--limit N to list the first N or --count to count them all",
              file=sys.stderr)
    return 0


def cmd_table(args) -> int:
    if args.kmax < 1 or args.mmax < 2 or args.n < 1:
        return _fail(2, "need --kmax >= 1, --mmax >= 2, --n >= 1")
    v = max(target.spec.v for target in proposition_table(args.kmax, args.mmax, args.n))
    if v > MAX_V:
        return _too_large(v)
    any_failed = False
    for k in range(1, args.kmax + 1):
        for m in range(2, args.mmax + 1):
            cells = []
            for target in proposition_table(k, m, args.n):
                try:
                    labeling = construct(k, m, target.family)
                    dec = base_blocks(labeling, target.d, args.n)
                    if dec.spec.v <= DECOMPOSE_FULL_CHECK_MAX_V:
                        status = "verified" if verify_decomposition(dec) else "FAILED"
                    else:
                        status = "verified (classes)" if check_difference_classes(dec) \
                            else "FAILED"
                except (ValueError, ConstructionError) as exc:
                    status = f"FAILED ({exc})"
                if status.startswith("FAILED"):
                    any_failed = True
                cells.append(f"{target.spec.describe()}: {status}")
            print(f"k={k} m={m}  " + "  ".join(cells))
    return 1 if any_failed else 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then reused for the process.

    It holds no command functions: main looks cmd_<command> up by name
    on every call, so rebinding one after the parser exists still takes
    effect.
    """
    parser = argparse.ArgumentParser(
        prog="divgrace",
        description="Divisible graceful labelings of cylinder grids and the "
                    "cyclic multipartite decompositions they generate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and write a verified labeling")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot", help="also write a DOT rendering here")

    p = sub.add_parser("verify", help="verify a labeling certificate")
    p.add_argument("certificate")
    p.add_argument("--alpha", action="store_true",
                   help="also require the alpha boundary condition")

    p = sub.add_parser("decompose", help="derive base blocks from a labeling")
    p.add_argument("--in", required=True, dest="infile", metavar="CERT")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--full-check", action="store_true",
                   help="verify by full development instead of difference classes")
    p.add_argument("--out", required=True)

    p = sub.add_parser("search", help="exhaustive labeling search")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="path to a JSON graph descriptor")
    src.add_argument("--grid", help="k,m for a cylinder grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--count", action="store_true",
                   help="print only the number of labelings")

    p = sub.add_parser("table", help="verify decomposition targets over a range")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
