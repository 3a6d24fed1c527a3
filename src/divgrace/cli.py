"""Command line interface.

Subcommands: construct, verify, decompose, search, table.  Exit codes:
0 success, 1 verification failure, 2 usage or format error.  A failing
command raises _Exit; main prints its message, if any, as one stderr line
and returns its code, and what the command already printed stays.  Each
command verifies what it writes once: construct through construct's own
check, decompose and table through check_d_graceful, whose pass
base_blocks then reuses; all read the alpha boundary a labeling keeps
(Labeling.alpha_boundary), and construct and search --alpha write the
block it gives.  verify is the independent re-check of a labeling from
its file; it and decompose refuse a stated alpha block other than the
labeling's own (_is_own_block).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys

import numpy as np

from .certificates import (CertificateError, decomposition_to_obj, dot_export,
                           graph_from_obj, labeling_to_obj, read_json,
                           read_labeling, write_json, write_labeling)
from .checking import InvalidParametersError, check_d_graceful
from .constructions import FAMILIES, ConstructionError, construct
from .decomp import (MAX_V, MultipartiteSpec, base_blocks, check_difference_classes,
                     proposition_table, verify_decomposition)
from .grids import build_grid
from .oracle import SearchConfig, search

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


class _Exit(Exception):
    """A failed command: main prints message, unless it is empty, and returns code."""

    def __init__(self, code: int, message: str = "") -> None:
        self.code = code
        self.message = message


def _check_host_size(v: int) -> None:
    """Refuse a host graph of more than MAX_V vertices, before anything is built."""
    if v > MAX_V:
        raise _Exit(2, f"too large: the host graph would have v = {v} vertices, above "
                       f"the limit of {MAX_V}")


@contextlib.contextmanager
def _writing(what: str):
    """Turn an OSError of the writes in the block into exit 2.  The block calls
    the writers by name, so a rebinding of one (the benchmark's tracer) sees it."""
    try:
        yield
    except OSError as exc:
        raise _Exit(2, f"cannot write {what}: {exc}")


def _read_checked(path: str):
    """The labeling, d and stated alpha block of the certificate at path, and
    check_d_graceful's report; exit 2 if it cannot be read or d does not divide e."""
    try:
        labeling, d, alpha = read_labeling(path)
    except (OSError, CertificateError) as exc:
        raise _Exit(2, f"cannot read certificate: {exc}")
    try:
        report = check_d_graceful(labeling, d)
    except InvalidParametersError as exc:
        raise _Exit(2, f"invalid parameters: {exc}")
    return labeling, d, alpha, report


def _is_own_block(labeling, alpha) -> bool:
    """Whether a stated alpha block, (lambda, sorted low class), is the
    labeling's own: its boundary and the vertices labelled at or below it."""
    boundary, low_class = alpha
    own = labeling.alpha_boundary
    return (own is not None and boundary == own
            and np.array_equal(low_class, np.flatnonzero(labeling.array <= own)))


def cmd_construct(args) -> None:
    family = FAMILIES[args.family]
    d = family.divisor(args.m)
    try:
        e = build_grid(args.k, args.m).num_edges
    except ValueError as exc:
        raise _Exit(2, f"invalid parameters: {exc}")
    _check_host_size(MultipartiteSpec.host(e, d, 1).v)
    try:
        labeling = construct(args.k, args.m, family)
    except ConstructionError as exc:
        raise _Exit(1, f"construction failed verification: {exc}")
    # construct has verified the labeling and kept its alpha boundary
    with _writing("certificate"):
        write_labeling(args.out, labeling, d, alpha=True)
    print(f"wrote {args.out}: C_{{{4 * args.k}}}xP_{args.m}, d={d}, "
          f"labels in [0,{d * (e // d + 1) - 1}]")
    if args.dot:
        with _writing("DOT file"), open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_export(labeling))
        print(f"wrote {args.dot}")


def cmd_verify(args) -> None:
    labeling, d, alpha, report = _read_checked(args.certificate)
    g = labeling.graph
    e = g.num_edges
    print(f"graph: {g.num_vertices} vertices, {e} edges; d={d}, q={e // d}")
    if not report:
        print(f"INVALID ({report.describe()})")
        raise _Exit(1)
    print("labeling: valid")
    if args.alpha or alpha is not None:
        own = labeling.alpha_boundary
        if own is None:
            print("INVALID (alpha-boundary-violation)")
            raise _Exit(1)
        if alpha is not None and not _is_own_block(labeling, alpha):
            print(f"INVALID (alpha-block-mismatch: stated boundary {alpha[0]})")
            raise _Exit(1)
        print(f"alpha: valid, boundary {own}")


def cmd_decompose(args) -> None:
    if args.n < 1:
        raise _Exit(2, f"--n must be >= 1, got {args.n}")
    labeling, d, alpha, report = _read_checked(args.infile)
    if not report:
        raise _Exit(1, f"labeling does not verify: {report.describe()}")
    g = labeling.graph
    _check_host_size(MultipartiteSpec.host(g.num_edges, d, args.n).v)
    if alpha is not None and not _is_own_block(labeling, alpha):
        raise _Exit(1, f"stated alpha block does not verify (alpha-block-mismatch: "
                       f"stated boundary {alpha[0]})")
    if args.n > 1 and labeling.alpha_boundary is None:
        raise _Exit(1, "alpha condition fails, cannot decompose with n > 1")
    dec = base_blocks(labeling, d, args.n)
    if args.full_check:
        if dec.spec.v > DECOMPOSE_FULL_CHECK_MAX_V:
            raise _Exit(2, f"--full-check is limited to v <= {DECOMPOSE_FULL_CHECK_MAX_V}"
                           f" (here v = {dec.spec.v}); drop --full-check to verify by"
                           " difference classes")
        result = verify_decomposition(dec)
    else:
        result = check_difference_classes(dec)
    if not result:
        raise _Exit(1, f"decomposition does not verify: {result.describe()}")
    if args.full_check:
        edges = dec.spec.edge_count
        print(f"{dec.spec.describe()}: {edges}/{edges} edges covered exactly once")
    else:
        print(f"{dec.spec.describe()}: {dec.n * g.num_edges} difference classes verified")
    with _writing("decomposition"):
        write_json(args.out, decomposition_to_obj(dec))
    print(f"wrote {args.out}")


def cmd_search(args) -> None:
    if args.limit < 0:
        raise _Exit(2, f"--limit must be >= 0, got {args.limit}")
    if args.grid is not None:
        try:
            k_str, m_str = args.grid.split(",")
            g = build_grid(int(k_str), int(m_str))
        except ValueError as exc:
            raise _Exit(2, f"bad --grid value {args.grid!r}: {exc}")
    else:
        try:
            g = graph_from_obj(read_json(args.graph))
        except (OSError, CertificateError) as exc:
            raise _Exit(2, f"cannot read graph: {exc}")
    cfg = SearchConfig(d=args.d, alpha_only=args.alpha, max_results=args.limit)
    if args.count:
        cfg = dataclasses.replace(cfg, store_limit=0)
    try:
        result = search(g, cfg)
    except InvalidParametersError as exc:
        raise _Exit(2, str(exc))
    if args.count:
        print(result.count)
        return
    for labeling in result.labelings:
        print(json.dumps(labeling_to_obj(labeling, args.d, args.alpha),
                         separators=(",", ":")))
    if result.count > len(result.labelings):
        print(f"listed {len(result.labelings)} of {result.count} labelings; use "
              "--limit N to list the first N or --count to count them all",
              file=sys.stderr)


def cmd_table(args) -> None:
    if args.kmax < 1 or args.mmax < 2 or args.n < 1:
        raise _Exit(2, "need --kmax >= 1, --mmax >= 2, --n >= 1")
    _check_host_size(max(target.spec.v
                    for target in proposition_table(args.kmax, args.mmax, args.n)))
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
    if any_failed:
        raise _Exit(1)


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
    try:
        globals()[f"cmd_{args.command}"](args)
    except _Exit as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
