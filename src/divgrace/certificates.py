"""JSON certificates and DOT export.

Certificates are plain JSON with a fixed key order so that write/read
round-trips are byte-identical: `dumps` produces exactly the bytes of
`json.dumps(obj, indent=2)` plus a final newline.  A labeling
certificate names its graph, the divisor d and the labels in canonical
vertex order, plus an optional alpha block: the low class as sorted
vertex indices and the boundary lambda (the high class is the rest).  A
decomposition certificate records q, d, n, v and the base blocks, one
label list per row of the blocks array.  The writers write the int64
arrays a labeling, its alpha certificate and a decomposition hold, each
through one .tolist(); the reader converts each list once into such an
array, after checking its JSON types.  Every number a reader accepts
must be a JSON integer, and every sequence a JSON list; anything else
raises CertificateError, as do a file larger than MAX_FILE_BYTES (refused
before it is read), a file that is not UTF-8 or nests too deeply to
decode, and a low class that repeats an index or names one
outside the graph.  DOT output has one node statement per
vertex (labeled with the f-value) and one edge statement per edge,
both in canonical order.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .checking import AlphaCert, Labeling, _int_array
from .decomp import MAX_V, Decomposition
from .grids import Graph, GridGraph, SimpleGraph, build_grid


class CertificateError(ValueError):
    """Raised for structurally malformed certificate data."""


def _int(value, name: str) -> int:
    """value itself if it is a JSON integer (an int, not a bool)."""
    if type(value) is not int:
        raise CertificateError(f"{name} must be an integer, got {value!r}")
    return value


def _list(value, name: str) -> list:
    """value itself if it is a JSON list."""
    if type(value) is not list:
        raise CertificateError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _ints(value, name: str) -> list[int]:
    """value itself if it is a list of JSON integers, checked in one pass.

    This comes before any conversion to an array, which would take a
    bool as 0 or 1 and cut a float down to an integer.
    """
    if not set(map(type, _list(value, name))) <= {int}:
        bad = next(x for x in value if type(x) is not int)
        raise CertificateError(f"{name} must hold integers, got {bad!r}")
    return value


def graph_to_obj(g: Graph) -> dict:
    if isinstance(g, GridGraph):
        return {"kind": "grid", "k": g.k, "m": g.m}
    return {"kind": "simple", "n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_obj(obj) -> Graph:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise CertificateError("graph descriptor must be an object with a kind")
    kind = obj["kind"]
    try:
        if kind == "grid":
            return build_grid(_int(obj["k"], "k"), _int(obj["m"], "m"))
        if kind == "simple":
            edges = [_ints(e, "edge") for e in _list(obj["edges"], "edges")]
            return SimpleGraph(_int(obj["n"], "n"), tuple((u, w) for u, w in edges))
    except CertificateError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"bad graph descriptor: {exc}") from exc
    raise CertificateError(f"unknown graph kind {kind!r}")


def labeling_to_obj(f: Labeling, d: int, alpha: AlphaCert | None = None) -> dict:
    obj = {
        "graph": graph_to_obj(f.graph),
        "d": int(d),
        "labels": f.array.tolist(),
    }
    if alpha is not None:
        obj["alpha"] = {
            "low_class": alpha.low_class.tolist(),
            "lambda": int(alpha.boundary),
        }
    return obj


def labeling_from_obj(obj) -> tuple[Labeling, int, AlphaCert | None]:
    if not isinstance(obj, dict):
        raise CertificateError("certificate must be a JSON object")
    for key in ("graph", "d", "labels"):
        if key not in obj:
            raise CertificateError(f"certificate missing {key!r}")
    graph = graph_from_obj(obj["graph"])
    d = _int(obj["d"], "d")
    labels = _int_array(_ints(obj["labels"], "labels"))
    try:
        labeling = Labeling(graph, labels)
    except ValueError as exc:
        raise CertificateError(f"bad labeling payload: {exc}") from exc
    alpha = None
    if "alpha" in obj:
        block = obj["alpha"]
        if not isinstance(block, dict) or "low_class" not in block or "lambda" not in block:
            raise CertificateError("bad alpha block: need an object with low_class and lambda")
        low = _ints(block["low_class"], "low_class")
        boundary = _int(block["lambda"], "lambda")
        outside = f"bad alpha block: low_class indices must lie in [0, {graph.num_vertices})"
        try:
            alpha = AlphaCert(low, boundary)
        except OverflowError:
            raise CertificateError(outside) from None
        indices = alpha.low_class  # sorted
        if indices.size and not 0 <= indices[0] <= indices[-1] < graph.num_vertices:
            raise CertificateError(outside)
        if (indices[1:] == indices[:-1]).any():
            raise CertificateError("bad alpha block: low_class repeats an index")
    return labeling, d, alpha


def decomposition_to_obj(dec: Decomposition) -> dict:
    return {
        "q": dec.q,
        "d": dec.d,
        "n": dec.n,
        "v": dec.spec.v,
        "base_blocks": dec.blocks.tolist(),
    }


def decomposition_from_obj(obj) -> dict:
    if not isinstance(obj, dict):
        raise CertificateError("certificate must be a JSON object")
    for key in ("q", "d", "n", "v", "base_blocks"):
        if key not in obj:
            raise CertificateError(f"certificate missing {key!r}")
    record = {key: _int(obj[key], key) for key in ("q", "d", "n", "v")}
    record["base_blocks"] = [_ints(block, "base block")
                             for block in _list(obj["base_blocks"], "base_blocks")]
    return record


_CONTAINERS = (dict, list, tuple)


def _encode(obj, newline: str) -> str:
    """obj as json.dumps(obj, indent=2) writes it where newline starts its lines.

    A container that holds no container goes to the C encoder in one
    call, with the line break and indent as its item separator; only
    the nesting above such leaves is walked in Python.  Dict keys must
    be strings, as they are in anything read from JSON.
    """
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    inner = newline + "  "
    is_dict = isinstance(obj, dict)
    items = obj.values() if is_dict else obj
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, items))):
        flat = json.dumps(obj, separators=("," + inner, ": "))
        return flat[0] + inner + flat[1:-1] + newline + flat[-1]
    if is_dict:
        body = ("," + inner).join(f"{json.dumps(key)}: {_encode(value, inner)}"
                                  for key, value in obj.items())
        return "{" + inner + body + newline + "}"
    body = ("," + inner).join(_encode(value, inner) for value in obj)
    return "[" + inner + body + newline + "]"


def dumps(obj: dict) -> str:
    """Exactly json.dumps(obj, indent=2) + "\n", without the pure-Python encoder."""
    return _encode(obj, "\n") + "\n"


def write_json(path: str | Path, obj: dict) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


# Largest file read_json takes in, in bytes: the biggest labeling
# certificate that decomp.MAX_V allows, in write_json's layout.
# Its host has v = 2n(e + d) <= MAX_V vertices, and the labels are
# distinct in [0, e + d), so the graph has at most MAX_V / 2 vertices and
# edges, and every number has at most 7 digits.  A label line then takes
# 13 bytes, a low-class line 15 and a simple graph's edge 50 (four lines
# at indents 6 and 8), 78 bytes per vertex-and-edge pair; the keys, d,
# lambda and brackets take under 200 more.  A grid's certificate, with
# fewer vertices than edges and no edge list, is smaller still.
MAX_FILE_BYTES = 78 * (MAX_V // 2) + 4096


def read_json(path: str | Path):
    with open(path, "rb") as fh:
        # a file is refused by its size before it is read.  The one read
        # asks for a byte past the file's size, or past the limit for a
        # pipe, which reports size 0: a read allocates all it asks for.
        size = os.fstat(fh.fileno()).st_size
        data = b"" if size > MAX_FILE_BYTES else fh.read((size or MAX_FILE_BYTES) + 1)
    if size > MAX_FILE_BYTES or len(data) > MAX_FILE_BYTES:
        raise CertificateError(f"file too large: more than {MAX_FILE_BYTES} bytes")
    # a bad encoding, bad JSON and a number past Python's int-string
    # digit limit all raise ValueError
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CertificateError(f"not valid JSON: {exc}") from exc


def read_labeling(path: str | Path) -> tuple[Labeling, int, AlphaCert | None]:
    return labeling_from_obj(read_json(path))


def write_labeling(path: str | Path, f: Labeling, d: int,
                   alpha: AlphaCert | None = None) -> None:
    write_json(path, labeling_to_obj(f, d, alpha))


def dot_export(f: Labeling) -> str:
    g = f.graph
    lines = ["graph labeling {"]
    for idx in range(g.num_vertices):
        lines.append(f'  v{idx} [label="{f.values[idx]}"];')
    for u, w in g.edge_indices():
        lines.append(f"  v{int(u)} -- v{int(w)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
