"""File formats: edge lists, feature/label tables, set-cover instances,
JSON reports and a deterministic binary blob for model persistence.

The blob layout is a magic line, one JSON header line (sorted keys), one
JSON array-manifest line, then the raw C-order bytes of each array in
manifest order. float64/int64 only, little-endian, so round-trips are
bit-exact and the written bytes depend on nothing but the payload.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .errors import DataError
from .graphs import Graph

BLOB_MAGIC = "NBRBLOB1"
_DTYPES = {"float64": "<f8", "int64": "<i8"}


# -- plain-text graph files ----------------------------------------------------

def load_edge_list(path: str) -> list[tuple[int, int]]:
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'u<TAB>v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer node id in {line!r}")
            if u < 0 or v < 0:
                raise DataError(f"{path}:{lineno}: negative node id in {line!r}")
            edges.append((u, v))
    return edges


def save_edge_list(path: str, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges():
            fh.write(f"{u}\t{v}\n")


def load_features(path: str) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(x) for x in line.split()]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric feature value")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataError(
                    f"{path}:{lineno}: row has {len(row)} values, expected {width}")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: empty feature file")
    return np.asarray(rows, dtype=np.float64)


def save_features(path: str, features: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(features, dtype=np.float64):
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_labels(path: str) -> np.ndarray:
    vals = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                vals.append(int(line))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer label {line!r}")
    if not vals:
        raise DataError(f"{path}: empty label file")
    return np.asarray(vals, dtype=np.int64)


def save_labels(path: str, labels: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x in np.asarray(labels, dtype=np.int64):
            fh.write(f"{int(x)}\n")


def load_graph(edges_path: str, features_path: str,
               labels_path: str | None = None) -> Graph:
    edges = load_edge_list(edges_path)
    features = load_features(features_path)
    node_count = features.shape[0]
    for u, v in edges:
        if u >= node_count or v >= node_count:
            raise DataError(
                f"edge ({u}, {v}) exceeds feature row count {node_count}")
    labels = load_labels(labels_path) if labels_path else None
    if labels is not None and labels.shape[0] != node_count:
        raise DataError(
            f"label count {labels.shape[0]} does not match feature rows {node_count}")
    return Graph(node_count, edges, features, labels)


# -- set-cover instance files ---------------------------------------------------

def load_set_cover(path: str) -> tuple[int, list[frozenset], int]:
    """Parse 'n m b' then m lines of space-separated 0-based element ids.

    Returns (n_elements, sets, budget). A blank set line is an empty set.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty set-cover file")
    head = lines[0].split()
    if len(head) != 3:
        raise DataError(f"{path}:1: expected 'n m b', got {lines[0]!r}")
    try:
        n, m, b = (int(x) for x in head)
    except ValueError:
        raise DataError(f"{path}:1: non-integer header {lines[0]!r}")
    if n <= 0 or m <= 0 or b < 0:
        raise DataError(f"{path}:1: bad sizes n={n} m={m} b={b}")
    if len(lines) < 1 + m:
        raise DataError(f"{path}: expected {m} set lines, found {len(lines) - 1}")
    sets = []
    for i in range(m):
        raw = lines[1 + i].split()
        try:
            ids = [int(x) for x in raw]
        except ValueError:
            raise DataError(f"{path}:{i + 2}: non-integer element id")
        for x in ids:
            if not (0 <= x < n):
                raise DataError(f"{path}:{i + 2}: element {x} outside [0, {n})")
        sets.append(frozenset(ids))
    return n, sets, b


# -- JSON helpers ----------------------------------------------------------------

def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- deterministic binary blob ----------------------------------------------------

def write_blob(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    manifest = []
    payload = []
    for name in sorted(arrays):
        # np.ascontiguousarray would promote 0-d arrays to 1-d; keep shapes intact
        arr = np.asarray(arrays[name], order="C")
        if arr.dtype.name not in _DTYPES:
            raise DataError(f"array {name!r} has dtype {arr.dtype}, want float64/int64")
        wire = arr.astype(_DTYPES[arr.dtype.name], copy=False)
        manifest.append([name, arr.dtype.name, list(arr.shape)])
        payload.append(wire.tobytes(order="C"))
    header = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    mani = json.dumps(manifest, separators=(",", ":"))
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(BLOB_MAGIC.encode() + b"\n")
        fh.write(header.encode() + b"\n")
        fh.write(mani.encode() + b"\n")
        for chunk in payload:
            fh.write(chunk)
    os.replace(tmp, path)


def read_blob(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != BLOB_MAGIC.encode():
            raise DataError(f"{path}: not a {BLOB_MAGIC} file")
        try:
            meta = json.loads(fh.readline().decode())
            manifest = json.loads(fh.readline().decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt blob header: {exc}")
        arrays = {}
        for name, dtype_name, shape in manifest:
            if dtype_name not in _DTYPES:
                raise DataError(f"{path}: bad dtype {dtype_name!r} in manifest")
            count = int(np.prod(shape)) if shape else 1
            byte_len = count * 8
            buf = fh.read(byte_len)
            if len(buf) != byte_len:
                raise DataError(f"{path}: truncated array {name!r}")
            arrays[name] = np.frombuffer(buf, dtype=_DTYPES[dtype_name]).reshape(shape).copy()
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after last array")
    return meta, arrays
