"""One binary container for every artifact, and one typed decoder for the
JSON that artifact headers, config files and input files carry.

A container file is laid out as

  magic (4 bytes) | u32 index length | index | tensor data | u32 crc32

with little-endian integers. The index is UTF-8 JSON with sorted keys:
{"version": 1, "header": <the writer's JSON object>, "tensors": [[name,
"<f4" or "<f8", shape], ...]}. The tensor data is each tensor's raw
little-endian bytes in index order, and the trailer is the zlib CRC-32 of
every byte before it. Round trips are bit-exact. The magic names the kind,
and each kind's header is one dataclass:

  VFEA  feature store   : _FeatureHeader {"name", "videos"}, values (count, dim) float32
  VCBK  codebook        : features._CodebookHeader {"channel"}, centroids (k, d) float32
  VLMP  LM checkpoint   : decoder.LMHeader, the LMConfig fields plus "init_feature" and
                          "persist_feature", null when the model is bound to no feature
  VEVP  eval checkpoint : evaluator.EvaluatorConfig

`read_checkpoint` reads the file once and checks every extent against the
bytes it holds before it slices any, so a corrupt length cannot allocate
memory. `load` reads every kind: it decodes the header into its dataclass
and checks that the tensors have exactly the names and shapes the header
implies and hold only finite values. A malformed file raises FormatError
naming the file. The VFEA reader returns the rows as written: a video that
repeats is rejected by `harness.FeatureStore.add`, which holds the rows.

Every file the pipeline writes, text as UTF-8, goes through `write_file`: a
temporary file renamed over the target, so a failed write names the target and
leaves the old file whole. No fsync: the fault is a failed write, not power loss.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import struct
import sys
import types
import typing
import zlib
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError, naming

FEATURE_MAGIC = b"VFEA"
CODEBOOK_MAGIC = b"VCBK"
LM_MAGIC = b"VLMP"
EVAL_MAGIC = b"VEVP"
FORMAT_VERSION = 1
_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}


def parse_json(raw: bytes, where) -> object:
    """Decode UTF-8 JSON; FormatError naming `where` if it is not."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # RecursionError: deep nesting
        raise FormatError(f"{where}: not valid JSON: {str(e)[:200]}") from None


def read_json(path) -> object:
    return parse_json(Path(path).read_bytes(), path)


def write_checkpoint(path, magic: bytes, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write `header` (a JSON object) and float tensors, sorted by name."""
    if magic not in (FEATURE_MAGIC, CODEBOOK_MAGIC, LM_MAGIC, EVAL_MAGIC):
        raise FormatError(f"unknown container magic {magic!r}")
    entries, blobs = [], []
    for name in sorted(tensors):
        arr = tensors[name]
        code = {np.float32: "<f4", np.float64: "<f8"}.get(arr.dtype.type)
        if code is None:
            raise FormatError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        entries.append([name, code, list(arr.shape)])
        blobs.append(np.ascontiguousarray(arr, dtype=code).tobytes())
    index = json.dumps({"version": FORMAT_VERSION, "header": header, "tensors": entries},
                       sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")
    body = b"".join([magic, struct.pack("<I", len(index)), index, *blobs])
    write_file(path, body + struct.pack("<I", zlib.crc32(body)))


def write_file(path, data: str | bytes) -> None:
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    with naming(f"{path}: ", OSError, DataError):
        try:
            tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
            os.replace(tmp, path)
        except BaseException as e:  # name the target, not the temporary file
            tmp.unlink(missing_ok=True)
            raise OSError(e.errno, e.strerror) if isinstance(e, OSError) and e.filename else e


def read_checkpoint(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, tensors) of a container written with `magic`."""
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad magic: expected {magic!r}, got {raw[:4]!r}")
    index_len = struct.unpack_from("<I", raw, 4)[0] if len(raw) >= 8 else 0
    if 8 + index_len + 4 > len(raw):
        raise FormatError(f"{path}: truncated file: {index_len}-byte index, {len(raw)}-byte file")
    index = parse_json(raw[8 : 8 + index_len], path)
    if not (isinstance(index, dict) and index.keys() == {"version", "header", "tensors"}
            and index["version"] == FORMAT_VERSION and isinstance(index["header"], dict)
            and isinstance(index["tensors"], list)):
        raise FormatError(f"{path}: not a version {FORMAT_VERSION} index: {str(index)[:80]}")
    header, entries = index["header"], index["tensors"]
    layout, offset = [], 8 + index_len
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and entry[1] in _DTYPES and isinstance(entry[2], list)
                and all(type(n) is int and n >= 0 for n in entry[2])):
            raise FormatError(f"{path}: malformed tensor entry {str(entry)[:80]}")
        name, code, shape = entry
        layout.append((name, _DTYPES[code], shape, offset))
        offset += _DTYPES[code].itemsize * math.prod(shape)
    if len({name for name, *_ in layout}) != len(layout):
        raise FormatError(f"{path}: duplicate tensor names")
    if offset + 4 > len(raw):
        raise FormatError(f"{path}: truncated file: {len(raw)} bytes, tensors need {offset + 4}")
    if offset + 4 < len(raw):
        raise FormatError(f"{path}: trailing bytes after {len(layout)} tensors")
    if struct.unpack_from("<I", raw, offset)[0] != zlib.crc32(memoryview(raw)[:offset]):
        raise FormatError(f"{path}: checksum mismatch")
    tensors = {name: np.frombuffer(raw, dtype, math.prod(shape), start).reshape(shape).copy()
               for name, dtype, shape, start in layout}
    return header, tensors


def load(path, magic: bytes, header_cls, shapes_of) -> tuple[object, dict[str, np.ndarray]]:
    """(header, tensors) of a container written with `magic`: the header decoded
    as dataclass `header_cls`, and tensors with exactly the names and shapes of
    `shapes_of(header)` (an extent of None matches any), every value finite.
    Otherwise FormatError naming the file."""
    raw_header, tensors = read_checkpoint(path, magic)
    header = config_from_json(header_cls, raw_header, path)
    shapes = shapes_of(header)
    for name in sorted(tensors.keys() | shapes.keys()):
        got, want = getattr(tensors.get(name), "shape", None), shapes.get(name)
        if got is None or want is None or len(got) != len(want) \
                or any(w not in (None, g) for g, w in zip(got, want)):
            raise FormatError(f"{path}: tensor {name!r} of shape {got} does not fit {want}")
        if not np.isfinite(tensors[name]).all():
            raise FormatError(f"{path}: tensor {name!r} holds a non-finite value")
    return header, tensors


@dataclasses.dataclass
class _FeatureHeader:
    name: str
    videos: list[str]


def write_feature_file(path, name: str, rows: list[tuple[str, np.ndarray]]) -> None:
    """rows: (video id, vector) pairs; vectors stored as float32."""
    dim = len(rows[0][1]) if rows else 0
    vecs = [np.asarray(vec, dtype="<f4") for _, vec in rows]
    for (vid, _), vec in zip(rows, vecs):
        if vec.shape != (dim,):
            raise FormatError(f"feature row for {vid!r} has shape {vec.shape}, expected ({dim},)")
    write_checkpoint(path, FEATURE_MAGIC, {"name": name, "videos": [vid for vid, _ in rows]},
                     {"values": np.stack(vecs) if vecs else np.zeros((0, 0), "<f4")})


def read_feature_file(path) -> tuple[str, list[tuple[str, np.ndarray]]]:
    head, tensors = load(path, FEATURE_MAGIC, _FeatureHeader,
                         lambda h: {"values": (len(h.videos), None)})
    return head.name, list(zip(head.videos, tensors["values"]))


def config_from_json(cls, doc, where, *, partial: bool = False):
    """Dataclass `cls` from a decoded JSON object whose keys are its fields and
    whose values have the fields' types. A field whose default is None may be
    left out, and with `partial` so may any field that has a default. The types
    are int, float, str, `X | None`, `list[X]`, `tuple[X, ...]` or a nested
    dataclass. Otherwise, or if `cls` rejects the values, raises FormatError
    naming `where` and the key."""
    with naming(f"{where}: ", (DataError, ParameterError), FormatError):
        return _decode(cls, doc, "", partial)


@functools.cache
def _fields(tp, partial: bool) -> dict[str, tuple[object, bool]]:
    """Field name -> (type, whether it may be left out) of dataclass `tp`."""
    hints = typing.get_type_hints(tp)
    return {f.name: (hints[f.name], f.default is None or (partial and not (
                f.default is f.default_factory is dataclasses.MISSING)))
            for f in dataclasses.fields(tp)}


def _decode(tp, value, key: str, partial: bool):
    if tp in (int, str) and type(value) is tp:
        return value
    if tp is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp) and isinstance(value, dict):
        prefix, fields = f"{key}." if key else "", _fields(tp, partial)
        unknown = sorted(value.keys() - fields.keys())
        missing = [n for n, (_, optional) in fields.items() if n not in value and not optional]
        if unknown or missing:
            raise FormatError(f"unknown key {prefix + unknown[0]!r}" if unknown
                              else f"missing key {prefix + missing[0]!r}")
        return tp(**{k: _decode(fields[k][0], v, prefix + k, partial) for k, v in value.items()})
    if origin in (typing.Union, types.UnionType):  # X | None
        inner = next(a for a in args if a is not type(None))
        return None if value is None else _decode(inner, value, key, partial)
    if origin in (list, tuple) and isinstance(value, list):
        items = [_decode(args[0], v, f"{key}[{i}]", partial) for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    got = type(value).__name__ if isinstance(value, (dict, list)) else repr(value)[:40]
    raise FormatError(f"key {key or '<top>'!r}: expected {getattr(tp, '__name__', tp)}, got {got}")
