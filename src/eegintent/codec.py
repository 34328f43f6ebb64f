"""One codec for the package's files and config sections.

Files are a JSON header plus little-endian float32 blobs; writes are atomic
and every read failure is a named PipelineError. Config classes inherit
`Schema`, which (de)serialises their fields and type-checks each value.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import types
import typing
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import IoFailure, MalformedManifest, MissingFile

# --- files ---------------------------------------------------------------

@contextmanager
def atomic_file(path):
    """A binary file on a temporary beside `path`, renamed over `path` when the
    block ends; on failure a previous file is left intact (OSError: IoFailure)."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def write_atomic(path, chunks) -> None:
    with atomic_file(path) as fh:
        fh.writelines(chunks)


def write_text(path, text: str) -> None:
    write_atomic(path, [text.encode("utf-8")])


def write_header_file(path, header: dict, arrays) -> None:
    """One compact JSON header line, then the arrays as float32 blobs."""
    line = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
    write_atomic(path, [line, *(np.ascontiguousarray(a, dtype="<f4") for a in arrays)])


def read_header(path, fmt: str, kind: str, blob: bool = True):
    """(header, blob): the first line and a memoryview of the rest, or with
    blob=False the whole file and None. Checks in order: the file exists, the
    header line exists, it is valid JSON, it is an object, its format is `fmt`."""
    if not Path(path).is_file():
        raise MissingFile(f"no {kind} at {path}")
    raw = Path(path).read_bytes()
    body = None
    if blob:
        newline = raw.find(b"\n")
        if newline < 0:
            raise MalformedManifest(f"{path}: missing header line")
        raw, body = raw[:newline], memoryview(raw)[newline + 1 :]
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise MalformedManifest(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedManifest(f"{path}: header must be a JSON object")
    if header.get("format") != fmt:
        raise MalformedManifest(f"{path}: expected format {fmt!r}, got {header.get('format')!r}")
    return header, body


@contextmanager
def header_fields(path):
    """Turn a missing or ill-typed header field into MalformedManifest
    naming the file; PipelineErrors raised inside pass through."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise MalformedManifest(f"{path}: {type(exc).__name__}: {exc}") from exc


def unpack_floats(blob, shapes) -> list[np.ndarray]:
    """Read-only float32 arrays of `shapes`, laid end to end in `blob`.
    ValueError unless the dims are non-negative integers, the arrays fill the
    blob exactly, and each array is finite; call it inside header_fields."""
    arrays = []
    offset = 0
    for shape in map(tuple, shapes):
        if not all(is_int(d) and d >= 0 for d in shape):
            raise ValueError(f"dims must be non-negative integers, got {shape}")
        size = math.prod(shape)
        if offset + 4 * size > len(blob):
            raise ValueError(f"blob of {len(blob)} bytes is too short for {shape}")
        array = np.frombuffer(blob, dtype="<f4", count=size, offset=offset).reshape(shape)
        if not np.isfinite(array).all():
            raise ValueError(f"array {len(arrays)} holds non-finite values")
        arrays.append(array)
        offset += 4 * size
    if offset != len(blob):
        raise ValueError(f"{len(blob) - offset} trailing bytes in blob")
    return arrays


# --- config schema -------------------------------------------------------

def is_int(value) -> bool:
    """An integer that is not a bool (JSON true must not pass as 1)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_value(value, tp, key: str):
    """`value` as annotation `tp` (lists become tuples or float arrays, float
    tuple elements floats); ValueError naming `key` when it does not fit."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise ValueError(f"{key} must be a list, got {value!r}")
        items = [check_value(v, args[0], f"{key}[{i}]") for i, v in enumerate(value)]
        return tuple(float(v) if args[0] is float else v for v in items)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return check_value(value, tp, key)
    if tp is int:
        if not is_int(value):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    if tp is float:
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int too large for a float
            finite = False
        if not finite:
            raise ValueError(f"{key} must be a finite number, got {value!r}")
        return value
    if isinstance(value, tp):
        return value
    if tp is np.ndarray and isinstance(value, list):  # a float vector read from JSON
        return np.asarray(value, dtype=np.float64)
    if isinstance(value, dict) and hasattr(tp, "from_dict"):  # a nested table
        try:
            return tp.from_dict(value)
        except ValueError as exc:
            raise ValueError(f"{key}.{exc}") from None
    kind = "an object" if tp is dict or hasattr(tp, "from_dict") else f"a {tp.__name__}"
    raise ValueError(f"{key} must be {kind}, got {value!r}")


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.to_dict() if hasattr(value, "to_dict") else value


class Schema:
    """Field-driven to_dict/from_dict and type checks for a frozen dataclass;
    a subclass with range checks calls super().__post_init__() first."""

    def __init_subclass__(cls):
        cls._hints = typing.get_type_hints(cls)  # once per class, not per instance

    def __post_init__(self):
        for f in fields(self):
            value = check_value(getattr(self, f.name), self._hints[f.name], f.name)
            object.__setattr__(self, f.name, value)

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValueError(f"expected an object, got {d!r}")
        for key in d:
            if key not in {f.name for f in fields(cls)}:
                raise ValueError(f"{key} is not a known key")
        try:
            return cls(**d)
        except TypeError as exc:  # a missing key
            raise ValueError(str(exc)) from None
