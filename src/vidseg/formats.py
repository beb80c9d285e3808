"""On-disk artifact formats: checkpoint, dataset file, metrics CSV.

Every artifact starts with a version tag and a canonical config echo; a
reader that sees the wrong version stops before touching any payload. All
writes go through a temp file and an atomic rename. Binary payloads are
little-endian float32; the textual header carries a byte-offset manifest.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .memory import MemoryBank

CHECKPOINT_MAGIC = "#vidseg-checkpoint v1"
DATASET_MAGIC = "#vidseg-dataset v1"


class ArtifactError(ValueError):
    """Malformed or mismatched artifact file."""


def render_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def render_flat(flat):
    """Canonical text form of a flat config: sorted key=value lines."""
    return "".join(f"{key}={render_value(flat[key])}\n" for key in sorted(flat))


def atomic_write_bytes(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _shape_token(shape):
    return "x".join(str(s) for s in shape) if shape else "0"


def _fields(line, count, path):
    """The whitespace-separated fields of a manifest line, exactly count."""
    fields = line.split()
    if len(fields) != count:
        raise ArtifactError(f"{path}: expected {count} fields in '{line}'")
    return fields


def _ints(tokens, path, line):
    try:
        return [int(token) for token in tokens]
    except ValueError:
        raise ArtifactError(f"{path}: non-integer field in '{line}'") from None


def _payload_array(body, shape, offset, path, line):
    """float64 copy of the float32 array of `shape` at `offset` in body."""
    count = math.prod(shape)
    if offset < 0 or min(shape) < 0 or offset + 4 * count > len(body):
        raise ArtifactError(f"{path}: '{line}' runs past the {len(body)}-byte payload")
    return np.frombuffer(body, dtype="<f4", count=count, offset=offset).reshape(shape) \
        .astype(np.float64)


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    config_flat: dict
    query: dict
    key: dict
    banks: dict
    rng_meta: dict


def write_checkpoint(path, config_flat, query_params, key_params, banks, rng_meta):
    """Persist params (query + key), both banks, and the run's RNG counters."""
    header = io.StringIO()
    payload = io.BytesIO()
    header.write(CHECKPOINT_MAGIC + "\n")
    header.write("#config-begin\n")
    header.write(render_flat(config_flat))
    header.write("#config-end\n")
    for prefix, params in (("query", query_params), ("key", key_params)):
        for name, arr in params.items():
            header.write(f"#param {prefix}.{name} {_shape_token(arr.shape)} {payload.tell()}\n")
            payload.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    for name, bank in banks.items():
        storage, cursor, fill = bank.state()
        header.write(f"#bank {name} {bank.capacity} {bank.width} {cursor} {fill} {payload.tell()}\n")
        payload.write(np.ascontiguousarray(storage, dtype="<f4").tobytes())
    header.write(f"#rng seed={rng_meta['seed']} epoch={rng_meta['epoch']} step={rng_meta['step']}\n")
    body = payload.getvalue()
    header.write(f"#payload {len(body)}\n")
    atomic_write_bytes(path, header.getvalue().encode("utf-8") + body)


def _split_header(blob, magic, path):
    try:
        first, _ = blob.split(b"\n", 1)
    except ValueError:
        raise ArtifactError(f"{path}: not a recognized artifact") from None
    if first.decode("utf-8", "replace") != magic:
        raise ArtifactError(f"{path}: version mismatch, expected '{magic}'")
    marker = blob.find(b"#payload ")
    newline = blob.find(b"\n", marker) if marker >= 0 else -1
    if newline < 0:
        raise ArtifactError(f"{path}: no complete '#payload' line")
    try:
        lines = blob[:marker].decode("utf-8").splitlines()
        payload_line = blob[marker:newline].decode("utf-8")
    except UnicodeDecodeError as err:
        raise ArtifactError(f"{path}: header is not UTF-8 ({err.reason})") from None
    (declared,) = _ints(_fields(payload_line, 2, path)[1:], path, payload_line)
    body = blob[newline + 1:]
    if len(body) != declared:
        raise ArtifactError(f"{path}: payload is {len(body)} bytes, header declares {declared}")
    return lines, body


def _parse_config_lines(lines, start):
    flat = {}
    i = start
    while i < len(lines) and lines[i] != "#config-end":
        key, _, value = lines[i].partition("=")
        flat[key] = value
        i += 1
    return flat, i + 1


def read_checkpoint(path):
    """Load a checkpoint; raises ArtifactError before reading any payload if
    the version tag does not match."""
    blob = Path(path).read_bytes()
    lines, body = _split_header(blob, CHECKPOINT_MAGIC, path)
    config_flat = {}
    query, key, banks, rng_meta = {}, {}, {}, {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if line == "#config-begin":
            config_flat, i = _parse_config_lines(lines, i + 1)
            continue
        if line.startswith("#param "):
            _, full_name, shape_tok, offset = _fields(line, 4, path)
            shape = tuple(_ints(shape_tok.split("x"), path, line))
            (offset,) = _ints([offset], path, line)
            side, _, name = full_name.partition(".")
            (query if side == "query" else key)[name] = _payload_array(body, shape, offset,
                                                                      path, line)
        elif line.startswith("#bank "):
            _, name, *numbers = _fields(line, 7, path)
            capacity, width, cursor, fill, offset = _ints(numbers, path, line)
            storage = _payload_array(body, (capacity, width), offset, path, line)
            if not (0 <= fill <= capacity and 0 <= cursor < capacity):
                raise ArtifactError(f"{path}: cursor or fill outside the bank in '{line}'")
            # float32 round-trip perturbs norms; restore exact unit rows
            if fill:
                norms = np.linalg.norm(storage[:fill], axis=1, keepdims=True)
                storage[:fill] = storage[:fill] / np.maximum(norms, 1e-30)
            banks[name] = MemoryBank.from_state(storage, cursor, fill)
        elif line.startswith("#rng "):
            for token in line.split()[1:]:
                k, _, v = token.partition("=")
                (rng_meta[k],) = _ints([v], path, line)
        i += 1
    return Checkpoint(config_flat=config_flat, query=query, key=key, banks=banks,
                      rng_meta=rng_meta)


# ---------------------------------------------------------------------------
# dataset file
# ---------------------------------------------------------------------------


def write_dataset(path, spec, train_videos, test_videos):
    """Header (spec echo + per-video manifest) then raw frames, float32, in
    (video, frame, row) order."""
    header = io.StringIO()
    payload = io.BytesIO()
    header.write(DATASET_MAGIC + "\n")
    header.write("#config-begin\n")
    header.write(render_flat(spec.to_flat()))
    header.write("#config-end\n")
    for split, videos in (("train", train_videos), ("test", test_videos)):
        for video in videos:
            window = video.action_window if video.action_window else (-1, -1)
            header.write(f"#video {video.id} {video.class_id} {split} {window[0]} {window[1]}\n")
            payload.write(np.ascontiguousarray(video.frames, dtype="<f4").tobytes())
    body = payload.getvalue()
    header.write(f"#payload {len(body)}\n")
    atomic_write_bytes(path, header.getvalue().encode("utf-8") + body)


def read_dataset(path):
    """Load a dataset file -> (spec_flat, train videos, test videos)."""
    from .synth import Video

    blob = Path(path).read_bytes()
    lines, body = _split_header(blob, DATASET_MAGIC, path)
    spec_flat, i = {}, 1
    manifest = []
    while i < len(lines):
        line = lines[i]
        if line == "#config-begin":
            spec_flat, i = _parse_config_lines(lines, i + 1)
            continue
        if line.startswith("#video "):
            _, vid, class_id, split, w0, w1 = _fields(line, 6, path)
            if split not in ("train", "test"):
                raise ArtifactError(f"{path}: video {vid} has unknown split '{split}'")
            vid, class_id, w0, w1 = _ints((vid, class_id, w0, w1), path, line)
            manifest.append((vid, class_id, split, w0, w1))
        i += 1
    t, h, w = _ints((spec_flat.get(f"dataset.{key}", "") for key in ("frames", "height", "width")),
                    path, "#config dataset.frames/height/width")
    frame_bytes = t * h * w * 4
    if len(body) != frame_bytes * len(manifest):
        raise ArtifactError(f"{path}: payload does not match the video manifest")
    train, test = [], []
    for n, (vid, class_id, split, w0, w1) in enumerate(manifest):
        frames = np.frombuffer(body, dtype="<f4", count=t * h * w, offset=n * frame_bytes)
        video = Video(id=vid, class_id=class_id,
                      frames=frames.reshape(t, h, w).astype(np.float64),
                      action_window=None if w0 < 0 else (w0, w1))
        (train if split == "train" else test).append(video)
    return spec_flat, train, test


# ---------------------------------------------------------------------------
# metrics CSV
# ---------------------------------------------------------------------------


def format_cell(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(path, header, rows):
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(format_cell(v) for v in row) + "\n")
    atomic_write_bytes(path, out.getvalue().encode("utf-8"))
