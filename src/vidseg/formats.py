"""On-disk artifact formats: checkpoint, dataset file, metrics CSV.

Every artifact starts with a version tag and a canonical config echo; a
reader that sees the wrong version stops before touching any payload. All
writes go through a temp file and an atomic rename. Binary payloads are
little-endian float32; the textual header carries a byte-offset manifest.

Payloads stream between the file and their final arrays. `_read_header`
reads a file only up to its `#payload` line, so a header can be inspected
without loading the payload. Writers compute every offset up front and hand
`atomic_write_bytes` the header, then one float32 array per video, parameter
or bank. `read_dataset` reads each split's frames straight into one float32
`(n, T, H, W)` array, the form `generate_dataset` gives them too; the math
widens frames to float64 where it uses them. `read_checkpoint` reads each
entry at its offset and widens only that entry, so parameters and banks come
back float64. Its entries must tile the payload: no gap, no overlap.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .memory import MemoryBank

CHECKPOINT_MAGIC = "#vidseg-checkpoint v1"
DATASET_MAGIC = "#vidseg-dataset v1"
# the counters of a checkpoint's one '#rng' line, in the order they are written
_RNG_COUNTERS = ("seed", "epoch", "step")


class ArtifactError(ValueError):
    """Malformed or mismatched artifact file."""


def render_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def config_key(cfg, field):
    """The `section.key` of a config dataclass field: the class's SECTION and
    the field's name, or the name its metadata gives as `key`."""
    return f"{cfg.SECTION}.{field.metadata.get('key', field.name)}"


def flatten_config(cfg):
    """The flat `section.key` entries of a config dataclass; a field holding
    another config dataclass flattens under that one's own section."""
    flat = {}
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if is_dataclass(value):
            flat.update(flatten_config(value))
        else:
            flat[config_key(cfg, field)] = value
    return flat


def render_flat(flat):
    """Canonical text form of a flat config: sorted key=value lines."""
    return "".join(f"{key}={render_value(flat[key])}\n" for key in sorted(flat))


def atomic_write_bytes(path, *chunks):
    """Write the chunks to path, in order, through a temp file and an atomic
    rename. A chunk is a bytes-like object (a contiguous array writes its raw
    bytes), or an iterator of them that is drawn only as it is written, so a
    large payload can be converted one piece at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                if isinstance(chunk, Iterator):
                    handle.writelines(chunk)
                else:
                    handle.write(chunk)
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


def _float32(arr):
    """arr as a contiguous little-endian float32 array, the payload's form."""
    return np.ascontiguousarray(arr, dtype="<f4")


def _read_into(handle, array, path):
    """Fill the contiguous array with the handle's next bytes."""
    if handle.readinto(array) != array.nbytes:
        raise ArtifactError(f"{path}: payload ends early")


def _read_header(handle, magic, path):
    """(header lines, payload offset, declared payload length) of the artifact
    open for binary reading in handle, read line by line only up to the end
    of its '#payload' line. The declared length must be what follows it."""
    first = handle.readline()
    if not first.endswith(b"\n"):
        raise ArtifactError(f"{path}: not a recognized artifact")
    if first[:-1].decode("utf-8", "replace") != magic:
        raise ArtifactError(f"{path}: version mismatch, expected '{magic}'")
    head = [first]
    while not (head[-1].startswith(b"#payload ") and head[-1].endswith(b"\n")):
        head.append(handle.readline())
        if not head[-1]:
            raise ArtifactError(f"{path}: no complete '#payload' line")
    try:
        lines = b"".join(head[:-1]).decode("utf-8").splitlines()
        payload_line = head[-1][:-1].decode("utf-8")
    except UnicodeDecodeError as err:
        raise ArtifactError(f"{path}: header is not UTF-8 ({err.reason})") from None
    (declared,) = _ints(_fields(payload_line, 2, path)[1:], path, payload_line)
    offset = handle.tell()
    size = os.fstat(handle.fileno()).st_size - offset
    if size != declared:
        raise ArtifactError(f"{path}: payload is {size} bytes, header declares {declared}")
    return lines, offset, declared


def _payload_array(handle, payload, shape, offset, path, line):
    """float64 copy of the float32 array of `shape` at `offset` in the
    payload, which starts at byte payload[0] of the file and is payload[1]
    bytes long; its values must be finite."""
    start, length = payload
    count = math.prod(shape)
    if offset < 0 or min(shape) < 0 or offset + 4 * count > length:
        raise ArtifactError(f"{path}: '{line}' runs past the {length}-byte payload")
    values = np.empty(shape, dtype="<f4")
    handle.seek(start + offset)
    _read_into(handle, values, path)
    if not np.isfinite(values).all():
        raise ArtifactError(f"{path}: non-finite values in the payload of '{line}'")
    return values.astype(np.float64)


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
    header.write(CHECKPOINT_MAGIC + "\n")
    header.write("#config-begin\n")
    header.write(render_flat(config_flat))
    header.write("#config-end\n")
    offset = 0
    for prefix, params in (("query", query_params), ("key", key_params)):
        for name, arr in params.items():
            header.write(f"#param {prefix}.{name} {_shape_token(arr.shape)} {offset}\n")
            offset += 4 * arr.size
    for name, bank in banks.items():
        header.write(f"#bank {name} {bank.capacity} {bank.width} {bank.cursor} {bank.fill} "
                     f"{offset}\n")
        offset += 4 * bank.storage.size
    header.write("#rng " + " ".join(f"{name}={rng_meta[name]}" for name in _RNG_COUNTERS) + "\n")
    header.write(f"#payload {offset}\n")
    arrays = [*query_params.values(), *key_params.values(),
              *(bank.storage for bank in banks.values())]
    atomic_write_bytes(path, header.getvalue().encode("utf-8"), map(_float32, arrays))


def _parse_config_lines(lines, start, path):
    flat = {}
    i = start
    while i < len(lines) and lines[i] != "#config-end":
        key, _, value = lines[i].partition("=")
        if key in flat:
            raise ArtifactError(f"{path}: config key '{key}' appears twice")
        flat[key] = value
        i += 1
    return flat, i + 1


def _check_tiling(entries, length, path):
    """The (offset, bytes, line) entries, sorted by offset (ties in manifest
    order), must tile the length-byte payload: the first starts at 0, each
    starts where the one before it ends, and the last ends at its end."""
    end, last = 0, "the manifest"
    for offset, size, line in sorted(entries, key=lambda entry: entry[0]):
        if offset != end:
            raise ArtifactError(f"{path}: entries do not tile the payload: '{line}' starts "
                                f"at byte {offset}, not {end}")
        end, last = offset + size, f"'{line}'"
    if end != length:
        raise ArtifactError(f"{path}: entries do not tile the payload: {last} ends at byte "
                            f"{end}, not {length}")


def _rng_counters(line, path):
    """The seed, epoch and step of an '#rng' line, each given exactly once."""
    pairs = [token.partition("=")[::2] for token in line.split()[1:]]
    names = [name for name, _ in pairs]
    if sorted(names) != sorted(_RNG_COUNTERS):
        raise ArtifactError(f"{path}: expected {', '.join(f'{n}=' for n in _RNG_COUNTERS)} "
                            f"once each in '{line}'")
    return dict(zip(names, _ints([value for _, value in pairs], path, line)))


def read_checkpoint(path):
    """Load a checkpoint; raises ArtifactError before reading any payload if
    the version tag does not match."""
    with open(path, "rb") as handle:
        return _read_checkpoint(handle, path)


def _read_checkpoint(handle, path):
    lines, *payload = _read_header(handle, CHECKPOINT_MAGIC, path)  # payload: (offset, length)
    config_flat = {}
    query, key, banks, rng_meta = {}, {}, {}, {}
    sides = {"query": query, "key": key}
    entries = []  # (offset, bytes, line) of every #param and #bank line
    i = 1
    while i < len(lines):
        line = lines[i]
        if line == "#config-begin":
            config_flat, i = _parse_config_lines(lines, i + 1, path)
            continue
        if line.startswith("#param "):
            _, full_name, shape_tok, offset = _fields(line, 4, path)
            shape = tuple(_ints(shape_tok.split("x"), path, line))
            (offset,) = _ints([offset], path, line)
            side, _, name = full_name.partition(".")
            if side not in sides:
                raise ArtifactError(f"{path}: parameter side '{side}' is neither query nor key "
                                    f"in '{line}'")
            if name in sides[side]:
                raise ArtifactError(f"{path}: parameter '{full_name}' appears twice")
            sides[side][name] = _payload_array(handle, payload, shape, offset, path, line)
            entries.append((offset, 4 * math.prod(shape), line))
        elif line.startswith("#bank "):
            _, name, *numbers = _fields(line, 7, path)
            if name in banks:
                raise ArtifactError(f"{path}: bank '{name}' appears twice")
            capacity, width, cursor, fill, offset = _ints(numbers, path, line)
            if capacity < 1 or width < 1:
                raise ArtifactError(f"{path}: bank capacity and width must be positive in "
                                    f"'{line}'")
            storage = _payload_array(handle, payload, (capacity, width), offset, path, line)
            entries.append((offset, 4 * capacity * width, line))
            if not (0 <= fill <= capacity and 0 <= cursor < capacity):
                raise ArtifactError(f"{path}: cursor or fill outside the bank in '{line}'")
            # float32 round-trip perturbs norms; restore exact unit rows
            if fill:
                norms = np.linalg.norm(storage[:fill], axis=1, keepdims=True)
                storage[:fill] /= np.maximum(norms, 1e-30)
            banks[name] = MemoryBank.from_state(storage, cursor, fill)
        elif line.startswith("#rng "):
            if rng_meta:
                raise ArtifactError(f"{path}: a second '#rng' line '{line}'")
            rng_meta = _rng_counters(line, path)
        i += 1
    if not rng_meta:
        raise ArtifactError(f"{path}: no '#rng' line")
    _check_tiling(entries, payload[1], path)
    if query.keys() != key.keys():
        raise ArtifactError(f"{path}: query and key parameter names differ: "
                            f"{sorted(query.keys() ^ key.keys())}")
    return Checkpoint(config_flat=config_flat, query=query, key=key, banks=banks,
                      rng_meta=rng_meta)


# ---------------------------------------------------------------------------
# dataset file
# ---------------------------------------------------------------------------


def write_dataset(path, spec, train, test):
    """Header (spec echo + per-video manifest) then raw frames, float32, in
    (video, frame, row) order: the train split's frame array, then the test
    split's, converted one video at a time."""
    header = io.StringIO()
    header.write(DATASET_MAGIC + "\n")
    header.write("#config-begin\n")
    header.write(render_flat(flatten_config(spec)))
    header.write("#config-end\n")
    for name, split in (("train", train), ("test", test)):
        rows = np.column_stack([split.ids, split.labels, split.windows]).tolist()
        for vid, label, w0, w1 in rows:
            header.write(f"#video {vid} {label} {name} {w0} {w1}\n")
    header.write(f"#payload {4 * (train.frames.size + test.frames.size)}\n")
    videos = (_float32(video) for split in (train, test) for video in split.frames)
    atomic_write_bytes(path, header.getvalue().encode("utf-8"), videos)


def read_dataset(path):
    """Load a dataset file -> (spec_flat, train Split, test Split), each split's rows in
    manifest order and its frames float32, as stored. A video id listed twice
    is an ArtifactError."""
    with open(path, "rb") as handle:
        return _read_dataset(handle, path)


def _read_dataset(handle, path):
    from .synth import Split

    lines, offset, declared = _read_header(handle, DATASET_MAGIC, path)
    spec_flat, i = {}, 1
    manifest = []
    while i < len(lines):
        line = lines[i]
        if line == "#config-begin":
            spec_flat, i = _parse_config_lines(lines, i + 1, path)
            continue
        if line.startswith("#video "):
            _, vid, class_id, split, w0, w1 = _fields(line, 6, path)
            if split not in ("train", "test"):
                raise ArtifactError(f"{path}: video {vid} has unknown split '{split}'")
            manifest.append([*_ints((vid, class_id, w0, w1), path, line), split == "test"])
        i += 1
    t, h, w = _ints((spec_flat.get(f"dataset.{key}", "") for key in ("frames", "height", "width")),
                    path, "#config dataset.frames/height/width")
    if min(t, h, w) < 1:
        raise ArtifactError(f"{path}: frame shape {t}x{h}x{w} is not positive")
    if declared != t * h * w * 4 * len(manifest):
        raise ArtifactError(f"{path}: payload does not match the video manifest")
    try:
        manifest = np.array(manifest, dtype=np.int64).reshape(-1, 5)
    except OverflowError:
        raise ArtifactError(f"{path}: a '#video' field is out of range") from None
    ids, counts = np.unique(manifest[:, 0], return_counts=True)
    if np.any(counts > 1):
        raise ArtifactError(f"{path}: video id {ids[counts > 1][0]} appears more than once")
    is_test = manifest[:, 4]
    try:
        frames = [np.empty((np.count_nonzero(is_test == side), t, h, w), dtype="<f4")
                  for side in (0, 1)]
    except ValueError:  # no videos, and a frame too large to index
        raise ArtifactError(f"{path}: frame shape {t}x{h}x{w} is too large") from None
    # each run of consecutive same-split rows is one block of the payload
    filled = [0, 0]
    starts = np.flatnonzero(np.diff(is_test, prepend=-1)).tolist()
    handle.seek(offset)
    for start, stop in zip(starts, [*starts[1:], len(manifest)]):
        side = is_test[start]
        _read_into(handle, frames[side][filled[side]:filled[side] + stop - start], path)
        filled[side] += stop - start
    train, test = (Split(frames=frames[side], ids=manifest[rows, 0], labels=manifest[rows, 1],
                         windows=manifest[rows, 2:4])
                   for side, rows in enumerate((is_test == 0, is_test == 1)))
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
