"""On-disk artifact formats: checkpoint, dataset file, metrics CSV.

Both binary artifacts share one header grammar, written by `_header` and
parsed by `_parse_header`: the magic (version) line; `#config-begin`, one
canonical `key=value` line per config entry, each key once, `#config-end`;
the manifest, one line per entry, each starting with one of the artifact's
tags (`#param`, `#bank`, `#rng` in a checkpoint, `#video` in a dataset file)
and holding that tag's field count; then `#payload <bytes>`. Blank lines in
the manifest are skipped; any other line is an ArtifactError naming the file
and the line. A reader that sees the wrong version stops before touching any
payload. All writes go through a temp file and an atomic
rename. Binary payloads are little-endian float32.

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
import operator
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


# the comparison a value must pass against each declared end of its bound
_HOLDS = {"min": operator.ge, "above": operator.gt, "max": operator.le, "below": operator.lt}
_SIGNS = {"min": ">=", "above": ">", "max": "<=", "below": "<"}


def check_bounds(cfg):
    """Raise a ValueError naming the first field of cfg, in field order, whose
    value is outside the bound its metadata declares: `min` and `max` are
    inclusive ends, `above` and `below` exclusive ones. An int field's message
    states the end it breaks (`>= 1`, `<= 20`). A float field, typed by its
    default as the config parsers are, states its interval (`in (0, 1]`), or
    `finite and > 0` when the interval has no upper end. NaN is outside every
    bound."""
    for field in fields(cfg):
        bound = {end: b for end, b in field.metadata.items() if end in _HOLDS}
        value = getattr(cfg, field.name)
        if not isinstance(field.default, float):
            for end, b in bound.items():
                if not _HOLDS[end](value, b):
                    raise ValueError(f"{config_key(cfg, field)} must be {_SIGNS[end]} {b}")
        elif bound and not all(_HOLDS[end](value, b)  # a float must be finite too
                               for end, b in {"below": math.inf, **bound}.items()):
            raise ValueError(f"{config_key(cfg, field)} must be {_interval(bound)}")


def _interval(bound):
    """A float bound as a message: `in [0, 1]`, or `finite and >= 0` when no
    upper end is declared."""
    low = f"[{bound['min']}" if "min" in bound else f"({bound['above']}"
    if "max" in bound:
        return f"in {low}, {bound['max']}]"
    if "below" in bound:
        return f"in {low}, {bound['below']})"
    return f"finite and {'>=' if 'min' in bound else '>'} {low[1:]}"


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


def _header(magic, config_flat, manifest_lines, payload_length):
    """The header bytes of an artifact: the magic line, the config echo
    between '#config-begin' and '#config-end', the manifest lines, then the
    '#payload' line."""
    return "".join([f"{magic}\n#config-begin\n", render_flat(config_flat), "#config-end\n",
                    *(f"{line}\n" for line in manifest_lines),
                    f"#payload {payload_length}\n"]).encode("utf-8")


def _parse_header(lines, tags, path):
    """(config_flat, [(fields, line), ...]) of the header lines `_read_header`
    returns. Line 2 must be '#config-begin'; every line up to '#config-end'
    must be key=value, each key once. Every later non-blank line must start
    with a tag of `tags` and have the field count that `tags` maps it to; a
    count of None leaves the count to that line's own parser."""
    if lines[1:2] != ["#config-begin"]:
        raise ArtifactError(f"{path}: header line 2 is not '#config-begin'")
    if "#config-end" not in lines:
        raise ArtifactError(f"{path}: no '#config-end' line closes the config echo")
    end = lines.index("#config-end")
    config_flat = {}
    for line in lines[2:end]:
        key, eq, value = line.partition("=")
        if not (key and eq):
            raise ArtifactError(f"{path}: config echo line '{line}' is not key=value")
        if key in config_flat:
            raise ArtifactError(f"{path}: config key '{key}' appears twice")
        config_flat[key] = value
    manifest = [(line.split(), line) for line in lines[end + 1:] if line.strip()]
    for fields, line in manifest:
        if fields[0] not in tags:
            raise ArtifactError(f"{path}: unknown header line '{line}' (expected "
                                f"{', '.join(tags)})")
        if tags[fields[0]] is not None:
            _fields(line, tags[fields[0]], path)
    return config_flat, manifest


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
    manifest, offset = [], 0
    for prefix, params in (("query", query_params), ("key", key_params)):
        for name, arr in params.items():
            manifest.append(f"#param {prefix}.{name} {_shape_token(arr.shape)} {offset}")
            offset += 4 * arr.size
    for name, bank in banks.items():
        manifest.append(f"#bank {name} {bank.capacity} {bank.width} {bank.cursor} {bank.fill} "
                        f"{offset}")
        offset += 4 * bank.storage.size
    manifest.append("#rng " + " ".join(f"{name}={rng_meta[name]}" for name in _RNG_COUNTERS))
    arrays = [*query_params.values(), *key_params.values(),
              *(bank.storage for bank in banks.values())]
    atomic_write_bytes(path, _header(CHECKPOINT_MAGIC, config_flat, manifest, offset),
                       map(_float32, arrays))


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
    config_flat, manifest = _parse_header(lines, {"#param": 4, "#bank": 7, "#rng": None}, path)
    query, key, banks, rng_meta = {}, {}, {}, {}
    sides = {"query": query, "key": key}
    entries = []  # (offset, bytes, line) of every #param and #bank line
    for fields, line in manifest:
        if fields[0] == "#param":
            _, full_name, shape_tok, offset = fields
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
        elif fields[0] == "#bank":
            _, name, *numbers = fields
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
            # enqueue keeps the cursor at the fill until the bank is full
            if fill < capacity and cursor != fill:
                raise ArtifactError(f"{path}: cursor {cursor} is not the fill {fill} of a "
                                    f"bank that is not full in '{line}'")
            # float32 round-trip perturbs norms; restore exact unit rows
            if fill:
                norms = np.linalg.norm(storage[:fill], axis=1, keepdims=True)
                storage[:fill] /= np.maximum(norms, 1e-30)
            banks[name] = MemoryBank.from_state(storage, cursor, fill)
        elif rng_meta:  # '#rng', the one tag left
            raise ArtifactError(f"{path}: a second '#rng' line '{line}'")
        else:
            rng_meta = _rng_counters(line, path)
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
    manifest = [f"#video {vid} {label} {name} {w0} {w1}"
                for name, split in (("train", train), ("test", test))
                for vid, label, w0, w1 in
                np.column_stack([split.ids, split.labels, split.windows]).tolist()]
    header = _header(DATASET_MAGIC, flatten_config(spec), manifest,
                     4 * (train.frames.size + test.frames.size))
    videos = (_float32(video) for split in (train, test) for video in split.frames)
    atomic_write_bytes(path, header, videos)


def read_dataset(path):
    """Load a dataset file -> (spec_flat, train Split, test Split), each split's rows in
    manifest order and its frames float32, as stored. A video id listed twice
    is an ArtifactError."""
    with open(path, "rb") as handle:
        return _read_dataset(handle, path)


def _read_dataset(handle, path):
    from .synth import Split

    lines, offset, declared = _read_header(handle, DATASET_MAGIC, path)
    spec_flat, entries = _parse_header(lines, {"#video": 6}, path)
    manifest = []
    for (_, vid, class_id, split, w0, w1), line in entries:
        if split not in ("train", "test"):
            raise ArtifactError(f"{path}: video {vid} has unknown split '{split}'")
        manifest.append([*_ints((vid, class_id, w0, w1), path, line), split == "test"])
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
