"""The run's records and their crash-safe write, ``replacing``.

Checkpoints (format "MSEC") carry every named tensor (encoder + head + Adam
moments), the step counter, and the run configuration; label caches (format
"MSEQ1") carry one utterance's frozen labels, in the file that
``label_cache_path`` names inside a label directory. Each format has one
writer and one reader, which fills each array with one read at its offset.
Of the package only ``encoder`` is imported, for the ``EncoderConfig`` the
checkpoint reader builds.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from pathlib import Path, PurePosixPath

import numpy as np

from . import encoder as enc

CHECKPOINT_MAGIC = b"MSEC"
CHECKPOINT_VERSION = 1
LABEL_CACHE_MAGIC = "MSEQ1"
# a label is a u16 in the cache file and in memory
LABEL_CACHE_MAX_VOCAB = 65536
LABEL_CACHE_HEADER_MAX = 52  # bytes of "MSEQ1 L N V\n" at 64-bit L and N, V = 65536


class CheckpointError(ValueError):
    """Version, magic, or tensor-shape mismatch while loading a checkpoint."""


class LabelCacheError(ValueError):
    """A label cache that cannot be read or does not fit its quantizer or utterance."""


@contextlib.contextmanager
def replacing(path):
    """The path ``<path>.tmp`` to write ``path``'s new content to: renamed onto
    ``path`` when the block ends, deleted when it fails, so a write that fails
    midway leaves any previous file at ``path`` whole."""
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        yield partial
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _read_array(f, at: int, shape, dtype: str, error):
    """An array of ``shape`` filled by one read from ``f`` at byte ``at``; a
    short read raises ``error``."""
    arr = np.empty(shape, dtype=dtype)
    f.seek(at)
    if f.readinto(arr) != arr.nbytes:
        raise error
    return arr


def write_checkpoint(path, step: int, encoder_cfg: enc.EncoderConfig, tensors: dict,
                     fields: dict) -> None:
    """Write magic, version, length-prefixed JSON header, then f32 tensor data
    through ``replacing``; ``fields`` are the header entries that depend on
    the kind of run."""
    entries = []
    offset = 0
    for name in sorted(tensors):
        shape = list(tensors[name].shape)
        entries.append({"name": name, "shape": shape, "offset": offset})
        offset += math.prod(shape) * 4
    header = {**fields,
              "format_version": CHECKPOINT_VERSION,
              "step": step,
              "encoder_config": encoder_cfg.to_dict(),
              "tensors": entries}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path) as partial, open(partial, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for entry in entries:
            f.write(np.ascontiguousarray(tensors[entry["name"]], dtype="<f4"))


def header_value(record, key: str, path, parse=lambda raw: raw):
    """``parse(record[key])`` from a checkpoint header; a missing or malformed
    entry is a CheckpointError."""
    try:
        raw = record[key]
    except (KeyError, TypeError):
        raise CheckpointError(f"corrupt checkpoint: {path} "
                              f"(missing header key {key!r})") from None
    try:
        return parse(raw)
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"corrupt checkpoint: {path} (bad {key}: {err})") from None


def _is_count(value) -> bool:
    """A header count (step, shape, offset) fits 64 bits, as every integer config key does."""
    return type(value) is int and 0 <= value < 2**63


def read_checkpoint(path, want=None):
    """(header dict, {name: float32 array}) from an MSEC file.

    The header's ``step`` is a count below 2**63 and its ``encoder_config``
    an ``EncoderConfig``, both checked here alone. Every tensor the header
    lists must be listed once and end inside the file. ``want(header)``,
    which may refuse the header, names the tensors to read as {name: shape},
    each listed at that shape; every tensor is read when ``want`` is None.
    """
    path = Path(path)
    try:
        with open(path, "rb") as f:
            return _read_records(f, path, want)
    except FileNotFoundError:
        raise CheckpointError(f"no such checkpoint: {path}") from None
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint: {path} "
                              f"({err.strerror or err})") from None


def _read_records(f, path: Path, want):
    size = os.fstat(f.fileno()).st_size
    prefix = f.read(12)
    if len(prefix) < 12 or prefix[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"corrupt checkpoint: {path} (bad magic)")
    version, header_len = struct.unpack("<II", prefix[4:])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {version} unsupported "
                              f"(expected {CHECKPOINT_VERSION}): {path}")
    if size < 12 + header_len:
        raise CheckpointError(f"corrupt checkpoint: {path} (truncated header)")
    try:
        header = json.loads(f.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointError(f"corrupt checkpoint: {path} (bad header)") from None

    if not _is_count(header_value(header, "step", path)):
        raise CheckpointError(f"corrupt checkpoint: {path} (bad step {header['step']!r})")
    header["encoder_config"] = header_value(header, "encoder_config", path,
                                            lambda raw: enc.EncoderConfig(**raw))
    base = 12 + header_len
    truncated = CheckpointError(f"corrupt checkpoint: {path} (truncated data)")
    listed = {}  # name -> (shape, byte offset in the file)
    for entry in header_value(header, "tensors", path, list):
        name, shape, start = (header_value(entry, key, path) for key in ("name", "shape", "offset"))
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(map(_is_count, shape)) and _is_count(start)):
            raise CheckpointError(f"corrupt checkpoint: {path} (bad tensor entry {name!r})")
        if name in listed:
            raise CheckpointError(f"corrupt checkpoint: {path} (tensor {name!r} listed twice)")
        if base + start + 4 * math.prod(shape) > size:
            raise truncated
        listed[name] = (tuple(shape), base + start)
    wanted = {name: shape for name, (shape, _) in listed.items()} if want is None else want(header)
    for name, shape in wanted.items():
        if name not in listed:
            raise CheckpointError(f"checkpoint missing tensor {name}: {path}")
        if listed[name][0] != tuple(shape):
            raise CheckpointError(f"shape mismatch for tensor {name}: checkpoint {path} "
                                  f"has {listed[name][0]}, config {tuple(shape)}")
    return header, {name: _read_array(f, at, shape, "<f4", truncated)
                    for name, (shape, at) in listed.items() if name in wanted}


def label_cache_path(directory, utt_id: str) -> Path:
    """``<directory>/<utt_id>.lab``, the label cache of utterance ``utt_id``.

    An id may name subdirectories, but an absolute id or one with a ``..``
    part would name a file outside ``directory``, and an id spelled other
    than its normalized path (``a//b``, ``./a``, ``a/``, the empty id) would
    share its file with another id: each is a ValueError naming the id and
    the directory."""
    if Path(utt_id).is_absolute() or ".." in Path(utt_id).parts:
        raise ValueError(f"utterance id {utt_id!r} names a label file outside {directory}")
    path = str(PurePosixPath(utt_id))
    if path != utt_id:
        raise ValueError(f"utterance id {utt_id!r} is not spelled as the path {path!r} "
                         f"that names its label file in {directory}")
    return Path(directory) / (utt_id + ".lab")


def write_label_cache(path, labels: np.ndarray, vocab_size: int) -> None:
    """Cache file, through ``replacing``: ASCII header "MSEQ1 L N V", then L*N
    little-endian u16."""
    if vocab_size > LABEL_CACHE_MAX_VOCAB:
        raise ValueError(f"label cache format requires vocab_size <= {LABEL_CACHE_MAX_VOCAB}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= vocab_size:
        raise ValueError("labels out of range for vocab_size")
    l, n = labels.shape
    with replacing(path) as partial, open(partial, "wb") as f:
        f.write(f"{LABEL_CACHE_MAGIC} {l} {n} {vocab_size}\n".encode("ascii"))
        f.write(np.ascontiguousarray(labels, dtype="<u2"))


def read_label_cache(path, config=None) -> np.ndarray:
    """Read a label cache file back to an (L, N) uint16 array, its stored width.

    The header is read in at most ``LABEL_CACHE_HEADER_MAX`` bytes, the
    payload straight into the array. With ``config`` (a ``QuantizerConfig``),
    a file whose header holds another codebook count N or vocabulary V is
    refused, naming the file and both shapes, before its payload is read.
    Every refusal is a LabelCacheError.
    """
    path = Path(path)
    with open(path, "rb") as f:
        line = f.readline(LABEL_CACHE_HEADER_MAX)
        header = line.decode("ascii", errors="replace").split()
        if (not line.endswith(b"\n") or len(header) != 4 or header[0] != LABEL_CACHE_MAGIC
                or not all(tok.isdigit() for tok in header[1:])):
            raise LabelCacheError(f"not a label cache file: {path}")
        l, n, v = (int(tok) for tok in header[1:])
        if config is not None and (n, v) != (config.num_codebooks, config.vocab_size):
            raise LabelCacheError(f"label cache {path} of {n} codebooks of {v} labels does "
                                  f"not fit the quantizer's {config.num_codebooks} codebooks "
                                  f"of {config.vocab_size} labels")
        # sized before the array is made, so a corrupt header allocates nothing
        truncated = LabelCacheError(f"label cache truncated: {path}")
        if os.fstat(f.fileno()).st_size - len(line) != l * n * 2:
            raise truncated
        labels = _read_array(f, len(line), (l, n), "<u2", truncated)
    if labels.size and labels.max() >= v:
        raise LabelCacheError(f"label cache contains out-of-range labels: {path}")
    return labels
