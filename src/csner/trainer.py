"""Batch construction, the training schedule, and checkpointing.

Sentences are sorted by length (descending, stable) and cut into
consecutive fixed-size batches, each padded to its own longest sentence.
The learning rate starts at lr0 and is divided by sqrt(2) every epoch;
training stops once the post-processed dev harmonic F1 has failed to
improve for ``patience`` consecutive epochs.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import struct
import threading
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .corpus_io import TAGS, Dataset, TaggedSentence
from .embeddings import (
    SPECIAL_TOKENS,
    CharVocabulary,
    EmbeddingTable,
    Vocabulary,
)
from .evaluate import score
from .model import (
    BatchArrays,
    Tables,
    batch_loss,
    build_arrays,
    param_shapes,
    predict_batch,
)
from .postprocess import postprocess_sentence

CHECKPOINT_MAGIC = "CSNER1"


class TrainingError(Exception):
    pass


class CheckpointError(Exception):
    pass


@dataclass
class TrainingConfig:
    hidden: int = 200  # word LSTM hidden size per direction
    char_hidden: int = 150
    word_dim: int = 300
    char_dim: int = 150
    batch_size: int = 64
    dropout: float = 0.4
    lr0: float = 0.01
    decay: float = math.sqrt(2.0)
    patience: int = 2
    seed: int = 1
    max_epochs: int = 50
    float64: bool = False

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # exact types: a bool is not a size, and an int is not a flag
            if type(value) not in {"int": (int,), "float": (int, float), "bool": (bool,)}[f.type]:
                raise ValueError(f"{f.name} must be {f.type}, not {value!r}")
        for name in ("hidden", "char_hidden", "word_dim", "char_dim",
                     "batch_size", "max_epochs", "seed"):
            if getattr(self, name) < (0 if name == "seed" else 1):
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not (0 < self.lr0 < math.inf and 0 < self.decay < math.inf):  # nan fails too
            raise ValueError("lr0 and decay must be positive and finite")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")

    @property
    def dtype(self):
        return np.float64 if self.float64 else np.float32


@dataclass
class TaggerModel:
    params: dict[str, np.ndarray]  # in param_shapes order
    tables: Tables


def _cast(data: np.ndarray, dtype, copy: bool = True):
    """Finite ``data`` as ``dtype``, and the rows that the cast made
    non-finite, which only a narrowing cast can: no other is checked."""
    with np.errstate(over="ignore"):
        out = data.astype(dtype, copy=copy)
    if out.itemsize >= data.itemsize:
        return out, []
    return out, np.flatnonzero(~np.isfinite(out).all(axis=tuple(range(1, out.ndim)))).tolist()


def new_model(cfg: TrainingConfig, table: EmbeddingTable, chars: CharVocabulary,
              rng: np.random.Generator) -> TaggerModel:
    """A fresh tagger: the tensors of ``param_shapes`` drawn in order from
    Uniform(-0.1, 0.1), LSTM forget-gate biases at 1.0."""
    if table.dim != cfg.word_dim:
        raise ValueError(
            f"vector file dimension {table.dim} != configured word_dim {cfg.word_dim}"
        )
    if table.vocabulary.tokens[: len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
        raise ValueError("vocabulary does not start with PAD/UNK/USR/URL: "
                         "build the table with merge_tables")
    # the model's own table: the caller's keeps its array and dtype
    vectors, bad = _cast(table.vectors, cfg.dtype, copy=False)
    if len(bad):  # a loaded word before the PAD/UNK/USR/URL means, which it feeds
        token = table.vocabulary.tokens[next((r for r in bad if r >= len(SPECIAL_TOKENS)), bad[0])]
        raise ValueError(f"vector of {token!r} is not finite in {vectors.dtype}")
    table = replace(table, vectors=vectors)
    params = {}
    for name, shape in param_shapes(cfg, len(chars)).items():
        if 8 * math.prod(shape) > np.iinfo(np.intp).max:  # numpy would refuse the shape
            raise MemoryError(f"{name} {shape}: no address space holds the float64 draw")
        # the trainable PAD/UNK/USR/URL rows start as the table's own
        data = (table.vectors[: len(SPECIAL_TOKENS)].copy() if name == "word_specials"
                else rng.uniform(-0.1, 0.1, shape).astype(cfg.dtype))
        if name.endswith(".b"):  # the forget-gate block of an LSTM bias
            data[data.size // 4 : data.size // 2] = 1.0
        params[name] = data
    return TaggerModel(params, Tables(table, chars))


def batch_positions(dataset: Dataset, batch_size: int, surfaces: Dataset) -> list[list[int]]:
    """The corpus positions of each batch: the sentences sorted by length
    descending (stable) and cut into consecutive ``batch_size`` chunks.
    ``surfaces`` holds the raw spellings of ``dataset``, sentence for
    sentence."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if len(dataset) == 0:
        raise ValueError("cannot batch an empty dataset")
    if len(surfaces) != len(dataset):
        raise ValueError("surface dataset is not aligned with the input")
    order = sorted(range(len(dataset)), key=lambda i: -len(dataset.sentences[i]))
    return [order[start : start + batch_size] for start in range(0, len(order), batch_size)]


def _chunk_arrays(chunk, dataset: Dataset, tables: Tables, dtype, surfaces: Dataset) -> BatchArrays:
    return build_arrays([dataset.sentences[i] for i in chunk], tables, dtype,
                        [surfaces.sentences[i].tokens for i in chunk])


def make_batches(
    dataset: Dataset,
    batch_size: int,
    tables: Tables,
    dtype,
    surfaces: Dataset,
) -> list[BatchArrays]:
    """``build_arrays`` of each chunk of ``batch_positions``, which indexes
    and pads it.  ``dataset`` holds the normalized tokens, with their gold
    tags when the corpus is tagged, and ``surfaces`` the raw spellings
    that the char encoder reads, sentence for sentence.
    """
    return [_chunk_arrays(chunk, dataset, tables, dtype, surfaces)
            for chunk in batch_positions(dataset, batch_size, surfaces)]


def lr_schedule(lr0: float, epoch: int, decay: float = math.sqrt(2.0)) -> float:
    """Time-based decay: lr0 / decay**epoch, epoch counted from 0.  Raises
    TrainingError, naming the epoch counted from 1 as ``fit`` logs it,
    where that rate is not positive and finite: ``decay**epoch`` or the
    quotient overflows or underflows."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    try:
        lr = lr0 / decay**epoch
    except (ZeroDivisionError, OverflowError):
        lr = math.nan
    if not 0 < lr < math.inf:
        raise TrainingError(f"epoch {epoch + 1}: learning rate lr0 / decay**{epoch} is not "
                            f"positive and finite (lr0 {lr0!r}, decay {decay!r})")
    return lr


def train_epoch(
    model: TaggerModel,
    batches: list[BatchArrays],
    lr: float,
    rng: np.random.Generator,
    adam: ad.AdamState,
    dropout_rate: float = 0.4,
) -> float:
    """One optimization pass; returns the token-weighted mean loss.  Each
    step checks its loss, then its gradients in ``model.params`` order,
    before Adam moves anything, with numpy's overflow warnings off."""
    total_loss = 0.0
    total_tokens = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in batches:
            if batch.gold is None:
                raise TrainingError("cannot train on unlabeled sentences")
            loss, pullback = batch_loss(batch, model.tables, model.params,
                                        rng=rng, dropout_rate=dropout_rate)
            value = float(loss)
            if not math.isfinite(value):
                raise TrainingError(f"non-finite loss {value}")
            grads = ad.backward(loss, pullback)
            for name in model.params:
                if not np.isfinite(grads[name]).all():
                    raise TrainingError(f"non-finite gradient in {name}")
            ad.adam_step(model.params, grads, adam, lr)
            del pullback, grads  # the next batch's forward must not hold this one's state
            n_tokens = sum(batch.lengths)
            total_loss += value * n_tokens
            total_tokens += n_tokens
    return total_loss / total_tokens


def predict_dataset(
    model: TaggerModel,
    dataset: Dataset,
    batch_size: int,
    surfaces: Dataset,
    post: bool = True,
) -> list[list]:
    """Predicted tag sequences in corpus order, each batch built just
    before it is tagged.  Raises ValueError naming the first sentence
    whose tag scores are not finite."""
    dtype = model.params["proj_w"].dtype
    results: list[list | None] = [None] * len(dataset)
    for chunk in batch_positions(dataset, batch_size, surfaces):
        arrays = _chunk_arrays(chunk, dataset, model.tables, dtype, surfaces)
        for position, ids in zip(chunk, predict_batch(arrays, model.tables, model.params)):
            if ids is not None:
                tags = [TAGS[i] for i in ids]
                results[position] = postprocess_sentence(tags) if post else tags
    if None in results:
        raise ValueError(f"sentence {results.index(None) + 1}: the model's tag scores are not "
                         "finite (its weights overflow)")
    return results


def dev_f1(model: TaggerModel, dev: Dataset, batch_size: int, surfaces: Dataset) -> float:
    predicted = predict_dataset(model, dev, batch_size, surfaces)
    pred_ds = Dataset(
        [TaggedSentence(s.tokens, tags) for s, tags in zip(dev, predicted)], "pred"
    )
    return score(dev, pred_ds).harmonic_f1


@dataclass
class Checkpoint:
    """A frozen model: every tensor (trainables plus the fixed word
    matrix), both vocabularies, the config, and the dev score it earned."""

    tensors: dict[str, np.ndarray]
    word_tokens: list[str]
    char_list: list[str]
    config: TrainingConfig
    dev_score: float
    epoch: int


def snapshot(model: TaggerModel, cfg: TrainingConfig, dev_score: float, epoch: int) -> Checkpoint:
    tensors = {name: t.copy() for name, t in model.params.items()}
    # shared, not copied: nothing writes the fixed matrix after new_model
    tensors["word_fixed"] = model.tables.words.vectors
    return Checkpoint(
        tensors=tensors,
        word_tokens=list(model.tables.words.vocabulary.tokens),
        char_list=list(model.tables.chars.chars),
        config=cfg,
        dev_score=dev_score,
        epoch=epoch,
    )


def restore_model(ckpt: Checkpoint) -> TaggerModel:
    """Rebuild a runnable model from a checkpoint."""
    cfg = ckpt.config
    if ckpt.word_tokens[: len(SPECIAL_TOKENS)] != list(SPECIAL_TOKENS):
        raise CheckpointError("vocabulary does not start with PAD/UNK/USR/URL")
    vocab = Vocabulary(ckpt.word_tokens[len(SPECIAL_TOKENS) :], specials=True)
    chars = CharVocabulary(ckpt.char_list)
    # row r of char_embed belongs to character r of the stored list
    if chars.chars != ckpt.char_list:
        raise CheckpointError("character list is not in vocabulary order (PAD, UNK, then sorted)")
    shapes = {**param_shapes(cfg, len(chars)), "word_fixed": (len(vocab), cfg.word_dim)}
    unknown = [name for name in ckpt.tensors if name not in shapes]
    if unknown:
        raise CheckpointError(f"unknown tensor {unknown[0]!r}")
    params = {}
    for name, shape in shapes.items():
        if name not in ckpt.tensors:
            raise CheckpointError(f"missing tensor {name!r}")
        if ckpt.tensors[name].shape != shape:
            got = ckpt.tensors[name].shape
            raise CheckpointError(f"tensor {name!r} has shape {got}, expected {shape}")
        params[name], bad = _cast(ckpt.tensors[name], cfg.dtype)
        if len(bad):
            raise CheckpointError(f"tensor {name} overflows {params[name].dtype}")
    table = EmbeddingTable(vocab, params.pop("word_fixed"))
    return TaggerModel(params, Tables(table, chars))


# glibc's mallopt parameters, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Have glibc keep the heap memory that a training step frees, so
    that the next step reuses those pages instead of faulting fresh ones
    in.  Arrays up to 32 MiB, the most glibc allows, come from the heap,
    not from their own mmap, and free top-of-heap memory is handed back
    to the OS only past 1 GiB, more than a paper-size step's working set
    (28 to 158 MB measured).  Both are set: setting either one freezes
    glibc's adaptive thresholds where they stand.  The setting lasts for
    the process.  Without glibc, nothing is done."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def fit(
    model: TaggerModel,
    train: Dataset,
    dev: Dataset,
    cfg: TrainingConfig,
    train_surfaces: Dataset,
    dev_surfaces: Dataset,
    rng: np.random.Generator,
    log_fn,
) -> Checkpoint:
    """Train with per-epoch dev selection and early stopping.  The
    ``*_surfaces`` datasets hold the raw spellings of ``train`` and ``dev``.
    ``rng`` draws every dropout mask, and ``log_fn(epoch, loss, lr,
    dev_f1)`` is called once per epoch.

    The dev metric is the harmonic-mean F1 of post-processed predictions,
    matching the tuned pipeline.  Returns the best checkpoint seen.
    """
    cfg.validate()
    if not dev.labeled:
        raise TrainingError("dev split must carry gold tags")
    _keep_freed_heap()
    batches = make_batches(train, cfg.batch_size, model.tables, cfg.dtype, train_surfaces)
    adam = ad.AdamState()
    best: Checkpoint | None = None
    bad_epochs = 0
    for epoch in range(1, cfg.max_epochs + 1):
        lr = lr_schedule(cfg.lr0, epoch - 1, cfg.decay)
        try:
            loss = train_epoch(model, batches, lr, rng, adam, cfg.dropout)
        except TrainingError as exc:  # e.g. a step's loss is not finite
            raise TrainingError(f"epoch {epoch}, learning rate {lr!r}: {exc}") from None
        try:
            f1 = dev_f1(model, dev, cfg.batch_size, dev_surfaces)
        except ValueError as exc:  # a dev sentence's tag scores are not finite
            raise TrainingError(f"epoch {epoch}, learning rate {lr!r}: dev {exc}") from None
        log_fn(epoch, loss, lr, f1)
        if best is None or f1 > best.dev_score:
            best = snapshot(model, cfg, f1, epoch)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return best


# ---------------------------------------------------------------------------
# checkpoint file format: a plain-text header (magic, meta, one line per
# tensor with name/shape/offset, vocab entries, payload size, "end"),
# then little-endian float tensor data and length-prefixed UTF-8 token
# lists at the stated offsets.  Tensors are float32 unless their header
# line ends in "<f8" (written for float64 runs, so they reload exactly).


def _pack_tokens(tokens: list[str]) -> bytes:
    out = bytearray()
    for token in tokens:
        raw = token.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
    return bytes(out)


def _unpack_tokens(blob: bytes, count: int, kind: str) -> list[str]:
    tokens = []
    pos = 0
    for entry in range(count):
        if pos + 4 > len(blob):
            raise CheckpointError("truncated vocabulary block")
        (n,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + n > len(blob):
            raise CheckpointError("truncated vocabulary entry")
        try:
            tokens.append(blob[pos : pos + n].decode("utf-8"))
        except UnicodeDecodeError:
            raise CheckpointError(f"vocab {kind} entry {entry}: not valid UTF-8") from None
        pos += n
    if pos != len(blob):
        raise CheckpointError("trailing bytes after vocabulary block")
    return tokens


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    header = [CHECKPOINT_MAGIC]
    meta = {
        "config": asdict(ckpt.config),
        "dev_score": ckpt.dev_score,
        "epoch": ckpt.epoch,
    }
    header.append("meta " + json.dumps(meta, sort_keys=True))
    blocks, size = [], 0  # the payload, each block written from where it lies
    dtype, mark = ("<f8", " <f8") if ckpt.config.float64 else ("<f4", "")
    for name, data in ckpt.tensors.items():
        shape = ",".join(str(n) for n in data.shape)
        header.append(f"tensor {name} {shape} {size}{mark}")
        blocks.append(np.ascontiguousarray(data, dtype=dtype))  # a copy only to cast
        size += blocks[-1].nbytes
    for kind, tokens in (("word", ckpt.word_tokens), ("char", ckpt.char_list)):
        header.append(f"vocab {kind} {len(tokens)} {size}")
        blocks.append(_pack_tokens(tokens))
        size += len(blocks[-1])
    header.append(f"payload {size}")
    header.append("end")
    # write beside the target and rename over it, so a reader or a crash
    # mid-write never sees a partial checkpoint at ``path``
    tmp = f"{os.fspath(path)}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fp:
            fp.write("\n".join(header).encode("utf-8") + b"\n")
            for block in blocks:
                fp.write(block)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fp:
        blob = fp.read()
    try:
        header_end = blob.index(b"\nend\n")
    except ValueError:
        raise CheckpointError("missing header terminator") from None
    header_lines = blob[:header_end].decode("utf-8", errors="replace").split("\n")
    # tensors are views of the one buffer read; restore_model copies them
    payload = memoryview(blob)[header_end + len(b"\nend\n") :]
    if header_lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {header_lines[0]!r}")

    meta = meta_line = declared = payload_line = None
    blocks = []  # (line number, "tensor" or "vocab", name, offset, (shape, dtype) or count)
    seen = set()
    for number, line in enumerate(header_lines[1:], start=2):
        kind, _, rest = line.partition(" ")
        try:
            if kind == "meta":
                key, meta, meta_line = kind, json.loads(rest), number
            elif kind == "tensor":
                name, shape_s, offset_s, *mark = rest.split(" ")
                if mark not in ([], ["<f8"]):
                    raise ValueError("unknown dtype")
                shape = tuple(int(n) for n in shape_s.split(","))
                offset = int(offset_s)
                if min(shape + (offset,)) < 0:
                    raise ValueError("negative size")
                key = f"tensor {name}"
                blocks.append((number, kind, name, offset,
                               (shape, np.dtype(mark[0] if mark else "<f4"))))
            elif kind == "vocab":
                name, count_s, offset_s = rest.split(" ")
                count, offset = int(count_s), int(offset_s)
                if min(count, offset) < 0:
                    raise ValueError("negative size")
                if name not in ("word", "char"):
                    raise CheckpointError(f"header line {number}: unrecognized {line!r}")
                key = f"vocab {name}"
                blocks.append((number, kind, name, offset, count))
            elif kind == "payload":
                key, declared, payload_line = kind, int(rest), number
            else:
                raise CheckpointError(f"header line {number}: unrecognized {line!r}")
        except ValueError:
            raise CheckpointError(f"header line {number}: malformed {kind} line {line!r}") from None
        if key in seen:
            raise CheckpointError(f"header line {number}: repeated {key} line")
        seen.add(key)
    if meta is None or declared is None or not {"vocab word", "vocab char"} <= seen:
        raise CheckpointError("incomplete header")
    if len(payload) != declared:
        raise CheckpointError(
            f"payload is {len(payload)} bytes, header declares {declared}"
        )

    # the blocks lie back to back in header order, from byte 0 to the
    # payload's end, as save_checkpoint writes them.  A vocab block's size
    # is not in the header: it ends where the next block starts.
    blocks.append((payload_line, "payload", "end", declared, None))
    tensors, vocab_spans = {}, {}
    end, vocab = 0, None  # where the next block starts, or the vocab block it ends
    for number, kind, name, offset, spec in blocks:
        if vocab is not None:
            vocab_name, count, start = vocab
            if offset < start:
                raise CheckpointError(f"header line {number}: {kind} {name} at byte {offset}, "
                                      f"before vocab {vocab_name} at {start}")
            vocab_spans[vocab_name], vocab = (count, start, offset), None
        elif offset != end:
            raise CheckpointError(f"header line {number}: {kind} {name} at byte {offset}, "
                                  f"expected {end}")
        if kind == "vocab":
            vocab = name, spec, offset
        elif kind == "tensor":
            shape, dtype = spec
            end = offset + dtype.itemsize * math.prod(shape)  # exact: np.prod wraps in int64
            if end > len(payload):
                raise CheckpointError(f"tensor {name} overruns the payload")
            try:
                tensors[name] = np.frombuffer(payload, dtype, math.prod(shape), offset).reshape(shape)
            except ValueError as exc:  # a shape numpy cannot make, such as 0 by 2**64
                raise CheckpointError(f"header line {number}: tensor {name}: {exc}") from None
            if not np.isfinite(tensors[name]).all():
                raise CheckpointError(f"tensor {name} has a non-finite value")

    def read_tokens(kind):
        count, start, stop = vocab_spans[kind]
        return _unpack_tokens(bytes(payload[start:stop]), count, kind)

    try:
        cfg = TrainingConfig(**meta["config"])
        cfg.validate()
        dev_score, epoch = meta["dev_score"], meta["epoch"]
        # a string, a bool, NaN or an infinity is no score
        if type(dev_score) not in (int, float) or not math.isfinite(dev_score):
            raise ValueError(f"dev_score {dev_score!r} is not a finite number")
        if type(epoch) is not int:  # 1e309 or 1.5 is no epoch number
            raise ValueError(f"epoch {epoch!r} is not an integer")
    except KeyError as exc:
        raise CheckpointError(f"header line {meta_line}: meta has no {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"header line {meta_line}: bad meta block: {exc}") from None
    return Checkpoint(
        tensors=tensors,
        word_tokens=read_tokens("word"),
        char_list=read_tokens("char"),
        config=cfg,
        dev_score=float(dev_score),
        epoch=epoch,
    )
