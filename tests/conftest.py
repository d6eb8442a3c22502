"""Shared fixtures: synthetic corpora, vector tables, reduced models."""

import struct
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from csner.corpus_io import Dataset, parse_conll
from csner.embeddings import (
    CharVocabulary,
    EmbeddingTable,
    Vocabulary,
    build_char_vocab,
)
from csner import autodiff as ad
from csner.model import Tables, batch_loss
from csner.trainer import TrainingConfig, new_model

# 30 bilingual sentences, 4 entity categories, every token carrying one
# fixed tag; dense in entities so that span-level scores move early.
OVERFIT_SENTENCES = """\
Maria/B-PER Madrid/B-LOC va/O
Kendrick/B-PER Lamar/I-PER Coachella/B-EVENT sings/O
Jose/B-PER iPhone/B-PROD compra/O
Westland/B-LOC Mall/I-LOC Nutella/B-PROD en/O
Navidad/B-EVENT Madrid/B-LOC es/O
Texas/B-LOC iPhone/B-PROD is/O
Maria/B-PER Nutella/B-PROD loves/O
Coachella/B-EVENT Texas/B-LOC en/O
Jose/B-PER Navidad/B-EVENT canta/O
Kendrick/B-PER Lamar/I-PER Texas/B-LOC va/O
Madrid/B-LOC Nutella/B-PROD tiene/O
iPhone/B-PROD Navidad/B-EVENT para/O
Maria/B-PER Coachella/B-EVENT canta/O
Westland/B-LOC Mall/I-LOC opens/O es/O
Maria/B-PER iPhone/B-PROD buys/O
Nutella/B-PROD Coachella/B-EVENT is/O
Jose/B-PER Madrid/B-LOC vive/O
Texas/B-LOC Navidad/B-EVENT in/O
Kendrick/B-PER Lamar/I-PER Nutella/B-PROD loves/O
Maria/B-PER Texas/B-LOC va/O
iPhone/B-PROD Madrid/B-LOC en/O
Coachella/B-EVENT Navidad/B-EVENT y/O
Jose/B-PER Westland/B-LOC Mall/I-LOC en/O
Nutella/B-PROD iPhone/B-PROD y/O
Maria/B-PER Navidad/B-EVENT ama/O
Kendrick/B-PER Lamar/I-PER Madrid/B-LOC en/O
Texas/B-LOC Nutella/B-PROD has/O
Coachella/B-EVENT iPhone/B-PROD at/O
Jose/B-PER Texas/B-LOC y/O Maria/B-PER
Westland/B-LOC Mall/I-LOC Navidad/B-EVENT en/O
"""


def tagged_text(spec: str) -> str:
    """'tok/TAG tok/TAG' lines -> two-column CoNLL text."""
    lines = []
    for sentence in spec.strip().split("\n"):
        for pair in sentence.split(" "):
            token, tag = pair.rsplit("/", 1)
            lines.append(f"{token}\t{tag}")
        lines.append("")
    return "\n".join(lines) + "\n"


def corpus_from(spec: str, split: str = "") -> Dataset:
    return parse_conll(tagged_text(spec), split)


def random_table(words, dim, seed=123, scale=1.5) -> EmbeddingTable:
    """A merged-style table with synthetic vectors for the given words."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(sorted(words), specials=True)
    vectors = np.vstack(
        [
            np.zeros(dim),
            rng.normal(size=(3, dim)) * 0.1,
            rng.normal(size=(len(vocab) - 4, dim)) * scale,
        ]
    )
    return EmbeddingTable(vocab, vectors)


def write_vec_file(path, words, dim, seed=123, scale=1.5) -> None:
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(f"{len(words)} {dim}\n")
        for word in words:
            values = rng.normal(size=dim) * scale
            fp.write(word + " " + " ".join(f"{v:.6f}" for v in values) + "\n")


def traced_peak(fn):
    """The peak of traced allocations while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class InlineExecutor:
    """An executor that runs each call as it is submitted, on the caller's
    thread: ``autodiff.both`` then runs its second call before its first."""

    def submit(self, fn):
        future = Future()
        try:
            future.set_result(fn())
        except BaseException as exc:
            future.set_exception(exc)
        return future


def corrupt_vocab_entry(path, kind: str, entry: int) -> None:
    """Set the first byte of a checkpoint's ``kind`` vocabulary entry
    ``entry`` (counted from 0) to 0xFF, which is never valid UTF-8."""
    blob = bytearray(Path(path).read_bytes())
    header, sep, _ = bytes(blob).partition(b"\nend\n")
    line = next(x for x in header.decode().split("\n") if x.startswith(f"vocab {kind} "))
    pos = len(header) + len(sep) + int(line.split(" ")[3])
    for _ in range(entry):
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
    blob[pos + 4] = 0xFF
    Path(path).write_bytes(bytes(blob))


def corrupt_tensor_value(path, name: str, value: float) -> None:
    """Overwrite the first element of a checkpoint's tensor ``name`` with
    ``value``, in the tensor's stored float width."""
    blob = bytearray(Path(path).read_bytes())
    header, sep, _ = bytes(blob).partition(b"\nend\n")
    line = next(x for x in header.decode().split("\n") if x.startswith(f"tensor {name} "))
    _, _, _, offset, *mark = line.split(" ")
    fmt = "<d" if mark == ["<f8"] else "<f"
    struct.pack_into(fmt, blob, len(header) + len(sep) + int(offset), value)
    Path(path).write_bytes(bytes(blob))


@pytest.fixture(scope="session")
def overfit_corpus() -> Dataset:
    return corpus_from(OVERFIT_SENTENCES, "train")


@pytest.fixture(scope="session")
def overfit_tables(overfit_corpus) -> Tables:
    words = {t for s in overfit_corpus for t in s.tokens}
    return Tables(random_table(words, 300), build_char_vocab(overfit_corpus))


# reduced setup for gradient checks: 2 sentences, tiny dimensions
MICRO_SENTENCES = """\
Ana/B-PER come/O pan/O
el/O rio/B-LOC azul/O
"""

MICRO_CFG = TrainingConfig(char_dim=4, char_hidden=6, word_dim=8, hidden=10, float64=True)


@pytest.fixture()
def micro_setup():
    corpus = corpus_from(MICRO_SENTENCES)
    words = {t for s in corpus for t in s.tokens}
    rng = np.random.default_rng(7)
    vocab = Vocabulary(sorted(words), specials=True)
    vectors = np.vstack([np.zeros(8), rng.normal(size=(3, 8)), rng.normal(size=(len(vocab) - 4, 8))])
    chars = CharVocabulary({c for w in words for c in w})
    model = new_model(MICRO_CFG, EmbeddingTable(vocab, vectors), chars, rng)
    return corpus, model.tables, model.params


# tiny float64 sizes, every one distinct, so a swapped dimension shows
SMALL_CFG = TrainingConfig(char_dim=3, char_hidden=4, word_dim=6, hidden=5, float64=True)


def small_model(tables: Tables, seed=3) -> dict:
    """The parameters of a ``SMALL_CFG`` model over ``tables``, whose
    vectors must be 6-dimensional."""
    return new_model(SMALL_CFG, tables.words, tables.chars, np.random.default_rng(seed)).params


def loss_and_grads(arrays, tables, params, rng=None, dropout_rate=0.0):
    """``model.batch_loss`` and its gradients by name.  Without ``rng``
    it is given a fresh stream; dropout draws from it only at a rate
    above 0, so by default the loss is deterministic."""
    loss, pullback = batch_loss(arrays, tables, params,
                                rng=np.random.default_rng(0) if rng is None else rng,
                                dropout_rate=dropout_rate)
    return float(loss), ad.backward(loss, pullback)
