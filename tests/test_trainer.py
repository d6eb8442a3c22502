import json
import math
from pathlib import Path

import numpy as np
import pytest

import csner.trainer as trainer_mod
from csner import autodiff as ad
from csner.corpus_io import Dataset, TaggedSentence
from csner.embeddings import build_char_vocab
from csner.model import BatchArrays, batch_loss
from csner.trainer import (
    Checkpoint,
    CheckpointError,
    TrainingConfig,
    TrainingError,
    fit,
    load_checkpoint,
    lr_schedule,
    make_batches,
    new_model,
    predict_dataset,
    restore_model,
    save_checkpoint,
    snapshot,
    train_epoch,
)

from conftest import corpus_from, corrupt_vocab_entry, random_table

DATA = Path(__file__).parent / "data"


def quick_cfg(**kw):
    base = dict(
        hidden=6, char_hidden=4, word_dim=12, char_dim=3,
        batch_size=4, max_epochs=3, seed=9,
    )
    base.update(kw)
    return TrainingConfig(**base)


@pytest.fixture()
def small_setup(overfit_corpus):
    words = {t for s in overfit_corpus for t in s.tokens}
    cfg = quick_cfg()
    table = random_table(words, cfg.word_dim)
    chars = build_char_vocab(overfit_corpus)
    model = new_model(cfg, table, chars, np.random.default_rng(cfg.seed))
    return cfg, model, overfit_corpus


class TestMakeBatches:
    def test_sorted_then_chunked(self, small_setup):
        cfg, model, _ = small_setup
        ds = Dataset(
            [
                TaggedSentence(["a"] * 3),
                TaggedSentence(["b"] * 5),
                TaggedSentence(["c"] * 4),
            ]
        )
        batches = make_batches(ds, 2, model.tables, np.float64)
        assert [b.arrays.lengths for b in batches] == [[5, 4], [3]]
        assert batches[0].order == [1, 2]

    def test_stable_on_ties(self, small_setup):
        _, model, _ = small_setup
        ds = Dataset([TaggedSentence([f"t{i}"]) for i in range(5)])
        batches = make_batches(ds, 3, model.tables, np.float64)
        assert batches[0].order == [0, 1, 2]
        assert batches[1].order == [3, 4]

    def test_mask_counts_match_token_total(self, small_setup):
        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, np.float64)
        total = sum(float(b.arrays.mask.sum()) for b in batches)
        assert total == sum(len(s) for s in corpus)

    def test_own_longest_padding(self, small_setup):
        _, model, corpus = small_setup
        batches = make_batches(corpus, 7, model.tables, np.float64)
        for b in batches:
            assert b.arrays.max_len == max(b.arrays.lengths)

    def test_empty_dataset_rejected(self, small_setup):
        _, model, _ = small_setup
        with pytest.raises(ValueError):
            make_batches(Dataset([]), 2, model.tables)

    def test_bad_batch_size(self, small_setup):
        _, model, corpus = small_setup
        with pytest.raises(ValueError):
            make_batches(corpus, 0, model.tables)


class TestLrSchedule:
    def test_initial_value(self):
        assert lr_schedule(0.01, 0) == 0.01

    def test_two_epochs_halve(self):
        assert lr_schedule(0.01, 2) == pytest.approx(0.005, abs=1e-15)

    def test_four_epochs_quarter(self):
        assert lr_schedule(0.01, 4) == pytest.approx(0.0025, abs=1e-15)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(0.01, -1)


class TestTrainEpoch:
    def test_zero_lr_keeps_parameters(self, small_setup):
        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, cfg.dtype)
        before = {k: t.data.copy() for k, t in model.params.tensors().items()}
        loss = train_epoch(model, batches, 0.0, np.random.default_rng(0), ad.AdamState(), cfg.dropout)
        assert math.isfinite(loss) and loss > 0
        for k, t in model.params.tensors().items():
            assert np.array_equal(t.data, before[k])

    def test_loss_decreases_over_first_five_epochs(self, small_setup):
        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, cfg.dtype)
        rng = np.random.default_rng(cfg.seed)
        adam = ad.AdamState()
        losses = [
            train_epoch(model, batches, lr_schedule(cfg.lr0, e), rng, adam, cfg.dropout)
            for e in range(5)
        ]
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_unlabeled_batch_rejected(self, small_setup):
        cfg, model, _ = small_setup
        ds = Dataset([TaggedSentence(["hola"])])
        batches = make_batches(ds, 1, model.tables, cfg.dtype)
        with pytest.raises(TrainingError):
            train_epoch(model, batches, 0.01, np.random.default_rng(0), ad.AdamState())


class TestFitStopping:
    def run_with_scores(self, monkeypatch, scores, patience=2, max_epochs=50):
        seen = []

        def fake_dev_f1(model, dev, batch_size, surfaces=None, post=True):
            seen.append(len(seen) + 1)
            return scores[len(seen) - 1]

        def fake_train_epoch(model, batches, lr, rng, adam, dropout=0.4):
            return 1.0

        monkeypatch.setattr(trainer_mod, "dev_f1", fake_dev_f1)
        monkeypatch.setattr(trainer_mod, "train_epoch", fake_train_epoch)
        corpus = corpus_from("a/O")
        cfg = quick_cfg(patience=patience, max_epochs=max_epochs)
        words = {t for s in corpus for t in s.tokens}
        model = new_model(cfg, random_table(words, cfg.word_dim),
                          build_char_vocab(corpus), np.random.default_rng(0))
        best = fit(model, corpus, corpus, cfg)
        return best, len(seen)

    def test_plateau_sequence_stops_after_epoch_four(self, monkeypatch):
        best, epochs = self.run_with_scores(monkeypatch, [0.5, 0.6, 0.55, 0.58, 0.9])
        assert epochs == 4
        assert best.epoch == 2
        assert best.dev_score == 0.6

    def test_monotone_scores_run_to_max_epochs(self, monkeypatch):
        scores = [i / 100 for i in range(1, 51)]
        best, epochs = self.run_with_scores(monkeypatch, scores, max_epochs=6)
        assert epochs == 6
        assert best.epoch == 6

    def test_best_is_never_below_any_epoch(self, monkeypatch):
        rng = np.random.default_rng(4)
        scores = list(rng.uniform(0, 1, size=30))
        best, epochs = self.run_with_scores(monkeypatch, scores, max_epochs=30)
        assert best.dev_score == pytest.approx(max(scores[:epochs]))

    def test_unlabeled_dev_rejected(self, small_setup):
        cfg, model, corpus = small_setup
        unlabeled = Dataset([TaggedSentence(list(s.tokens)) for s in corpus])
        # every sentence is checked, not only the first
        second_untagged = Dataset([corpus.sentences[0], unlabeled.sentences[1],
                                   *corpus.sentences[2:]])
        for dev in (unlabeled, second_untagged):
            with pytest.raises(TrainingError):
                fit(model, corpus, dev, cfg)


class TestPaddingNeutrality:
    def test_extra_padding_column_changes_nothing(self, small_setup):
        cfg, model, corpus = small_setup
        cfg64 = quick_cfg(float64=True)
        words = {t for s in corpus for t in s.tokens}
        model = new_model(cfg64, random_table(words, cfg64.word_dim),
                          build_char_vocab(corpus), np.random.default_rng(3))
        batch = make_batches(corpus, 8, model.tables, np.float64)[0]
        params = model.params.tensors()

        def grads_for(arrays, gold):
            ad.zero_grads(params)
            loss = batch_loss(arrays, gold, model.tables, model.params)
            ad.backward(loss)
            return float(loss.data), {k: t.grad.copy() for k, t in params.items()}

        base_loss, base_grads = grads_for(batch.arrays, batch.gold_flat)

        a = batch.arrays
        t_max, bsz = a.mask.shape
        n_cols = a.char_idx.shape[1]
        # one more all-padding word step, its slots on a real spelling,
        # and one more all-padding character step
        word_idx = np.vstack([a.word_idx, np.full((1, bsz), 3, dtype=np.int64)])
        mask = np.vstack([a.mask, np.zeros((1, bsz))])
        spelling_idx = np.concatenate([a.spelling_idx, np.zeros(bsz, dtype=np.int64)])
        char_idx = np.vstack([a.char_idx, np.full((1, n_cols), 2, dtype=np.int64)])
        char_mask = np.vstack([a.char_mask, np.zeros((1, n_cols))])
        padded = BatchArrays(word_idx, char_idx, char_mask, spelling_idx, mask, a.lengths)
        gold = np.concatenate(
            [batch.gold_flat.reshape(t_max, bsz), np.ones((1, bsz), dtype=np.int64)]
        ).reshape(-1)

        pad_loss, pad_grads = grads_for(padded, gold)
        assert abs(base_loss - pad_loss) < 1e-12
        for k in base_grads:
            assert np.max(np.abs(base_grads[k] - pad_grads[k])) < 1e-12, k


class TestDeterminism:
    def train_once(self, seed=11):
        corpus = corpus_from(
            "Ana/B-PER come/O\nel/O rio/B-LOC\npan/O rico/O\nsol/B-EVENT hoy/O"
        )
        cfg = quick_cfg(seed=seed, max_epochs=3)
        words = {t for s in corpus for t in s.tokens}
        rng = np.random.default_rng(cfg.seed)
        model = new_model(cfg, random_table(words, cfg.word_dim),
                          build_char_vocab(corpus), rng)
        best = fit(model, corpus, corpus, cfg, rng=rng)
        return best

    def test_identical_seeds_identical_checkpoints(self, tmp_path):
        a, b = self.train_once(), self.train_once()
        pa, pb = tmp_path / "a.ck", tmp_path / "b.ck"
        save_checkpoint(a, pa)
        save_checkpoint(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_word_table_fixed_rows_untouched_by_training(self):
        ds = corpus_from("Ana/B-PER come/O")
        words = {t for s in ds for t in s.tokens}
        table = random_table(words, 12)
        cfg = quick_cfg(max_epochs=2)
        model = new_model(cfg, table, build_char_vocab(ds), np.random.default_rng(0))
        checksum = model.tables.words.vectors.tobytes()
        fit(model, ds, ds, cfg)
        assert model.tables.words.vectors.tobytes() == checksum


class TestNewModel:
    def test_callers_table_keeps_its_array(self, overfit_corpus):
        words = {t for s in overfit_corpus for t in s.tokens}
        table = random_table(words, 12)
        vectors = table.vectors
        model = new_model(quick_cfg(), table, build_char_vocab(overfit_corpus),
                          np.random.default_rng(0))
        assert table.vectors is vectors and vectors.dtype == np.float64
        assert model.tables.words.vectors.dtype == np.float32
        assert np.array_equal(model.tables.words.vectors, vectors.astype(np.float32))


class TestCheckpointIO:
    def make_checkpoint(self, small_setup) -> Checkpoint:
        cfg, model, corpus = small_setup
        return snapshot(model, cfg, dev_score=0.25, epoch=3)

    def test_round_trip_predictions(self, small_setup, tmp_path):
        cfg, model, corpus = small_setup
        ckpt = snapshot(model, cfg, 0.5, 1)
        path = tmp_path / "model.ck"
        save_checkpoint(ckpt, path)
        loaded = restore_model(load_checkpoint(path))
        want = predict_dataset(restore_model(ckpt), corpus, 8)
        got = predict_dataset(loaded, corpus, 8)
        assert want == got

    def test_metadata_round_trip(self, small_setup, tmp_path):
        ckpt = self.make_checkpoint(small_setup)
        path = tmp_path / "model.ck"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.dev_score == 0.25
        assert loaded.epoch == 3
        assert loaded.config == ckpt.config
        assert loaded.word_tokens == ckpt.word_tokens
        assert loaded.char_list == ckpt.char_list

    def test_corrupted_magic_rejected(self, small_setup, tmp_path):
        ckpt = self.make_checkpoint(small_setup)
        path = tmp_path / "model.ck"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, small_setup, tmp_path):
        ckpt = self.make_checkpoint(small_setup)
        path = tmp_path / "model.ck"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_declared_sizes_match_file(self, small_setup, tmp_path):
        ckpt = self.make_checkpoint(small_setup)
        path = tmp_path / "model.ck"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        header, _, payload = blob.partition(b"\nend\n")
        declared = None
        tensor_bytes = 0
        for line in header.decode().split("\n"):
            parts = line.split(" ")
            if parts[0] == "tensor":
                shape = tuple(int(x) for x in parts[2].split(","))
                tensor_bytes += 4 * int(np.prod(shape))
            elif parts[0] == "payload":
                declared = int(parts[1])
        assert len(payload) == declared
        vocab_bytes = sum(4 + len(t.encode()) for t in ckpt.word_tokens)
        vocab_bytes += sum(4 + len(c.encode()) for c in ckpt.char_list)
        assert declared == tensor_bytes + vocab_bytes

    @pytest.mark.parametrize("kind, edit, message", [
        ("meta", lambda rest: json.dumps({k: v for k, v in json.loads(rest).items()
                                          if k != "config"}), "meta has no 'config'"),
        ("meta", lambda rest: rest[:-1], "malformed meta line"),
        ("tensor", lambda rest: rest.rsplit(" ", 1)[0] + " x", "malformed tensor line"),
        ("tensor", lambda rest: rest + " <f2", "malformed tensor line '.* <f2'$"),
        ("vocab", lambda rest: rest + " 7", "malformed vocab line"),
        # config values of the wrong type or range (quick_cfg's sizes)
        ("meta", lambda rest: rest.replace('"char_hidden": 4', '"char_hidden": "4"'),
         "bad meta block: char_hidden must be int"),
        ("meta", lambda rest: rest.replace('"hidden": 6', '"hidden": true'),
         "bad meta block: hidden must be int"),
        ("meta", lambda rest: rest.replace('"batch_size": 4', '"batch_size": -4'),
         "bad meta block: batch_size must be positive"),
    ])
    def test_malformed_header_line_located(self, small_setup, tmp_path, kind, edit, message):
        path = tmp_path / "model.ck"
        save_checkpoint(self.make_checkpoint(small_setup), path)
        header, sep, payload = path.read_bytes().partition(b"\nend\n")
        lines = header.decode().split("\n")
        number = next(i for i, line in enumerate(lines, start=1) if line.startswith(kind + " "))
        lines[number - 1] = kind + " " + edit(lines[number - 1].partition(" ")[2])
        path.write_bytes("\n".join(lines).encode() + sep + payload)
        with pytest.raises(CheckpointError, match=f"^header line {number}: {message}"):
            load_checkpoint(path)

    def test_float64_round_trip_is_exact(self, overfit_corpus, tmp_path):
        words = {t for s in overfit_corpus for t in s.tokens}
        cfg = quick_cfg(float64=True)
        model = new_model(cfg, random_table(words, cfg.word_dim),
                          build_char_vocab(overfit_corpus), np.random.default_rng(cfg.seed))
        ckpt = snapshot(model, cfg, 0.5, 1)
        path = tmp_path / "model.ck"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.tensors.keys() == ckpt.tensors.keys()
        for name, data in ckpt.tensors.items():
            assert loaded.tensors[name].dtype == np.float64, name
            assert np.array_equal(loaded.tensors[name], data), name
        restored = restore_model(loaded).params.tensors()
        for name, t in model.params.tensors().items():
            assert np.array_equal(restored[name].data, t.data), name

    def test_float32_checkpoint_without_dtype_field(self, overfit_corpus, tmp_path):
        """A float32 checkpoint written before tensor lines could carry a
        dtype loads, tags as it did when written, and saves back to the
        same bytes."""
        path = DATA / "checkpoint_f32.ck"
        ckpt = load_checkpoint(path)
        tags = predict_dataset(restore_model(ckpt), overfit_corpus, 8)
        want = json.loads((DATA / "checkpoint_f32.tags.json").read_text())
        assert [[str(t) for t in sent] for sent in tags] == want
        save_checkpoint(ckpt, tmp_path / "again.ck")
        assert (tmp_path / "again.ck").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind, entry", [("word", 5), ("char", 3)])
    def test_non_utf8_vocab_entry_located(self, small_setup, tmp_path, kind, entry):
        path = tmp_path / "model.ck"
        save_checkpoint(self.make_checkpoint(small_setup), path)
        corrupt_vocab_entry(path, kind, entry)
        with pytest.raises(CheckpointError, match=f"^vocab {kind} entry {entry}: not valid UTF-8$"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, small_setup, tmp_path, monkeypatch):
        path = tmp_path / "model.ck"
        save_checkpoint(self.make_checkpoint(small_setup), path)
        before = path.read_bytes()
        cfg, model, _ = small_setup

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(trainer_mod.os, "replace", refuse)
        with pytest.raises(OSError):
            save_checkpoint(snapshot(model, cfg, 0.9, 7), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ck"]
        monkeypatch.undo()
        save_checkpoint(snapshot(model, cfg, 0.9, 7), path)
        assert load_checkpoint(path).epoch == 7
        assert [p.name for p in tmp_path.iterdir()] == ["model.ck"]

    @pytest.mark.parametrize("name, edit", [
        ("char_embed", lambda a: a[:-1]),
        ("word_fwd.wh", lambda a: a[:, :-4]),
        ("proj_w", lambda a: a[:, :-1]),
        ("word_fixed", lambda a: a[:-1]),
        ("char_bwd.b", None),
    ], ids=["char_embed_rows", "word_fwd.wh_columns", "proj_w_columns", "word_fixed_rows",
            "char_bwd.b_missing"])
    def test_restore_checks_every_shape(self, small_setup, name, edit):
        ckpt = self.make_checkpoint(small_setup)
        want = ckpt.tensors[name].shape
        if edit is None:
            del ckpt.tensors[name]
            message = f"missing tensor {name!r}"
        else:
            ckpt.tensors[name] = edit(ckpt.tensors[name])
            message = f"tensor {name!r} has shape {ckpt.tensors[name].shape}, expected {want}"
        with pytest.raises(CheckpointError) as err:
            restore_model(ckpt)
        assert str(err.value) == message

    def test_restore_checks_char_order(self, small_setup):
        ckpt = self.make_checkpoint(small_setup)
        # PAD and UNK kept first: each char_embed row would meet another character
        ckpt.char_list = ckpt.char_list[:2] + ckpt.char_list[:1:-1]
        with pytest.raises(CheckpointError, match="character list is not in vocabulary order"):
            restore_model(ckpt)

    def test_shape_disagreement_rejected(self, small_setup, tmp_path):
        ckpt = self.make_checkpoint(small_setup)
        path = tmp_path / "model.ck"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        # grow a declared shape so it overruns the payload
        patched = blob.replace(b"tensor proj_w 12,19", b"tensor proj_w 999,19", 1)
        assert patched != blob
        path.write_bytes(patched)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
