import hashlib
import json
import math
import platform
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import csner.model as model_mod
import csner.trainer as trainer_mod
from csner import autodiff as ad
from csner.corpus_io import O, Dataset, TaggedSentence
from csner.embeddings import build_char_vocab, load_vec, merge_tables
from csner.model import BatchArrays, batch_loss, param_shapes
from csner.preprocess import USR
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

from conftest import (
    InlineExecutor,
    corpus_from,
    corrupt_tensor_value,
    corrupt_vocab_entry,
    loss_and_grads,
    random_table,
    traced_peak,
)

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


class TestConfigValidate:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["lr0", "decay"])
    def test_non_finite_rate_rejected(self, name, value):
        with pytest.raises(ValueError, match="^lr0 and decay must be positive and finite$"):
            quick_cfg(**{name: value}).validate()

    def test_patience_below_one_rejected(self):
        with pytest.raises(ValueError, match="^patience must be at least 1$"):
            quick_cfg(patience=0).validate()


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
        batches = make_batches(ds, 2, model.tables, np.float64, ds)
        assert [b.arrays.lengths for b in batches] == [[5, 4], [3]]
        assert batches[0].order == [1, 2]

    def test_stable_on_ties(self, small_setup):
        _, model, _ = small_setup
        ds = Dataset([TaggedSentence([f"t{i}"]) for i in range(5)])
        batches = make_batches(ds, 3, model.tables, np.float64, ds)
        assert batches[0].order == [0, 1, 2]
        assert batches[1].order == [3, 4]

    def test_mask_counts_match_token_total(self, small_setup):
        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, np.float64, corpus)
        total = sum(float(b.arrays.mask.sum()) for b in batches)
        assert total == sum(len(s) for s in corpus)

    def test_own_longest_padding(self, small_setup):
        _, model, corpus = small_setup
        batches = make_batches(corpus, 7, model.tables, np.float64, corpus)
        for b in batches:
            assert b.arrays.max_len == max(b.arrays.lengths)

    def test_empty_dataset_rejected(self, small_setup):
        _, model, _ = small_setup
        with pytest.raises(ValueError):
            make_batches(Dataset([]), 2, model.tables, np.float64, Dataset([]))

    def test_bad_batch_size(self, small_setup):
        _, model, corpus = small_setup
        with pytest.raises(ValueError):
            make_batches(corpus, 0, model.tables, np.float64, corpus)

    def test_unaligned_surfaces_rejected(self, small_setup):
        _, model, corpus = small_setup
        surfaces = Dataset(corpus.sentences[:-1])
        with pytest.raises(ValueError, match="^surface dataset is not aligned with the input$"):
            make_batches(corpus, 2, model.tables, np.float64, surfaces)


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

    @pytest.mark.parametrize("lr0, epoch, decay", [
        (1e-300, 2, 1e-320),  # decay**2 underflows to 0
        (0.01, 2, 1e200),  # decay**2 overflows
        (0.01, 1, 1e-320),  # the quotient overflows
        (5e-324, 1, 2.0),  # the quotient underflows to 0
        (10**400, 0, 2.0),  # an int quotient that no float holds
    ], ids=["decay**2 underflows", "decay**2 overflows", "overflows", "underflows", "int"])
    def test_rate_that_is_not_positive_and_finite(self, lr0, epoch, decay):
        # named by the epoch as fit logs it, counted from 1
        message = (f"epoch {epoch + 1}: learning rate lr0 / decay**{epoch} is not positive "
                   f"and finite (lr0 {lr0!r}, decay {decay!r})")
        with pytest.raises(TrainingError, match=f"^{re.escape(message)}$"):
            lr_schedule(lr0, epoch, decay)

    def test_earlier_epochs_keep_their_rates(self):
        assert lr_schedule(1e-300, 0, 1e-320) == 1e-300
        assert lr_schedule(1e-300, 1, 1e-320) == 1e-300 / 1e-320
        assert lr_schedule(0.01, 1, 1e200) == 0.01 / 1e200


class TestTrainEpoch:
    def test_zero_lr_keeps_parameters(self, small_setup):
        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, cfg.dtype, corpus)
        before = {k: t.copy() for k, t in model.params.items()}
        loss = train_epoch(model, batches, 0.0, np.random.default_rng(0), ad.AdamState(), cfg.dropout)
        assert math.isfinite(loss) and loss > 0
        for k, t in model.params.items():
            assert np.array_equal(t, before[k])

    def test_loss_decreases_over_first_five_epochs(self, small_setup):
        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, cfg.dtype, corpus)
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
        batches = make_batches(ds, 1, model.tables, cfg.dtype, ds)
        with pytest.raises(TrainingError):
            train_epoch(model, batches, 0.01, np.random.default_rng(0), ad.AdamState())

    def test_non_finite_loss_moves_nothing(self, small_setup):
        # a first step at rate 1e308 overflows the weights, so the next
        # loss is NaN: no parameter, moment or step count moves
        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, cfg.dtype, corpus)[:1]
        adam = ad.AdamState()
        train_epoch(model, batches, 1e308, np.random.default_rng(0), adam)
        before = [{k: t.tobytes() for k, t in d.items()} for d in (model.params, adam.m, adam.v)]
        with pytest.raises(TrainingError, match=r"^non-finite loss nan$"):
            train_epoch(model, batches, 1e308, np.random.default_rng(0), adam)
        assert adam.step == 1
        assert [{k: t.tobytes() for k, t in d.items()}
                for d in (model.params, adam.m, adam.v)] == before

    def test_non_finite_gradient_moves_nothing(self, small_setup, monkeypatch):
        # two bad gradients: the error names the first in params order, and
        # no parameter, moment or step count moves, not even those before it
        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, cfg.dtype, corpus)[:1]
        adam = ad.AdamState()
        train_epoch(model, batches, 0.01, np.random.default_rng(0), adam)
        names = list(model.params)
        backward = ad.backward

        def poisoned(loss, pullback):
            grads = backward(loss, pullback)
            grads[names[-1]][-1] = np.inf
            grads[names[-3]][-1] = np.nan
            return grads

        monkeypatch.setattr(ad, "backward", poisoned)
        before = [{k: t.copy() for k, t in d.items()} for d in (model.params, adam.m, adam.v)]
        with pytest.raises(TrainingError, match=rf"^non-finite gradient in {names[-3]}$"):
            train_epoch(model, batches, 0.01, np.random.default_rng(0), adam)
        assert adam.step == 1
        for kept, now in zip(before, (model.params, adam.m, adam.v)):
            assert kept.keys() == now.keys()
            for k, t in now.items():
                assert np.array_equal(t, kept[k]), k


class TestThreadedStep:
    """Training runs the two directions of each BiLSTM, forward and
    backward, and the two halves of Adam through ``autodiff.both``: the
    second on the worker thread.  None of it may change a bit."""

    def two_steps(self, overfit_corpus, float64):
        """Each gradient and the parameters after two Adam steps, as bytes."""
        cfg = quick_cfg(hidden=16, char_hidden=12, char_dim=8, batch_size=16, float64=float64)
        words = {t for s in overfit_corpus for t in s.tokens}
        model = new_model(cfg, random_table(words, cfg.word_dim), build_char_vocab(overfit_corpus),
                          np.random.default_rng(cfg.seed))
        rng, adam, seen = np.random.default_rng(1), ad.AdamState(), []
        for batch in make_batches(overfit_corpus, cfg.batch_size, model.tables, cfg.dtype,
                                  overfit_corpus):
            loss, pullback = batch_loss(batch.arrays, model.tables, model.params, rng=rng,
                                        dropout_rate=0.4)
            grads = ad.backward(loss, pullback)
            assert set(grads) == set(model.params)
            seen.append((loss.tobytes(), {name: g.tobytes() for name, g in grads.items()}))
            ad.adam_step(model.params, grads, adam, 0.01)
        return seen, {name: p.tobytes() for name, p in model.params.items()}

    @pytest.mark.parametrize("float64", [False, True])
    def test_threads_change_no_bit(self, overfit_corpus, monkeypatch, float64):
        threaded = self.two_steps(overfit_corpus, float64)
        monkeypatch.setattr(ad, "_executor", InlineExecutor)
        assert self.two_steps(overfit_corpus, float64) == threaded

    def test_more_training_threads_than_cores(self, overfit_corpus):
        # four callers share the one worker, and switch threads often: each
        # still gets every gradient, and the bits of a run on its own
        want = self.two_steps(overfit_corpus, False)
        results = [None] * 4

        def run(i):
            results[i] = self.two_steps(overfit_corpus, False)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * 4

    def test_worker_exceptions_reach_train_epoch(self, small_setup, monkeypatch):
        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, cfg.dtype, corpus)[:2]
        lstm_seq = ad.lstm_seq

        def failing(*args, **kwargs):
            if args[4]:  # the backward direction, on the worker
                raise FloatingPointError("in the worker")
            return lstm_seq(*args, **kwargs)

        def epoch():
            return train_epoch(model, batches, 0.01, np.random.default_rng(0), ad.AdamState())

        before = {k: t.copy() for k, t in model.params.items()}
        with monkeypatch.context() as m:
            m.setattr(ad, "lstm_seq", failing)
            with pytest.raises(FloatingPointError, match="in the worker"):
                epoch()
        for k, t in model.params.items():
            assert np.array_equal(t, before[k]), k
        # the pool goes on working
        assert math.isfinite(epoch())
        assert any(not np.array_equal(t, before[k]) for k, t in model.params.items())

    def test_worker_calls_no_traced_function(self, small_setup, monkeypatch):
        # the benchmark's tracer keeps one span stack, so only the calling
        # thread may enter the functions it wraps
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import tracing

        cfg, model, corpus = small_setup
        batches = make_batches(corpus, cfg.batch_size, model.tables, cfg.dtype, corpus)[:2]
        span_threads, lstm_threads = set(), set()
        tracer = tracing.Tracer()
        span = tracer.span
        tracer.span = lambda name: (span_threads.add(threading.get_ident()), span(name))[1]
        lstm_seq = ad.lstm_seq

        def watched(*args, **kwargs):
            lstm_threads.add(threading.get_ident())
            return lstm_seq(*args, **kwargs)

        monkeypatch.setattr(ad, "lstm_seq", watched)
        with tracer.installed():
            trainer_mod.train_epoch(model, batches, 0.01, np.random.default_rng(0), ad.AdamState())
        assert span_threads == {threading.get_ident()}
        assert len(lstm_threads) == 2
        assert {"autodiff.backward", "autodiff.adam", "model.word_bilstm"} <= {
            name for name, *_ in tracer.spans}


class TestThreadedPredict:
    """Inference runs the two directions of each BiLSTM through
    ``autodiff.both`` too, where a batch holds more than one sentence; a
    one-sentence batch has too little work per step to share, and stays
    on the caller's thread.  Neither may change a bit."""

    def tags_and_logits(self, model, corpus, monkeypatch):
        """Each sentence's tag ids, and each batch's logits as bytes, with
        the threads that ran ``lstm_seq``."""
        logits, threads = [], set()
        batch_logits, lstm_seq = model_mod.batch_logits, ad.lstm_seq

        def watched_logits(*args):
            out = batch_logits(*args)
            logits.append(out[0].tobytes())
            return out

        def watched_lstm(*args):
            threads.add(threading.get_ident())
            return lstm_seq(*args)

        monkeypatch.setattr(model_mod, "batch_logits", watched_logits)
        monkeypatch.setattr(ad, "lstm_seq", watched_lstm)
        tags = predict_dataset(model, corpus, 16, corpus, post=False)
        return tags, logits, len(threads)

    @pytest.mark.parametrize("float64", [False, True])
    def test_threads_change_no_bit(self, overfit_corpus, monkeypatch, float64):
        cfg = quick_cfg(hidden=16, char_hidden=12, char_dim=8, float64=float64)
        words = {t for s in overfit_corpus for t in s.tokens}
        model = new_model(cfg, random_table(words, cfg.word_dim), build_char_vocab(overfit_corpus),
                          np.random.default_rng(cfg.seed))
        with monkeypatch.context() as m:
            *threaded, n_threads = self.tags_and_logits(model, overfit_corpus, m)
        assert n_threads == 2
        monkeypatch.setattr(ad, "_executor", InlineExecutor)
        assert self.tags_and_logits(model, overfit_corpus, monkeypatch) == (*threaded, 1)

    def test_one_sentence_stays_on_the_callers_thread(self, small_setup, monkeypatch):
        _, model, corpus = small_setup
        calls = []
        both = ad.both

        def counted(first, second):
            calls.append(1)
            return both(first, second)

        monkeypatch.setattr(ad, "both", counted)
        sentences = list(corpus)
        assert self.tags_and_logits(model, Dataset(sentences[:1]), monkeypatch)[2] == 1
        assert calls == []
        predict_dataset(model, Dataset(sentences[:2]), 16, Dataset(sentences[:2]))
        assert calls == [1, 1]  # the char layer, then the word layer

    def test_worker_keeps_the_callers_error_state(self, overfit_corpus):
        # the tag pass ignores overflow inside the LSTM, whose tanh bounds
        # it, on the worker too: no warning, which the tests turn into errors
        model = restore_model(load_checkpoint(DATA / "checkpoint_f32.ck"))
        model.params["word_bwd.wh"][:] = 3e38
        sentences = list(overfit_corpus)[:4]
        tags = predict_dataset(model, Dataset(sentences), 8, Dataset(sentences))
        assert [len(t) for t in tags] == [len(s) for s in sentences]


class TestFitStopping:
    def run_with_scores(self, monkeypatch, scores, patience=2, max_epochs=50):
        seen = []

        def fake_dev_f1(model, dev, batch_size, surfaces):
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
        best = fit(model, corpus, corpus, cfg, corpus, corpus,
                   rng=np.random.default_rng(cfg.seed), log_fn=lambda *record: None)
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
                fit(model, corpus, dev, cfg, corpus, dev, rng=np.random.default_rng(cfg.seed),
                    log_fn=lambda *record: None)


class TestPaddingNeutrality:
    def test_extra_padding_column_changes_nothing(self, small_setup):
        cfg, model, corpus = small_setup
        cfg64 = quick_cfg(float64=True)
        words = {t for s in corpus for t in s.tokens}
        model = new_model(cfg64, random_table(words, cfg64.word_dim),
                          build_char_vocab(corpus), np.random.default_rng(3))
        batch = make_batches(corpus, 8, model.tables, np.float64, corpus)[0]

        def grads_for(arrays):
            return loss_and_grads(arrays, model.tables, model.params)

        base_loss, base_grads = grads_for(batch.arrays)

        a = batch.arrays
        t_max, bsz = a.mask.shape
        n_cols = a.char_idx.shape[1]
        # one more all-padding word step, its slots on a real spelling,
        # and one more all-padding character step
        word_idx = np.vstack([a.word_idx, np.full((1, bsz), 3, dtype=np.int64)])
        mask = np.vstack([a.mask, np.zeros((1, bsz))])
        spelling_idx = np.concatenate([a.spelling_idx, np.zeros(bsz, dtype=np.int64)])
        char_idx = np.vstack([a.char_idx, np.full((1, n_cols), 2, dtype=np.int64)])
        gold = np.concatenate(
            [a.gold.reshape(t_max, bsz), np.ones((1, bsz), dtype=np.int64)]
        ).reshape(-1)
        padded = BatchArrays(word_idx, char_idx, a.char_lengths, spelling_idx, mask, a.lengths,
                             gold)

        pad_loss, pad_grads = grads_for(padded)
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
        best = fit(model, corpus, corpus, cfg, corpus, corpus, rng=rng,
                   log_fn=lambda *record: None)
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
        fit(model, ds, ds, cfg, ds, ds, rng=np.random.default_rng(cfg.seed),
            log_fn=lambda *record: None)
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

    @staticmethod
    def wordless_table(cfg, tmp_path):
        """A loaded ``.vec`` table with no rows, as a header-only file gives."""
        path = tmp_path / "empty.vec"
        path.write_text(f"0 {cfg.word_dim}\n")
        return load_vec(path)

    def test_table_without_reserved_rows_rejected(self, overfit_corpus, tmp_path):
        cfg = quick_cfg()
        with pytest.raises(ValueError, match="does not start with PAD/UNK/USR/URL"):
            new_model(cfg, self.wordless_table(cfg, tmp_path), build_char_vocab(overfit_corpus),
                      np.random.default_rng(0))

    def test_merged_table_builds_and_round_trips(self, overfit_corpus, tmp_path):
        cfg = quick_cfg()
        table = merge_tables(self.wordless_table(cfg, tmp_path))
        model = new_model(cfg, table, build_char_vocab(overfit_corpus),
                          np.random.default_rng(0))
        assert model.params["word_specials"].shape == (4, cfg.word_dim)
        path = tmp_path / "model.ck"
        save_checkpoint(snapshot(model, cfg, 0.0, 0), path)
        restored = restore_model(load_checkpoint(path))
        assert restored.tables.words.vocabulary.tokens == table.vocabulary.tokens

    def test_vector_that_overflows_the_dtype_named(self, overfit_corpus):
        # float64 vectors that float32 cannot hold: a loaded word is named
        # before the UNK/USR/URL means it feeds, and float64 holds both
        words = {t for s in overfit_corpus for t in s.tokens}
        chars = build_char_vocab(overfit_corpus)
        table = random_table(words, 12)
        table.vectors[table.vocabulary.index("Jose"), 3] = 1e300
        table.vectors[2] = 1e300 / len(words)
        with pytest.raises(ValueError, match=r"^vector of 'Jose' is not finite in float32$"):
            new_model(quick_cfg(), table, chars, np.random.default_rng(0))
        table.vectors[table.vocabulary.index("Jose"), 3] = 0.0
        with pytest.raises(ValueError, match=rf"^vector of '{USR}' is not finite in float32$"):
            new_model(quick_cfg(), table, chars, np.random.default_rng(0))
        model = new_model(quick_cfg(float64=True), table, chars, np.random.default_rng(0))
        assert model.tables.words.vectors is table.vectors

    def test_draws_are_pinned(self, overfit_corpus):
        """The seeded tensors, in ``param_shapes`` order, hash to a pinned
        digest: a change to the draws, which would change every same-seed
        checkpoint, shows here."""
        words = {t for s in overfit_corpus for t in s.tokens}
        cfg = quick_cfg(float64=True)
        model = new_model(cfg, random_table(words, cfg.word_dim),
                          build_char_vocab(overfit_corpus), np.random.default_rng(cfg.seed))
        assert list(model.params) == list(param_shapes(cfg, len(model.tables.chars)))
        digest = hashlib.sha256(b"".join(t.tobytes() for t in model.params.values()))
        assert digest.hexdigest() == (
            "9f762a96c60745d8c327729d2ccac217c2e6c74cdf53ef1cc2a9588becbee85f"
        )


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
        want = predict_dataset(restore_model(ckpt), corpus, 8, corpus)
        got = predict_dataset(loaded, corpus, 8, corpus)
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
        ("meta", lambda rest: rest.replace('"lr0": 0.01', '"lr0": NaN'),
         "bad meta block: lr0 and decay must be positive and finite"),
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
        restored = restore_model(loaded).params
        for name, t in model.params.items():
            assert np.array_equal(restored[name], t), name

    def test_model_round_trip_is_byte_identical(self, overfit_corpus, tmp_path):
        """load -> restore_model -> snapshot -> save gives back the file's
        bytes: the model holds its tensors in the order checkpoints store
        them, in float32 and float64 alike."""
        words = {t for s in overfit_corpus for t in s.tokens}
        cfg = quick_cfg(float64=True)
        model = new_model(cfg, random_table(words, cfg.word_dim),
                          build_char_vocab(overfit_corpus), np.random.default_rng(cfg.seed))
        fresh = tmp_path / "f64.ck"
        save_checkpoint(snapshot(model, cfg, 0.5, 1), fresh)
        for path in (DATA / "checkpoint_f32.ck", fresh):
            ckpt = load_checkpoint(path)
            again = tmp_path / "again.ck"
            save_checkpoint(snapshot(restore_model(ckpt), ckpt.config, ckpt.dev_score,
                                     ckpt.epoch), again)
            assert again.read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("name, value", [("proj_w", math.nan), ("word_fixed", math.inf),
                                             ("word_fwd.wx", -math.inf)])
    def test_non_finite_tensor_rejected(self, small_setup, tmp_path, name, value):
        path = tmp_path / "model.ck"
        save_checkpoint(self.make_checkpoint(small_setup), path)
        corrupt_tensor_value(path, name, value)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"tensor {name} has a non-finite value"

    @pytest.mark.parametrize("name", ["proj_w", "word_fixed"])
    def test_float64_tensor_that_overflows_float32_rejected(self, overfit_corpus, name):
        words = {t for s in overfit_corpus for t in s.tokens}
        cfg = quick_cfg(float64=True)
        model = new_model(cfg, random_table(words, cfg.word_dim),
                          build_char_vocab(overfit_corpus), np.random.default_rng(0))
        ckpt = snapshot(model, cfg, 0.0, 1)
        ckpt.tensors[name] = ckpt.tensors[name].copy()
        ckpt.tensors[name][-1] = 1e300
        assert restore_model(ckpt).params["proj_w"].dtype == np.float64
        ckpt.config = quick_cfg(float64=False)
        with pytest.raises(CheckpointError, match=rf"^tensor {name} overflows float32$"):
            restore_model(ckpt)

    def test_float32_checkpoint_without_dtype_field(self, overfit_corpus, tmp_path):
        """A float32 checkpoint written before tensor lines could carry a
        dtype loads, tags as it did when written, and saves back to the
        same bytes."""
        path = DATA / "checkpoint_f32.ck"
        ckpt = load_checkpoint(path)
        tags = predict_dataset(restore_model(ckpt), overfit_corpus, 8, overfit_corpus)
        want = json.loads((DATA / "checkpoint_f32.tags.json").read_text())
        assert [[str(t) for t in sent] for sent in tags] == want
        save_checkpoint(ckpt, tmp_path / "again.ck")
        assert (tmp_path / "again.ck").read_bytes() == path.read_bytes()

    def test_overflowing_scores_located(self, overfit_corpus):
        """``checkpoint_overflow.ck`` is ``checkpoint_f32.ck`` with every
        ``proj_w`` value set to 3e38: finite, so it loads, but every tag
        score overflows.  Prediction names the first sentence whose scores
        are not finite, in corpus order, instead of warning and tagging
        from infinities."""
        model = restore_model(load_checkpoint(DATA / "checkpoint_overflow.ck"))
        with pytest.raises(ValueError, match=r"^sentence 1: the model's tag scores are not finite"):
            predict_dataset(model, overfit_corpus, 8, overfit_corpus)
        # one word's vector reaches only the sentences that hold it: "Jose"
        # is in sentences 3 and 23, and 23, longer, sorts into an earlier batch
        model = restore_model(load_checkpoint(DATA / "checkpoint_f32.ck"))
        model.tables.words.vectors[model.tables.words.vocabulary.index("Jose")] = np.nan
        with pytest.raises(ValueError, match=r"^sentence 3: "):
            predict_dataset(model, overfit_corpus, 8, overfit_corpus)

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

    # products that wrap around in int64: to 0, to 0, and past 2**63
    @pytest.mark.parametrize("shape", ["4294967296,4294967296", "4611686018427387904,4",
                                       "3037000500,3037000500"])
    def test_overflowing_shape_overruns(self, small_setup, tmp_path, shape):
        path = tmp_path / "model.ck"
        save_checkpoint(self.make_checkpoint(small_setup), path)
        blob = path.read_bytes()
        patched = blob.replace(b"tensor proj_w 12,19", b"tensor proj_w " + shape.encode(), 1)
        assert patched != blob
        path.write_bytes(patched)
        with pytest.raises(CheckpointError, match="^tensor proj_w overruns the payload$"):
            load_checkpoint(path)

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


class TestCheckpointMemory:
    """Each checkpoint array is held once: saving writes every tensor from
    where it lies, and loading views the one buffer it read.  At paper
    sizes with a 4,004-row word matrix the file is about 11.5 MB."""

    @pytest.fixture(scope="class")
    def paper_model(self):
        words = [f"w{i}" for i in range(4000)]
        cfg = TrainingConfig()
        chars = build_char_vocab(Dataset([TaggedSentence(words)]))
        return cfg, new_model(cfg, random_table(words, cfg.word_dim), chars,
                              np.random.default_rng(0))

    def test_snapshot_and_save_peak_below_file_size(self, paper_model, tmp_path):
        cfg, model = paper_model
        path = tmp_path / "model.ck"
        peak = traced_peak(lambda: save_checkpoint(snapshot(model, cfg, 0.5, 1), path))
        assert path.stat().st_size > 11_000_000
        assert peak < path.stat().st_size

    def test_load_peak_below_one_and_a_half_file_sizes(self, paper_model, tmp_path):
        cfg, model = paper_model
        path = tmp_path / "model.ck"
        save_checkpoint(snapshot(model, cfg, 0.5, 1), path)
        assert traced_peak(lambda: load_checkpoint(path)) < 1.5 * path.stat().st_size


class TestModelMemory:
    """The LSTM op consumes its input projections, each direction is
    projected just before it runs, and inference gathers one step's
    projections at a time.  At paper sizes on one batch of 64
    twenty-word sentences (1,280 word rows, about 6,700 live characters)
    the char layer's projections are the largest arrays: one direction's
    are P bytes, and all four LSTMs' gate histories H bytes."""

    @pytest.fixture(scope="class")
    def paper_batch(self):
        rng = np.random.default_rng(0)
        letters = list("abcdefghijklmnopqrstuvwxyzáéíñó")
        words = ["".join(rng.choice(letters, size=rng.integers(2, 12))) for _ in range(3000)]
        corpus = Dataset([TaggedSentence([words[i] for i in rng.integers(0, 3000, size=20)],
                                         [O] * 20) for _ in range(64)])
        cfg = TrainingConfig()
        model = new_model(cfg, random_table(set(words), cfg.word_dim), build_char_vocab(corpus),
                          np.random.default_rng(1))
        batch = make_batches(corpus, 64, model.tables, np.float32, corpus)[0]
        a = batch.arrays
        char_rows, word_rows = int(a.char_lengths.sum()), int(a.mask.sum())
        projection = char_rows * 4 * cfg.char_hidden * 4
        history = 2 * projection + 2 * word_rows * 4 * cfg.hidden * 4
        return model, corpus, batch, projection, history

    def test_predict_holds_no_packed_projection(self, paper_batch):
        # each step gathers its rows of the un-gathered projection into one
        # buffer, and the char layer keeps only each spelling's last h:
        # 0.92 P with both directions at once.  Gathering each direction's
        # packed projections whole, one direction at a time, peaked at
        # 1.57 P, and the two at once at about 2.5 P
        model, corpus, _, projection, _ = paper_batch
        predict_dataset(model, corpus, 64, corpus)
        assert traced_peak(lambda: predict_dataset(model, corpus, 64, corpus)) < 1.1 * projection

    def test_training_step_holds_each_gate_history_once(self, paper_batch):
        # consuming the projections, with pullbacks that keep only what
        # backward reads, each step's incoming h and c among them, peaks
        # at 2.04 H.  Rebuilding those states in backward peaked at
        # 2.09 H, and at 2.31 H while the char layer also kept its padded
        # rows; a tape that kept every op's output and each step's cell
        # state at 2.76 H, and copying the projections into a separate
        # gate history at 3.54 H
        model, _, batch, _, history = paper_batch

        def step():
            ad.backward(*batch_loss(batch.arrays, model.tables, model.params,
                                    rng=np.random.default_rng(0), dropout_rate=0.4))

        step()
        assert traced_peak(step) < 2.6 * history

    def test_training_epoch_holds_one_batch_at_a_time(self, paper_batch):
        # releasing each batch's pullback and gradients after its Adam
        # step, two batches peaked at 1.00 times one; with both still bound
        # through the next batch's forward, at 1.17.  A first step makes
        # Adam's moments, so both sides hold them; lr 0 leaves the shared
        # model's values as they are
        model, _, batch, _, _ = paper_batch
        adam = ad.AdamState()
        ad.adam_step(model.params, {k: np.zeros_like(v) for k, v in model.params.items()}, adam, 0.0)

        def epoch(batches):
            return lambda: train_epoch(model, batches, 0.0, np.random.default_rng(0), adam)

        one = traced_peak(epoch([batch]))
        assert traced_peak(epoch([batch, batch])) < 1.03 * one

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="fit sets glibc's malloc thresholds")
    def test_second_fit_faults_in_almost_no_pages(self, paper_batch):
        # with glibc's own thresholds, freed step arrays went back to the
        # OS and a one-epoch fit faulted 10,000 to 13,000 pages in every
        # time; with the freed heap kept, none here and a few hundred in
        # a fresh process.  A 64 MiB trim threshold, below this batch's
        # working set, still faulted 10,400 on one CPU
        import resource  # Unix only

        model, corpus, _, _, _ = paper_batch
        cfg = TrainingConfig(max_epochs=1)

        def faults():
            fresh = new_model(cfg, model.tables.words, model.tables.chars,
                              np.random.default_rng(1))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            fit(fresh, corpus, corpus, cfg, corpus, corpus, rng=np.random.default_rng(cfg.seed),
                log_fn=lambda *record: None)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults()
        assert faults() < 1500
