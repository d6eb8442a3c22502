import dataclasses
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import csner
from csner import autodiff as ad
from csner import model
from csner.corpus_io import O, TAG_INDEX, TAGS, Dataset, TaggedSentence
from csner.embeddings import CharVocabulary, EmbeddingTable, Vocabulary
from csner.model import (
    Tables,
    _dropout,
    _encode_chars,
    batch_logits,
    batch_loss,
    build_arrays,
    encode_batch,
    param_shapes,
    predict_batch,
)
from csner.trainer import TrainingConfig, new_model

import reference_ops as ref
from conftest import (
    SMALL_CFG,
    InlineExecutor,
    corpus_from,
    loss_and_grads,
    random_table,
    small_model,
    traced_peak,
)


@pytest.fixture()
def tiny_tables():
    words = ["azul", "come", "el", "pan", "rio", "Ana"]
    rng = np.random.default_rng(17)
    vocab = Vocabulary(sorted(words))
    vectors = np.vstack([np.zeros(6), rng.normal(size=(len(vocab) - 1, 6))])
    chars = CharVocabulary(set("".join(words)))
    return Tables(EmbeddingTable(vocab, vectors), chars)


def arrays_of(sents, tables, dtype=np.float64):
    """An untagged batch of token lists, each token its own spelling."""
    return build_arrays([TaggedSentence(s) for s in sents], tables, dtype, sents)


def char_vectors(words, tables, params):
    """The char encoding of each word, through the batch's spelling columns."""
    arrays = arrays_of([words], tables, params["proj_w"].dtype)
    spellings, _ = _encode_chars(params, arrays.char_idx, arrays.char_lengths)
    return spellings[arrays.spelling_idx]


def encode(tokens, tables, params, **kwargs):
    arrays = arrays_of([tokens], tables, params["proj_w"].dtype)
    return encode_batch(arrays, tables, params, **kwargs)[0]


def predict(tokens, tables, params):
    return predict_batch(arrays_of([tokens], tables, params["proj_w"].dtype), tables, params)[0]


class TestParamShapes:
    def test_table_describes_new_model(self, tiny_tables):
        shapes = param_shapes(SMALL_CFG, len(tiny_tables.chars))
        tensors = small_model(tiny_tables)
        assert list(shapes) == list(tensors)
        assert {name: t.shape for name, t in tensors.items()} == shapes


class TestCharEncode:
    def test_single_char_word_shape(self, tiny_tables):
        params = small_model(tiny_tables)
        out = char_vectors(["a"], tiny_tables, params)
        assert out.shape == (1, 2 * params["char_fwd.wh"].shape[0])

    def test_default_dimensions(self, tiny_tables):
        params = new_model(TrainingConfig(), random_table(["ab"], 300), tiny_tables.chars,
                           np.random.default_rng(0)).params
        assert char_vectors(["ab"], tiny_tables, params).shape == (1, 300)
        assert params["char_embed"].shape[1] == 150
        assert params["word_fwd.wx"].shape == (600, 800)
        assert params["word_fwd.wh"].shape == (200, 800)
        assert params["proj_w"].shape == (400, 19)

    def test_distinct_words_distinct_vectors(self, tiny_tables):
        params = small_model(tiny_tables)
        a, b = char_vectors(["ane", "ana"], tiny_tables, params)
        assert np.max(np.abs(a - b)) > 1e-9

    def test_zero_params_give_zero_vector(self, tiny_tables):
        params = small_model(tiny_tables)
        for t in params.values():
            t[...] = 0.0
        out = char_vectors(["pan"], tiny_tables, params)
        assert np.array_equal(out, np.zeros_like(out))


class TestEncodeSentence:
    def test_single_token_shape(self, tiny_tables):
        params = small_model(tiny_tables)
        enc = encode(["pan"], tiny_tables, params)
        assert enc.shape == (1, 2 * params["word_fwd.wh"].shape[0])

    def test_inference_deterministic(self, tiny_tables):
        params = small_model(tiny_tables)
        tokens = ["el", "rio", "azul"]
        a = encode(tokens, tiny_tables, params)
        b = encode(tokens, tiny_tables, params)
        assert np.array_equal(a, b)

    def test_reversal_swaps_directions(self, tiny_tables):
        params = small_model(tiny_tables)
        mirror = {**params, **{f"word_{a}.{k}": params[f"word_{b}.{k}"]
                               for a, b in (("fwd", "bwd"), ("bwd", "fwd"))
                               for k in ("wx", "wh", "b")}}
        tokens = ["el", "rio", "azul", "pan"]
        h = params["word_fwd.wh"].shape[0]
        forward = encode(tokens, tiny_tables, params)
        swapped = encode(tokens[::-1], tiny_tables, mirror)
        n = len(tokens)
        for t in range(n):
            assert np.allclose(forward[t, :h], swapped[n - 1 - t, h:], atol=1e-12)
            assert np.allclose(forward[t, h:], swapped[n - 1 - t, :h], atol=1e-12)

    def test_rng_turns_dropout_on(self, tiny_tables):
        params = small_model(tiny_tables)
        tokens = ["el", "rio", "azul"]
        inference = encode(tokens, tiny_tables, params)
        dropped = encode(tokens, tiny_tables, params, rng=np.random.default_rng(0))
        assert not np.array_equal(dropped, inference)
        # with an rng the pullbacks are kept; the forward is the same
        kept = encode(tokens, tiny_tables, params, rng=np.random.default_rng(0), dropout_rate=0.0)
        assert kept.tobytes() == inference.tobytes()


class TestTagLogits:
    def test_zero_projection_uniform_softmax(self, tiny_tables):
        params = small_model(tiny_tables)
        params["proj_w"][...] = 0.0
        params["proj_b"][...] = 0.0
        logits, _ = batch_logits(encode(["el", "pan"], tiny_tables, params), params)
        # every tag scores the same, so the softmax is uniform
        assert np.array_equal(logits, np.zeros((2, 19)))

    def test_shape(self, tiny_tables):
        params = small_model(tiny_tables)
        enc = encode(["el", "rio", "azul"], tiny_tables, params)
        assert batch_logits(enc, params)[0].shape == (3, 19)

    def test_argmax_shift_invariant(self, tiny_tables):
        params = small_model(tiny_tables)
        logits, _ = batch_logits(encode(["el", "rio"], tiny_tables, params), params)
        assert np.array_equal(
            logits.argmax(axis=-1), (logits + 7.5).argmax(axis=-1)
        )


class TestPredict:
    def test_length_and_determinism(self, tiny_tables):
        params = small_model(tiny_tables)
        tokens = ["Ana", "come", "pan"]
        ids1 = predict(tokens, tiny_tables, params)
        ids2 = predict(tokens, tiny_tables, params)
        assert ids1 == ids2
        assert len(ids1) == 3
        assert all(0 <= i < len(TAGS) for i in ids1)

    def test_tie_break_lowest_index(self, tiny_tables):
        params = small_model(tiny_tables)
        params["proj_w"][...] = 0.0
        params["proj_b"][...] = 0.0
        # all-equal logits resolve to the lowest index, which is O
        assert predict(["pan", "el"], tiny_tables, params) == [0, 0]

    def test_surfaces_drive_char_encoder(self, tiny_tables):
        # the words are looked up by their tokens, and the char encoder
        # spells the surfaces: other surfaces move only the char half
        params = small_model(tiny_tables)
        sent = [TaggedSentence(["pan", "el"])]
        arrays = build_arrays(sent, tiny_tables, np.float64, [["Ana", "rio"]])
        spelled = ["".join(tiny_tables.chars.chars[i] for i in arrays.char_idx[:n, u])
                   for u, n in enumerate(arrays.char_lengths)]
        assert spelled == ["Ana", "rio"]
        own = arrays_of([["pan", "el"]], tiny_tables)
        assert np.array_equal(arrays.word_idx, own.word_idx)
        assert not np.array_equal(encode_batch(arrays, tiny_tables, params)[0],
                                  encode_batch(own, tiny_tables, params)[0])


class TestBatchSemantics:
    def test_permutation_coherence(self, tiny_tables):
        from csner.trainer import make_batches

        params = small_model(tiny_tables)
        words = ["azul", "come", "el", "pan", "rio", "Ana", "nunca"]
        rng = np.random.default_rng(5)
        sents = [[words[i] for i in rng.integers(0, len(words), size=n)]
                 for n in rng.integers(1, 6, size=12)]

        def logits_by_sentence(order):
            ds = Dataset([TaggedSentence(sents[i]) for i in order])
            out = {}
            for batch in make_batches(ds, len(sents), tiny_tables, np.float64, ds):
                a = batch.arrays
                logits, _ = batch_logits(encode_batch(a, tiny_tables, params)[0], params)
                logits = logits.reshape(a.max_len, a.batch_size, -1)
                for j, pos in enumerate(batch.order):
                    out[order[pos]] = logits[: a.lengths[j], j]
            return out

        # the sort keeps equal lengths in corpus order, so a shuffle
        # reorders them within the batch and its spelling columns
        plain = logits_by_sentence(list(range(len(sents))))
        shuffled = logits_by_sentence(list(rng.permutation(len(sents))))
        for i in range(len(sents)):
            assert np.array_equal(plain[i], shuffled[i]), i

    def test_unsorted_lengths_rejected(self, tiny_tables):
        params = small_model(tiny_tables)
        arrays = arrays_of([["pan"], ["el", "rio"]], tiny_tables)
        with pytest.raises(ValueError, match=r"lengths \[1, 2\]"):
            predict_batch(arrays, tiny_tables, params)

    def test_fixed_vectors_never_accumulate_gradient(self, tiny_tables):
        params = small_model(tiny_tables)
        before = tiny_tables.words.vectors.tobytes()
        arrays = build_arrays([TaggedSentence(["el", "pan"], TAGS[:2])], tiny_tables, np.float64,
                              [["el", "pan"]])
        _, grads = loss_and_grads(arrays, tiny_tables, params)
        assert tiny_tables.words.vectors.tobytes() == before
        assert set(grads) == set(params)

    def test_surface_alignment_contract(self, tiny_tables):
        with pytest.raises(ValueError):
            build_arrays([TaggedSentence(["a", "b"])], tiny_tables, np.float64, [["a"]])

    def test_gold_ids_time_major(self, tiny_tables):
        sents = [TaggedSentence(["Ana", "come", "pan"], [TAGS[1], O, O]),
                 TaggedSentence(["el", "rio"], [O, TAGS[3]])]
        arrays = build_arrays(sents, tiny_tables, np.float64, [s.tokens for s in sents])
        # slot (t, b) at t*B + b, and 0 (O) in the padded slot
        assert arrays.gold.tolist() == [TAG_INDEX[TAGS[1]], 0, 0, TAG_INDEX[TAGS[3]], 0, 0]
        untagged = [sents[0], TaggedSentence(["el", "rio"])]
        assert build_arrays(untagged, tiny_tables, np.float64,
                            [s.tokens for s in untagged]).gold is None


class TestSpellingColumns:
    SENTS = [["Ana", "come", "pan", "pan"], ["el", "Ana", "azul"], ["rio", "el"]]

    def test_one_column_per_spelling_longest_first(self, tiny_tables):
        a = arrays_of(self.SENTS, tiny_tables)
        columns = ["".join(tiny_tables.chars.chars[i] for i in a.char_idx[:n, u])
                   for u, n in enumerate(a.char_lengths)]
        # first occurrence, then a stable sort longest first
        assert columns == ["come", "azul", "Ana", "pan", "rio", "el"]
        slots = a.spelling_idx.reshape(a.max_len, a.batch_size)
        for j, sent in enumerate(self.SENTS):
            # padded slots point at column 0; the mask hides them
            assert [columns[u] for u in slots[:, j]] == sent + ["come"] * (a.max_len - len(sent))

    def test_column_order_independent_of_hash_seed(self):
        script = (
            "import numpy as np\n"
            "from csner.embeddings import CharVocabulary, EmbeddingTable, Vocabulary\n"
            "from csner.corpus_io import TaggedSentence\n"
            "from csner.model import Tables, build_arrays\n"
            "words = ['ab', 'ba', 'cd', 'dc', 'abc', 'cab', 'bca', 'a', 'd', 'ab']\n"
            "vocab = Vocabulary(['x'])\n"
            "table = EmbeddingTable(vocab, np.zeros((len(vocab), 2)))\n"
            "a = build_arrays([TaggedSentence(words)], Tables(table, CharVocabulary('abcd')),\n"
            "                 np.float64, [words])\n"
            "print(a.char_idx.T.tolist(), a.spelling_idx.tolist())\n"
        )
        src = os.path.dirname(os.path.dirname(csner.__file__))
        outputs = {
            subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src,
                                           "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")
        }
        assert len(outputs) == 1

    def test_encoder_runs_once_per_spelling(self, tiny_tables, monkeypatch):
        from csner.trainer import make_batches

        params = small_model(tiny_tables)
        columns = []
        encode_chars = model._encode_chars

        def counting(params, char_idx, char_lengths, *args):
            columns.append(char_idx.shape[1])
            return encode_chars(params, char_idx, char_lengths, *args)

        monkeypatch.setattr(model, "_encode_chars", counting)
        ds = Dataset([TaggedSentence(s) for s in self.SENTS])
        batch = make_batches(ds, 8, tiny_tables, np.float64, ds)[0]
        predict_batch(batch.arrays, tiny_tables, params)
        assert columns == [len({w for s in self.SENTS for w in s})]


class TestDistinctWordRows:
    """Inference builds the word layer's input once per distinct (word,
    spelling) pair; training keeps a row per slot for its dropout."""

    # repeats, padding, and the spelling "pan" paired with both "pan" and "el"
    TOKENS = [["Ana", "come", "pan", "pan", "el"], ["el", "Ana", "azul"], ["rio", "el"]]
    SURFACES = [["Ana", "come", "pan", "pan", "pan"], ["el", "Ana", "azul"], ["rio", "el"]]

    def arrays(self, tables, dtype):
        return build_arrays([TaggedSentence(s) for s in self.TOKENS], tables, dtype,
                            self.SURFACES)

    def pairs(self):
        return {pair for toks, surfs in zip(self.TOKENS, self.SURFACES)
                for pair in zip(toks, surfs)}

    @pytest.mark.parametrize("float64", [False, True])
    def test_matches_per_slot_path(self, tiny_tables, float64):
        # at least 3 live rows and 3 pairs: OpenBLAS may round a GEMM of 1
        # or 2 rows differently from the same rows inside a larger one
        cfg = dataclasses.replace(SMALL_CFG, float64=float64)
        params = new_model(cfg, tiny_tables.words, tiny_tables.chars,
                           np.random.default_rng(3)).params
        arrays = self.arrays(tiny_tables, cfg.dtype)
        assert arrays.mask.size > arrays.mask.sum() >= len(self.pairs()) >= 3
        per_slot = encode_batch(arrays, tiny_tables, params, rng=np.random.default_rng(0),
                                dropout_rate=0.0)[0]
        deduped = encode_batch(arrays, tiny_tables, params)[0]
        assert deduped.dtype == per_slot.dtype == cfg.dtype
        assert np.array_equal(deduped, per_slot)

    def test_one_word_row_per_distinct_pair(self, tiny_tables, monkeypatch):
        params = small_model(tiny_tables)
        arrays = self.arrays(tiny_tables, np.float64)
        seen = []
        run_bilstm = model._run_bilstm

        def spy(x, rows, lengths, params, layer, *args, **kwargs):
            if layer == "word":
                seen.append((len(x), None if rows is None else len(rows)))
            return run_bilstm(x, rows, lengths, params, layer, *args, **kwargs)

        monkeypatch.setattr(model, "_run_bilstm", spy)
        encode_batch(arrays, tiny_tables, params)
        encode_batch(arrays, tiny_tables, params, rng=np.random.default_rng(0))
        live = int(arrays.mask.sum())
        assert seen == [(len(self.pairs()), live), (live, None)]


class TestEndToEndGradient:
    def test_full_model_matches_per_step_reference(self, micro_setup):
        _, tables, params = micro_setup
        from csner.trainer import make_batches

        # unequal lengths and repeated spellings, so that both the packed
        # steps and the one-column-per-spelling layout are exercised
        corpus = corpus_from("Ana/B-PER come/O pan/O pan/O\nel/O rio/B-LOC azul/O\n"
                             "Ana/B-PER come/O\nel/O")
        batch = make_batches(corpus, 4, tables, np.float64, corpus)[0]
        a = batch.arrays
        # the reference layout: one char column per word slot, in slot
        # order, with padded slots on all-padding columns of length 0
        live = a.mask.reshape(-1).astype(np.int64)
        per_slot = dataclasses.replace(
            a, char_idx=a.char_idx[:, a.spelling_idx] * live,
            char_lengths=a.char_lengths[a.spelling_idx] * live,
            spelling_idx=np.arange(a.spelling_idx.size),
        )
        assert a.char_idx.shape[1] == 6 and per_slot.char_idx.shape[1] == 16

        # dropout on, its masks drawn alike from the same seed
        fused_loss, fused = loss_and_grads(a, tables, params, dropout_rate=0.4)
        leaves = {name: ref.param(p.copy()) for name, p in params.items()}
        loss = ref.batch_loss(per_slot, tables, leaves, rng=np.random.default_rng(0))
        ref.backward(loss)
        assert abs(fused_loss - float(loss.data)) < 1e-10
        assert list(fused) and set(fused) == set(params)
        for name in params:
            assert np.max(np.abs(fused[name] - leaves[name].grad)) < 1e-10, name

    def test_unk_fallback_path(self, tiny_tables):
        params = small_model(tiny_tables)
        assert len(predict(["nunca_visto"], tiny_tables, params)) == 1


class TestBackwardState:
    @pytest.fixture()
    def pullbacks(self, monkeypatch):
        """A weak reference to the pullback of every ``lstm_seq`` call, and
        for each call how many earlier pullbacks were alive when it began."""
        refs, alive = [], []
        lstm_seq = model.lstm_seq

        def watched(*args, **kwargs):
            alive.append(sum(r() is not None for r in refs))
            out, pullback = lstm_seq(*args, **kwargs)
            refs.append(weakref.ref(pullback))
            return out, pullback

        monkeypatch.setattr(model, "lstm_seq", watched)
        return refs, alive

    SENTS = [["Ana", "come", "pan"], ["el", "rio"]]

    def test_predict_batch_keeps_no_backward_state(self, tiny_tables, monkeypatch):
        # the op returns no pullback at inference, and it makes no gate
        # history: a call's traced peak stays below the size its packed
        # projections would take (0.12 of it in the char layer and 0.45,
        # mostly the packed states, in the word layer; gathering the
        # history as training does read 1.07 and 1.41).  Long sentences of
        # long spellings make that history the call's largest array; the
        # calls run one at a time on this thread under the tracer
        monkeypatch.setattr(ad, "_executor", InlineExecutor)
        calls = []
        lstm_seq = model.lstm_seq

        def watched(xw, lengths, *args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out, pullback = lstm_seq(xw, lengths, *args)
            history = sum(lengths) * xw.shape[1] * xw.itemsize
            calls.append((pullback, (tracemalloc.get_traced_memory()[1] - before) / history))
            return out, pullback

        monkeypatch.setattr(model, "lstm_seq", watched)
        words = ["azulcomepan" * 2 + str(i) for i in range(24)]
        arrays = arrays_of([words, words[:20]], tiny_tables)
        cfg = dataclasses.replace(SMALL_CFG, char_hidden=32, hidden=32)  # arrays over headers
        params = new_model(cfg, tiny_tables.words, tiny_tables.chars, np.random.default_rng(3)).params
        traced_peak(lambda: predict_batch(arrays, tiny_tables, params))
        assert len(calls) == 4 and all(pullback is None for pullback, _ in calls)
        assert max(share for _, share in calls) < 0.75

    def test_training_frees_backward_state_with_its_pullback(self, tiny_tables, pullbacks):
        refs, alive = pullbacks
        sents = [TaggedSentence(s, [O] * len(s)) for s in self.SENTS]
        arrays = build_arrays(sents, tiny_tables, np.float64, self.SENTS)
        loss, pullback = batch_loss(arrays, tiny_tables, small_model(tiny_tables),
                                    rng=np.random.default_rng(0), dropout_rate=0.4)
        # the char directions run at once, and may each start before the
        # other's pullback exists; the word directions start after both
        assert max(alive[:2]) <= 1 and min(alive[2:]) >= 2
        ad.backward(loss, pullback)
        del pullback
        assert [r() for r in refs] == [None] * 4


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.ones((3, 3))
        out, mask = _dropout(x, 0.0, np.random.default_rng(0))
        assert out is x and mask is None

    def test_rate_contract(self):
        x = np.ones(2)
        with pytest.raises(ValueError):
            _dropout(x, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            _dropout(x, -0.1, np.random.default_rng(0))

    def test_expectation_preserved(self):
        rng = np.random.default_rng(11)
        out, mask = _dropout(np.full(100_000, 2.5), 0.4, rng)
        assert abs(out.mean() - 2.5) / 2.5 < 0.01
        assert np.array_equal(out, 2.5 * mask)
