import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import csner
from csner import autodiff as ad
from csner.corpus_io import TAG_INDEX, TAGS, Dataset, TaggedSentence
from csner.embeddings import CharVocabulary, EmbeddingTable, Vocabulary
from csner.model import (
    ModelParams,
    Tables,
    _encode_chars,
    batch_logits,
    batch_loss,
    build_arrays,
    encode_batch,
    init_params,
    param_shapes,
    predict_batch,
)

import lstm_reference
from conftest import corpus_from, small_model


@pytest.fixture()
def tiny_tables():
    words = ["azul", "come", "el", "pan", "rio", "Ana"]
    rng = np.random.default_rng(17)
    vocab = Vocabulary(sorted(words))
    vectors = np.vstack([np.zeros(6), rng.normal(size=(len(vocab) - 1, 6))])
    chars = CharVocabulary(set("".join(words)))
    return Tables(EmbeddingTable(vocab, vectors), chars)


def char_vectors(words, tables, params):
    """The char encoding of each word, through the batch's spelling columns."""
    arrays = build_arrays([words], tables, params.dtype)
    with ad.no_grad():
        spellings = _encode_chars(params, arrays.char_idx, arrays.char_mask, params.dtype).data
    return spellings[arrays.spelling_idx]


def encode(tokens, tables, params, **kwargs):
    arrays = build_arrays([tokens], tables, params.dtype)
    return encode_batch(arrays, tables, params, **kwargs)


def predict(tokens, tables, params, surfaces=None):
    arrays = build_arrays([tokens], tables, params.dtype, None if surfaces is None else [surfaces])
    return predict_batch(arrays, tables, params)[0]


class TestParamShapes:
    def test_table_describes_init_params(self):
        # every size distinct, so a swapped dimension shows
        sizes = dict(n_chars=7, word_dim=6, char_dim=3, char_hidden=4, word_hidden=5)
        shapes = param_shapes(**sizes)
        tensors = init_params(rng=np.random.default_rng(0), **sizes).tensors()
        assert list(shapes) == list(tensors)
        assert {name: t.data.shape for name, t in tensors.items()} == shapes

    def test_from_tensors_inverts_tensors(self):
        tensors = small_model().tensors()
        rebuilt = ModelParams.from_tensors(tensors).tensors()
        assert list(rebuilt) == list(tensors)
        assert all(rebuilt[name] is t for name, t in tensors.items())


class TestCharEncode:
    def test_single_char_word_shape(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        out = char_vectors(["a"], tiny_tables, params)
        assert out.shape == (1, 2 * params.char_fwd.wh.data.shape[0])

    def test_default_dimensions(self, tiny_tables):
        params = init_params(
            n_chars=len(tiny_tables.chars), word_dim=300,
            rng=np.random.default_rng(0),
        )
        assert char_vectors(["ab"], tiny_tables, params).shape == (1, 300)
        assert params.char_embed.data.shape[1] == 150
        assert params.word_fwd.wx.data.shape == (600, 800)
        assert params.word_fwd.wh.data.shape == (200, 800)
        assert params.proj_w.data.shape == (400, 19)

    def test_distinct_words_distinct_vectors(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        a, b = char_vectors(["ane", "ana"], tiny_tables, params)
        assert np.max(np.abs(a - b)) > 1e-9

    def test_zero_params_give_zero_vector(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        for t in params.tensors().values():
            t.data[...] = 0.0
        out = char_vectors(["pan"], tiny_tables, params)
        assert np.array_equal(out, np.zeros_like(out))


class TestEncodeSentence:
    def test_single_token_shape(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        enc = encode(["pan"], tiny_tables, params)
        assert enc.data.shape == (1, 2 * params.word_fwd.wh.data.shape[0])

    def test_inference_deterministic(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        tokens = ["el", "rio", "azul"]
        a = encode(tokens, tiny_tables, params).data
        b = encode(tokens, tiny_tables, params).data
        assert np.array_equal(a, b)

    def test_reversal_swaps_directions(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        mirror = dataclasses.replace(params, word_fwd=params.word_bwd, word_bwd=params.word_fwd)
        tokens = ["el", "rio", "azul", "pan"]
        h = params.word_fwd.wh.data.shape[0]
        forward = encode(tokens, tiny_tables, params).data
        swapped = encode(tokens[::-1], tiny_tables, mirror).data
        n = len(tokens)
        for t in range(n):
            assert np.allclose(forward[t, :h], swapped[n - 1 - t, h:], atol=1e-12)
            assert np.allclose(forward[t, h:], swapped[n - 1 - t, :h], atol=1e-12)

    def test_training_mode_needs_rng(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        with pytest.raises(ValueError):
            encode(["pan"], tiny_tables, params, training=True)


class TestTagLogits:
    def test_zero_projection_uniform_softmax(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        params.proj_w.data[...] = 0.0
        params.proj_b.data[...] = 0.0
        logits = batch_logits(encode(["el", "pan"], tiny_tables, params), params)
        # every tag scores the same, so the softmax is uniform
        assert np.array_equal(logits.data, np.zeros((2, 19)))

    def test_shape(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        enc = encode(["el", "rio", "azul"], tiny_tables, params)
        assert batch_logits(enc, params).data.shape == (3, 19)

    def test_argmax_shift_invariant(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        logits = batch_logits(encode(["el", "rio"], tiny_tables, params), params).data
        assert np.array_equal(
            logits.argmax(axis=-1), (logits + 7.5).argmax(axis=-1)
        )


class TestPredict:
    def test_length_and_determinism(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        tokens = ["Ana", "come", "pan"]
        ids1 = predict(tokens, tiny_tables, params)
        ids2 = predict(tokens, tiny_tables, params)
        assert ids1 == ids2
        assert len(ids1) == 3
        assert all(0 <= i < len(TAGS) for i in ids1)

    def test_tie_break_lowest_index(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        params.proj_w.data[...] = 0.0
        params.proj_b.data[...] = 0.0
        # all-equal logits resolve to the lowest index, which is O
        assert predict(["pan", "el"], tiny_tables, params) == [0, 0]

    def test_surfaces_drive_char_encoder(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        plain = predict(["pan", "el"], tiny_tables, params)
        assert predict(["pan", "el"], tiny_tables, params, surfaces=["pan", "el"]) == plain


class TestBatchSemantics:
    def test_permutation_coherence(self, tiny_tables):
        from csner.trainer import make_batches

        params = small_model(n_chars=len(tiny_tables.chars))
        words = ["azul", "come", "el", "pan", "rio", "Ana", "nunca"]
        rng = np.random.default_rng(5)
        sents = [[words[i] for i in rng.integers(0, len(words), size=n)]
                 for n in rng.integers(1, 6, size=12)]

        def logits_by_sentence(order):
            ds = Dataset([TaggedSentence(sents[i]) for i in order])
            out = {}
            for batch in make_batches(ds, len(sents), tiny_tables, np.float64):
                a = batch.arrays
                logits = batch_logits(encode_batch(a, tiny_tables, params), params).data
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
        with pytest.raises(ValueError, match="non-increasing"):
            build_arrays([["pan"], ["el", "rio"]], tiny_tables, np.float64)

    def test_fixed_vectors_never_accumulate_gradient(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        before = tiny_tables.words.vectors.tobytes()
        arrays = build_arrays([["el", "pan"]], tiny_tables, np.float64)
        gold = np.array([TAG_INDEX[TAGS[0]], TAG_INDEX[TAGS[1]]])
        loss = batch_loss(arrays, gold, tiny_tables, params)
        ad.backward(loss)
        assert tiny_tables.words.vectors.tobytes() == before

    def test_surface_alignment_contract(self, tiny_tables):
        with pytest.raises(ValueError):
            build_arrays([["a", "b"]], tiny_tables, np.float64, [["a"]])


class TestSpellingColumns:
    SENTS = [["Ana", "come", "pan", "pan"], ["el", "Ana", "azul"], ["rio", "el"]]

    def test_one_column_per_spelling_longest_first(self, tiny_tables):
        a = build_arrays(self.SENTS, tiny_tables, np.float64)
        columns = ["".join(tiny_tables.chars.chars[i] for i in a.char_idx[: int(n), u])
                   for u, n in enumerate(a.char_mask.sum(axis=0))]
        # first occurrence, then a stable sort longest first; the empty
        # spelling last
        assert columns == ["come", "azul", "Ana", "pan", "rio", "el", ""]
        slots = a.spelling_idx.reshape(a.max_len, a.batch_size)
        for j, sent in enumerate(self.SENTS):
            assert [columns[u] for u in slots[:, j]] == sent + [""] * (a.max_len - len(sent))

    def test_column_order_independent_of_hash_seed(self):
        script = (
            "import numpy as np\n"
            "from csner.embeddings import CharVocabulary, EmbeddingTable, Vocabulary\n"
            "from csner.model import Tables, build_arrays\n"
            "words = ['ab', 'ba', 'cd', 'dc', 'abc', 'cab', 'bca', 'a', 'd', 'ab']\n"
            "vocab = Vocabulary(['x'])\n"
            "table = EmbeddingTable(vocab, np.zeros((len(vocab), 2)))\n"
            "a = build_arrays([words], Tables(table, CharVocabulary('abcd')))\n"
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
        from csner import model
        from csner.trainer import make_batches

        params = small_model(n_chars=len(tiny_tables.chars))
        columns = []
        encode_chars = model._encode_chars

        def counting(params, char_idx, char_mask, dtype):
            columns.append(char_idx.shape[1])
            return encode_chars(params, char_idx, char_mask, dtype)

        monkeypatch.setattr(model, "_encode_chars", counting)
        ds = Dataset([TaggedSentence(s) for s in self.SENTS])
        batch = make_batches(ds, 8, tiny_tables, np.float64)[0]
        predict_batch(batch.arrays, tiny_tables, params)
        assert columns == [len({w for s in self.SENTS for w in s}) + 1]


class TestEndToEndGradient:
    def test_full_model_finite_differences(self, micro_setup):
        corpus, tables, params = micro_setup
        from csner.trainer import make_batches

        batch = make_batches(corpus, 4, tables, np.float64)[0]

        def loss():
            return batch_loss(batch.arrays, batch.gold_flat % 5, tables, params)

        err = ad.finite_diff_check(loss, params.tensors(), h=1e-4)
        assert err < 1e-4

    def test_full_model_matches_per_step_reference(self, micro_setup, monkeypatch):
        _, tables, params = micro_setup
        from csner import model
        from csner.trainer import make_batches

        # unequal lengths and repeated spellings, so that both the packed
        # steps and the one-column-per-spelling layout are exercised
        corpus = corpus_from("Ana/B-PER come/O pan/O pan/O\nel/O rio/B-LOC azul/O\n"
                             "Ana/B-PER come/O\nel/O")
        batch = make_batches(corpus, 4, tables, np.float64)[0]
        a = batch.arrays
        # the reference layout: one char column per word slot, with
        # padded slots on all-padding columns
        per_slot = dataclasses.replace(
            a, char_idx=a.char_idx[:, a.spelling_idx], char_mask=a.char_mask[:, a.spelling_idx],
            spelling_idx=np.arange(a.spelling_idx.size),
        )
        assert a.char_idx.shape[1] == 7 and per_slot.char_idx.shape[1] == 16
        tensors = params.tensors()

        def run(arrays):
            ad.zero_grads(tensors)
            loss = batch_loss(arrays, batch.gold_flat % 5, tables, params,
                              training=True, rng=np.random.default_rng(0))
            ad.backward(loss)
            return float(loss.data), {k: t.grad.copy() for k, t in tensors.items()}

        fused_loss, fused = run(a)
        monkeypatch.setattr(model, "_run_bilstm", lstm_reference.run_bilstm)
        ref_loss, ref = run(per_slot)
        assert abs(fused_loss - ref_loss) < 1e-10
        for name in tensors:
            assert np.max(np.abs(fused[name] - ref[name])) < 1e-10, name

    def test_tape_size_independent_of_length(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        sizes = []
        for sent in (["el", "rio"], ["Ana", "come", "pan", "el", "rio", "azul", "azul"]):
            arrays = build_arrays([sent, sent[:1]], tiny_tables, np.float64)
            gold = np.zeros(arrays.mask.size, dtype=np.int64)
            loss = batch_loss(arrays, gold, tiny_tables, params,
                              training=True, rng=np.random.default_rng(0))
            sizes.append(lstm_reference.tape_size(loss))
        assert sizes[0] == sizes[1]

    def test_unk_fallback_path(self, tiny_tables):
        params = small_model(n_chars=len(tiny_tables.chars))
        assert len(predict(["nunca_visto"], tiny_tables, params)) == 1
