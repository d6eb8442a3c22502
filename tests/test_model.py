import dataclasses

import numpy as np
import pytest

from csner import autodiff as ad
from csner.corpus_io import TAG_INDEX, TAGS
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
from conftest import small_model


@pytest.fixture()
def tiny_tables():
    words = ["azul", "come", "el", "pan", "rio", "Ana"]
    rng = np.random.default_rng(17)
    vocab = Vocabulary(sorted(words))
    vectors = np.vstack([np.zeros(6), rng.normal(size=(len(vocab) - 1, 6))])
    chars = CharVocabulary(set("".join(words)))
    return Tables(EmbeddingTable(vocab, vectors), chars)


def char_vectors(words, tables, params):
    arrays = build_arrays([words], tables, params.dtype)
    with ad.no_grad():
        return _encode_chars(params, arrays.char_idx, arrays.char_mask, params.dtype).data


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
        params = small_model(n_chars=len(tiny_tables.chars))
        sents = [["el", "rio", "azul"], ["pan"], ["Ana", "come"]]
        arrays_a = build_arrays(sents, tiny_tables, np.float64)
        arrays_b = build_arrays(sents[::-1], tiny_tables, np.float64)
        la = batch_logits(encode_batch(arrays_a, tiny_tables, params), params).data
        lb = batch_logits(encode_batch(arrays_b, tiny_tables, params), params).data
        t_max, bsz = arrays_a.mask.shape
        la = la.reshape(t_max, bsz, -1)
        lb = lb.reshape(t_max, bsz, -1)
        for j, sent in enumerate(sents):
            jb = len(sents) - 1 - j
            assert np.array_equal(la[: len(sent), j], lb[: len(sent), jb])

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
        corpus, tables, params = micro_setup
        from csner import model
        from csner.trainer import make_batches

        batch = make_batches(corpus, 4, tables, np.float64)[0]
        tensors = params.tensors()

        def run():
            ad.zero_grads(tensors)
            loss = batch_loss(batch.arrays, batch.gold_flat % 5, tables, params,
                              training=True, rng=np.random.default_rng(0))
            ad.backward(loss)
            return float(loss.data), {k: t.grad.copy() for k, t in tensors.items()}

        fused_loss, fused = run()
        monkeypatch.setattr(model, "_run_bilstm", lstm_reference.run_bilstm)
        ref_loss, ref = run()
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
