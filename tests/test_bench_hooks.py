"""The benchmark's tracer (``benchmarks/tracing.py``) hooks csner by
function name.  A renamed function or a changed argument only turns its
per-layer metric into null there, so this test fails instead."""

import pathlib

import numpy as np

from csner import autodiff as ad
from csner import corpus_io, embeddings, preprocess, trainer

from conftest import OVERFIT_SENTENCES, tagged_text, write_vec_file

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_layer_found_and_every_hook_runs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    corpus = tmp_path / "c.conll"
    corpus.write_text(tagged_text(OVERFIT_SENTENCES), encoding="utf-8")
    words = sorted({t for s in corpus_io.read_conll(corpus) for t in s.tokens})
    write_vec_file(tmp_path / "eng.vec", words[::2], dim=8, seed=1)
    write_vec_file(tmp_path / "spa.vec", words[1::2], dim=8, seed=2)
    cfg = trainer.TrainingConfig(hidden=6, char_hidden=4, word_dim=8, char_dim=3)

    tracer = tracing.Tracer()
    with tracer.installed():
        # through module attributes, which the tracer patches
        raw = corpus_io.read_conll(corpus)
        keep = embeddings.corpus_candidate_forms(raw)
        table = embeddings.merge_tables(embeddings.load_vec(tmp_path / "eng.vec", keep=keep),
                                        embeddings.load_vec(tmp_path / "spa.vec", keep=keep))
        norm = preprocess.preprocess_dataset(raw, table.vocabulary)
        model = trainer.new_model(cfg, table, embeddings.build_char_vocab(raw),
                                  np.random.default_rng(0))
        trainer.predict_dataset(model, norm, 8, surfaces=raw, post=True)
        first_training_span = len(tracer.spans)
        batches = trainer.make_batches(norm, 8, model.tables, np.float32, surfaces=raw)
        trainer.train_epoch(model, batches[:1], 0.01, np.random.default_rng(0), ad.AdamState())

    assert tracer.missing_layers == set()
    assert tracer.failed_hooks == set()
    traced = {span[0] for span in tracer.spans}
    assert {layer for _, _, layer, hook in tracing.LAYERS if hook is not None} <= traced
    training = {span[0] for span in tracer.spans[first_training_span:]}
    assert {"trainer.train_epoch", "model.build_arrays", "model.encode_other",
            "model.char_encoder", "model.word_bilstm", "model.projection_loss",
            "autodiff.backward", "autodiff.adam"} <= training
