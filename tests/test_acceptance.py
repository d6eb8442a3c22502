"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The headline corpus numbers need the real shared-task data and the
multi-gigabyte vector files; criterion 9 therefore only runs when the
CSNER_* environment variables point at them.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from csner import autodiff as ad
from csner.cli import main
from csner.corpus_io import (
    TAGS,
    Dataset,
    TaggedSentence,
    parse_conll,
    read_conll,
    validate_iob,
)
from csner.evaluate import score
from csner.model import BatchArrays, batch_loss
from csner.postprocess import postprocess_sentence
from csner.preprocess import (
    oov_report,
    preprocess_dataset,
    replace_token,
    strip_repeats,
)
from csner.trainer import (
    TrainingConfig,
    dev_f1,
    fit,
    make_batches,
    new_model,
    predict_dataset,
    restore_model,
)

from conftest import OVERFIT_SENTENCES, tagged_text, write_vec_file


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    else:
        print(f"[criterion {number}] PASS  {description}")


def test_criterion_1_gradient_correctness(micro_setup):
    with criterion(1, "full-model finite-difference gradients < 1e-4"):
        corpus, tables, params = micro_setup
        start = time.monotonic()
        batch = make_batches(corpus, 4, tables, np.float64)[0]
        gold = batch.gold_flat % 5  # reduced 5-tag head

        def loss():
            return batch_loss(batch.arrays, gold, tables, params)

        tensors = params.tensors()
        err = ad.finite_diff_check(loss, tensors, h=1e-4)
        elapsed = time.monotonic() - start
        n = sum(t.data.size for t in tensors.values())
        print(f"    max rel err {err:.3e} over {n} parameters in {elapsed:.1f}s")
        assert err < 1e-4
        assert elapsed < 30.0


def test_criterion_2_overfit_capability(overfit_corpus, overfit_tables):
    with criterion(2, "30-sentence bilingual corpus overfits to harmonic F1 1.0"):
        start = time.monotonic()
        cfg = TrainingConfig(hidden=50, max_epochs=300, seed=1)
        model = new_model(cfg, overfit_tables.words, overfit_tables.chars,
                          np.random.default_rng(cfg.seed))
        epochs = []
        best = fit(
            model, overfit_corpus, overfit_corpus, cfg,
            log_fn=lambda e, loss, lr, f1: epochs.append((e, f1)),
        )
        assert best.dev_score == 1.0
        assert best.epoch <= 300

        final = restore_model(best)
        predicted = predict_dataset(final, overfit_corpus, cfg.batch_size, post=True)
        total = sum(len(s) for s in overfit_corpus)
        correct = sum(
            g == p
            for sent, tags in zip(overfit_corpus, predicted)
            for g, p in zip(sent.tags, tags)
        )
        assert correct == total, f"token accuracy {correct}/{total}"

        # the repair rules must not hurt the tuned score (Table 4 direction)
        with_post = dev_f1(final, overfit_corpus, cfg.batch_size, post=True)
        without = dev_f1(final, overfit_corpus, cfg.batch_size, post=False)
        assert with_post >= without

        elapsed = time.monotonic() - start
        print(
            f"    best epoch {best.epoch}, {len(epochs)} epochs run, "
            f"token accuracy {correct}/{total}, {elapsed:.1f}s"
        )
        assert elapsed < 120.0


def test_criterion_3_preprocessing_examples():
    with criterion(3, "canonical preprocessing rewrites hold verbatim"):
        assert replace_token("@user") == "USR"
        assert replace_token("#user") == "USR"
        assert replace_token("https://domain.com") == "URL"
        assert strip_repeats("hellooooo") == "hello"
        assert strip_repeats("lolololol") == "lol"


def test_criterion_4_oov_monotonicity_and_oracle():
    with criterion(4, "OOV rate drops under normalization and matches the scan oracle"):
        rng = np.random.default_rng(2024)
        vocab_words = [f"word{i}" for i in range(200)]
        vocab = set(vocab_words) | {"USR", "URL"}
        pool = (
            vocab_words
            + [w.upper() for w in vocab_words[:60]]
            + [w + "ooo" for w in vocab_words[60:120]]
            + [w.capitalize() for w in vocab_words[120:160]]
            + [f"@user{i}" for i in range(25)]
            + [f"www.page{i}.com" for i in range(25)]
            + [f"unfixable{i}!" for i in range(40)]
        )
        tokens = [pool[i] for i in rng.integers(0, len(pool), size=1000)]
        ds = Dataset(
            [TaggedSentence(tokens[i : i + 10]) for i in range(0, 1000, 10)]
        )
        before = oov_report(ds, vocab)
        after_ds = preprocess_dataset(ds, vocab)
        after = oov_report(after_ds, vocab)
        assert after.all_oov <= before.all_oov
        oracle = sum(tok not in vocab for sent in after_ds for tok in sent.tokens)
        assert after.all_oov == oracle
        assert after.all_tokens == 1000
        print(f"    OOV {before.all_pct:.1f}% -> {after.all_pct:.1f}% (oracle equal)")


def test_criterion_5_postprocessing_properties():
    with criterion(5, "10,000 random sequences: clean, idempotent, length-preserving"):
        rng = np.random.default_rng(77)
        for _ in range(10_000):
            length = int(rng.integers(1, 13))
            tags = [TAGS[i] for i in rng.integers(0, 19, size=length)]
            out = postprocess_sentence(tags)
            assert len(out) == length
            violations = validate_iob(TaggedSentence(["w"] * length, out))
            assert not any(v.kind in (1, 2) for v in violations)
            assert postprocess_sentence(out) == out


def test_criterion_6_masking_neutrality(overfit_corpus, overfit_tables):
    with criterion(6, "padded inputs and logits are invisible to loss and gradients"):
        cfg = TrainingConfig(
            hidden=10, char_hidden=6, char_dim=4, word_dim=300, float64=True, seed=4
        )
        model = new_model(cfg, overfit_tables.words, overfit_tables.chars,
                          np.random.default_rng(cfg.seed))
        batch = make_batches(overfit_corpus, 16, model.tables, np.float64)[0]
        params = model.params.tensors()

        def run(arrays, gold):
            ad.zero_grads(params)
            loss = batch_loss(arrays, gold, model.tables, model.params)
            ad.backward(loss)
            return float(loss.data), {k: t.grad.copy() for k, t in params.items()}

        base_loss, base_grads = run(batch.arrays, batch.gold_flat)

        a = batch.arrays
        rng = np.random.default_rng(0)
        pad = a.mask == 0.0
        assert pad.any()
        # padded word slots: any word, and any of the batch's spellings
        word_idx = a.word_idx.copy()
        word_idx[pad] = rng.integers(4, 20, size=pad.sum())
        spelling_idx = a.spelling_idx.copy()
        spelling_idx[pad.reshape(-1)] = rng.integers(0, a.char_idx.shape[1], size=pad.sum())
        # padded character slots: any character
        char_idx = a.char_idx.copy()
        char_pad = a.char_mask == 0.0
        char_idx[char_pad] = rng.integers(2, 10, size=char_pad.sum())
        gold = batch.gold_flat.copy()
        gold[pad.reshape(-1)] = rng.integers(0, 19, size=pad.sum())
        perturbed = BatchArrays(word_idx, char_idx, a.char_mask, spelling_idx, a.mask, a.lengths)
        new_loss, new_grads = run(perturbed, gold)

        assert abs(base_loss - new_loss) < 1e-12
        worst = max(
            float(np.max(np.abs(base_grads[k] - new_grads[k]))) for k in base_grads
        )
        assert worst < 1e-12
        print(f"    loss delta {abs(base_loss - new_loss):.2e}, max grad delta {worst:.2e}")

        # padded-position logits: arbitrary junk must not move the loss
        z = np.random.default_rng(1).normal(size=(6, 19))
        mask = np.array([1.0, 1, 1, 0, 0, 0])
        targets = np.arange(6) % 19
        l1 = ad.masked_cross_entropy_logits(ad.Tensor(z), targets, mask)
        z2 = z.copy()
        z2[3:] += 1e9
        l2 = ad.masked_cross_entropy_logits(ad.Tensor(z2), targets, mask)
        assert abs(float(l1.data) - float(l2.data)) < 1e-12


def test_criterion_7_training_determinism(tmp_path):
    with criterion(7, "identical seed/config/data give byte-identical artifacts"):
        train = tmp_path / "train.conll"
        train.write_text(tagged_text(OVERFIT_SENTENCES), encoding="utf-8")
        words = sorted(
            {pair.rsplit("/", 1)[0] for line in OVERFIT_SENTENCES.strip().split("\n")
             for pair in line.split(" ")}
        )
        vec = tmp_path / "eng.vec"
        write_vec_file(vec, words, dim=12, seed=6)
        outputs = []
        for run in ("a", "b"):
            ck = tmp_path / f"model_{run}.ck"
            log = tmp_path / f"run_{run}.log"
            code = main(
                [
                    "train", "--train", str(train), "--dev", str(train),
                    "--vec-eng", str(vec), "--checkpoint", str(ck),
                    "--out", str(log), "--seed", "12", "--max-epochs", "3",
                    "--config", str(_mini_cfg(tmp_path)),
                ]
            )
            assert code == 0
            outputs.append((ck.read_bytes(), log.read_bytes()))
        assert outputs[0][0] == outputs[1][0], "checkpoints differ"
        assert outputs[0][1] == outputs[1][1], "logs differ"
        print(f"    checkpoint {len(outputs[0][0])} bytes, log {len(outputs[0][1])} bytes")


def _mini_cfg(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(
        "word_dim = 12\nchar_dim = 4\nchar_hidden = 5\nhidden = 6\n",
        encoding="utf-8",
    )
    return path


def test_criterion_8_scorer_correctness(tmp_path, capsys):
    with criterion(8, "hand-counted scores and perfect self-evaluation"):
        gold = parse_conll("a\tB-PER\nb\tI-PER\nc\tO\nd\tB-LOC\n\n")
        pred = parse_conll("a\tB-PER\nb\tI-PER\nc\tO\nd\tB-ORG\n\n")
        report = score(gold, pred)
        assert report.micro_f1 == pytest.approx(0.5, abs=1e-12)
        assert report.harmonic_f1 == 0.0

        some = tmp_path / "some.conll"
        some.write_text(
            tagged_text("Ana/B-PER va/O\nLima/B-LOC hoy/O\nsol/B-EVENT ya/O")
        )
        self_scored = score(read_conll(some), read_conll(some))
        assert self_scored.harmonic_f1 == 1.0
        assert main(["eval", str(some), str(some)]) == 0
        assert "100.0000%" in capsys.readouterr().out


FULL_DATA_VARS = ("CSNER_TRAIN", "CSNER_DEV", "CSNER_TEST",
                  "CSNER_VEC_ENG", "CSNER_VEC_SPA")


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in FULL_DATA_VARS),
    reason="full shared-task data not supplied "
    f"(set {', '.join(FULL_DATA_VARS)})",
)
def test_criterion_9_full_data_reproduction(tmp_path):
    with criterion(9, "full-data OOV direction and test-set harmonic F1"):
        from csner.embeddings import corpus_candidate_forms, load_vec, merge_tables

        train = read_conll(os.environ["CSNER_TRAIN"], "train")
        dev = read_conll(os.environ["CSNER_DEV"], "dev")
        test = read_conll(os.environ["CSNER_TEST"], "test")
        keep = corpus_candidate_forms(train, dev, test)
        eng = load_vec(os.environ["CSNER_VEC_ENG"], keep=keep)
        spa = load_vec(os.environ["CSNER_VEC_SPA"], keep=keep)
        merged = merge_tables(eng, spa)

        # Table 1 direction on the train split, replacement and normalization
        stages = [
            ("eng", oov_report(train, eng.vocabulary).all_pct, 62.62),
            ("eng+spa", oov_report(train, merged.vocabulary).all_pct, 49.76),
            (
                "replacement",
                oov_report(
                    Dataset(
                        [
                            TaggedSentence(
                                [replace_token(t) for t in s.tokens], list(s.tags)
                            )
                            for s in train
                        ]
                    ),
                    merged.vocabulary,
                ).all_pct,
                12.43,
            ),
            (
                "normalization",
                oov_report(
                    preprocess_dataset(train, merged.vocabulary), merged.vocabulary
                ).all_pct,
                7.94,
            ),
        ]
        for (_, now, target), (_, nxt, _) in zip(stages, stages[1:]):
            assert nxt < now  # each row strictly lowers the rate
        for name, value, target in stages:
            assert abs(value - target) <= 0.5, f"{name}: {value:.2f} vs {target}"

        from csner.embeddings import build_char_vocab

        cfg = TrainingConfig(max_epochs=50)
        model = new_model(cfg, merged, build_char_vocab(train),
                          np.random.default_rng(cfg.seed))
        best = fit(
            model,
            preprocess_dataset(train, merged.vocabulary),
            preprocess_dataset(dev, merged.vocabulary),
            cfg,
            train_surfaces=train,
            dev_surfaces=dev,
        )
        final = restore_model(best)
        raw_dev = dev_f1(final, preprocess_dataset(dev, merged.vocabulary),
                         cfg.batch_size, surfaces=dev, post=False)
        assert best.dev_score >= raw_dev  # "+ post" direction
        predicted = predict_dataset(final, preprocess_dataset(test, merged.vocabulary),
                                    cfg.batch_size, surfaces=test, post=True)
        pred_ds = Dataset(
            [TaggedSentence(s.tokens, tags) for s, tags in zip(test, predicted)]
        )
        test_f1 = score(test, pred_ds).harmonic_f1
        assert abs(100 * test_f1 - 62.7608) <= 2.0
