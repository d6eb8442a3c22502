import numpy as np
import pytest

from csner.cli import ConfigError, build_run_config, main, parse_config_file
from csner.corpus_io import read_conll
from csner.postprocess import postprocess_sentence
from csner.trainer import load_checkpoint, save_checkpoint

from conftest import OVERFIT_SENTENCES, tagged_text, write_vec_file


@pytest.fixture()
def workdir(tmp_path):
    """A corpus, matching synthetic vector files, and a config file."""
    train = tmp_path / "train.conll"
    train.write_text(tagged_text(OVERFIT_SENTENCES), encoding="utf-8")
    words = sorted(
        {tok for line in OVERFIT_SENTENCES.strip().split("\n")
         for pair in line.split(" ") for tok in [pair.rsplit("/", 1)[0]]}
    )
    vec_eng = tmp_path / "eng.vec"
    vec_spa = tmp_path / "spa.vec"
    write_vec_file(vec_eng, words[: len(words) // 2 + 4], dim=16, seed=1)
    write_vec_file(vec_spa, words[len(words) // 2 :], dim=16, seed=2)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"""# micro training run
train = {train}
dev = {train}
vec_eng = {vec_eng}
vec_spa = {vec_spa}
checkpoint = {tmp_path / 'model.ck'}
word_dim = 16
char_dim = 4
char_hidden = 5
hidden = 6
max_epochs = 2
seed = 3
""",
        encoding="utf-8",
    )
    return tmp_path, config


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 4\n")
        with pytest.raises(ConfigError):
            parse_config_file(bad)

    def test_bad_value_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = lots\n")
        with pytest.raises(ConfigError):
            parse_config_file(bad)

    @pytest.mark.parametrize("line, value", [
        ("patience = 3", 3),
        ("decay = 2.5", 2.5),
        ("float64 = yes", True),
        ("no_post = 0", False),
        ("prune_to = corpora/dev.conll", "corpora/dev.conll"),
    ])
    def test_value_typed_by_key(self, tmp_path, line, value):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(line + "\n")
        (key, got), = parse_config_file(cfg).items()
        assert (key, got, type(got)) == (line.split(" ")[0], value, type(value))

    @pytest.mark.parametrize("line", [
        "patience = 2.5", "decay = fast", "float64 = maybe", "no_post = 2",
    ])
    def test_bad_value_located(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# header\n" + line + "\n")
        key, _, value = line.partition(" = ")
        with pytest.raises(ConfigError) as err:
            parse_config_file(cfg)
        assert str(err.value) == f"{cfg}:2: bad value {value!r} for {key}"

    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("\n# comment\nseed = 4  # trailing\n\nfloat64 = true\n")
        values = parse_config_file(cfg)
        assert values == {"seed": 4, "float64": True}

    def test_flag_overrides_file(self, workdir):
        tmp_path, config = workdir
        import argparse

        args = argparse.Namespace(config=str(config), seed=99)
        cfg = build_run_config(args)
        assert cfg.training.seed == 99
        assert cfg.training.max_epochs == 2  # from the file

    def test_builtin_default_hyperparameters(self):
        import argparse

        cfg = build_run_config(argparse.Namespace())
        t = cfg.training
        assert (t.hidden, t.batch_size, t.word_dim, t.char_dim) == (200, 64, 300, 150)
        assert (t.dropout, t.lr0, t.patience) == (0.4, 0.01, 2)
        assert t.decay == pytest.approx(np.sqrt(2.0))


class TestErrors:
    def test_missing_vector_file_mentions_path(self, workdir, capsys):
        tmp_path, config = workdir
        code = main(
            ["train", "--config", str(config), "--vec-eng", str(tmp_path / "nope.vec")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "nope.vec" in captured.err

    def test_eval_missing_file(self, tmp_path, capsys):
        code = main(["eval", str(tmp_path / "a"), str(tmp_path / "b")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def predict_with_meta(self, workdir, capsys, meta):
        """Exit code and stderr of ``predict`` on an empty checkpoint with ``meta``."""
        tmp_path, config = workdir
        bad = tmp_path / "bad.ck"
        bad.write_text(f"CSNER1\nmeta {meta}\nvocab word 0 0\nvocab char 0 0\npayload 0\nend\n")
        code = main(["predict", str(tmp_path / "train.conll"), "--config", str(config),
                     "--checkpoint", str(bad)])
        return code, capsys.readouterr().err

    def test_checkpoint_without_config_fails_cleanly(self, workdir, capsys):
        assert self.predict_with_meta(workdir, capsys, '{"dev_score": 0.0, "epoch": 1}') == (
            1, "error: header line 2: meta has no 'config'\n"
        )

    def test_checkpoint_with_mistyped_config_fails_cleanly(self, workdir, capsys):
        meta = '{"config": {"char_hidden": "2"}, "dev_score": 0.0, "epoch": 1}'
        assert self.predict_with_meta(workdir, capsys, meta) == (
            1, "error: header line 2: bad meta block: char_hidden must be int, not '2'\n"
        )

    def test_checkpoint_shape_mismatch_fails_cleanly(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["train", "--config", str(config)]) == 0
        path = tmp_path / "model.ck"
        ckpt = load_checkpoint(path)
        n_chars = len(ckpt.char_list)
        ckpt.tensors["char_embed"] = ckpt.tensors["char_embed"][:-1]
        save_checkpoint(ckpt, path)
        capsys.readouterr()
        code = main(["predict", str(tmp_path / "train.conll"), "--config", str(config)])
        assert (code, capsys.readouterr().err) == (1, (
            f"error: tensor 'char_embed' has shape ({n_chars - 1}, 4), expected ({n_chars}, 4)\n"
        ))

    def test_checkpoint_char_order_fails_cleanly(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["train", "--config", str(config)]) == 0
        path = tmp_path / "model.ck"
        ckpt = load_checkpoint(path)
        ckpt.char_list = ckpt.char_list[:2] + ckpt.char_list[:1:-1]
        save_checkpoint(ckpt, path)
        capsys.readouterr()
        code = main(["predict", str(tmp_path / "train.conll"), "--config", str(config)])
        assert (code, capsys.readouterr().err) == (1, (
            "error: character list is not in vocabulary order (PAD, UNK, then sorted)\n"
        ))

    def test_non_utf8_corpus_fails_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_bytes(b"Ana\tB-PER\n" * 40 + b"Jos\xe9\tB-PER\n\n")
        assert main(["stats", str(corpus)]) == 1
        assert capsys.readouterr().err == "error: line 41: not valid UTF-8\n"

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert main(["stats", "--config", str(cfg), "x"]) == 1


class TestPruneFlag:
    def test_prune_to_controls_retention(self, workdir, capsys):
        tmp_path, config = workdir
        out_path = tmp_path / "prep.conll"
        code = main(
            ["preprocess", str(tmp_path / "train.conll"), "--config", str(config),
             "--prune-to", str(tmp_path / "train.conll"), "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()

    def test_missing_prune_corpus_is_an_error(self, workdir, capsys):
        tmp_path, config = workdir
        code = main(
            ["preprocess", str(tmp_path / "train.conll"), "--config", str(config),
             "--prune-to", str(tmp_path / "ghost.conll")]
        )
        assert code == 1
        assert "ghost.conll" in capsys.readouterr().err


class TestOutputValidation:
    def test_unwritable_checkpoint_dir_fails_before_training(self, workdir, capsys):
        tmp_path, config = workdir
        code = main(
            ["train", "--config", str(config),
             "--checkpoint", str(tmp_path / "no" / "dir" / "m.ck")]
        )
        assert code == 1
        assert "does not exist" in capsys.readouterr().err


class TestStatsAndEval:
    def test_stats_hand_counted(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_text("Ana\tB-PER\nGarcia\tI-PER\n\nLima\tB-LOC\n\n")
        assert main(["stats", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "# Words" in out and "3" in out
        assert "Person" in out and "Location" in out

    def test_eval_self_is_perfect(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_text("Ana\tB-PER\n\nLima\tB-LOC\n\n")
        assert main(["eval", str(corpus), str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "harmonic mean F1: 100.0000%" in out


class TestPreprocessCommand:
    def test_report_and_output(self, workdir, capsys):
        tmp_path, config = workdir
        out_path = tmp_path / "prep.conll"
        code = main(
            ["preprocess", str(tmp_path / "train.conll"), "--config", str(config),
             "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for row in ("corpus", "vectors (eng)", "+ vectors (spa)",
                    "+ token replacement", "+ token normalization"):
            assert row in out
        prep = read_conll(out_path)
        raw = read_conll(tmp_path / "train.conll")
        assert [len(s) for s in prep] == [len(s) for s in raw]


class TestTrainPredict:
    def test_train_then_predict(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["train", "--config", str(config)]) == 0
        checkpoint = tmp_path / "model.ck"
        assert checkpoint.exists()
        assert (tmp_path / "model.ck.log").exists()
        capsys.readouterr()

        pred_path = tmp_path / "pred.conll"
        code = main(
            ["predict", str(tmp_path / "train.conll"), "--config", str(config),
             "--out", str(pred_path)]
        )
        assert code == 0
        pred_lines = pred_path.read_text().rstrip("\n").split("\n")
        input_lines = (tmp_path / "train.conll").read_text().rstrip("\n").split("\n")
        assert len(pred_lines) == len(input_lines)
        # original surface tokens are preserved in column one
        assert [l.split("\t")[0] for l in pred_lines] == [
            l.split("\t")[0] for l in input_lines
        ]

    def test_unlabeled_input_accepted(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        unlabeled = tmp_path / "raw.conll"
        unlabeled.write_text("Maria\nva\na\nMadrid\n\n")
        assert main(["predict", str(unlabeled), "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert len(out.rstrip("\n").split("\n")) == 5 - 1  # 4 token lines

    def test_no_post_differs_only_at_repaired_positions(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        inp = tmp_path / "train.conll"
        raw_out = tmp_path / "raw.conll"
        post_out = tmp_path / "post.conll"
        assert main(["predict", str(inp), "--config", str(config), "--out",
                     str(post_out)]) == 0
        assert main(["predict", str(inp), "--config", str(config), "--out",
                     str(raw_out), "--no-post"]) == 0
        raw = read_conll(raw_out)
        post = read_conll(post_out)
        for raw_sent, post_sent in zip(raw, post):
            repaired = postprocess_sentence(raw_sent.tags)
            assert post_sent.tags == repaired
            diff = [i for i, (a, b) in enumerate(zip(raw_sent.tags, post_sent.tags)) if a != b]
            changed = [i for i, (a, b) in enumerate(zip(raw_sent.tags, repaired)) if a != b]
            assert diff == changed
