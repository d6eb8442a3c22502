import argparse
import errno
import filecmp
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csner import autodiff as ad
from csner import cli
from csner.cli import ConfigError, build_run_config, main, parse_config_file
from csner.corpus_io import read_conll
from csner.embeddings import build_char_vocab, corpus_candidate_forms, load_vec, merge_tables
from csner.postprocess import postprocess_sentence
from csner.preprocess import preprocess_dataset
from csner.trainer import TrainingConfig, fit, load_checkpoint, new_model, save_checkpoint

from conftest import (
    OVERFIT_SENTENCES,
    corrupt_tensor_value,
    corrupt_vocab_entry,
    tagged_text,
    write_vec_file,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DATA = pathlib.Path(__file__).resolve().parent / "data"
# a meta block that loads: the default config
GOOD_META = '{"config": {}, "dev_score": 0.0, "epoch": 1}'


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


def record_reads(monkeypatch) -> list:
    """Patch out the CLI's corpus, vector and checkpoint readers; the list
    collects each call's arguments."""
    reads = []
    for reader in ("read_conll", "load_vec", "load_checkpoint"):
        monkeypatch.setattr(cli, reader, lambda *args, **kwargs: reads.append(args))
    return reads


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

    def predict_with_checkpoint(self, workdir, capsys, lines, payload=b""):
        """Exit code and stderr of ``predict`` on a checkpoint of the given
        header ``lines`` (magic and terminator added) and ``payload``; the
        checkpoint is ``<workdir>/bad.ck``, which its errors name."""
        tmp_path, config = workdir
        bad = tmp_path / "bad.ck"
        bad.write_bytes("\n".join(["CSNER1", *lines, "end\n"]).encode() + payload)
        code = main(["predict", str(tmp_path / "train.conll"), "--config", str(config),
                     "--checkpoint", str(bad)])
        return code, capsys.readouterr().err

    def predict_with_meta(self, workdir, capsys, meta):
        """Exit code and stderr of ``predict`` on an empty checkpoint with ``meta``."""
        return self.predict_with_checkpoint(
            workdir, capsys, [f"meta {meta}", "vocab word 0 0", "vocab char 0 0", "payload 0"])

    def test_checkpoint_without_config_fails_cleanly(self, workdir, capsys):
        assert self.predict_with_meta(workdir, capsys, '{"dev_score": 0.0, "epoch": 1}') == (
            1, f"error: {workdir[0] / 'bad.ck'}: header line 2: meta has no 'config'\n"
        )

    def test_checkpoint_with_mistyped_config_fails_cleanly(self, workdir, capsys):
        meta = '{"config": {"char_hidden": "2"}, "dev_score": 0.0, "epoch": 1}'
        assert self.predict_with_meta(workdir, capsys, meta) == (1, (
            f"error: {workdir[0] / 'bad.ck'}: "
            "header line 2: bad meta block: char_hidden must be int, not '2'\n"
        ))

    @pytest.mark.parametrize("key, value, shown", [
        # JSON reads 1e309 as infinity, which int() cannot take
        pytest.param("epoch", "1e309", "epoch inf is not an integer", id="1e309-inf"),
        pytest.param("epoch", "1.5", "epoch 1.5 is not an integer", id="1.5-1.5"),
        # float() would take each of these as a score
        pytest.param("dev_score", '"0.5"', "dev_score '0.5' is not a finite number",
                     id="dev_score-string"),
        pytest.param("dev_score", "true", "dev_score True is not a finite number",
                     id="dev_score-true"),
        pytest.param("dev_score", "NaN", "dev_score nan is not a finite number",
                     id="dev_score-NaN"),
        pytest.param("dev_score", "Infinity", "dev_score inf is not a finite number",
                     id="dev_score-Infinity"),
    ])
    def test_checkpoint_with_non_integer_epoch_fails_cleanly(self, workdir, capsys, key, value,
                                                             shown):
        fields = {"config": "{}", "dev_score": "0.0", "epoch": "1", key: value}
        meta = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        assert self.predict_with_meta(workdir, capsys, meta) == (
            1, f"error: {workdir[0] / 'bad.ck'}: header line 2: bad meta block: {shown}\n"
        )

    @pytest.mark.parametrize("lines, payload, message", [
        pytest.param(["vocab word 1 0", "vocab char 0 2", "payload 2"], b"\x05\x00",
                     "truncated vocabulary block", id="truncated_block"),
        pytest.param(["vocab word 1 0", "vocab char 0 6", "payload 6"], b"\x05\x00\x00\x00ab",
                     "truncated vocabulary entry", id="truncated_entry"),
        pytest.param(["vocab word 0 0", "vocab char 0 3", "payload 3"], b"abc",
                     "trailing bytes after vocabulary block", id="trailing_bytes"),
        pytest.param(["vocab word -1 0", "vocab char 0 0", "payload 0"], b"",
                     "header line 3: malformed vocab line 'vocab word -1 0'", id="negative_count"),
        pytest.param(["tensor proj_b -19 0", "vocab word 0 0", "vocab char 0 0", "payload 0"], b"",
                     "header line 3: malformed tensor line 'tensor proj_b -19 0'",
                     id="negative_shape"),
        pytest.param(["vocab word 0 0", "vocab char 0 0"], b"", "incomplete header",
                     id="no_payload_line"),
        pytest.param(["tensor proj_b 1 0", "tensor proj_w 1 0", "vocab word 0 4", "vocab char 0 4",
                      "payload 4"], bytes(4),
                     "header line 4: tensor proj_w at byte 0, expected 4", id="aliased_block"),
    ])
    def test_malformed_checkpoint_layout_fails_cleanly(self, workdir, capsys, lines, payload,
                                                       message):
        got = self.predict_with_checkpoint(workdir, capsys, [f"meta {GOOD_META}", *lines], payload)
        assert got == (1, f"error: {workdir[0] / 'bad.ck'}: {message}\n")

    def test_checkpoint_without_reserved_words_fails_cleanly(self, workdir, capsys):
        assert self.predict_with_meta(workdir, capsys, GOOD_META) == (
            1, f"error: {workdir[0] / 'bad.ck'}: vocabulary does not start with PAD/UNK/USR/URL\n"
        )

    def test_train_without_checkpoint_fails_cleanly(self, workdir, capsys):
        tmp_path, config = workdir
        lines = config.read_text(encoding="utf-8").splitlines(keepends=True)
        config.write_text("".join(l for l in lines if not l.startswith("checkpoint")),
                          encoding="utf-8")
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: missing required path: checkpoint\n"

    def test_train_on_untagged_corpus_fails_cleanly(self, workdir, capsys):
        tmp_path, config = workdir
        bare = tmp_path / "bare.conll"
        bare.write_text("Maria\nva\n\n", encoding="utf-8")
        assert main(["train", "--config", str(config), "--train", str(bare)]) == 1
        assert capsys.readouterr().err == "error: train and dev corpora must carry gold tags\n"

    def test_vector_dimension_mismatch_fails_cleanly(self, workdir, capsys):
        tmp_path, config = workdir
        for name in ("eng4.vec", "spa4.vec"):
            write_vec_file(tmp_path / name, ["Maria", "va"], dim=4)
        code = main(["train", "--config", str(config), "--vec-eng", str(tmp_path / "eng4.vec"),
                     "--vec-spa", str(tmp_path / "spa4.vec")])
        assert (code, capsys.readouterr().err) == (
            1, "error: vector file dimension 4 != configured word_dim 16\n"
        )

    def test_preprocess_empty_corpus_fails_cleanly(self, workdir, capsys):
        tmp_path, config = workdir
        empty = tmp_path / "empty.conll"
        empty.write_text("")
        out = tmp_path / "prep.conll"
        code = main(["preprocess", str(empty), "--config", str(config), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (1, f"error: empty corpus: {empty}\n")
        assert not out.exists()

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
            f"error: {path}: "
            f"tensor 'char_embed' has shape ({n_chars - 1}, 4), expected ({n_chars}, 4)\n"
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
            f"error: {path}: character list is not in vocabulary order (PAD, UNK, then sorted)\n"
        ))

    def test_checkpoint_non_utf8_vocab_fails_cleanly(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["train", "--config", str(config)]) == 0
        path = tmp_path / "model.ck"
        corrupt_vocab_entry(path, "word", 7)
        capsys.readouterr()
        code = main(["predict", str(tmp_path / "train.conll"), "--config", str(config)])
        assert (code, capsys.readouterr().err) == (
            1, f"error: {path}: vocab word entry 7: not valid UTF-8\n"
        )

    def test_overflowing_checkpoint_fails_cleanly(self, tmp_path, capsys):
        # finite weights whose tag scores overflow: one error line and exit
        # 1, not a numpy warning and tags read from infinities
        corpus = tmp_path / "input.conll"
        corpus.write_text("hola\nmundo\n@user\n\n", encoding="utf-8")
        checkpoint = pathlib.Path(__file__).parent / "data" / "checkpoint_overflow.ck"
        code = main(["predict", str(corpus), "--checkpoint", str(checkpoint)])
        assert (code, capsys.readouterr()) == (1, (
            "", "error: sentence 1: the model's tag scores are not finite (its weights overflow)\n"
        ))

    def test_checkpoint_non_finite_tensor_fails_cleanly(self, workdir, capsys):
        tmp_path, config = workdir
        assert main(["train", "--config", str(config)]) == 0
        path = tmp_path / "model.ck"
        trained = path.read_bytes()
        for name, value in (("proj_w", float("nan")), ("word_fixed", float("inf"))):
            path.write_bytes(trained)
            corrupt_tensor_value(path, name, value)
            capsys.readouterr()
            code = main(["predict", str(tmp_path / "train.conll"), "--config", str(config)])
            assert (code, capsys.readouterr().err) == (
                1, f"error: {path}: tensor {name} has a non-finite value\n"
            )

    def test_non_utf8_config_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        reads = record_reads(monkeypatch)
        cfg = tmp_path / "bad.cfg"
        # past the first 8 KB, which a text file decodes as one chunk
        cfg.write_bytes(b"# padding\n" * 1000 + b"seed = 3\nout = caf\xe9.conll\n")
        corpus = tmp_path / "in.conll"
        corpus.write_text("mira\n\n")
        assert main(["predict", str(corpus), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:1002: not valid UTF-8\n"
        assert reads == []

    def test_non_utf8_corpus_fails_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_bytes(b"Ana\tB-PER\n" * 40 + b"Jos\xe9\tB-PER\n\n")
        assert main(["stats", str(corpus)]) == 1
        assert capsys.readouterr().err == f"error: {corpus}: line 41: not valid UTF-8\n"

    def test_corpus_error_before_a_later_non_utf8_line(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_bytes(b"Ana\tB-PER\n\tO\nva\tO\nJos\xe9\tB-PER\n\n")
        assert main(["stats", str(corpus)]) == 1
        assert capsys.readouterr().err == f"error: {corpus}: line 2: empty token\n"

    def test_train_names_the_malformed_dev_corpus(self, workdir, capsys):
        tmp_path, config = workdir
        dev = tmp_path / "dev.conll"
        dev.write_text("a\tB-NOPE\n\n", encoding="utf-8")
        assert main(["train", "--config", str(config), "--dev", str(dev)]) == 1
        assert capsys.readouterr().err == f"error: {dev}: line 1: malformed tag 'B-NOPE'\n"

    def test_eval_names_the_malformed_prediction_file(self, tmp_path, capsys):
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text("Ana\tB-PER\nva\tO\n\n", encoding="utf-8")
        pred.write_text("Ana\tB-PER\nva\n\n", encoding="utf-8")
        assert main(["eval", str(gold), str(pred)]) == 1
        assert capsys.readouterr().err == (
            f"error: {pred}: line 2: tag column present on some lines but absent on others\n"
        )

    def test_preprocess_names_the_malformed_spanish_vectors(self, tmp_path, capsys):
        corpus, eng, spa = tmp_path / "c.conll", tmp_path / "eng.vec", tmp_path / "spa.vec"
        corpus.write_text("mira\tO\n\n")
        eng.write_text("1 2\nmira 1 1\n")
        spa.write_text("2 2\nver 1 0\nmira nan 0\n")
        assert main(["preprocess", str(corpus), "--vec-eng", str(eng), "--vec-spa", str(spa)]) == 1
        assert capsys.readouterr().err == f"error: {spa}: line 3: non-finite vector component\n"

    def test_config_error_before_a_later_non_utf8_line(self, tmp_path, capsys, monkeypatch):
        reads = record_reads(monkeypatch)
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"bogus = 1\nout = caf\xe9.conll\n")
        corpus = tmp_path / "in.conll"
        corpus.write_text("mira\n\n")
        assert main(["predict", str(corpus), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'bogus'\n"
        assert reads == []

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        reads = record_reads(monkeypatch)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 3\nfrobnicate = 1\n")
        corpus = tmp_path / "in.conll"
        corpus.write_text("mira\n\n")
        assert main(["predict", str(corpus), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown key 'frobnicate'\n"
        assert reads == []

    @pytest.mark.parametrize("line", ["decay = inf", "decay = nan", "lr0 = inf", "lr0 = nan"])
    def test_non_finite_rate_fails_before_reading(self, workdir, capsys, monkeypatch, line):
        tmp_path, config = workdir
        reads = record_reads(monkeypatch)
        with open(config, "a", encoding="utf-8") as fp:
            fp.write(line + "\n")
        assert main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: lr0 and decay must be positive and finite\n"
        assert reads == []


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


FLAGS = ("--config", "--train", "--dev", "--test", "--vec-eng", "--vec-spa", "--checkpoint",
         "--out", "--prune-to", "--seed", "--max-epochs", "--no-post", "--float64")
# The flags each command accepts: a path's role, or the value a flag sets.
# Every other (command, flag) pair is rejected.
ACCEPTED = {
    "train": {"--config": "config", "--train": "input", "--dev": "input", "--test": "input",
              "--vec-eng": "input", "--vec-spa": "input", "--checkpoint": "output",
              "--out": "output", "--prune-to": "input", "--seed": 7, "--max-epochs": 7,
              "--float64": True},
    "predict": {"--config": "config", "--checkpoint": "input", "--out": "output",
                "--no-post": True},
    "preprocess": {"--config": "config", "--train": "input", "--vec-eng": "input",
                   "--vec-spa": "input", "--out": "output", "--prune-to": "input"},
    "eval": {},
    "stats": {},
}
MATRIX = [(command, flag) for command in ACCEPTED for flag in FLAGS]
PATH_ROLES = ("config", "input", "output")


def positionals(command, tmp_path) -> list:
    corpus = str(tmp_path / "train.conll")
    return {"train": [], "predict": [corpus], "preprocess": [corpus],
            "eval": [corpus, corpus], "stats": [corpus]}[command]


# the name of the input path a command takes by position
POSITIONAL_INPUT = {"predict": ["input"], "preprocess": ["corpus"]}
# every (command, output flag, input) that may not name the same file: the
# input is a flag of the config or input role, or the positional input
COLLISIONS = [
    (command, output, source)
    for command, flags in ACCEPTED.items()
    for output in flags if flags[output] == "output"
    for source in [f for f in flags if flags[f] in ("config", "input")]
    + POSITIONAL_INPUT.get(command, [])
]


class TestPathsCheckedFirst:
    """Each command accepts only the flags it reads, and every path given
    is checked before any corpus, vector file or checkpoint is read."""

    @pytest.mark.parametrize("command", ACCEPTED)
    def test_help_lists_exactly_the_accepted_flags(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) - {"--help"}
        assert flags == set(ACCEPTED[command])

    @pytest.mark.parametrize("command", ACCEPTED)
    def test_every_argument_has_help(self, command):
        subcommands = next(action for action in cli._build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        assert [action.dest for action in subcommands.choices[command]._actions
                if not action.help] == []

    @pytest.mark.parametrize("command, flag", [
        cell for cell in MATRIX if ACCEPTED[cell[0]].get(cell[1]) in PATH_ROLES
    ])
    def test_missing_given_path_fails_before_reading(self, workdir, capsys, monkeypatch,
                                                     command, flag):
        tmp_path, config = workdir
        (tmp_path / "model.ck").touch()  # the config's checkpoint, for predict
        reads = record_reads(monkeypatch)
        ghost = tmp_path / "no" / "ghost.conll"
        code = main([command, *positionals(command, tmp_path), "--config", str(config),
                     flag, str(ghost)])
        assert (code, reads) == (1, [])
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == {
            "config": f"error: config file not found: {ghost}\n",
            "input": f"error: {name} file not found: {ghost}\n",
            "output": f"error: directory for {name} does not exist: {ghost.parent}\n",
        }[ACCEPTED[command][flag]]

    @pytest.mark.parametrize("command, flag", [
        cell for cell in MATRIX
        if cell[1] in ACCEPTED[cell[0]] and ACCEPTED[cell[0]][cell[1]] not in PATH_ROLES
    ])
    def test_value_flag_sets_its_key(self, command, flag):
        value = ACCEPTED[command][flag]
        argv = [command, flag] if value is True else [command, flag, str(value)]
        cfg = build_run_config(cli._build_parser().parse_args(argv))
        got = {**vars(cfg), **vars(cfg.training)}[flag[2:].replace("-", "_")]
        assert (got, type(got)) == (value, type(value))

    @pytest.mark.parametrize("command, flag", [
        cell for cell in MATRIX if cell[1] not in ACCEPTED[cell[0]]
    ])
    def test_unread_flag_rejected(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_:
            main([command, *positionals(command, tmp_path), flag, "x"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["predict", "{ghost}", "--config", "{config}"], "input"),
        (["predict", "--config", "{config}"], "input"),  # the config's test key
        (["preprocess", "{ghost}", "--config", "{config}"], "corpus"),
        (["eval", "{ghost}", "{corpus}"], "gold"),
        (["eval", "{corpus}", "{ghost}"], "predictions"),
        (["stats", "{ghost}"], "corpus"),
    ])
    def test_missing_positional_fails_before_reading(self, workdir, capsys, monkeypatch,
                                                     argv, name):
        tmp_path, config = workdir
        (tmp_path / "model.ck").touch()
        ghost = tmp_path / "ghost.conll"
        with open(config, "a", encoding="utf-8") as fp:
            fp.write(f"test = {ghost}\n")
        reads = record_reads(monkeypatch)
        paths = {"ghost": ghost, "config": config, "corpus": tmp_path / "train.conll"}
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert reads == []
        assert capsys.readouterr().err == f"error: {name} file not found: {ghost}\n"


class TestOutputValidation:
    def test_unwritable_checkpoint_dir_fails_before_training(self, workdir, capsys):
        tmp_path, config = workdir
        code = main(
            ["train", "--config", str(config),
             "--checkpoint", str(tmp_path / "no" / "dir" / "m.ck")]
        )
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_out_same_as_checkpoint_fails_before_reading(self, workdir, capsys, monkeypatch):
        tmp_path, config = workdir
        assert main(["train", "--config", str(config)]) == 0
        checkpoint = tmp_path / "model.ck"
        trained = checkpoint.read_bytes()
        (tmp_path / "link.ck").symlink_to(checkpoint)
        capsys.readouterr()
        reads = record_reads(monkeypatch)
        for out in (checkpoint, f"{tmp_path}/./model.ck", tmp_path / "link.ck"):
            assert main(["train", "--config", str(config), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: out and checkpoint name the same file: {out}\n"
            )
        assert reads == []
        assert checkpoint.read_bytes() == trained


    @pytest.mark.parametrize("command, output, source", COLLISIONS)
    def test_output_naming_an_input_fails_before_reading(self, workdir, capsys, monkeypatch,
                                                         command, output, source):
        tmp_path, config = workdir
        (tmp_path / "model.ck").touch()  # the config's checkpoint, for predict
        argv = [command, *positionals(command, tmp_path), "--config", str(config)]
        if source == "--config":
            target = config
        else:
            target = tmp_path / "target.conll"
            target.write_text(tagged_text("Ana/B-PER"), encoding="utf-8")
            if source.startswith("--"):
                argv += [source, str(target)]
            else:
                argv[1] = str(target)
        before = target.read_bytes()
        reads = record_reads(monkeypatch)
        assert main([*argv, output, str(target)]) == 1
        assert reads == []
        names = [flag.lstrip("-").replace("-", "_") for flag in (output, source)]
        assert capsys.readouterr().err == (
            f"error: {names[0]} and {names[1]} name the same file: {target}\n"
        )
        assert target.read_bytes() == before

    def test_default_log_naming_an_input_fails_before_reading(self, workdir, capsys,
                                                              monkeypatch):
        tmp_path, config = workdir
        dev = tmp_path / "model.ck.log"  # the log beside the config's checkpoint
        dev.write_text(tagged_text("Ana/B-PER"), encoding="utf-8")
        reads = record_reads(monkeypatch)
        assert main(["train", "--config", str(config), "--dev", str(dev)]) == 1
        assert reads == []
        assert capsys.readouterr().err == f"error: log and dev name the same file: {dev}\n"
        assert dev.read_text(encoding="utf-8") == tagged_text("Ana/B-PER")


class TestStatsAndEval:
    def test_stats_hand_counted(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_text("Ana\tB-PER\nGarcia\tI-PER\n\nLima\tB-LOC\n\n")
        assert main(["stats", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "# Words" in out and "3" in out
        assert "Person" in out and "Location" in out

    @pytest.mark.parametrize("text, persons, defects", [
        # an O inside a PER span (kind 1), whose I-PER is also an orphan
        # (kind 3), and an I-PER after B-LOC (kind 2); each orphan I-PER
        # counts as an entity
        ("Ana\tB-PER\nde\tO\nGarcia\tI-PER\n\nLima\tB-LOC\nPeru\tI-PER\n\n", 3,
         "IOB defects: kind 1 1, kind 2 1, kind 3 1\n"),
        ("Ana\tB-PER\nde\tI-PER\nGarcia\tI-PER\n\nLima\tB-LOC\nPeru\tO\n\n", 1,
         "IOB defects: kind 1 0, kind 2 0, kind 3 0\n"),
    ])
    def test_stats_counts_iob_defects_on_stderr(self, tmp_path, capsys, text, persons, defects):
        corpus = tmp_path / "c.conll"
        corpus.write_text(text)
        assert main(["stats", str(corpus)]) == 0
        captured = capsys.readouterr()
        assert captured.err == defects
        assert captured.out == (
            "# Sentences             2\n"
            "# Words                 5\n"
            f"# Person                {persons}\n"
            "# Location              1\n"
            "# Product               0\n"
            "# Title                 0\n"
            "# Organization          0\n"
            "# Group                 0\n"
            "# Time                  0\n"
            "# Event                 0\n"
            "# Other                 0\n"
        )

    def test_stats_on_untagged_corpus_names_file_and_sentence(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_text("Ana\nGarcia\n\nLima\n\n")
        assert main(["stats", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {corpus}: sentence 1: missing tags\n")

    def test_eval_entity_free_is_vacuously_perfect(self, tmp_path, capsys):
        for text in ("", "mira\tO\nesto\tO\n\n"):
            corpus = tmp_path / "c.conll"
            corpus.write_text(text)
            assert main(["eval", str(corpus), str(corpus)]) == 0
            out = capsys.readouterr().out
            assert "harmonic mean F1: 100.0000%" in out
            assert "micro F1:         100.0000%" in out

    def test_eval_names_the_untagged_file(self, tmp_path, capsys):
        tagged, untagged = tmp_path / "tagged.conll", tmp_path / "untagged.conll"
        tagged.write_text("Ana\tB-PER\n\nLima\tB-LOC\n\n")
        untagged.write_text("Ana\n\nLima\n\n")
        for gold, pred in ((tagged, untagged), (untagged, tagged)):
            assert main(["eval", str(gold), str(pred)]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {untagged}: sentence 1: missing tags\n")

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

    def test_vector_rows_named_like_reserved_tokens(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_text("mira\tO\nhttp://t.co/x\tO\n@ana\tO\n\n")
        vec = tmp_path / "eng.vec"
        vec.write_text("3 2\nURL 1 0\nmira 1 1\nUSR 0 1\n")
        assert main(["preprocess", str(corpus), "--vec-eng", str(vec)]) == 0
        assert capsys.readouterr().err == ""

    def test_non_finite_vector_fails_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_text("mira\tO\n\n")
        vec = tmp_path / "eng.vec"
        vec.write_text("2 2\nmira 1 1\nver nan 0\n")
        assert main(["preprocess", str(corpus), "--vec-eng", str(vec)]) == 1
        assert capsys.readouterr().err == f"error: {vec}: line 3: non-finite vector component\n"

    def test_blank_vector_rows_fail_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "c.conll"
        corpus.write_text("mira\tO\n\n")
        vec = tmp_path / "eng.vec"
        vec.write_text("2 2\n\n\n")
        assert main(["preprocess", str(corpus), "--vec-eng", str(vec)]) == 1
        assert capsys.readouterr().err == f"error: {vec}: line 2: expected 2 components, got 0\n"


def assert_no_child_left():
    """This process has no child process, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTablesLoadAtOnce:
    """With both ``.vec`` files, ``_load_tables`` parses the Spanish one in
    a forked child while this process parses the English one.  The tables,
    every message and the output are those of a serial load, and every
    path reaps the child."""

    def preprocess(self, workdir, capsys):
        """Exit code, stdout, stderr and ``--out`` bytes of ``preprocess``
        on the workdir corpus with both vector files."""
        tmp_path, config = workdir
        out = tmp_path / "prep.conll"
        code = main(["preprocess", str(tmp_path / "train.conll"), "--config", str(config),
                     "--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if code == 0 else None

    def spy_forks(self, monkeypatch) -> list:
        """The pids of the children that ``os.fork`` makes from here on."""
        forks, fork = [], os.fork

        def spied():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spied)
        return forks

    def raise_in_child(self, monkeypatch, exc):
        """Make the CLI's ``load_vec`` raise ``exc`` in a child process."""
        parent = os.getpid()

        def load(path, keep=None):
            if os.getpid() != parent:
                raise exc
            return load_vec(path, keep=keep)

        monkeypatch.setattr(cli, "load_vec", load)

    @pytest.mark.parametrize("pruned", [False, True])
    def test_tables_equal_a_serial_load(self, workdir, monkeypatch, pruned):
        tmp_path, _ = workdir
        eng, spa = str(tmp_path / "eng.vec"), str(tmp_path / "spa.vec")
        keep = corpus_candidate_forms(read_conll(tmp_path / "train.conll")) if pruned else None
        forks = self.spy_forks(monkeypatch)
        cfg = build_run_config(argparse.Namespace(vec_eng=eng, vec_spa=spa))
        got = cli._load_tables(cfg, keep)
        serial_eng = load_vec(eng, keep=keep)
        want = serial_eng, merge_tables(serial_eng, load_vec(spa, keep=keep))
        assert len(forks) == 1
        assert_no_child_left()
        for table, serial in zip(got, want):
            assert table.vocabulary.tokens == serial.vocabulary.tokens
            assert table.vectors.dtype == serial.vectors.dtype
            assert table.vectors.tobytes() == serial.vectors.tobytes()
            assert table.stat_sum.tobytes() == serial.stat_sum.tobytes()
            assert table.stat_count == serial.stat_count

    def test_english_error_comes_first(self, tmp_path, capsys):
        corpus, eng, spa = tmp_path / "c.conll", tmp_path / "eng.vec", tmp_path / "spa.vec"
        corpus.write_text("mira\tO\n\n")
        eng.write_text("2 2\nmira 1 1\nver nan 0\n")
        spa.write_text("2 2\n\n\n")
        assert main(["preprocess", str(corpus), "--vec-eng", str(eng), "--vec-spa", str(spa)]) == 1
        assert capsys.readouterr().err == f"error: {eng}: line 3: non-finite vector component\n"
        assert_no_child_left()

    def test_english_error_does_not_wait_for_a_large_table(self, tmp_path):
        # the Spanish table, every row kept, outgrows the pipe's buffer, so a
        # child left to finish would block on its write while the parent
        # waits to reap it; a subprocess, so that such a deadlock fails the
        # test instead of holding it
        corpus, eng, spa = tmp_path / "c.conll", tmp_path / "eng.vec", tmp_path / "spa.vec"
        words = [f"w{i}" for i in range(2000)]
        corpus.write_text("".join(f"{word}\tO\n" for word in words) + "\n")
        eng.write_text("1 2\nmira nan 0\n")
        write_vec_file(spa, words, dim=16)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-m", "csner.cli", "preprocess", str(corpus),
                              "--vec-eng", str(eng), "--vec-spa", str(spa)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stderr) == (
            1, f"error: {eng}: line 2: non-finite vector component\n"
        )

    def test_out_of_memory_in_the_child(self, workdir, capsys, monkeypatch):
        self.raise_in_child(monkeypatch, MemoryError)
        assert self.preprocess(workdir, capsys)[:3] == (
            1, "", "error: preprocess: out of memory in _load_tables\n"
        )
        assert_no_child_left()

    @pytest.mark.parametrize("fork", ["fails", "missing"])
    def test_loads_here_without_a_child(self, workdir, capsys, monkeypatch, fork):
        forked = self.preprocess(workdir, capsys)
        assert forked[0] == 0

        def fork_fails():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        if fork == "fails":
            monkeypatch.setattr(os, "fork", fork_fails)
        else:
            monkeypatch.delattr(os, "fork")
        assert self.preprocess(workdir, capsys) == forked
        assert_no_child_left()

    def test_interrupted_child_is_reaped(self, workdir, capsys, monkeypatch):
        # the child ends without a result, so this process loads the Spanish file
        forked = self.preprocess(workdir, capsys)
        self.raise_in_child(monkeypatch, KeyboardInterrupt)
        forks = self.spy_forks(monkeypatch)
        assert self.preprocess(workdir, capsys) == forked
        assert len(forks) == 1
        assert_no_child_left()

    def test_fork_warning_is_not_an_error(self, workdir, capsys, monkeypatch):
        # Python >= 3.12 warns on a fork while autodiff.both's worker thread
        # lives, in the parent once the child exists; the stand-in warns so
        # on every version
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead to "
                              "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        assert ad.both(lambda: 1, lambda: 2) == (1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.preprocess(workdir, capsys)[0] == 0
        assert_no_child_left()

    @pytest.mark.parametrize("command, reader", [
        ("stats", "read_conll"), ("predict", "load_checkpoint"), ("predict", "restore_model"),
    ])
    def test_out_of_memory_names_the_reader(self, workdir, capsys, monkeypatch, command,
                                            reader):
        def exhausted(*args):
            raise MemoryError

        # named like the reader it stands in for: _stage reads the frames' names
        exhausted.__code__ = exhausted.__code__.replace(co_name=reader)
        monkeypatch.setattr(cli, reader, exhausted)
        corpus = str(workdir[0] / "train.conll")
        argv = {"stats": ["stats", corpus],
                "predict": ["predict", corpus, "--checkpoint", str(DATA / "checkpoint_f32.ck")]}
        assert main(argv[command]) == 1
        assert capsys.readouterr().err == f"error: {command}: out of memory in {reader}\n"


# the integers an input may declare at their extremes: zero, negative,
# past int32, past int64, too large to allocate, and past float range
EXTREMES = ("0", "-1", str(2**31), str(2**63), str(10**12), "1e309")
# a whole number, not a digit of a name or of a decimal
INTEGER = re.compile(r"(?<![\w.])\d+(?![\w.])")
CHECKPOINT = (DATA / "checkpoint_f32.ck").read_bytes()
HEADER_END = CHECKPOINT.index(b"\nend\n")
CONFIG_KEYS = ("hidden", "char_hidden", "word_dim", "char_dim", "batch_size", "patience",
               "seed", "max_epochs")
TWO_DRAWS = settings(max_examples=2, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestDeclaredSizes:
    """A size that an input declares and that cannot be allocated ends in
    one error line and exit 1.  Each integer that a ``.vec`` header, a
    checkpoint header line or a config file declares, set to each of
    ``EXTREMES``, ends in exit 1 with one error line, or in success;
    Hypothesis draws which header line or config key takes the value.
    Each run is a subprocess whose address space is limited to 2 GiB, so
    that a regression fails fast instead of filling the machine."""

    LIMITED = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
               "from csner.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")

    def run_limited(self, *argv):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
        return subprocess.run([sys.executable, "-c", self.LIMITED, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("text, message", [
        (b"1 3000000000\na 1 2\n", "line 2: expected 3000000000 components, got 2"),
        (b"1 3000000000\n", "line 1: header declares 1 rows, file has 0"),
        (b"1 3000000000\n\xff 1 2\n", "line 2: not valid UTF-8"),
    ])
    def test_vec_dimension_checked_before_allocating(self, tmp_path, text, message):
        corpus, vec = tmp_path / "c.conll", tmp_path / "big.vec"
        corpus.write_text("a\tO\n\n")
        vec.write_bytes(text)
        run = self.run_limited("preprocess", corpus, "--vec-eng", vec, "--vec-spa", vec)
        assert (run.returncode, run.stdout, run.stderr) == (1, "", f"error: {vec}: {message}\n")

    @pytest.mark.parametrize("value", [2**31, 2**62, 2**63])
    @pytest.mark.parametrize("key", ["hidden", "char_hidden", "char_dim"])
    def test_out_of_memory_names_the_stage(self, tmp_path, key, value):
        # 2**31 is too large for the address-space limit, and the larger
        # values give shapes that numpy cannot make at all
        corpus, vec, config = tmp_path / "t.conll", tmp_path / "v.vec", tmp_path / "big.cfg"
        corpus.write_text("a\tO\n\n")
        vec.write_text("1 2\na 1 2\n")
        config.write_text(f"{key} = {value}\nword_dim = 2\n")
        run = self.run_limited("train", "--config", config, "--train", corpus, "--dev", corpus,
                               "--vec-eng", vec, "--checkpoint", tmp_path / "m.ck")
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr == "error: train: out of memory in new_model\n"
        assert not (tmp_path / "m.ck").exists()

    def assert_clean(self, run):
        if run.returncode == 0:
            assert "error:" not in run.stderr and "Traceback" not in run.stderr, run.stderr
        else:
            assert run.returncode == 1, run.stderr
            assert re.fullmatch(r"error: [^\n]*\n", run.stderr), run.stderr

    @pytest.mark.parametrize("value", EXTREMES)
    def test_vec_header(self, tmp_path, value):
        corpus, vec = tmp_path / "c.conll", tmp_path / "v.vec"
        corpus.write_text("a\tO\n\n")
        vec.write_text(f"{value} {value}\na 1 2\nb 3 4\n")
        self.assert_clean(self.run_limited("preprocess", corpus, "--vec-eng", vec))

    @pytest.mark.parametrize("value", EXTREMES)
    @TWO_DRAWS
    @given(line=st.sampled_from(CHECKPOINT[:HEADER_END].decode().split("\n")[1:]))
    def test_checkpoint_header_line(self, tmp_path, value, line):
        # every line after the magic holds integers
        header = CHECKPOINT[:HEADER_END].decode().replace(line, INTEGER.sub(value, line), 1)
        ckpt, corpus = tmp_path / "m.ck", tmp_path / "c.conll"
        ckpt.write_bytes(header.encode() + CHECKPOINT[HEADER_END:])
        corpus.write_text("Ana\nva\n\n")
        self.assert_clean(self.run_limited("predict", corpus, "--checkpoint", ckpt))

    @pytest.mark.parametrize("value", EXTREMES)
    @TWO_DRAWS
    @given(key=st.sampled_from(CONFIG_KEYS))
    def test_config_key(self, tmp_path, value, key):
        # one key at a time: max_epochs and patience both at 10**12 would
        # be a legal run of 10**12 epochs
        corpus, vec, config = tmp_path / "t.conll", tmp_path / "v.vec", tmp_path / "c.cfg"
        corpus.write_text("a\tB-PER\n\n")
        vec.write_text("1 2\na 1 2\n")
        sizes = {**dict.fromkeys(CONFIG_KEYS, 2), key: value}
        config.write_text("".join(f"{k} = {v}\n" for k, v in sizes.items()))
        self.assert_clean(self.run_limited("train", "--config", config, "--train", corpus,
                                           "--dev", corpus, "--vec-eng", vec,
                                           "--checkpoint", tmp_path / "m.ck"))


class TestOverflowingValues:
    """A value that overflows the model's float type, from a config, a
    ``.vec`` file or a checkpoint, ends in exit 1 and one error line, with
    no numpy warning before it.  Each run is a subprocess, so that stderr
    holds all that the process prints; only training's ``epoch`` lines may
    come before the error."""

    def run(self, *argv):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-m", "csner.cli", *map(str, argv)], env=env,
                             capture_output=True, text=True, timeout=120)
        lines = run.stderr.splitlines(keepends=True)
        return run.returncode, [line for line in lines if not line.startswith("epoch ")]

    # lr0 overflows the first step's weights, which at batch 8 the second
    # step's loss shows; decay makes the second epoch's rate infinite, and
    # the third epoch's decay**2 overflow
    @pytest.mark.parametrize("lines, error", [
        ("lr0 = 1e308", "epoch 1, learning rate 1e+308: dev sentence 1: "
                        "the model's tag scores are not finite (its weights overflow)"),
        ("lr0 = 1e308\nbatch_size = 8", "epoch 1, learning rate 1e+308: non-finite loss nan"),
        ("decay = 1e-320", "epoch 2: learning rate lr0 / decay**1 is not positive and finite "
                           "(lr0 0.01, decay 1e-320)"),
        ("decay = 1e200\nmax_epochs = 4\npatience = 4",
         "epoch 3: learning rate lr0 / decay**2 is not positive and finite "
         "(lr0 0.01, decay 1e+200)"),
    ], ids=["lr0 = 1e308", "lr0 = 1e308, batch 8", "decay = 1e-320", "decay = 1e200"])
    @pytest.mark.parametrize("float64", ["no", "yes"])
    def test_rate_that_overflows_the_weights(self, workdir, lines, error, float64):
        tmp_path, config = workdir
        with open(config, "a", encoding="utf-8") as fp:
            fp.write(f"{lines}\nfloat64 = {float64}\n")
        assert self.run("train", "--config", config) == (1, [f"error: {error}\n"])
        assert not (tmp_path / "model.ck").exists()

    def test_vector_that_overflows_float32(self, workdir):
        tmp_path, config = workdir
        vec = tmp_path / "eng.vec"
        lines = vec.read_text(encoding="utf-8").split("\n")
        word, *values = lines[2].split(" ")
        lines[2] = " ".join([word, "1e300", *values[1:]])
        vec.write_text("\n".join(lines), encoding="utf-8")
        assert self.run("train", "--config", config) == (1, [
            f"error: vector of {word!r} is not finite in float32\n"
        ])

    def test_float64_checkpoint_that_overflows_float32(self, workdir, capsys):
        # a float64 run's checkpoint, its config edited to float32
        tmp_path, config = workdir
        assert main(["train", "--config", str(config), "--float64"]) == 0
        path = tmp_path / "model.ck"
        corrupt_tensor_value(path, "proj_w", 1e300)
        blob = path.read_bytes()
        assert blob.count(b'"float64": true') == 1
        path.write_bytes(blob.replace(b'"float64": true', b'"float64": false'))
        assert self.run("predict", tmp_path / "train.conll", "--checkpoint", path) == (1, [
            f"error: {path}: tensor proj_w overflows float32\n"
        ])


# the smallest subnormal, one whose square underflows, one whose square
# overflows, and one that overflows the weights as a rate
RATES = st.one_of(st.sampled_from([5e-324, 1e-320, 1e200, 1e308]),
                  st.floats(min_value=5e-324, max_value=1e308))


class TestTrainingConfigs:
    """Every training config that ``validate`` accepts ends in exit 0, or in
    exit 1 with one error line after the ``epoch`` lines, at toy sizes."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lr0=RATES, decay=RATES, dropout=st.floats(0.0, 1.0, exclude_max=True),
           max_epochs=st.integers(1, 4), patience=st.integers(1, 4),
           seed=st.integers(0, 2**64), float64=st.booleans())
    # in epoch 3, decay**2 underflows to 0, and overflows
    @example(lr0=1e-300, decay=1e-320, dropout=0.4, max_epochs=4, patience=4, seed=3,
             float64=False)
    @example(lr0=0.01, decay=1e200, dropout=0.4, max_epochs=4, patience=4, seed=3,
             float64=False)
    def test_exit_0_or_one_error_line(self, workdir, capsys, **keys):
        tmp_path, config = workdir
        drawn = tmp_path / "drawn.cfg"
        drawn.write_text(config.read_text(encoding="utf-8")
                         + "".join(f"{key} = {value!r}\n" for key, value in keys.items()),
                         encoding="utf-8")
        code = main(["train", "--config", str(drawn)])
        err = [line for line in capsys.readouterr().err.splitlines(keepends=True)
               if not line.startswith("epoch ")]
        assert (code, len(err)) in ((0, 0), (1, 1)), err
        assert all(re.fullmatch(r"error: [^\n]*\n", line) for line in err), err


class TestTrainPredict:
    def test_separate_processes_at_one_blas_thread_write_identical_files(self, workdir):
        # the bits hold for one numpy/BLAS build, machine and BLAS thread count
        tmp_path, config = workdir
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
        for run in ("a", "b"):
            subprocess.run(
                [sys.executable, "-m", "csner.cli", "train", "--config", str(config),
                 "--checkpoint", str(tmp_path / f"{run}.ck"), "--out", str(tmp_path / f"{run}.log")],
                env=env, check=True, capture_output=True, timeout=120,
            )
        for suffix in ("ck", "log"):
            assert filecmp.cmp(tmp_path / f"a.{suffix}", tmp_path / f"b.{suffix}", shallow=False)

    def test_without_libc_the_same_files(self, workdir):
        # fit sets glibc's malloc thresholds through ctypes, which moves
        # only where freed pages live; a process where libc.so.6 cannot
        # be loaded sets nothing and writes the same bits
        tmp_path, config = workdir
        no_libc = ("import ctypes, sys\n"
                   "from csner.cli import main\n"
                   "def no_libc(name, *args, **kwargs):\n"
                   "    print('CDLL', name)\n"
                   "    raise OSError(f'{name}: cannot open shared object file')\n"
                   "ctypes.CDLL = no_libc\n"
                   "sys.exit(main(sys.argv[1:]))\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
        runs = {}
        for run, code in (("glibc", ["-m", "csner.cli"]), ("none", ["-c", no_libc])):
            runs[run] = subprocess.run(
                [sys.executable, *code, "train", "--config", str(config),
                 "--checkpoint", str(tmp_path / f"{run}.ck"), "--out", str(tmp_path / f"{run}.log")],
                env=env, check=True, capture_output=True, text=True, timeout=120,
            ).stdout
        assert runs["none"].startswith("CDLL libc.so.6\n")
        for suffix in ("ck", "log"):
            assert filecmp.cmp(tmp_path / f"glibc.{suffix}", tmp_path / f"none.{suffix}",
                               shallow=False)

    def test_library_use_writes_the_train_checkpoint(self, workdir):
        # README "Library use", step by step, on the config file's inputs
        tmp_path, config = workdir
        assert main(["train", "--config", str(config)]) == 0
        cfg = TrainingConfig(word_dim=16, char_dim=4, char_hidden=5, hidden=6, max_epochs=2,
                             seed=3)
        args = cli._build_parser().parse_args(["train", "--config", str(config)])
        assert cfg == build_run_config(args).training
        train = read_conll(tmp_path / "train.conll")
        dev = read_conll(tmp_path / "train.conll")  # the config names it as dev too
        keep = corpus_candidate_forms(train, dev)
        table = merge_tables(load_vec(tmp_path / "eng.vec", keep=keep),
                             load_vec(tmp_path / "spa.vec", keep=keep))
        rng = np.random.default_rng(cfg.seed)
        model = new_model(cfg, table, build_char_vocab(train), rng)
        best = fit(model,
                   preprocess_dataset(train, table.vocabulary),
                   preprocess_dataset(dev, table.vocabulary),
                   cfg, train_surfaces=train, dev_surfaces=dev, rng=rng,
                   log_fn=lambda epoch, loss, lr, f1: None)
        save_checkpoint(best, tmp_path / "library.ck")
        assert filecmp.cmp(tmp_path / "model.ck", tmp_path / "library.ck", shallow=False)

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

    def test_empty_input_tags_to_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.conll"
        empty.write_text("")
        checkpoint = str(DATA / "checkpoint_f32.ck")
        assert main(["predict", str(empty), "--checkpoint", checkpoint]) == 0
        assert capsys.readouterr() == ("", "")
        out = tmp_path / "pred.conll"
        assert main(["predict", str(empty), "--checkpoint", checkpoint, "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_test_corpus_keeps_its_vector_rows(self, workdir, capsys):
        # a word only the --test corpus holds keeps its vector row
        tmp_path, config = workdir
        extra = tmp_path / "extra.vec"
        write_vec_file(extra, ["Zaragoza"], dim=16, seed=4)
        test = tmp_path / "test.conll"
        test.write_text("Zaragoza\n\n", encoding="utf-8")
        for flags in ([], ["--test", str(test)]):
            assert main(["train", "--config", str(config), "--vec-spa", str(extra),
                         "--max-epochs", "1", *flags]) == 0
            kept = "Zaragoza" in load_checkpoint(tmp_path / "model.ck").word_tokens
            assert kept == bool(flags)

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
