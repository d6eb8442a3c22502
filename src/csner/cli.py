"""Command-line interface: train, predict, eval, stats, preprocess.

Settings are layered: built-in defaults,
then a ``key = value`` config file, then command-line flags.  Unknown
config keys are rejected and every input path is checked before any real
work starts.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .corpus_io import (
    Dataset,
    ParseError,
    TaggedSentence,
    dataset_stats,
    format_stats,
    non_utf8_line,
    read_conll,
    write_conll,
    write_conll_file,
)
from .embeddings import (
    VectorLoadError,
    build_char_vocab,
    corpus_candidate_forms,
    empty_table,
    load_vec,
    merge_tables,
)
from .evaluate import format_report, score
from .preprocess import oov_report, preprocess_dataset, replace_token
from .trainer import (
    CheckpointError,
    TrainingConfig,
    TrainingError,
    fit,
    load_checkpoint,
    new_model,
    predict_dataset,
    restore_model,
    save_checkpoint,
)


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    training: TrainingConfig
    train: str | None = None
    dev: str | None = None
    test: str | None = None
    vec_eng: str | None = None
    vec_spa: str | None = None
    checkpoint: str | None = None
    out: str | None = None
    prune_to: str | None = None  # corpus whose candidate forms limit retention
    no_post: bool = False


# each key is typed by its field's annotation, the types validate() checks
_FIELDS = fields(TrainingConfig) + fields(RunConfig)
_INT_KEYS = {f.name for f in _FIELDS if f.type == "int"}
_FLOAT_KEYS = {f.name for f in _FIELDS if f.type == "float"}
_BOOL_KEYS = {f.name for f in _FIELDS if f.type == "bool"}
_PATH_KEYS = {f.name for f in _FIELDS if f.type == "str | None"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _PATH_KEYS


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fp:
            for line_no, line in enumerate(fp, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in _ALL_KEYS:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = _convert(key, value, f"{path}:{line_no}")
    except UnicodeDecodeError:  # text decodes in chunks: find the line
        raise ConfigError(f"{path}:{non_utf8_line(path)}: not valid UTF-8") from None
    return values


def _convert(key: str, value: str, where: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(value)
    except ValueError:
        raise ConfigError(f"{where}: bad value {value!r} for {key}") from None
    return value


def build_run_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        values.update(parse_config_file(args.config))
    for key in _ALL_KEYS:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            values[key] = flag

    def given(cls):
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    training = TrainingConfig(**given(TrainingConfig))
    training.validate()
    return RunConfig(training=training, **given(RunConfig))


def _require_files(**paths) -> None:
    for name, path in paths.items():
        if path is None:
            raise ConfigError(f"missing required path: {name}")
        if not os.path.isfile(path):
            raise ConfigError(f"{name} file not found: {path}")


def _require_writable(**paths) -> None:
    for name, path in paths.items():
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"directory for {name} does not exist: {parent}")


def _load_tables(cfg: RunConfig, keep: set[str]):
    """The English table and the merged bilingual one."""
    eng = load_vec(cfg.vec_eng, keep=keep)
    spa = load_vec(cfg.vec_spa, keep=keep) if cfg.vec_spa else empty_table(eng.dim)
    return eng, merge_tables(eng, spa)


def _prune_set(cfg: RunConfig, *datasets):
    """Vector rows to retain: the normalization candidate closure of
    either an explicit --prune-to corpus or the pipeline's own corpora."""
    if cfg.prune_to:
        _require_files(prune_to=cfg.prune_to)
        return corpus_candidate_forms(read_conll(cfg.prune_to))
    return corpus_candidate_forms(*datasets)


def cmd_train(cfg: RunConfig) -> int:
    _require_files(train=cfg.train, dev=cfg.dev, vec_eng=cfg.vec_eng)
    if cfg.vec_spa:
        _require_files(vec_spa=cfg.vec_spa)
    if cfg.checkpoint is None:
        raise ConfigError("missing required path: checkpoint")
    _require_writable(checkpoint=cfg.checkpoint, out=cfg.out)

    train_raw = read_conll(cfg.train, "train")
    dev_raw = read_conll(cfg.dev, "dev")
    if not train_raw.labeled or not dev_raw.labeled:
        raise TrainingError("train and dev corpora must carry gold tags")
    extras = []
    if cfg.test and os.path.isfile(cfg.test):
        extras.append(read_conll(cfg.test, "test"))
    table = _load_tables(cfg, _prune_set(cfg, train_raw, dev_raw, *extras))[1]

    train_norm = preprocess_dataset(train_raw, table.vocabulary)
    dev_norm = preprocess_dataset(dev_raw, table.vocabulary)
    chars = build_char_vocab(train_raw)

    rng = np.random.default_rng(cfg.training.seed)
    model = new_model(cfg.training, table, chars, rng)
    del table  # training needs only the model's own copy of the vectors

    log_lines = []

    def log_fn(epoch, loss, lr, f1):
        line = f"epoch {epoch} loss {loss:.6f} lr {lr:.8f} dev_f1 {f1:.6f}"
        log_lines.append(line)
        print(line, file=sys.stderr)

    best = fit(
        model, train_norm, dev_norm, cfg.training,
        train_surfaces=train_raw, dev_surfaces=dev_raw, rng=rng, log_fn=log_fn,
    )
    log_lines.append(f"best epoch {best.epoch} dev_f1 {best.dev_score:.6f}")
    save_checkpoint(best, cfg.checkpoint)
    log_path = cfg.out or cfg.checkpoint + ".log"
    with open(log_path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(log_lines) + "\n")
    print(f"best epoch {best.epoch} dev_f1 {best.dev_score:.6f}")
    print(f"checkpoint written to {cfg.checkpoint}")
    return 0


def cmd_predict(cfg: RunConfig, input_path: str | None) -> int:
    input_path = input_path or cfg.test
    _require_files(checkpoint=cfg.checkpoint, input=input_path)
    _require_writable(out=cfg.out)
    model = restore_model(load_checkpoint(cfg.checkpoint))
    raw = read_conll(input_path, "input")
    if len(raw) == 0:
        output = ""
    else:
        norm = preprocess_dataset(raw, model.tables.words.vocabulary)
        predicted = predict_dataset(
            model, norm, cfg.training.batch_size, surfaces=raw, post=not cfg.no_post
        )
        output = write_conll(
            Dataset(
                [TaggedSentence(s.tokens, tags) for s, tags in zip(raw, predicted)],
                "predictions",
            )
        )
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fp:
            fp.write(output)
    else:
        sys.stdout.write(output)
    return 0


def cmd_eval(gold_path: str, pred_path: str) -> int:
    _require_files(gold=gold_path, predictions=pred_path)
    gold = read_conll(gold_path, "gold")
    pred = read_conll(pred_path, "pred")
    sys.stdout.write(format_report(score(gold, pred)))
    return 0


def cmd_stats(corpus_path: str) -> int:
    _require_files(corpus=corpus_path)
    sys.stdout.write(format_stats(dataset_stats(read_conll(corpus_path))))
    return 0


def cmd_preprocess(cfg: RunConfig, corpus_path: str) -> int:
    _require_files(corpus=corpus_path, vec_eng=cfg.vec_eng)
    if cfg.vec_spa:
        _require_files(vec_spa=cfg.vec_spa)
    _require_writable(out=cfg.out)
    corpus = read_conll(corpus_path)
    if len(corpus) == 0:
        raise ConfigError(f"empty corpus: {corpus_path}")

    eng, merged = _load_tables(cfg, _prune_set(cfg, corpus))
    replaced = Dataset(
        [
            TaggedSentence([replace_token(t) for t in s.tokens],
                           list(s.tags) if s.tags is not None else None)
            for s in corpus
        ],
        corpus.split,
    )
    normalized = preprocess_dataset(corpus, merged.vocabulary)

    rows = []
    if cfg.train:
        _require_files(train=cfg.train)
        train_vocab = {t for s in read_conll(cfg.train) for t in s.tokens}
        rows.append(("corpus", oov_report(corpus, train_vocab)))
    rows.append(("vectors (eng)", oov_report(corpus, eng.vocabulary)))
    rows.append(("+ vectors (spa)", oov_report(corpus, merged.vocabulary)))
    rows.append(("+ token replacement", oov_report(replaced, merged.vocabulary)))
    rows.append(("+ token normalization", oov_report(normalized, merged.vocabulary)))

    width = max(len(name) for name, _ in rows)
    print(f"{'':<{width}}  {'All':>8}  {'Entity':>8}")
    for name, report in rows:
        entity = f"{report.entity_pct:7.2f}%" if report.entity_pct is not None else "       -"
        print(f"{name:<{width}}  {report.all_pct:7.2f}%  {entity}")

    if cfg.out:
        write_conll_file(normalized, cfg.out)
        print(f"preprocessed corpus written to {cfg.out}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csner",
        description="BiLSTM named-entity tagger for code-switched text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--train", help="training corpus")
        p.add_argument("--dev", help="development corpus")
        p.add_argument("--test", help="test corpus / prediction input")
        p.add_argument("--vec-eng", dest="vec_eng", help="English .vec file")
        p.add_argument("--vec-spa", dest="vec_spa", help="Spanish .vec file")
        p.add_argument("--checkpoint", help="model checkpoint path")
        p.add_argument("--out", help="output path")
        p.add_argument(
            "--prune-to", dest="prune_to", metavar="CORPUS",
            help="retain only vector rows reachable from this corpus",
        )
        p.add_argument("--seed", type=int)
        p.add_argument("--max-epochs", dest="max_epochs", type=int)
        p.add_argument("--no-post", dest="no_post", action="store_true", default=None)
        p.add_argument("--float64", action="store_true", default=None)
        return p

    common(sub.add_parser("train", help="train a tagger"))
    p = common(sub.add_parser("predict", help="tag a corpus with a trained model"))
    p.add_argument("input", nargs="?", help="corpus to tag (default: --test)")
    p = common(sub.add_parser("eval", help="score predictions against gold"))
    p.add_argument("gold")
    p.add_argument("pred")
    p = common(sub.add_parser("stats", help="corpus statistics"))
    p.add_argument("corpus")
    p = common(sub.add_parser("preprocess", help="normalize a corpus, report OOV rates"))
    p.add_argument("corpus")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_run_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, args.input)
        if args.command == "eval":
            return cmd_eval(args.gold, args.pred)
        if args.command == "stats":
            return cmd_stats(args.corpus)
        if args.command == "preprocess":
            return cmd_preprocess(cfg, args.corpus)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParseError, VectorLoadError, TrainingError,
            CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
