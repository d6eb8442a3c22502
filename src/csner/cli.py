"""Command-line interface: train, predict, eval, stats, preprocess.

Settings are layered: built-in defaults,
then a ``key = value`` config file, then command-line flags.  Unknown
config keys are rejected, and every path is checked before any real work
starts: each input exists, and no output names an input or another output.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .corpus_io import (
    Dataset,
    ParseError,
    TaggedSentence,
    dataset_stats,
    format_stats,
    read_conll,
    read_text,
    write_conll,
    write_conll_file,
)
from .embeddings import (
    VectorLoadError,
    build_char_vocab,
    corpus_candidate_forms,
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
    config: str | None = None  # the settings file these were read from, if any


# each key, in a config file or as a flag, is typed by its field's
# annotation: the types validate() checks
_KEY_TYPES = {f.name: f.type for f in fields(TrainingConfig) + fields(RunConfig)
              if f.name not in ("training", "config")}


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    text, bad = read_text(path)
    values = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _convert(key, value, f"{path}:{line_no}")
    if bad:  # after the lines before it: an earlier error wins
        raise ConfigError(f"{path}:{bad}: not valid UTF-8")
    return values


def _convert(key: str, value: str, where: str):
    kind = _KEY_TYPES[key]
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
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
    for key in _KEY_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    def given(cls):
        return {f.name: values[f.name] for f in fields(cls) if f.name in values}

    training = TrainingConfig(**given(TrainingConfig))
    training.validate()
    return RunConfig(training=training, config=getattr(args, "config", None), **given(RunConfig))


def _require_files(**paths) -> dict:
    for name, path in paths.items():
        if path is None:
            raise ConfigError(f"missing required path: {name}")
        if not os.path.isfile(path):
            raise ConfigError(f"{name} file not found: {path}")
    return paths


def _require_given(cfg: RunConfig, *names) -> dict:
    """``_require_files`` for the optional paths among ``names`` that are set."""
    return _require_files(**{name: getattr(cfg, name) for name in names if getattr(cfg, name)})


def _require_writable(cfg: RunConfig, inputs: dict, **outputs) -> None:
    """Each output's directory exists, and no output names the config, one
    of the command's ``inputs`` or another output."""
    claimed = {os.path.realpath(path): name
               for name, path in {"config": cfg.config, **inputs}.items() if path}
    for name, path in outputs.items():
        if path is None:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"directory for {name} does not exist: {parent}")
        real = os.path.realpath(path)
        if real in claimed:
            raise ConfigError(f"{name} and {claimed[real]} name the same file: {path}")
        claimed[real] = name


def _read(reader, path, *args, **kwargs):
    """``reader(path, ...)``, whose ParseError, VectorLoadError or
    CheckpointError names ``path``."""
    try:
        return reader(path, *args, **kwargs)
    except (ParseError, VectorLoadError, CheckpointError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


@contextmanager
def _forked(call):
    """``call()`` started in a forked child, which pickles ``(True, its
    result)`` or ``(False, its exception)`` into a pipe and exits.  The body
    gets a function that returns the result or raises the exception; where
    this process cannot fork, or the child ends without a result, that
    function makes the call itself.  The child is reaped however the body
    ends."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns when a process with other threads (such as
            # autodiff.both's worker) forks.  The warning comes in the parent
            # once the child exists, so an "error" filter would turn it into an
            # exception that leaves the child unreaped; the child only runs
            # ``call`` and exits.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except (AttributeError, OSError):  # no os.fork on this platform, or no process to spare
        pid = None
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                result = (True, call())
            except Exception as exc:  # the parent raises it
                result = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        finally:  # no exit handler and no flush of the parent's buffers
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:

        def result():
            try:
                ok, value = pickle.load(pipe)
            except Exception:  # no child, or no whole result from it
                return call()
            if not ok:
                raise value
            return value

        try:
            yield result
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)  # done, or parsing for a result nobody reads
                os.waitpid(pid, 0)


def _load_tables(cfg: RunConfig, keep: set[str]):
    """The English table, and the merge of it with the Spanish one if given.

    With both files, a forked child parses the Spanish one while this
    process parses the English one: numpy's text reader holds the GIL, so
    two threads would take turns.  English's error is raised first, as
    a serial load raises it."""
    def load(path):
        return _read(load_vec, path, keep=keep)

    if not cfg.vec_spa:
        eng = load(cfg.vec_eng)
        return eng, merge_tables(eng)
    with _forked(lambda: load(cfg.vec_spa)) as spanish:
        eng = load(cfg.vec_eng)
        spa = spanish()
    return eng, merge_tables(eng, spa)


def _prune_set(cfg: RunConfig, *datasets):
    """Vector rows to retain: the normalization candidate closure of
    either an explicit --prune-to corpus or the pipeline's own corpora."""
    if cfg.prune_to:
        return corpus_candidate_forms(_read(read_conll, cfg.prune_to))
    return corpus_candidate_forms(*datasets)


def cmd_train(cfg: RunConfig) -> int:
    inputs = {**_require_files(train=cfg.train, dev=cfg.dev, vec_eng=cfg.vec_eng),
              **_require_given(cfg, "vec_spa", "test", "prune_to")}
    if cfg.checkpoint is None:
        raise ConfigError("missing required path: checkpoint")
    log_path = cfg.out or cfg.checkpoint + ".log"
    _require_writable(cfg, inputs, checkpoint=cfg.checkpoint,
                      **{"out" if cfg.out else "log": log_path})

    train_raw = _read(read_conll, cfg.train, "train")
    dev_raw = _read(read_conll, cfg.dev, "dev")
    if not train_raw.labeled or not dev_raw.labeled:
        raise TrainingError("train and dev corpora must carry gold tags")
    extras = [_read(read_conll, cfg.test, "test")] if cfg.test else []
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
    with open(log_path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(log_lines) + "\n")
    print(f"best epoch {best.epoch} dev_f1 {best.dev_score:.6f}")
    print(f"checkpoint written to {cfg.checkpoint}")
    return 0


def cmd_predict(cfg: RunConfig, input_path: str | None) -> int:
    input_path = input_path or cfg.test
    inputs = _require_files(checkpoint=cfg.checkpoint, input=input_path)
    _require_writable(cfg, inputs, out=cfg.out)
    model = _read(lambda path: restore_model(load_checkpoint(path)), cfg.checkpoint)
    raw = _read(read_conll, input_path, "input")
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
    gold = _read(read_conll, gold_path, "gold")
    pred = _read(read_conll, pred_path, "pred")
    for path, dataset in ((gold_path, gold), (pred_path, pred)):
        untagged = next((i for i, sent in enumerate(dataset, start=1) if sent.tags is None), 0)
        if untagged:
            raise ValueError(f"{path}: sentence {untagged}: missing tags")
    sys.stdout.write(format_report(score(gold, pred)))
    return 0


def cmd_stats(corpus_path: str) -> int:
    _require_files(corpus=corpus_path)
    dataset = _read(read_conll, corpus_path)
    try:
        stats = dataset_stats(dataset)
    except ValueError as exc:  # an untagged sentence
        raise ValueError(f"{corpus_path}: {exc}") from None
    sys.stdout.write(format_stats(stats))
    # on stderr, so that stdout keeps its format
    print("IOB defects: " + ", ".join(f"kind {kind} {n}" for kind, n in stats.iob_defects.items()),
          file=sys.stderr)
    return 0


def cmd_preprocess(cfg: RunConfig, corpus_path: str) -> int:
    inputs = {**_require_files(corpus=corpus_path, vec_eng=cfg.vec_eng),
              **_require_given(cfg, "vec_spa", "train", "prune_to")}
    _require_writable(cfg, inputs, out=cfg.out)
    corpus = _read(read_conll, corpus_path)
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
        train_vocab = {t for s in _read(read_conll, cfg.train) for t in s.tokens}
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


_HELP = {"config": "key = value settings file", "train": "training corpus",
         "dev": "development corpus", "test": "test corpus", "vec_eng": "English .vec file",
         "vec_spa": "Spanish .vec file", "checkpoint": "model checkpoint path",
         "out": "output path", "prune_to": "retain only vector rows reachable from this corpus",
         "seed": "seed of the initial weights and the dropout masks",
         "max_epochs": "most epochs to train", "float64": "compute in double precision",
         "no_post": "skip the IOB repairs"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csner",
        description="BiLSTM named-entity tagger for code-switched text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *keys):
        """A subcommand with a flag for each of the settings it reads."""
        p = sub.add_parser(name, help=summary)
        for key in keys:
            flag, kind = "--" + key.replace("_", "-"), _KEY_TYPES.get(key)
            if kind == "bool":
                p.add_argument(flag, action="store_true", default=None, help=_HELP[key])
            else:
                p.add_argument(flag, type=int if kind == "int" else None, help=_HELP[key],
                               metavar="CORPUS" if key == "prune_to" else None)
        return p

    command("train", "train a tagger", "config", "train", "dev", "test", "vec_eng", "vec_spa",
            "checkpoint", "out", "prune_to", "seed", "max_epochs", "float64")
    p = command("predict", "tag a corpus with a trained model",
                "config", "checkpoint", "out", "no_post")
    p.add_argument("input", nargs="?", help="corpus to tag (default: the config's test key)")
    p = command("eval", "score predictions against gold")
    p.add_argument("gold", help="gold corpus")
    p.add_argument("pred", help="predicted corpus")
    command("stats", "corpus statistics").add_argument("corpus", help="corpus to count")
    p = command("preprocess", "normalize a corpus, report OOV rates",
                "config", "train", "vec_eng", "vec_spa", "out", "prune_to")
    p.add_argument("corpus", help="corpus to normalize")
    return parser


def _stage(tb) -> str:
    """The function that the command's ``cmd_*`` function was running when
    the exception of traceback ``tb`` was raised, or else the innermost;
    ``_read`` and the reader it was given are seen through."""
    names = [frame.f_code.co_name for frame, _ in traceback.walk_tb(tb)
             if frame.f_code.co_name not in ("_read", "<lambda>")]
    return next((callee for name, callee in zip(names, names[1:]) if name.startswith("cmd_")),
                names[-1])


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args.gold, args.pred)
        if args.command == "stats":
            return cmd_stats(args.corpus)
        cfg = build_run_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, args.input)
        return cmd_preprocess(cfg, args.corpus)
    except (ConfigError, ParseError, VectorLoadError, TrainingError,
            CheckpointError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a size that an input declares, too large to allocate
        print(f"error: {args.command}: out of memory in {_stage(sys.exc_info()[2])}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
