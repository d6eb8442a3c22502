#!/usr/bin/env python3
"""csner benchmark: four seeded workloads against csner's public API.

    python3 benchmarks/bench.py --workload {train,tag,tag_one,preprocess}
                                --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; csner is imported from ``src/`` next
to this directory and nowhere else.  The run generates its inputs from
``--seed`` under ``.bench_work/`` (deleted at exit), sets the program up
several times, warms it up, then times operations for ``--seconds``
seconds.  With ``--trace 1`` it instead alternates untraced passes with
passes that record spans around every csner layer (see tracing.py); a
pass is one set-up plus a few operations.

Standard output: one JSON line with the environment, the input
properties and either the per-workload results (train_loss,
vec_rows_per_s, ...) or the trace pass times, then the result line
holding the metrics named in BENCHMARK.json.  Exit status 0 means every
output check passed.  README.md says what each workload and metric is.
"""

from __future__ import annotations

import os
import sys

THREADS = 1  # the tagger is single-threaded; pinned BLAS threads keep timings steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
MIN_OPS = 3  # outputs are compared across repetitions; a median of 3 drops one outlier
TRACE_PAIRS = 3  # untraced/traced pass pairs, at least
# the p99 is a median over windows of the run, so that a burst of load from
# outside the process that hits one or two windows does not set it
LATENCY_WINDOWS = 5
BATCH = 64  # paper batch size
VALID_TAGS = {"O"} | {f"{k}-{c}" for k in "BI" for c in inputs.CATEGORIES}
# units of the per-workload results printed beside the metrics
RESULT_UNITS = {"train_tokens_per_s": "tokens/s", "train_loss": "nats/token",
                "tag_tokens_per_s": "tokens/s", "tag_one_p50_ms": "ms", "tag_one_p99_ms": "ms",
                "vec_rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_csner():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import csner
    except ImportError as exc:
        sys.exit(f"bench: cannot import csner from {src}: {exc}")
    if Path(csner.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: csner was imported from {csner.__file__}, not from {src}")
    from csner import autodiff, cli, corpus_io, embeddings, preprocess, trainer
    return autodiff, cli, corpus_io, embeddings, preprocess, trainer


ad, cli, corpus_io, embeddings, preprocess, trainer = import_csner()


def _malloc_trim():
    """Hand freed heap pages back to the OS, so that each set-up
    repetition pays the first-touch cost of its memory again."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    libc.malloc_trim.argtypes = [ctypes.c_size_t]
    libc.malloc_trim.restype = ctypes.c_int
    return libc.malloc_trim


MALLOC_TRIM = _malloc_trim()


def release_memory():
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def quiet_cli(argv) -> None:
    """``csner <argv>`` in this process; its stdout/stderr are captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    check(status == 0, f"csner {argv[0]} exited {status}: {err.getvalue().strip()}")
    return out.getvalue()


def token_shares(token_lists) -> dict:
    tokens = [t for tokens in token_lists for t in tokens]
    n = len(tokens)
    return {
        "sentences": len(token_lists),
        "tokens": n,
        "link_share": sum(t.startswith("https://") for t in tokens) / n,
        "mention_share": sum(t.startswith("@") for t in tokens) / n,
        "hashtag_share": sum(t.startswith("#") for t in tokens) / n,
        "repeat_share": 1.0 - len(set(tokens)) / n,
    }


def p99_ms(latencies_ms) -> float:
    """The median, over LATENCY_WINDOWS consecutive windows of the timed
    operations, of each window's 99th percentile."""
    windows = np.array_split(np.asarray(latencies_ms), min(LATENCY_WINDOWS, len(latencies_ms)))
    return statistics.median(float(np.percentile(w, 99)) for w in windows)


def read_predictions(path):
    """Sentences of (token, tag) pairs from a predict/preprocess output."""
    sents, cur = [], []
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        if line == "":
            if cur:
                sents.append(cur)
                cur = []
            continue
        cur.append(tuple(line.split("\t")))
    return sents


def check_predictions(out_path, source_sents):
    """One valid tag per input token, in input order."""
    out = read_predictions(out_path)
    check(len(out) == len(source_sents), f"predict: {len(out)} sentences for {len(source_sents)}")
    for i, (pairs, (tokens, _)) in enumerate(zip(out, source_sents)):
        check(len(pairs) == len(tokens), f"predict: sentence {i} has {len(pairs)} tokens, not {len(tokens)}")
        for pair, token in zip(pairs, tokens):
            check(len(pair) == 2 and pair[1] in VALID_TAGS, f"predict: bad tag line {pair!r}")
            check(pair[0] == token, f"predict: token {pair[0]!r} is not input token {token!r}")


# ---------------------------------------------------------------------------
# workloads: prepare() writes inputs (untimed), setup() is the program's own
# set-up including a warm-up pass, op() is one timed operation.


class Op(NamedTuple):
    """One timed operation: its wall time and the corpus tokens it covered."""

    wall: float
    tokens: int


class Workload:
    traced_ops = 1
    unit = "operations"
    units_per_op = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.lex = inputs.Lexicon(seed)

    def tokens_per_s(self, ops) -> float:
        return statistics.median(op.tokens / op.wall for op in ops)

    def restart(self):
        """Return to the first input before a trace pass."""

    def properties(self):
        return token_shares([tokens for tokens, _ in self.sents])


class Train(Workload):
    """``trainer.fit`` at paper dimensions on one batch of 64 training
    tweets and 32 dev tweets."""

    EPOCHS = 2
    VEC_ROWS = 2500
    unit = "batches"

    def prepare(self):
        self.sents = inputs.sentences(self.lex, self.seed, BATCH, stream=0)
        self.paths = {name: self.work / f"{name}.conll" for name in ("train", "dev")}
        inputs.write_conll(self.paths["train"], self.sents)
        inputs.write_conll(self.paths["dev"], inputs.sentences(self.lex, self.seed, 32, stream=1))
        for lang, name in enumerate(("eng", "spa")):
            self.paths[name] = self.work / f"{name}.vec"
            words = inputs.vec_words(self.lex, self.seed, lang, self.VEC_ROWS)
            inputs.write_vec(self.paths[name], words, 300, self.seed)
        self.cfg = trainer.TrainingConfig(seed=self.seed, max_epochs=self.EPOCHS,
                                          patience=self.EPOCHS)
        self.losses = []
        self.epoch_s = []

    def setup(self):
        """The library path of ``csner train`` up to ``fit``, then one
        warm-up optimization step on the largest batch."""
        self.train_raw = corpus_io.read_conll(self.paths["train"], "train")
        self.dev_raw = corpus_io.read_conll(self.paths["dev"], "dev")
        keep = embeddings.corpus_candidate_forms(self.train_raw, self.dev_raw)
        self.table = embeddings.merge_tables(
            embeddings.load_vec(self.paths["eng"], keep=keep),
            embeddings.load_vec(self.paths["spa"], keep=keep),
        )
        self.train_norm = preprocess.preprocess_dataset(self.train_raw, self.table.vocabulary)
        self.dev_norm = preprocess.preprocess_dataset(self.dev_raw, self.table.vocabulary)
        self.chars = embeddings.build_char_vocab(self.train_raw)
        warm = trainer.new_model(self.cfg, self.table, self.chars, np.random.default_rng(0))
        batches = trainer.make_batches(self.train_norm, BATCH, warm.tables, self.cfg.dtype,
                                       self.train_raw)
        trainer.train_epoch(warm, batches[:1], self.cfg.lr0, np.random.default_rng(0),
                            ad.AdamState(), self.cfg.dropout)
        self.units_per_op = len(batches) * self.EPOCHS

    def op(self):
        rng = np.random.default_rng(self.cfg.seed)
        model = trainer.new_model(self.cfg, self.table, self.chars, rng)
        epochs, marks = [], []

        def log_fn(epoch, loss, lr, f1):
            epochs.append(loss)
            marks.append(time.perf_counter())

        start = time.perf_counter()
        trainer.fit(model, self.train_norm, self.dev_norm, self.cfg, train_surfaces=self.train_raw,
                    dev_surfaces=self.dev_raw, rng=rng, log_fn=log_fn)
        wall = time.perf_counter() - start
        check(len(epochs) == self.EPOCHS, f"fit ran {len(epochs)} epochs, not {self.EPOCHS}")
        check(all(math.isfinite(x) for x in epochs), f"non-finite loss {epochs}")
        check(epochs[-1] < epochs[0], f"loss did not fall: {epochs}")
        self.losses.append(epochs[-1])
        check(len(set(self.losses)) == 1, f"train_loss differs across repetitions: {self.losses}")
        self.epoch_s.append(np.diff([start] + marks).tolist())
        return Op(wall, sum(len(s) for s in self.train_raw) * len(epochs))

    def results(self, ops):
        return {"train_tokens_per_s": self.tokens_per_s(ops), "train_loss": self.losses[0],
                "fits": len(ops), "epoch_s": list(self.epoch_s)}


def _checkpoint_tables(w: Workload):
    """Word and character tables for the tagging checkpoints.  The word
    table is built directly (no .vec parsing) from the same word lists
    the train workload's .vec files hold, with seeded float32 vectors;
    the characters come from a 96-tweet training-like corpus."""
    words = list(dict.fromkeys(inputs.vec_words(w.lex, w.seed, 0, Train.VEC_ROWS)
                               + inputs.vec_words(w.lex, w.seed, 1, Train.VEC_ROWS)))
    vocab = embeddings.Vocabulary(words, specials=True)
    rng = np.random.default_rng([w.seed, 5])
    vectors = rng.normal(0.0, 0.5, (len(vocab), 300)).astype(np.float32)
    vectors[0] = 0.0
    chars_path = w.work / "chars.conll"
    inputs.write_conll(chars_path, inputs.sentences(w.lex, w.seed, 96, stream=9))
    chars = embeddings.build_char_vocab(corpus_io.read_conll(chars_path))
    return embeddings.EmbeddingTable(vocab, vectors), chars


def _checkpoint(workload, path):
    """new_model + snapshot + save_checkpoint: the model the tag
    workloads load.  Its weights are the seeded initialisation; tagging
    cost does not depend on the weight values."""
    cfg = trainer.TrainingConfig(seed=workload.seed)
    model = trainer.new_model(cfg, workload.table, workload.chars, np.random.default_rng(workload.seed))
    trainer.save_checkpoint(trainer.snapshot(model, cfg, 0.0, 0), path)


class Tag(Workload):
    """The in-process ``csner predict`` path over a 192-tweet file."""

    N_TWEETS = 192
    unit = "files"

    def prepare(self):
        self.sents = inputs.sentences(self.lex, self.seed, self.N_TWEETS, stream=0)
        self.input = self.work / "input.conll"
        inputs.write_conll(self.input, self.sents, labeled=False)
        self.warm_input = self.work / "warm_input.conll"
        inputs.write_conll(self.warm_input, self.sents[:BATCH], labeled=False)
        self.table, self.chars = _checkpoint_tables(self)
        self.ckpt = self.work / "model.ck"
        self.out = self.work / "pred.conll"
        self.digests = []

    def setup(self):
        """Write the checkpoint, then a warm-up predict on the file's first
        batch of tweets."""
        _checkpoint(self, self.ckpt)
        quiet_cli(["predict", str(self.warm_input), "--checkpoint", str(self.ckpt),
                   "--out", str(self.work / "warm.conll")])

    def op(self):
        start = time.perf_counter()
        quiet_cli(["predict", str(self.input), "--checkpoint", str(self.ckpt), "--out", str(self.out)])
        wall = time.perf_counter() - start
        check_predictions(self.out, self.sents)
        self.digests.append(sha256(self.out))
        check(len(set(self.digests)) == 1, "predict output differs across repetitions")
        return Op(wall, sum(len(t) for t, _ in self.sents))

    def results(self, ops):
        return {"tag_tokens_per_s": self.tokens_per_s(ops), "output_sha256": self.digests[0]}


class TagOne(Workload):
    """A closed loop with one client: each call tags one fresh tweet."""

    N_TWEETS = 4000
    N_WARM = 60  # enough warm-up tweets that their mix, and so set-up time, barely varies by seed
    traced_ops = 100
    unit = "calls"

    def prepare(self):
        path = self.work / "tweets.conll"
        inputs.write_conll(path, inputs.sentences(self.lex, self.seed, self.N_TWEETS, "fresh", 0),
                           labeled=False)
        self.tweets = corpus_io.read_conll(path).sentences
        warm_path = self.work / "warm.conll"
        inputs.write_conll(warm_path, inputs.sentences(self.lex, self.seed, self.N_WARM, "fresh", 1),
                           labeled=False)
        self.warm = corpus_io.read_conll(warm_path).sentences
        self.table, self.chars = _checkpoint_tables(self)
        self.ckpt = self.work / "model.ck"
        _checkpoint(self, self.ckpt)
        self.next = 0
        self.tags = {}

    def setup(self):
        self.model = trainer.restore_model(trainer.load_checkpoint(self.ckpt))
        for sent in self.warm:
            self.tag(sent)

    def tag(self, sent):
        raw = corpus_io.Dataset([sent])
        norm = preprocess.preprocess_dataset(raw, self.model.tables.words.vocabulary)
        return trainer.predict_dataset(self.model, norm, BATCH, surfaces=raw, post=True)

    def op(self):
        i = self.next % self.N_TWEETS
        self.next += 1
        sent = self.tweets[i]
        start = time.perf_counter()
        tags = self.tag(sent)
        wall = time.perf_counter() - start
        check(len(tags) == 1 and len(tags[0]) == len(sent), f"call {i}: tags not aligned")
        names = [str(t) for t in tags[0]]
        check(all(n in VALID_TAGS for n in names), f"call {i}: invalid tag in {names}")
        check(self.tags.setdefault(i, names) == names, f"call {i}: tags differ across repetitions")
        return Op(wall, len(sent))

    def restart(self):
        self.next = 0

    def tokens_per_s(self, ops):
        return sum(op.tokens for op in ops) / sum(op.wall for op in ops)

    def properties(self):
        done = self.tweets[: max(len(self.tags), 1)]
        props = token_shares([s.tokens for s in done])
        seen, fresh = set(), 0
        for sent in done:
            fresh += sum(t not in seen for t in sent.tokens)
            seen.update(sent.tokens)
        props["fresh_spelling_share"] = fresh / props["tokens"]
        return props

    def results(self, ops):
        lat = [op.wall * 1000.0 for op in ops]
        return {"tag_one_p50_ms": statistics.median(lat), "tag_one_p99_ms": p99_ms(lat),
                "samples": len(lat)}


class Preprocess(Workload):
    """The in-process ``csner preprocess`` path: two 6,000-row .vec
    files against a 256-tweet corpus."""

    N_TWEETS = 256
    VEC_ROWS = 6000
    unit = "files"

    def prepare(self):
        self.sents = inputs.sentences(self.lex, self.seed, self.N_TWEETS, stream=0)
        self.corpus = self.work / "corpus.conll"
        inputs.write_conll(self.corpus, self.sents)
        self.vocab = set(embeddings.SPECIAL_TOKENS)
        self.argv = ["preprocess", str(self.corpus)]
        for lang, name in enumerate(("eng", "spa")):
            path = self.work / f"{name}.vec"
            words = inputs.vec_words(self.lex, self.seed, lang, self.VEC_ROWS)
            inputs.write_vec(path, words, 300, self.seed)
            self.vocab.update(words)
            self.argv += [f"--vec-{name}", str(path)]
        self.out = self.work / "prep.conll"
        self.digests = []

    def setup(self):
        quiet_cli(self.argv + ["--out", str(self.work / "warm.conll")])

    def op(self):
        start = time.perf_counter()
        report = quiet_cli(self.argv + ["--out", str(self.out)])
        wall = time.perf_counter() - start
        self.check_output(report)
        self.digests.append(sha256(self.out))
        check(len(set(self.digests)) == 1, "preprocess output differs across repetitions")
        return Op(wall, sum(len(t) for t, _ in self.sents))

    def check_output(self, report: str):
        out = read_predictions(self.out)
        check(len(out) == len(self.sents), "preprocess output: sentence count changed")
        for pairs, (tokens, tags) in zip(out, self.sents):
            check([p[1] for p in pairs] == tags, "preprocess output: tags changed")
            for (result, _), token in zip(pairs, tokens):
                check(result == token or result in self.vocab,
                      f"preprocess output: {token!r} became {result!r}, not a vocabulary word")
        rows = [line.split() for line in report.strip().split("\n")[1:]]
        all_pct = [float(r[-2].rstrip("%")) for r in rows]
        check(len(all_pct) == 4 and all_pct == sorted(all_pct, reverse=True),
              f"OOV rates do not fall through the pipeline: {all_pct}")

    def properties(self):
        return {**super().properties(), "vec_rows": 2 * self.VEC_ROWS}

    def results(self, ops):
        return {"vec_rows_per_s": statistics.median(2 * self.VEC_ROWS / op.wall for op in ops),
                "output_sha256": self.digests[0]}


WORKLOADS = {"train": Train, "tag": Tag, "tag_one": TagOne, "preprocess": Preprocess}


# ---------------------------------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().split("\n"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "malloc_trim": MALLOC_TRIM is not None,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout the benchmark runs in; None outside git."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run(args) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(spec, WORKLOADS[args.workload](args.seed, work), args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_end_to_end(w: Workload, attempt, seconds, info):
    """Set up SETUP_REPS times, then time operations for ``seconds``;
    None if an operation failed before any finished."""
    setup_times = []
    for _ in range(SETUP_REPS):
        release_memory()
        start = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)

    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        op = attempt(w.op)
        if op is None:
            break
        ops.append(op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info.update({"setup_times_s": setup_times, "ops": len(ops)})
    if not ops:
        return None
    info["inputs"] = w.properties()
    results = {**w.results(ops), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    info["results"] = {k: {"value": v, "unit": RESULT_UNITS[k]} if k in RESULT_UNITS else v
                       for k, v in results.items()}
    latencies = [op.wall * 1000.0 for op in ops]
    return {
        "tokens_per_s": w.tokens_per_s(ops),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": p99_ms(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def trace_passes(w: Workload, attempt, seconds):
    """Alternate untraced and traced passes, ABAB..., for ``seconds`` and
    at least TRACE_PAIRS pairs, so that drift in CPU speed hits both
    kinds alike.  A pass is one set-up plus ``w.traced_ops`` operations,
    after one untimed warm-up set-up.  Returns (untraced s, traced s,
    tracer) per pair, or None if an operation failed."""
    w.setup()
    passes = []
    start = time.perf_counter()
    while len(passes) < TRACE_PAIRS or time.perf_counter() - start < seconds:
        tracer = tracing.Tracer()
        walls = []
        for traced in (False, True):
            w.restart()
            release_memory()
            pass_start = time.perf_counter()
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(tracer.installed())
                    stack.enter_context(tracer.span("trace.pass"))
                w.setup()
                done = [attempt(w.op) for _ in range(w.traced_ops)]
            walls.append(time.perf_counter() - pass_start)
            if None in done:
                return None
        passes.append((walls[0], walls[1], tracer))
    return passes


def measure(spec, w: Workload, args):
    counts = {"attempted": 0, "failed": 0}
    errors = []

    def attempt(fn):
        units = w.units_per_op
        counts["attempted"] += units
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            counts["failed"] += units
            errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
            return None

    w.prepare()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "env": environment(), "op_unit": w.unit, "errors": errors}
    if args.trace:
        passes = trace_passes(w, attempt, args.seconds)
        if passes is None:
            return info, {"correct": False, **counts, "metrics": {}}
        info["inputs"] = w.properties()
        info["trace_passes_s"] = [{"untraced": u, "traced": t} for u, t, _ in passes]
        values = tracing.summarize(passes, tracing.span_cost_s())
        info["unmeasured"] = sorted(k for k, v in values.items() if v is None)
        names = spec["per_layer"]
    else:
        values = measure_end_to_end(w, attempt, args.seconds, info)
        if values is None:
            return info, {"correct": False, **counts, "metrics": {}}
        names = spec["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in names}
    extra = set(values) - set(metrics)
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return info, {"correct": counts["failed"] == 0, **counts, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    info, result = run(args)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
