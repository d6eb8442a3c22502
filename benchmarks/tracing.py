"""Spans around calls into csner's modules, installed only for the
benchmark's traced pass.

Each entry of ``LAYERS`` names a module-level function of csner and the
layer it belongs to.  While installed, every reference to that function
in a loaded ``csner.*`` module is replaced by a wrapper that records a
span (name, start, end, parent).  A layer's self time is the duration of
its spans minus the time their child spans cover.  Counters are taken at
the same boundaries, inside a ``trace.counting`` span so that their cost
is charged to the tracer and not to the layer that called the wrapper.

A function missing from csner (renamed or removed by a refactor) leaves
its layer's metrics unmeasured (null); the run goes on.

The counters are the benchmark's only measure of OOV share, padding and
char-row repetition: ``summarize`` reports them beside the self times.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

RULES = ("none", "replacement_usr", "replacement_url", "heuristic_a", "heuristic_b",
         "heuristic_c", "heuristic_d", "unresolved")


def _count_load_vec(tracer, args, kwargs, table):
    tracer.counters["rows_parsed"] += table.stat_count
    tracer.counters["rows_kept"] += len(table.vocabulary)


def _count_rules(tracer, args, kwargs, result):
    preprocess_token = importlib.import_module("csner.preprocess").preprocess_token
    dataset, vocab = args[0], args[1]
    for sent in dataset:
        for token in sent.tokens:
            tracer.counters["rule." + preprocess_token(token, vocab).rule] += 1
            tracer.counters["preprocess_tokens"] += 1


def _count_word_slots(tracer, args, kwargs, arrays):
    tracer.counters["word_tokens"] += sum(arrays.lengths)
    tracer.counters["word_slots"] += arrays.word_idx.size


def _count_chars(tracer, args, kwargs, result):
    char_idx, char_mask = args[1], args[2]
    tracer.counters["char_rows"] += char_idx.shape[1]
    tracer.counters["char_distinct"] += len(np.unique(char_idx.T, axis=0))
    tracer.counters["char_real"] += int(char_mask.sum())
    tracer.counters["char_slots"] += char_idx.size


def _count_tags_changed(tracer, args, kwargs, result):
    tracer.counters["tags_changed"] += sum(a != b for a, b in zip(args[0], result))


# (csner module, function, layer, counter hook)
LAYERS = (
    ("cli", "main", "cli", None),
    ("corpus_io", "read_conll", "corpus_io.read", None),
    ("corpus_io", "write_conll", "corpus_io.write", None),
    ("corpus_io", "write_conll_file", "corpus_io.write", None),
    ("embeddings", "load_vec", "embeddings.load_vec", _count_load_vec),
    ("embeddings", "corpus_candidate_forms", "embeddings.candidate_forms", None),
    ("embeddings", "merge_tables", "embeddings.merge", None),
    ("preprocess", "preprocess_dataset", "preprocess", _count_rules),
    ("preprocess", "oov_report", "preprocess", None),
    ("trainer", "new_model", "model.init", None),
    ("trainer", "make_batches", "trainer.make_batches", None),
    ("trainer", "train_epoch", "trainer.train_epoch", None),
    ("trainer", "dev_f1", "trainer.dev_f1", None),
    ("trainer", "predict_dataset", "trainer.predict", None),
    ("trainer", "snapshot", "trainer.checkpoint_save", None),
    ("trainer", "save_checkpoint", "trainer.checkpoint_save", None),
    ("trainer", "load_checkpoint", "trainer.checkpoint_load", None),
    ("trainer", "restore_model", "trainer.checkpoint_load", None),
    ("model", "build_arrays", "model.build_arrays", _count_word_slots),
    ("model", "encode_batch", "model.encode_other", None),
    ("model", "_encode_chars", "model.char_encoder", _count_chars),
    ("model", "_run_bilstm", "model.word_bilstm", None),
    ("model", "batch_logits", "model.projection_loss", None),
    ("autodiff", "masked_cross_entropy_logits", "model.projection_loss", None),
    ("autodiff", "backward", "autodiff.backward", None),
    ("autodiff", "adam_step", "autodiff.adam", None),
    ("postprocess", "postprocess_sentence", "postprocess", _count_tags_changed),
    ("evaluate", "score", "evaluate.score", None),
)

# the char encoder runs _run_bilstm too; that time stays inside the encoder
_PASS_THROUGH_UNDER = {"model.word_bilstm": "model.char_encoder"}

# counter metrics -> the hook whose failure leaves them unmeasured
_COUNTER_SOURCES = {
    "embeddings.rows_parsed": _count_load_vec,
    "embeddings.keep_ratio": _count_load_vec,
    "preprocess.tokens": _count_rules,
    "preprocess.oov_share": _count_rules,
    **{f"preprocess.rule.{r}": _count_rules for r in RULES},
    "trainer.word_slot_util": _count_word_slots,
    "model.char_rows": _count_chars,
    "model.char_distinct_ratio": _count_chars,
    "model.char_slot_util": _count_chars,
    "model.char_v_max": _count_chars,
    "postprocess.tags_changed": _count_tags_changed,
}


def _time_metric(layer: str) -> str:
    return layer + ("_s" if "." in layer else ".s")


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.missing_layers: set[str] = set()
        self.failed_hooks: set = set()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, fn, layer, hook):
        skip_inside = _PASS_THROUGH_UNDER.get(layer)

        def traced(*args, **kwargs):
            if skip_inside and self.stack and self.spans[self.stack[-1]][0] == skip_inside:
                return fn(*args, **kwargs)
            with self.span(layer):
                result = fn(*args, **kwargs)
            if hook is not None and hook not in self.failed_hooks:
                with self.span("trace.counting"):
                    try:
                        hook(self, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        self.failed_hooks.add(hook)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every csner reference to a LAYERS function for its wrapper."""
        modules = [m for m in (_load(n) for n in _CSNER_MODULES) if m is not None]
        patched = []
        for module_name, attr, layer, hook in LAYERS:
            module = _load(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing_layers.add(layer)
                continue
            wrapper = self._wrap(original, layer, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        patched.append((m, name, original))
        try:
            yield
        finally:
            for m, name, original in reversed(patched):
                setattr(m, name, original)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return dict(totals)

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metrics of one traced pass."""
        times = self.self_times()
        c = self.counters
        out: dict[str, float | None] = {}
        for layer in dict.fromkeys(layer for _, _, layer, _ in LAYERS):
            out[_time_metric(layer)] = None if layer in self.missing_layers else times.get(layer, 0.0)
        out.update({
            "embeddings.rows_parsed": c["rows_parsed"],
            "embeddings.keep_ratio": _ratio(c["rows_kept"], c["rows_parsed"]),
            "preprocess.tokens": c["preprocess_tokens"],
            "preprocess.oov_share": _ratio(c["rule.unresolved"], c["preprocess_tokens"]),
            **{f"preprocess.rule.{r}": c["rule." + r] for r in RULES},
            "trainer.word_slot_util": _ratio(c["word_tokens"], c["word_slots"]),
            "model.char_rows": c["char_rows"],
            "model.char_distinct_ratio": _ratio(c["char_distinct"], c["char_rows"]),
            "model.char_slot_util": _ratio(c["char_real"], c["char_slots"]),
            "model.char_v_max": _ratio(c["char_slots"], c["char_rows"]),
            "postprocess.tags_changed": c["tags_changed"],
        })
        hook_layers = {hook: layer for _, _, layer, hook in LAYERS if hook is not None}
        for name, hook in _COUNTER_SOURCES.items():
            if hook in self.failed_hooks or hook_layers[hook] in self.missing_layers:
                out[name] = None
        out["trace.other_s"] = times.get("trace.pass", 0.0)
        out["trace.counting_s"] = times.get("trace.counting", 0.0)
        out["trace.spans"] = len(self.spans)
        return out


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a no-op function timed bare and
    wrapped, best of ``repeats`` each, in this process."""

    def noop():
        return None

    def best(wrap: bool) -> float:
        times = []
        for _ in range(repeats):
            fn = Tracer()._wrap(noop, "calibration", None) if wrap else noop
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(best(True) - best(False), 0.0) / calls


def summarize(passes, span_cost: float) -> dict[str, float | None]:
    """Metrics of alternating (untraced seconds, traced seconds, tracer)
    pass pairs.  Each layer metric is its median over the traced passes.
    The overhead is the median of the pairs' differences; it counts as
    resolved only when its quartiles have one sign and it exceeds the
    quartile spread of the untraced passes themselves.  The direct cost is the counting time plus the
    spans times the calibrated ``span_cost``."""
    per_pass = [tracer.metrics() for _, _, tracer in passes]
    out: dict[str, float | None] = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        out[name] = None if None in values else statistics.median(values)
    untraced = [u for u, _, _ in passes]
    base = statistics.median(untraced)
    u_q1, _, u_q3 = statistics.quantiles(untraced, n=4)
    spread_pct = 100.0 * (u_q3 - u_q1) / base
    diffs = [100.0 * (t - u) / u for u, t, _ in passes]
    d_q1, _, d_q3 = statistics.quantiles(diffs, n=4)
    overhead_pct = statistics.median(diffs)
    out.update({
        "trace.pass_s": statistics.median(t for _, t, _ in passes),
        "trace.untraced_pass_s": base,
        "trace.pairs": len(passes),
        "trace.overhead_pct": overhead_pct,
        "trace.overhead_q1_pct": d_q1,
        "trace.overhead_q3_pct": d_q3,
        "trace.untraced_spread_pct": spread_pct,
        "trace.overhead_resolved": int((d_q1 > 0 or d_q3 < 0) and abs(overhead_pct) > spread_pct),
        "trace.span_cost_us": 1e6 * span_cost,
        "trace.direct_pct": 100.0 * (out["trace.counting_s"] + out["trace.spans"] * span_cost) / base,
    })
    return out


_CSNER_MODULES = ("cli", "corpus_io", "embeddings", "evaluate", "model", "postprocess",
                  "preprocess", "trainer", "autodiff")


def _load(name: str):
    try:
        return importlib.import_module("csner." + name)
    except ImportError:
        return None


def _ratio(num, den) -> float:
    return num / den if den else 0.0
