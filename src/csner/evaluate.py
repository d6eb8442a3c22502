"""Exact-match entity scoring with harmonic-mean aggregation.

Spans must match in category and both boundaries to count as true
positives (the usual shared-task convention).  The headline number is the
harmonic mean of per-class F1 over every class appearing in gold or
prediction; micro F1 is always reported next to it because the two can
diverge sharply when a single class fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .corpus_io import Dataset, EntityCategory, Tag


class EntitySpan(NamedTuple):
    category: EntityCategory
    start: int
    end: int  # inclusive


def extract_entities(tags: list[Tag]) -> set[EntitySpan]:
    """Segment a tag sequence into maximal entity spans.

    B-X always opens a span; contiguous I-X extends it.  An I-X after O,
    sentence start, or a different category opens a new span (relaxed
    conlleval convention), so noisy predictions remain scorable.
    """
    spans: set[EntitySpan] = set()
    start = None
    category = None

    def close(end):
        if start is not None:
            spans.add(EntitySpan(category, start, end))

    for i, tag in enumerate(tags):
        if tag.kind == "B":
            close(i - 1)
            start, category = i, tag.category
        elif tag.kind == "I":
            if start is None or tag.category != category:
                close(i - 1)
                start, category = i, tag.category
        else:
            close(i - 1)
            start, category = None, None
    close(len(tags) - 1)
    return spans


class ClassCounts(NamedTuple):
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    per_class: dict[EntityCategory, ClassCounts]
    harmonic_f1: float
    micro_f1: float
    sentences: int
    tokens: int


def harmonic_mean(values: list[float]) -> float:
    """n / sum(1/v); zero as soon as any value is zero."""
    if not values:
        raise ValueError("harmonic_mean of an empty sequence")
    if any(v < 0 for v in values):
        raise ValueError("harmonic_mean needs non-negative values")
    if any(v == 0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def score(gold: Dataset, pred: Dataset) -> EvalReport:
    """Score predictions against gold, sentence by sentence.

    Both datasets must be labeled, with identical sentence counts and
    lengths.  Classes absent from both sides are left out of the report;
    an entity-free pair of files scores a vacuous 1.0.
    """
    if len(gold) != len(pred):
        raise ValueError(
            f"gold has {len(gold)} sentences, prediction has {len(pred)}"
        )
    tally = {cat: [0, 0, 0] for cat in EntityCategory}
    tokens = 0
    for i, (g, p) in enumerate(zip(gold, pred), start=1):
        if g.tags is None or p.tags is None:
            raise ValueError(f"sentence {i}: missing tags")
        if len(g) != len(p):
            raise ValueError(
                f"sentence {i}: gold length {len(g)} != prediction length {len(p)}"
            )
        tokens += len(g)
        gold_spans = extract_entities(g.tags)
        pred_spans = extract_entities(p.tags)
        for span in gold_spans & pred_spans:
            tally[span.category][0] += 1
        for span in pred_spans - gold_spans:
            tally[span.category][1] += 1
        for span in gold_spans - pred_spans:
            tally[span.category][2] += 1

    per_class = {
        cat: ClassCounts(*counts)
        for cat, counts in tally.items()
        if any(counts)
    }
    if per_class:
        harmonic = harmonic_mean([c.f1 for c in per_class.values()])
        micro_f1 = ClassCounts(*map(sum, zip(*tally.values()))).f1  # summed over classes
    else:
        harmonic = micro_f1 = 1.0  # nothing to find, nothing found
    return EvalReport(
        per_class=per_class,
        harmonic_f1=harmonic,
        micro_f1=micro_f1,
        sentences=len(gold),
        tokens=tokens,
    )


def format_report(report: EvalReport) -> str:
    lines = [
        f"sentences: {report.sentences}  tokens: {report.tokens}",
        f"{'class':<14}{'TP':>6}{'FP':>6}{'FN':>6}{'prec':>10}{'recall':>10}{'F1':>10}",
    ]
    for cat in EntityCategory:
        c = report.per_class.get(cat)
        if c is None:
            continue
        lines.append(
            f"{cat.name.lower():<14}{c.tp:>6}{c.fp:>6}{c.fn:>6}"
            f"{100 * c.precision:>9.4f}%{100 * c.recall:>9.4f}%{100 * c.f1:>9.4f}%"
        )
    lines.append(f"harmonic mean F1: {100 * report.harmonic_f1:.4f}%")
    lines.append(f"micro F1:         {100 * report.micro_f1:.4f}%")
    return "\n".join(lines) + "\n"
