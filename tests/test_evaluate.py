import numpy as np
import pytest

from csner.corpus_io import TAGS, Dataset, EntityCategory, TaggedSentence, tag_from_string
from csner.evaluate import (
    EntitySpan,
    extract_entities,
    format_report,
    harmonic_mean,
    score,
)

PER = EntityCategory.PERSON
LOC = EntityCategory.LOCATION
ORG = EntityCategory.ORGANIZATION


def t(s: str):
    return [tag_from_string(x) for x in s.split()]


def ds(*tag_strings):
    return Dataset(
        [TaggedSentence(["w"] * len(t(s)), t(s)) for s in tag_strings]
    )


class TestExtract:
    def test_basic_span(self):
        assert extract_entities(t("B-PER I-PER O")) == {EntitySpan(PER, 0, 1)}

    def test_no_entities(self):
        assert extract_entities(t("O O")) == set()

    def test_orphan_and_boundary(self):
        assert extract_entities(t("I-LOC I-LOC B-LOC")) == {
            EntitySpan(LOC, 0, 1),
            EntitySpan(LOC, 2, 2),
        }

    def test_category_switch_inside_i_run(self):
        assert extract_entities(t("I-LOC I-PER")) == {
            EntitySpan(LOC, 0, 0),
            EntitySpan(PER, 1, 1),
        }

    def test_b_after_b(self):
        assert extract_entities(t("B-PER B-PER")) == {
            EntitySpan(PER, 0, 0),
            EntitySpan(PER, 1, 1),
        }

    def test_span_runs_to_sentence_end(self):
        assert extract_entities(t("O B-ORG I-ORG")) == {EntitySpan(ORG, 1, 2)}

    def test_brute_force_oracle(self):
        # oracle: enumerate positions, group maximal same-category runs
        rng = np.random.default_rng(3)
        for _ in range(300):
            tags = [TAGS[i] for i in rng.integers(0, 19, size=10)]
            expected = set()
            i = 0
            while i < len(tags):
                if tags[i].kind == "O":
                    i += 1
                    continue
                cat = tags[i].category
                j = i + 1
                while j < len(tags) and tags[j].kind == "I" and tags[j].category == cat:
                    j += 1
                expected.add(EntitySpan(cat, i, j - 1))
                i = j
            assert extract_entities(tags) == expected


class TestHarmonicMean:
    def test_singleton(self):
        assert harmonic_mean([0.7]) == 0.7

    def test_ones(self):
        assert harmonic_mean([1.0, 1.0, 1.0]) == 1.0

    def test_closed_form(self):
        assert harmonic_mean([0.5, 1.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_any_zero_gives_zero(self):
        assert harmonic_mean([0.9, 0.0, 0.8]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="^harmonic_mean needs non-negative values$"):
            harmonic_mean([0.5, -0.1])

    def test_at_most_arithmetic_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            values = rng.uniform(0.01, 1.0, size=rng.integers(1, 8)).tolist()
            assert harmonic_mean(values) <= np.mean(values) + 1e-12


class TestScore:
    def test_perfect(self):
        gold = ds("B-PER I-PER O", "O B-LOC O")
        report = score(gold, gold)
        assert report.harmonic_f1 == 1.0
        assert report.micro_f1 == 1.0
        assert all(c.f1 == 1.0 for c in report.per_class.values())

    def test_hand_counted_example(self):
        # gold {PER(0,1), LOC(3,3)} vs pred {PER(0,1), ORG(3,3)}
        gold = ds("B-PER I-PER O B-LOC")
        pred = ds("B-PER I-PER O B-ORG")
        report = score(gold, pred)
        assert report.per_class[PER].f1 == 1.0
        assert report.per_class[LOC].f1 == 0.0
        assert report.per_class[ORG].f1 == 0.0
        assert report.harmonic_f1 == 0.0
        assert report.micro_f1 == pytest.approx(0.5, abs=1e-12)

    def test_boundary_miss(self):
        gold = ds("B-PER I-PER")
        pred = ds("B-PER O")
        counts = score(gold, pred).per_class[PER]
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_entity_free_self_score(self):
        gold = ds("O O O")
        report = score(gold, gold)
        assert report.harmonic_f1 == 1.0
        assert report.micro_f1 == 1.0
        assert report.per_class == {}

    def test_sentence_count_mismatch(self):
        with pytest.raises(ValueError):
            score(ds("O"), ds("O", "O"))

    def test_length_mismatch_names_sentence(self):
        # sentences are numbered from 1, as predict_dataset numbers them
        with pytest.raises(ValueError) as err:
            score(ds("O", "O O"), ds("O", "O"))
        assert str(err.value) == "sentence 2: gold length 2 != prediction length 1"

    def test_missing_tags_names_sentence(self):
        unlabeled = Dataset([TaggedSentence(["w"]), TaggedSentence(["w"])])
        for gold, pred in ((ds("O", "O"), unlabeled), (unlabeled, ds("O", "O"))):
            with pytest.raises(ValueError) as err:
                score(gold, pred)
            assert str(err.value) == "sentence 1: missing tags"

    def test_symmetric_counts(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            gold = Dataset([TaggedSentence(["w"] * n, [TAGS[i] for i in rng.integers(0, 19, n)])])
            pred = Dataset([TaggedSentence(["w"] * n, [TAGS[i] for i in rng.integers(0, 19, n)])])
            fwd = score(gold, pred)
            rev = score(pred, gold)
            for cat in set(fwd.per_class) | set(rev.per_class):
                assert fwd.per_class[cat].fp == rev.per_class[cat].fn
                assert fwd.per_class[cat].fn == rev.per_class[cat].fp
                assert fwd.per_class[cat].tp == rev.per_class[cat].tp

    def test_report_formatting(self):
        gold = ds("B-PER I-PER O B-LOC")
        text = format_report(score(gold, gold))
        assert "person" in text
        assert "harmonic mean F1: 100.0000%" in text
