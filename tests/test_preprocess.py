import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csner.corpus_io import Dataset, Tag, TaggedSentence, EntityCategory, parse_conll
from csner.preprocess import (
    RULE_A,
    RULE_B,
    RULE_C,
    RULE_D,
    RULE_NONE,
    RULE_UNRESOLVED,
    RULE_URL,
    RULE_USR,
    normalize_token,
    oov_report,
    preprocess_dataset,
    preprocess_token,
    replace_token,
    strip_repeats,
)

O = Tag("O")
B_PER = Tag("B", EntityCategory.PERSON)


class TestReplace:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("@john", "USR"),
            ("#user", "USR"),
            ("@j", "USR"),
            ("https://domain.com", "URL"),
            ("http://x.y", "URL"),
            ("www.foo.es", "URL"),
            ("HTTPS://UP.COM", "URL"),
            ("Www.Up.Com", "URL"),
            ("hola", "hola"),
            ("@", "@"),
            ("#", "#"),
            ("correo@dominio", "correo@dominio"),
            ("wwwx", "wwwx"),
        ],
    )
    def test_rules(self, token, expected):
        assert replace_token(token) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            replace_token("")


class TestStripRepeats:
    def test_long_run(self):
        assert strip_repeats("hellooooo") == "hello"

    def test_repeated_unit(self):
        assert strip_repeats("lolololol") == "lol"

    def test_fixpoint_short_runs_kept(self):
        assert strip_repeats("hello") == "hello"

    def test_three_run_collapses(self):
        assert strip_repeats("aaa") == "a"
        assert strip_repeats("aa") == "aa"

    def test_three_char_unit(self):
        assert strip_repeats("jajajaja") == "ja"  # unit 'ja' repeated, then 'a' kept
        assert strip_repeats("ahahahah") == "ah"
        assert strip_repeats("abcabcabc") == "abc"

    def test_mixed(self):
        assert strip_repeats("holaaaa") == "hola"

    @given(st.text(max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, token):
        once = strip_repeats(token)
        assert strip_repeats(once) == once


class TestNormalize:
    def test_in_vocab_untouched(self):
        out = normalize_token("hola", {"hola"})
        assert (out.result, out.rule) == ("hola", RULE_NONE)

    def test_heuristic_a_capitalize(self):
        out = normalize_token("barcelona", {"Barcelona"})
        assert (out.result, out.rule) == ("Barcelona", RULE_A)

    def test_heuristic_b_lowercase(self):
        out = normalize_token("HOLA", {"hola"})
        assert (out.result, out.rule) == ("hola", RULE_B)

    def test_heuristic_c_lower_strip(self):
        out = normalize_token("HELLOOOO", {"hello"})
        assert (out.result, out.rule) == ("hello", RULE_C)

    def test_heuristic_d_strip_capitalize(self):
        out = normalize_token("HELLOOOO", {"Hello"})
        assert (out.result, out.rule) == ("Hello", RULE_D)

    def test_unresolved(self):
        out = normalize_token("Twets/wek", set())
        assert (out.result, out.rule) == ("Twets/wek", RULE_UNRESOLVED)

    def test_sequential_first_hit_wins(self):
        # both (a) and (b) forms are known; (a) must win
        out = normalize_token("bARCELONA", {"BARCELONA", "barcelona"})
        assert (out.result, out.rule) == ("BARCELONA", RULE_A)

    def test_replacement_rules_recorded(self):
        assert preprocess_token("@ana", set()).rule == RULE_USR
        assert preprocess_token("www.x.es", set()).rule == RULE_URL
        assert preprocess_token("USR", {"USR"}).rule == RULE_NONE


class TestPreprocessDataset:
    def test_composition(self):
        ds = Dataset([TaggedSentence(["@ana", "holaaa"], [O, O])])
        out = preprocess_dataset(ds, {"hola", "USR", "URL"})
        assert out.sentences[0].tokens == ["USR", "hola"]
        assert out.sentences[0].tags == [O, O]

    def test_empty(self):
        assert len(preprocess_dataset(Dataset([]), set())) == 0

    def test_structure_preserved(self):
        ds = parse_conll("a\tB-PER\nbb\tO\n\nccc\tO\n\n")
        out = preprocess_dataset(ds, set())
        assert [len(s) for s in out] == [len(s) for s in ds]
        assert [s.tags for s in out] == [s.tags for s in ds]

    def test_each_distinct_token_once(self, monkeypatch):
        import csner.preprocess as pp

        vocab = {"hola", "Hola", "USR", "URL"}
        ds = Dataset([
            TaggedSentence(["holaaa", "@ana", "hola", "http://t.co/x"], [O, B_PER, O, O]),
            TaggedSentence(["@ana", "holaaa", "HOLA", "holaaa"], [B_PER, O, O, O]),
            TaggedSentence(["http://t.co/x", "hola"]),
        ])
        per_token = [[preprocess_token(t, vocab).result for t in s.tokens] for s in ds]
        calls = []

        def counted(token, vocab):
            calls.append(token)
            return preprocess_token(token, vocab)

        monkeypatch.setattr(pp, "preprocess_token", counted)
        out = preprocess_dataset(ds, vocab)
        assert out == Dataset([TaggedSentence(tokens, s.tags) for tokens, s in zip(per_token, ds)],
                              ds.split)
        assert sorted(calls) == sorted({t for s in ds for t in s.tokens})
        # a second call starts afresh: nothing is kept between calls
        preprocess_dataset(ds, vocab)
        assert len(calls) == 2 * len(set(calls))


class TestOovReport:
    def test_all_known(self):
        ds = Dataset([TaggedSentence(["a", "b"], [O, B_PER])])
        report = oov_report(ds, {"a", "b"})
        assert report.all_pct == 0.0
        assert report.entity_pct == 0.0

    def test_hand_counted(self):
        # 8 tokens with entities at 'd' and 'g'; vocabulary misses b and d,
        # so 2 of 8 tokens and 1 of 2 entity tokens are OOV
        ds = Dataset(
            [
                TaggedSentence(
                    list("abcdefgh"),
                    [O, O, O, B_PER, O, O, Tag("B", EntityCategory.LOCATION), O],
                )
            ]
        )
        report = oov_report(ds, {"a", "c", "e", "f", "g", "h"})
        assert report.all_tokens == 8
        assert report.all_oov == 2
        assert report.all_pct == pytest.approx(25.0)
        assert report.entity_tokens == 2
        assert report.entity_oov == 1
        assert report.entity_pct == pytest.approx(50.0)

    def test_unlabeled_has_no_entity_column(self):
        ds = Dataset([TaggedSentence(["a", "b"])])
        report = oov_report(ds, {"a"})
        assert report.entity_pct is None
        assert report.all_pct == pytest.approx(50.0)


def random_fixture(rng, n_tokens=1000, n_vocab=200):
    vocab_words = [f"w{i}" for i in range(n_vocab)]
    vocab = set(vocab_words)
    pool = (
        vocab_words
        + [w.upper() for w in vocab_words[:50]]
        + [w + "ooo" for w in vocab_words[50:100]]
        + [f"@user{i}" for i in range(20)]
        + [f"www.site{i}.com" for i in range(20)]
        + [f"zzz{i}" for i in range(40)]
    )
    tokens = [pool[i] for i in rng.integers(0, len(pool), size=n_tokens)]
    sentences = [
        TaggedSentence(tokens[i : i + 10], [O] * len(tokens[i : i + 10]))
        for i in range(0, n_tokens, 10)
    ]
    return Dataset(sentences), vocab | {"USR", "URL"}


def test_monotonicity_and_brute_force_oracle():
    rng = np.random.default_rng(42)
    ds, vocab = random_fixture(rng)
    replace_only = Dataset(
        [
            TaggedSentence([replace_token(t) for t in s.tokens], list(s.tags))
            for s in ds
        ]
    )
    before = oov_report(replace_only, vocab)
    after_ds = preprocess_dataset(ds, vocab)
    after = oov_report(after_ds, vocab)
    assert after.all_oov <= before.all_oov
    # independent scan: count membership over the produced tokens directly
    expected = sum(tok not in vocab for s in after_ds for tok in s.tokens)
    assert after.all_oov == expected
    assert after.all_tokens == sum(len(s) for s in after_ds)


def test_normalization_never_breaks_in_vocab_tokens():
    vocab = {"hola", "Que", "tal"}
    for token in vocab:
        out = normalize_token(token, vocab)
        assert out.rule == RULE_NONE
        assert out.result == token
