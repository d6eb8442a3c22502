import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csner.cli import ConfigError, parse_config_file
from csner.corpus_io import (
    TAG_INDEX,
    TAGS,
    Dataset,
    EntityCategory,
    IobViolation,
    ParseError,
    Tag,
    TaggedSentence,
    dataset_stats,
    parse_conll,
    read_conll,
    tag_from_string,
    validate_iob,
    write_conll,
)

O = Tag("O")
B_PER = Tag("B", EntityCategory.PERSON)
I_PER = Tag("I", EntityCategory.PERSON)
B_LOC = Tag("B", EntityCategory.LOCATION)
I_LOC = Tag("I", EntityCategory.LOCATION)


class TestTagInventory:
    def test_nineteen_tags(self):
        assert len(TAGS) == 19
        assert len(set(TAGS)) == 19
        assert TAGS[0] == O

    def test_every_tag_string_round_trips(self):
        for tag in TAGS:
            assert tag_from_string(str(tag)) == tag

    def test_nine_categories(self):
        assert len(EntityCategory) == 9

    def test_malformed_tags_rejected(self):
        for bad in ("B", "B-", "B-XYZ", "X-PER", "o", "I-per", "B-PER-X", "B-person", "I-Person"):
            with pytest.raises(ValueError):
                tag_from_string(bad)


class TestTaggedSentence:
    def test_no_tokens_rejected(self):
        with pytest.raises(ValueError, match="^sentence must contain at least one token$"):
            TaggedSentence([])

    def test_one_tag_per_token(self):
        with pytest.raises(ValueError, match="^1 tags for 2 tokens$"):
            TaggedSentence(["Ana", "va"], [B_PER])


class TestParse:
    def test_person_example(self):
        ds = parse_conll("Kendrick\tB-PER\nLamar\tI-PER\n\n")
        assert len(ds) == 1
        assert ds.sentences[0].tokens == ["Kendrick", "Lamar"]
        assert ds.sentences[0].tags == [B_PER, I_PER]

    def test_empty_document(self):
        assert len(parse_conll("")) == 0

    def test_blank_line_separates(self):
        ds = parse_conll("hola\tO\n\nadios\tO\n")
        assert [s.tokens for s in ds] == [["hola"], ["adios"]]

    def test_no_trailing_newline(self):
        ds = parse_conll("a\tO\nb\tO")
        assert ds.sentences[0].tokens == ["a", "b"]

    def test_trailing_blank_lines_ignored(self):
        assert len(parse_conll("a\tO\n\n\n\n")) == 1

    def test_crlf_tolerated(self):
        ds = parse_conll("a\tO\r\n\r\nb\tO\r\n")
        assert len(ds) == 2

    def test_unlabeled(self):
        ds = parse_conll("uno\ndos\n\n")
        assert ds.sentences[0].tags is None
        assert not ds.labeled

    def test_tokens_with_special_characters(self):
        ds = parse_conll("Twets/wek\tO\n#hi@you\tO\n\n")
        assert ds.sentences[0].tokens == ["Twets/wek", "#hi@you"]

    def test_malformed_tag_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_conll("ok\tO\nbad\tB-NOPE\n")
        assert err.value.line_no == 2

    def test_mixed_labeling_within_sentence(self):
        with pytest.raises(ParseError):
            parse_conll("a\tO\nb\n\n")

    def test_mixed_labeling_across_sentences(self):
        with pytest.raises(ParseError):
            parse_conll("a\tO\n\nb\n\n")

    def test_three_columns_rejected(self):
        with pytest.raises(ParseError):
            parse_conll("a\tO\textra\n")

    def test_empty_token_rejected(self):
        with pytest.raises(ParseError):
            parse_conll("\tO\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_line_located(self, tmp_path, newline):
        # 40 long lines put the bad byte past the first 8 KB decoded chunk
        good = "".join(f"{'x' * 300}{i}\tO{newline}" for i in range(40)).encode()
        path = tmp_path / "bad.conll"
        path.write_bytes(good + b"caf\xe9\tO" + newline.encode())
        with pytest.raises(ParseError, match="^line 41: not valid UTF-8$"):
            read_conll(path)

    @pytest.mark.parametrize("read", [read_conll, parse_config_file])
    def test_non_utf8_line_counts_lines_as_text_mode_does(self, tmp_path, read):
        # a lone CR and a CRLF each end a line; '#' starts a token in a
        # corpus and a comment in a config, so both readers take lines 1-3
        path = tmp_path / "f"
        path.write_bytes(b"#a\r#b\r\n#c\n\xe9\n")
        with pytest.raises((ParseError, ConfigError)) as err:
            read(path)
        assert str(err.value) in ("line 4: not valid UTF-8", f"{path}:4: not valid UTF-8")

    def test_parse_error_before_a_later_non_utf8_line(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_bytes(b"a\tO\n\tO\nb\tO\ncaf\xe9\tO\n")
        with pytest.raises(ParseError, match="^line 2: empty token$"):
            read_conll(path)


class TestWrite:
    def test_single_token(self):
        assert write_conll(Dataset([TaggedSentence(["a"], [O])])) == "a\tO\n\n"

    def test_empty_dataset(self):
        assert write_conll(Dataset([])) == ""

    def test_unlabeled_sentence(self):
        assert write_conll(Dataset([TaggedSentence(["a", "b"])])) == "a\nb\n\n"


_token = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
)
_tag = st.sampled_from(TAGS)
_sentence = st.lists(st.tuples(_token, _tag), min_size=1, max_size=5)


@given(st.lists(_sentence, min_size=0, max_size=6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_round_trip(sentences, labeled):
    ds = Dataset(
        [
            TaggedSentence([t for t, _ in s], [g for _, g in s] if labeled else None)
            for s in sentences
        ]
    )
    again = parse_conll(write_conll(ds))
    assert [s.tokens for s in again] == [s.tokens for s in ds]
    assert [s.tags for s in again] == [s.tags for s in ds]


class TestValidate:
    def test_well_formed(self):
        assert validate_iob(TaggedSentence(["a", "b"], [B_PER, I_PER])) == []

    def test_gap_violation(self):
        out = validate_iob(TaggedSentence(list("abc"), [B_PER, O, I_PER]))
        assert [v for v in out if v.kind == 1] == [IobViolation(1, 1)]
        # the I after the O is additionally an orphan continuation
        assert [v for v in out if v.kind == 3] == [IobViolation(3, 2)]

    def test_category_mismatch(self):
        out = validate_iob(TaggedSentence(["a", "b"], [B_LOC, I_PER]))
        assert out == [IobViolation(2, 1)]

    def test_orphan_continuation(self):
        assert validate_iob(TaggedSentence(["a"], [I_PER])) == [IobViolation(3, 0)]
        out = validate_iob(TaggedSentence(["a", "b"], [O, I_LOC]))
        assert out == [IobViolation(3, 1)]

    def test_gap_requires_matching_category(self):
        out = validate_iob(TaggedSentence(list("abc"), [B_PER, O, I_LOC]))
        assert not any(v.kind in (1, 2) for v in out)

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError):
            validate_iob(TaggedSentence(["a"]))


class TestStats:
    def test_hand_counted_fixture(self):
        ds = parse_conll(
            "Ana\tB-PER\nGarcia\tI-PER\nvive\tO\n\n"
            "Juan\tB-PER\nen\tO\nLima\tB-LOC\n\n"
        )
        stats = dataset_stats(ds)
        assert stats.words == 6
        assert stats.sentences == 2
        assert stats.entities[EntityCategory.PERSON] == 2
        assert stats.entities[EntityCategory.LOCATION] == 1
        assert stats.entities[EntityCategory.EVENT] == 0

    def test_empty_dataset(self):
        stats = dataset_stats(Dataset([]))
        assert stats.words == 0
        assert all(n == 0 for n in stats.entities.values())

    def test_orphan_spans_counted(self):
        ds = Dataset([TaggedSentence(["a", "b"], [O, I_LOC])])
        assert dataset_stats(ds).entities[EntityCategory.LOCATION] == 1

    def test_untagged_sentence_named_from_one(self):
        ds = Dataset([TaggedSentence(["a"], [O]), TaggedSentence(["b"])])
        with pytest.raises(ValueError, match=r"^sentence 2: missing tags$"):
            dataset_stats(ds)

    def test_tag_indices_cover_inventory(self):
        assert sorted(TAG_INDEX.values()) == list(range(19))
