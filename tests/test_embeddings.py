import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csner.corpus_io import Dataset, TaggedSentence, parse_conll
from csner.embeddings import (
    _BLOCK_BYTES,
    PAD_TOKEN,
    SPECIAL_TOKENS,
    UNK_TOKEN,
    EmbeddingTable,
    VectorLoadError,
    Vocabulary,
    build_char_vocab,
    candidate_forms,
    corpus_candidate_forms,
    load_vec,
    merge_tables,
)
from csner.preprocess import (
    URL,
    USR,
    oov_report,
    preprocess_dataset,
    preprocess_token,
    strip_repeats,
)

from conftest import traced_peak, write_vec_file
from vec_reference import load_vec_per_row


@pytest.fixture
def vec_file(tmp_path):
    """Write ``.vec`` text to a fresh file and return its path."""
    names = itertools.count()

    def write(text: str):
        path = tmp_path / f"{next(names)}.vec"
        path.write_text(text, encoding="utf-8")
        return path

    return write


class TestLoadVec:
    def test_literal_read(self, vec_file):
        table = load_vec(vec_file("2 3\na 1 0 0\nb 0 1 0\n"))
        assert len(table.vocabulary) == 2
        assert table.dim == 3
        assert np.array_equal(table.vectors[0], [1, 0, 0])

    def test_dimension_mismatch_reports_line(self, vec_file):
        with pytest.raises(VectorLoadError) as err:
            load_vec(vec_file("2 3\na 1 0 0\nb 0 1\n"))
        assert "line 3" in str(err.value)

    def test_non_numeric_component(self, vec_file):
        with pytest.raises(VectorLoadError) as err:
            load_vec(vec_file("1 2\na x 1\n"))
        assert "line 2" in str(err.value)

    def test_non_utf8_row_reports_line(self, tmp_path):
        # the bad row lies past the first 8 KB, beyond the first decoded chunk
        rows = "".join(f"w{i} 1 0\n" for i in range(2000)).encode()
        path = tmp_path / "bad.vec"
        path.write_bytes(b"2001 2\n" + rows + b"caf\xe9 1 0\n")
        with pytest.raises(VectorLoadError, match="^line 2002: not valid UTF-8$"):
            load_vec(path)

    def test_row_error_before_a_later_non_utf8_row(self, tmp_path):
        # both in one block: the rows before the undecodable one are parsed first
        rows = "".join(f"w{i} 1 0\n" for i in range(200)).encode()
        path = tmp_path / "bad.vec"
        path.write_bytes(b"202 2\na 1\n" + rows + b"caf\xe9 1 0\n")
        with pytest.raises(VectorLoadError, match="^line 2: expected 2 components, got 1$"):
            load_vec(path)

    @pytest.mark.parametrize("header", [b"2 2\xe9\n", b"\xe9\n"])
    def test_non_utf8_header_reports_line_1(self, tmp_path, header):
        path = tmp_path / "bad.vec"
        path.write_bytes(header + b"a 1 0\nb 0 1\n")
        with pytest.raises(VectorLoadError, match="^line 1: not valid UTF-8$"):
            load_vec(path)

    def test_bad_header(self, vec_file):
        for text in ("hello\n", "2 -3\na 1 2 3\n", "2 0\na\n"):
            with pytest.raises(VectorLoadError, match="^line 1: "):
                load_vec(vec_file(text))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_component_reports_line(self, vec_file, bad):
        # a row that is not kept still feeds the UNK/USR/URL mean
        with pytest.raises(VectorLoadError, match="^line 3: non-finite vector component$"):
            load_vec(vec_file(f"3 2\na 1 0\nb 0 {bad}\nc 1 1\n"), keep={"a"})

    @pytest.mark.parametrize("count", [5, 1])
    def test_header_count_must_match_rows(self, vec_file, count):
        # a truncated file, and one longer than its header says
        with pytest.raises(VectorLoadError,
                           match=f"^line 1: header declares {count} rows, file has 2$"):
            load_vec(vec_file(f"{count} 2\na 1 0\nb 0 1\n"))

    @pytest.mark.parametrize("rows, message", [
        ("a 1 0\nb 0\n", "line 3: expected 2 components, got 1"),
        ("a 1 0\nb x 1\n", "line 3: non-numeric vector component"),
        ("a 1 0\nb inf 1\n", "line 3: non-finite vector component"),
    ])
    def test_line_errors_come_before_the_row_count(self, vec_file, rows, message):
        with pytest.raises(VectorLoadError, match=f"^{message}$"):
            load_vec(vec_file("5 2\n" + rows))

    def test_duplicates_keep_first(self, vec_file):
        table = load_vec(vec_file("2 2\na 1 1\na 2 2\n"))
        assert len(table.vocabulary) == 1
        assert np.array_equal(table.vectors[0], [1, 1])

    def test_trailing_space_tolerated(self, vec_file):
        table = load_vec(vec_file("1 2\na 1 2 \n"))
        assert np.array_equal(table.vectors[0], [1, 2])

    # the second file holds a number only Python's float reads, so that
    # its rows take the row-by-row parse
    @pytest.mark.parametrize("text", ["2 2\na 1 0\nb 1 1 \n", "2 2\na 1 0 \nb 1_0 1 \n"])
    def test_crlf_rows_load_as_their_lf_twin(self, vec_file, text):
        crlf = vec_file(text.replace("\n", "\r\n"))
        assert crlf.read_bytes().count(b"\r\n") == 3
        want = load_vec(vec_file(text))
        assert_same_table(load_vec(crlf), want)
        assert_same_table(load_vec_per_row(crlf), want)

    def test_prune_keeps_requested_and_full_mean(self, vec_file):
        text = "3 2\na 1 0\nb 3 0\nc 5 0\n"
        pruned = load_vec(vec_file(text), keep={"b"})
        assert pruned.vocabulary.tokens == ["b"]
        assert pruned.stat_count == 3
        assert np.allclose(pruned.stat_sum / pruned.stat_count, [3, 0])

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_blank_row_reports_its_line(self, vec_file, at):
        rows = ["a 1 0", "b 0 1"]
        rows.insert(at, "")  # first, between the rows, last
        with pytest.raises(VectorLoadError,
                           match=f"^line {at + 2}: expected 2 components, got 0$"):
            load_vec(vec_file("3 2\n" + "".join(row + "\n" for row in rows)))

    @pytest.mark.parametrize("row, got", [("", 0), ("a \r", 0)])
    def test_rows_without_data_raise_no_warning(self, vec_file, row, got):
        # numpy's reader warns on a block it reads as holding no data.  The
        # warnings are recorded, not raised: raised, one would be taken by
        # load_vec's own fallback and not show here even if it escaped
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(VectorLoadError,
                               match=f"^line 2: expected 2 components, got {got}$"):
                load_vec(vec_file("3 2\n" + f"{row}\n" * 3))
        assert caught == []


def assert_same_table(got, want):
    assert got.vocabulary.tokens == want.vocabulary.tokens
    assert got.vectors.shape == want.vectors.shape
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.stat_sum.tobytes() == want.stat_sum.tobytes()
    assert got.stat_count == want.stat_count


def vec_text(rows, count=None) -> str:
    return f"{len(rows) if count is None else count} 8\n" + "".join(r + "\n" for r in rows)


def third_block_row(rows) -> int:
    """The index of a row that ``load_vec`` reads in its third block: each
    block ends within one row past a multiple of ``_BLOCK_BYTES``."""
    longest = max(len(row) for row in rows) + 1
    offset = 0
    for i, row in enumerate(rows):
        if offset >= 2 * (_BLOCK_BYTES + longest):
            assert offset < 3 * _BLOCK_BYTES
            return i
        offset += len(row) + 1


class TestBlocks:
    """``load_vec`` parses a block of rows per numpy call; it must agree
    with the per-row reference bit for bit and locate the same errors."""

    @pytest.fixture
    def rows(self):
        """2,000 rows of 8 components over 17 orders of magnitude, so that
        a change in summation order changes ``stat_sum``; words repeat,
        and every third row ends in a space, as FastText rows do."""
        rng = np.random.default_rng(7)
        values = rng.normal(size=(2000, 8)) * 10.0 ** rng.integers(-8, 9, size=(2000, 1))
        words = rng.integers(0, 1000, 2000)
        rows = [f"w{w} " + " ".join(map(repr, row.tolist())) + " " * (i % 3 == 0)
                for i, (w, row) in enumerate(zip(words, values))]
        assert len(vec_text(rows)) > 3 * _BLOCK_BYTES
        return rows

    @pytest.mark.parametrize("keep", [None, {f"w{i}" for i in range(0, 1000, 3)}])
    def test_matches_per_row_reference(self, vec_file, rows, keep):
        path = vec_file(vec_text(rows))
        table = load_vec(path, keep=keep)
        assert len(table.vocabulary) < len(rows)
        assert_same_table(table, load_vec_per_row(path, keep=keep))

    def test_numbers_only_python_reads(self, vec_file, rows):
        # numpy's reader rejects underscores and non-ASCII digits, Python's float does not
        odd = ["odd 1_0" + " 1" * 7, "full \uff11" + " 2" * 7, "arabic \u0663" + " 3" * 7]
        rows[100], rows[third_block_row(rows)], rows[-1] = odd
        path = vec_file(vec_text(rows))
        table = load_vec(path)
        assert_same_table(table, load_vec_per_row(path))
        for word, first in (("odd", 10.0), ("full", 1.0), ("arabic", 3.0)):
            assert table.vectors[table.vocabulary.index(word)][0] == first

    @pytest.mark.parametrize("bad, message", [
        ("bad x" + " 0" * 7, "non-numeric vector component"),
        ("bad 1 0", "expected 8 components, got 2"),
        ("", "expected 8 components, got 0"),
        ("bad  ", "expected 8 components, got 1"),  # one trailing space ends a row, not two
        ("bad inf" + " 0" * 7, "non-finite vector component"),
    ])
    def test_bad_row_in_third_block_reports_its_line(self, vec_file, rows, bad, message):
        i = third_block_row(rows)
        rows[i] = bad
        path = vec_file(vec_text(rows))
        with pytest.raises(VectorLoadError, match=f"^line {i + 2}: {message}$"):
            load_vec(path)
        with pytest.raises(VectorLoadError, match=f"^line {i + 2}: {message}$"):
            load_vec_per_row(path)

    def test_non_utf8_row_in_third_block_reports_its_line(self, tmp_path, rows):
        i = third_block_row(rows)
        rows[i - 1] = "early inf" + " 0" * 7  # a row error outranks a non-finite one
        rows[i] = "caf\udce9" + " 0" * 8  # the lone byte 0xe9 once encoded
        path = tmp_path / "bad.vec"
        path.write_bytes(vec_text(rows).encode("utf-8", "surrogateescape"))
        with pytest.raises(VectorLoadError, match=f"^line {i + 2}: not valid UTF-8$"):
            load_vec(path)

    def test_row_error_outranks_an_earlier_non_finite_row(self, vec_file, rows):
        rows[5] = "early inf" + " 0" * 7
        i = third_block_row(rows)
        rows[i] = "bad 1 0"
        with pytest.raises(VectorLoadError, match=f"^line {i + 2}: expected 8 components, got 2$"):
            load_vec(vec_file(vec_text(rows)))

    def test_late_line_error_before_row_count(self, vec_file, rows):
        rows[-2] = "bad 1 0"
        with pytest.raises(VectorLoadError,
                           match=f"^line {len(rows)}: expected 8 components, got 2$"):
            load_vec(vec_file(vec_text(rows, count=len(rows) + 5)))

    def test_peak_memory_is_one_block(self, tmp_path):
        # with no row kept, the rows read live only as long as their block
        path = tmp_path / "big.vec"
        write_vec_file(path, [f"w{i}" for i in range(10000)], 30)
        assert path.stat().st_size > 2_500_000
        assert traced_peak(lambda: load_vec(path, keep=set())) < 1_000_000

    def test_peak_memory_holds_each_kept_row_once(self, tmp_path):
        # the kept rows fill one array that grows in place; the growth step
        # and the block in flight are all that is held beyond the table
        path = tmp_path / "big.vec"
        row = " ".join(f"{v:.6f}" for v in np.random.default_rng(5).normal(size=300))
        path.write_text("6000 300\n" + "".join(f"w{i} {row}\n" for i in range(6000)))
        tables = []
        peak = traced_peak(lambda: tables.append(load_vec(path)))
        assert tables[0].vectors.shape == (6000, 300)
        assert peak <= 1.4 * tables[0].vectors.nbytes


class TestEmbeddingTable:
    def test_one_row_per_token(self):
        # two words after PAD, UNK, USR and URL
        with pytest.raises(ValueError, match="^5 rows for 6 tokens$"):
            EmbeddingTable(Vocabulary(["a", "b"]), np.zeros((5, 3)))


class TestMerge:
    @pytest.fixture
    def eng(self, vec_file):
        return load_vec(vec_file("2 2\na 1 1\nb 2 2\n"))

    @pytest.fixture
    def spa(self, vec_file):
        return load_vec(vec_file("2 2\nb 9 9\nc 3 3\n"))

    def test_first_wins_and_specials(self, eng, spa):
        merged = merge_tables(eng, spa)
        assert merged.vocabulary.tokens == list(SPECIAL_TOKENS) + ["a", "b", "c"]
        b_row = merged.vectors[merged.vocabulary.index("b")]
        assert np.array_equal(b_row, [2, 2])  # the English vector, bit for bit

    def test_merge_with_empty(self, eng, vec_file):
        merged = merge_tables(eng, load_vec(vec_file("0 2\n")))
        assert merged.vocabulary.tokens == list(SPECIAL_TOKENS) + ["a", "b"]

    def test_one_table_merges_alone(self, eng, vec_file):
        merged = merge_tables(eng)
        assert_same_table(merged, merge_tables(eng, load_vec(vec_file("0 2\n"))))
        assert merged.stat_sum.tobytes() == eng.stat_sum.tobytes()
        assert merged.stat_sum is not eng.stat_sum

    def test_earlier_tables_win(self, eng, spa, vec_file):
        third = load_vec(vec_file("2 2\nd 4 4\na 8 8\n"))
        merged = merge_tables(eng, spa, third)
        assert merged.vocabulary.tokens == list(SPECIAL_TOKENS) + ["a", "b", "c", "d"]
        assert np.array_equal(merged.vectors[4:], [[1, 1], [2, 2], [3, 3], [4, 4]])
        assert merged.stat_sum.tobytes() == (eng.stat_sum + spa.stat_sum + third.stat_sum).tobytes()
        assert merged.stat_count == 6

    def test_dimension_mismatch(self, eng, spa, vec_file):
        wide = load_vec(vec_file("1 5\nz 1 2 3 4 5\n"))
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 5$"):
            merge_tables(eng, wide)
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 2 vs 5$"):
            merge_tables(eng, spa, wide)

    def test_special_rows(self, eng, spa):
        merged = merge_tables(eng, spa)
        mean = np.array([1 + 2 + 9 + 3, 1 + 2 + 9 + 3], dtype=float) / 4
        assert np.array_equal(merged.vectors[0], [0, 0])  # PAD
        assert np.allclose(merged.vectors[1], mean)  # UNK = mean of all loaded
        assert np.allclose(merged.vectors[2], mean)
        assert merged.vocabulary.index(PAD_TOKEN) == 0
        assert merged.vocabulary.index(UNK_TOKEN) == 1

    def test_reserved_rows_win_in_either_table(self, vec_file):
        eng = load_vec(vec_file("3 2\nURL 9 9\na 1 1\nUSR 7 7\n"))
        spa = load_vec(vec_file("2 2\n<UNK> 5 5\nb 3 3\n"))
        merged = merge_tables(eng, spa)
        assert merged.vocabulary.tokens == list(SPECIAL_TOKENS) + ["a", "b"]
        mean = np.array([9 + 1 + 7 + 5 + 3] * 2, dtype=float) / 5
        assert np.array_equal(merged.vectors[1:4], [mean] * 3)  # UNK, USR, URL
        assert np.array_equal(merged.vectors[4:], [[1, 1], [3, 3]])

    def test_unknown_token_falls_back_to_unk(self, eng, spa):
        merged = merge_tables(eng, spa)
        assert merged.vocabulary.index("nope") == 1

    def test_merged_oov_never_above_single_table(self, vec_file):
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(60)]
        eng_words, spa_words = words[:40], words[25:]
        eng_text = f"{len(eng_words)} 2\n" + "".join(f"{w} 1 0\n" for w in eng_words)
        spa_text = f"{len(spa_words)} 2\n" + "".join(f"{w} 0 1\n" for w in spa_words)
        eng = load_vec(vec_file(eng_text))
        spa = load_vec(vec_file(spa_text))
        merged = merge_tables(eng, spa)
        tokens = [words[i] for i in rng.integers(0, 60, size=200)]
        ds = Dataset([TaggedSentence(tokens)])
        merged_oov = oov_report(ds, merged.vocabulary).all_oov
        # brute-force membership oracle per table
        eng_oov = sum(tok not in eng.vocabulary for tok in tokens)
        spa_oov = sum(tok not in spa.vocabulary for tok in tokens)
        assert merged_oov == sum(
            tok not in eng.vocabulary and tok not in spa.vocabulary for tok in tokens
        )
        assert merged_oov <= min(eng_oov, spa_oov)


# tokens the normalizer rewrites: case flips, elongated characters,
# repeated units, and mention, hashtag and link prefixes
TOKENS = st.builds(
    lambda prefix, runs, repeat: prefix + "".join(c * n for c, n in runs) * repeat,
    st.sampled_from(["", "", "", "@", "#", "www.", "http://"]),
    st.lists(st.tuples(st.sampled_from("aAbBoOñÑ"), st.integers(1, 4)), min_size=1, max_size=4),
    st.integers(1, 3),
)


class TestPruning:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pruning_never_changes_a_lookup(self, data):
        token = data.draw(TOKENS)
        near = candidate_forms(token) | {
            token.upper(), token.swapcase(), token.title(), strip_repeats(token), USR, URL,
        }
        vocab = data.draw(st.sets(st.sampled_from(sorted(near)))) | data.draw(
            st.sets(TOKENS, max_size=4))
        pruned = vocab & (candidate_forms(token) | set(SPECIAL_TOKENS))
        assert preprocess_token(token, vocab) == preprocess_token(token, pruned)

    def test_pruned_pipeline_matches_full(self, vec_file):
        corpus = parse_conll("HOLAAA\tO\n@ana\tO\nBarcelona\tO\nzzz\tO\n\n")
        words = ["hola", "Barcelona", "adios", "otro", "mas"]
        text = f"{len(words)} 2\n" + "".join(f"{w} 1 2\n" for w in words)
        full = merge_tables(load_vec(vec_file(text)))
        pruned = merge_tables(load_vec(vec_file(text), keep=corpus_candidate_forms(corpus)))
        out_full = preprocess_dataset(corpus, full.vocabulary)
        out_pruned = preprocess_dataset(corpus, pruned.vocabulary)
        assert [s.tokens for s in out_full] == [s.tokens for s in out_pruned]
        assert np.allclose(pruned.vectors[1], full.vectors[1])  # same UNK mean

    def test_candidate_forms_cover_replacements(self):
        assert "USR" in candidate_forms("@ana")
        assert "@ana" in candidate_forms("@ana")
        assert "URL" in candidate_forms("www.x.es")
        forms = candidate_forms("HOLAAA")
        assert {"HOLAAA", "hola", "holaaa", "Hola"} <= forms


class TestCharVocab:
    def test_contains_corpus_and_extras(self):
        ds = Dataset([TaggedSentence(["hola"])])
        cv = build_char_vocab(ds)
        for c in "hola" + "ñ¿¡" + "aZ9!":
            assert c in cv

    def test_unseen_char_maps_to_unk(self):
        ds = Dataset([TaggedSentence(["hola"])])
        cv = build_char_vocab(ds)
        assert cv.index("中") == 1

    def test_deterministic_order(self):
        a = Dataset([TaggedSentence(["abc"]), TaggedSentence(["xyz"])])
        b = Dataset([TaggedSentence(["xyz"]), TaggedSentence(["abc"])])
        chars = build_char_vocab(a).chars
        assert chars == build_char_vocab(b).chars
        assert chars[2:] == sorted(chars[2:])  # code-point order

    def test_indices_total(self):
        cv = build_char_vocab(Dataset([TaggedSentence(["ab"])]))
        idx = cv.indices("ab中")
        assert idx.shape == (3,)
        assert idx[2] == 1


class TestVocabulary:
    def test_reserved_indices(self):
        v = Vocabulary(["x", "y"])
        assert v.index(PAD_TOKEN) == 0
        assert v.index(UNK_TOKEN) == 1
        assert v.index("USR") == 2
        assert v.index("URL") == 3
        assert v.index("x") == 4

    def test_injective(self):
        v = Vocabulary(["x", "y", "x"])
        assert len(v) == 6  # duplicates collapse

    def test_raw_vocabulary_raises_without_unk(self):
        v = Vocabulary(["x"], specials=False)
        with pytest.raises(KeyError):
            v.index("missing")
