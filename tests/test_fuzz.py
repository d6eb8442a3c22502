"""Byte-mutation fuzzing of the three text readers (``.vec`` files,
corpora and config files) and of checkpoints.

A small valid file takes one to three edits (insert, delete or replace
one byte), each with a piece that breaks rows, lines or the encoding.
Only the reader's own error may escape, and it must name the first bad
line in file order: an undecodable line is reported only when no line
before it has an error of its own.  A checkpoint's edits also replace
header numbers and payload words; it must fail with its own error or a
located one, or tag cleanly.
"""

import contextlib
import io
import pathlib
import re
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from csner import embeddings
from csner.cli import ConfigError, main, parse_config_file
from csner.corpus_io import TAGS, ParseError, parse_conll, read_conll
from csner.embeddings import VectorLoadError, load_vec
from csner.trainer import CheckpointError, load_checkpoint, predict_dataset, restore_model

from vec_reference import load_vec_per_row

PIECES = (b"\r", b"\n", b" ", b"\xe9", b"nan", b"1e309")

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def mutated(draw, base: bytes, pieces=PIECES) -> bytes:
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        piece = b"" if edit == "delete" else draw(st.sampled_from(pieces))
        data[at : at + (edit != "insert")] = piece
    return bytes(data)


def outcome(read, *args, **kwargs):
    """What ``read`` returns, or the message of the csner error it raises."""
    try:
        return read(*args, **kwargs)
    except (VectorLoadError, ParseError, ConfigError) as exc:
        return str(exc)


def first_undecodable(lines) -> int | None:
    """The 1-based number of the first of ``lines`` that is not UTF-8."""
    for n, line in enumerate(lines, 1):
        try:
            line.decode()
        except UnicodeDecodeError:
            return n
    return None


def text_mode_lines(path) -> list[str]:
    """The lines of ``path`` as text mode splits them, each undecodable
    byte a lone surrogate in U+DC80..U+DCFF."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fp:
        return fp.readlines()


def first_undecodable_text_line(lines) -> int | None:
    return next((n for n, line in enumerate(lines, 1)
                 if any("\udc80" <= c <= "\udcff" for c in line)), None)


def table_bits(table):
    if isinstance(table, str):
        return table
    return (table.vocabulary.tokens, table.vectors.tobytes(), table.stat_sum.tobytes(),
            table.stat_count)


# FastText's layout: a count/dim header, rows ending in a space, a repeated word
VEC = b"5 3\na 1 0.5 -2 \nb 0 1e-3 3 \nc 7 8 9\na 1 1 1 \nd -0 2.5e2 4 \n"


@FUZZ
@given(data=mutated(VEC), keep=st.sampled_from([None, {"a", "c"}]))
def test_vec_reader_matches_reference_under_mutation(tmp_path, monkeypatch, data, keep):
    # blocks of a row or two, so that edits cross block boundaries
    monkeypatch.setattr(embeddings, "_BLOCK_BYTES", 24)
    path = tmp_path / "m.vec"
    path.write_bytes(data)
    got = table_bits(outcome(load_vec, path, keep=keep))
    lines = data.split(b"\n")
    bad = first_undecodable(lines)
    if bad is None:
        assert got == table_bits(outcome(load_vec_per_row, path, keep=keep))
        return
    want = f"line {bad}: not valid UTF-8"
    if bad > 1:
        # a header or row error before the bad line wins; the row count and
        # a non-finite sum are checked only once the whole file is read
        path.write_bytes(b"\n".join(lines[: bad - 1]) + b"\n")
        before = outcome(load_vec_per_row, path)
        if isinstance(before, str) and "non-finite" not in before and "declares" not in before:
            want = before
    assert got == want


CORPUS = "Ana\tB-PER\nGarcía\tI-PER\nva\tO\n\n@ana\tO\nhttp://t.co\tO\n\n".encode()


def sentences(dataset):
    if isinstance(dataset, str):
        return dataset
    return [(s.tokens, s.tags) for s in dataset]


@FUZZ
@given(data=mutated(CORPUS, PIECES + (b"\t",)))
def test_corpus_reader_reports_the_first_bad_line(tmp_path, data):
    path = tmp_path / "m.conll"
    path.write_bytes(data)
    got = sentences(outcome(read_conll, path))
    lines = text_mode_lines(path)
    bad = first_undecodable_text_line(lines)
    before = lines if bad is None else lines[: bad - 1]
    want = sentences(outcome(parse_conll, "".join(before)))
    if bad is not None and not isinstance(want, str):
        want = f"line {bad}: not valid UTF-8"
    assert got == want


CONFIG = b"# settings\nseed = 3\nlr0 = 0.01  # rate\nno_post = yes\nout = pred.conll\n"


@FUZZ
@given(data=mutated(CONFIG, PIECES + (b"=", b"#")))
def test_config_reader_reports_the_first_bad_line(tmp_path, data):
    path = tmp_path / "m.cfg"
    path.write_bytes(data)
    got = outcome(parse_config_file, path)
    lines = text_mode_lines(path)
    bad = first_undecodable_text_line(lines)
    if bad is None:
        return  # only ConfigError escaped
    # the same reader on the lines before the bad one, which all decode
    path.write_text("".join(lines[: bad - 1]), encoding="utf-8")
    want = outcome(parse_config_file, path)
    if not isinstance(want, str):
        want = f"{path}:{bad}: not valid UTF-8"
    assert got == want


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    if code == 0:
        assert "error:" not in err
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@settings(FUZZ, max_examples=60)
@given(data=mutated(CORPUS, PIECES + (b"\t",)))
def test_stats_exits_cleanly_on_a_mutated_corpus(tmp_path, data):
    path = tmp_path / "m.conll"
    path.write_bytes(data)
    assert_clean_exit(*run_cli(["stats", str(path)]))


@settings(FUZZ, max_examples=60)
@given(data=mutated(CONFIG, PIECES + (b"=", b"#")))
def test_predict_exits_cleanly_on_a_mutated_config(tmp_path, data):
    # the config names no checkpoint: a config that parses still ends in a
    # one-line error, after every path check and before any model is read
    path = tmp_path / "m.cfg"
    path.write_bytes(data)
    corpus = tmp_path / "in.conll"
    corpus.write_text("mira\n\n")
    assert_clean_exit(*run_cli(["predict", str(corpus), "--config", str(path)]))


CHECKPOINT = (pathlib.Path(__file__).parent / "data" / "checkpoint_f32.ck").read_bytes()
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e-?\d+)?")
# what a header number may become: out of int and float range, fractional,
# negative, zero, NaN
VALUES = (b"1e309", b"1.5", b"-1", b"0", b"99999999999999999999", b"NaN")
# little-endian float32 words: NaN, infinity, finite but overflowing, a
# denormal; and bytes that break a vocabulary entry's length or UTF-8
WORDS = (b"\x00\x00\xc0\x7f", b"\x00\x00\x80\xff", b"\xff\xff\x7f\x7f", b"\x01\x00\x00\x00",
         b"\xff\xff\xff\xff", b"\xe9")
SENTENCE = parse_conll("Jose\nva\na\n@user\nMadrid!\n\n")


def apply_edits(edits) -> bytes:
    """``checkpoint_f32.ck`` with each (start, end, piece) edit applied in
    turn: bytes [start, end) become piece."""
    data = bytearray(CHECKPOINT)
    for start, end, piece in edits:
        data[start:end] = piece
    return bytes(data)


@st.composite
def checkpoint_edits(draw) -> list:
    """One to three edits of ``checkpoint_f32.ck``: a byte edit of the
    header, a header number or one of the meta block's numbers replaced,
    or a word of the payload overwritten in place."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        data = apply_edits(edits)
        header_end = data.find(b"\nend\n")
        if header_end < 0:
            header_end = len(data)
        meta = data.find(b"\nmeta ")
        kind = draw(st.sampled_from(("bytes", "number", "meta", "payload")))
        if kind == "bytes":
            at = draw(st.integers(0, header_end))
            edit = draw(st.sampled_from(("insert", "delete", "replace")))
            piece = b"" if edit == "delete" else draw(st.sampled_from(PIECES))
            edits.append((at, at + (edit != "insert"), piece))
        elif kind == "payload":
            at = draw(st.integers(header_end, len(data)))
            edits.append((at, at + 4, draw(st.sampled_from(WORDS))))
        else:  # a meta line an earlier edit broke leaves the whole header
            lo, hi = ((meta, data.find(b"\n", meta + 1)) if kind == "meta" and meta >= 0
                      else (0, header_end))
            spans = [m.span() for m in NUMBER.finditer(data, lo, hi)]
            if spans:
                edits.append((*draw(st.sampled_from(spans)), draw(st.sampled_from(VALUES))))
    return edits


@settings(FUZZ, max_examples=250)
@given(edits=checkpoint_edits())
def test_mutated_checkpoint_loads_tags_or_fails_located(tmp_path, edits):
    # a checkpoint error, a located tagging error, or tags: never another
    # exception or a numpy warning
    path = tmp_path / "m.ck"
    path.write_bytes(apply_edits(edits))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            tags = predict_dataset(restore_model(load_checkpoint(path)), SENTENCE, 64, SENTENCE)
        except CheckpointError:
            return
        except ValueError as exc:
            assert re.match(r"sentence 1: the model's tag scores are not finite", str(exc))
            return
    assert len(tags) == 1 and len(tags[0]) == 5 and set(tags[0]) <= set(TAGS)
