"""Reading, writing and sanity-checking of two-column IOB corpora.

File format: one token per line, optionally followed by a TAB and an IOB
tag; a blank line ends a sentence.  Tokens may contain any character
except TAB and newline (tweets bring '#', '@', '/', emoji...).  Encoding
is UTF-8 and nothing is case-folded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class EntityCategory(enum.Enum):
    """The nine entity categories, in report order; each value is the
    category's code in tag strings, e.g. ``PER`` in ``B-PER``."""

    PERSON = "PER"
    LOCATION = "LOC"
    PRODUCT = "PROD"
    TITLE = "TITLE"
    ORGANIZATION = "ORG"
    GROUP = "GROUP"
    TIME = "TIME"
    EVENT = "EVENT"
    OTHER = "OTHER"


class Tag(NamedTuple):
    """One IOB tag: ``O``, or ``B``/``I`` paired with a category."""

    kind: str  # "O", "B" or "I"
    category: EntityCategory | None = None

    def __str__(self) -> str:
        if self.kind == "O":
            return "O"
        return f"{self.kind}-{self.category.value}"


O = Tag("O")


def tag_from_string(s: str) -> Tag:
    """Parse a tag string; raises ValueError on anything outside the 19-tag set."""
    if s == "O":
        return O
    if s[:2] in ("B-", "I-"):
        try:
            return Tag(s[0], EntityCategory(s[2:]))
        except ValueError:
            pass
    raise ValueError(f"malformed tag {s!r}")


# the fixed 19-tag inventory: O first, then B/I per category in report order
TAGS = [O] + [Tag(kind, cat) for cat in EntityCategory for kind in "BI"]
TAG_INDEX = {t: i for i, t in enumerate(TAGS)}


@dataclass
class TaggedSentence:
    """A tokenized sentence, with one tag per token when labeled."""

    tokens: list[str]
    tags: list[Tag] | None = None

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")
        if self.tags is not None and len(self.tags) != len(self.tokens):
            raise ValueError(
                f"{len(self.tags)} tags for {len(self.tokens)} tokens"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Dataset:
    sentences: list[TaggedSentence] = field(default_factory=list)
    split: str = ""

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    @property
    def labeled(self) -> bool:
        return bool(self.sentences) and all(s.tags is not None for s in self.sentences)


class ParseError(Exception):
    """Raised on malformed corpus files; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_conll(text: str, split: str = "") -> Dataset:
    """Parse a two-column TAB-separated document into a Dataset.

    A file is either fully labeled or fully unlabeled; mixing the two is
    rejected, as is any tag outside the 19-tag inventory.
    """
    sentences: list[TaggedSentence] = []
    tokens: list[str] = []
    tags: list[Tag] = []
    labeled: bool | None = None

    def flush():
        nonlocal tokens, tags
        if tokens:
            sentences.append(TaggedSentence(tokens, tags if labeled else None))
            tokens, tags = [], []

    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if line == "":
            flush()
            continue
        columns = line.split("\t")
        if len(columns) == 1:
            token, tag_str = columns[0], None
        elif len(columns) == 2:
            token, tag_str = columns
        else:
            raise ParseError(line_no, f"expected at most 2 columns, got {len(columns)}")
        if token == "":
            raise ParseError(line_no, "empty token")
        has_tag = tag_str is not None
        if labeled is None:
            labeled = has_tag
        elif labeled != has_tag:
            raise ParseError(
                line_no,
                "tag column present on some lines but absent on others",
            )
        tokens.append(token)
        if labeled:
            try:
                tags.append(tag_from_string(tag_str))
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
    flush()
    return Dataset(sentences, split)


def read_text(path) -> tuple[str, int | None]:
    """The UTF-8 text of the file at ``path`` and None, every line ended by
    LF as text mode ends it (CRLF and a lone CR end a line too); or, when a
    line is not UTF-8, the whole lines before it and its 1-based number."""
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        text, whole = data.decode(), True
    except UnicodeDecodeError as exc:
        text, whole = data[: exc.start].decode(), False
    if "\r" in text:  # a quick test: replace scans even when it finds nothing
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if whole:
        return text, None
    text = text[: text.rfind("\n") + 1]  # the lines before the bad one
    return text, text.count("\n") + 1


def read_conll(path, split: str = "") -> Dataset:
    text, bad = read_text(path)
    dataset = parse_conll(text, split or str(path))  # an earlier error wins
    if bad:
        raise ParseError(bad, "not valid UTF-8")
    return dataset


def write_conll(dataset: Dataset) -> str:
    """Serialize a Dataset; ``parse_conll(write_conll(d))`` recovers ``d``."""
    chunks = []
    for sent in dataset:
        if sent.tags is not None:
            lines = [f"{tok}\t{tag}" for tok, tag in zip(sent.tokens, sent.tags)]
        else:
            lines = list(sent.tokens)
        chunks.append("\n".join(lines) + "\n\n")
    return "".join(chunks)


def write_conll_file(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(write_conll(dataset))


class IobViolation(NamedTuple):
    """A structural defect in a tag sequence.

    kind 1: an O separating B-X/I-X from a following I-X of the same category
    kind 2: an I-Y immediately after B-X with X != Y
    kind 3: an I-X after O or at sentence start (orphan continuation)
    """

    kind: int
    index: int


def validate_iob(sentence: TaggedSentence) -> list[IobViolation]:
    """Report structural defects; never raises, an empty list means clean."""
    tags = sentence.tags
    if tags is None:
        raise ValueError("validate_iob needs a labeled sentence")
    violations = []
    for i, tag in enumerate(tags):
        prev = tags[i - 1] if i > 0 else O
        if tag.kind == "O":
            nxt = tags[i + 1] if i + 1 < len(tags) else O
            if (
                prev.kind in ("B", "I")
                and nxt.kind == "I"
                and nxt.category == prev.category
            ):
                violations.append(IobViolation(1, i))
        elif tag.kind == "I":
            if prev.kind == "B" and prev.category != tag.category:
                violations.append(IobViolation(2, i))
            elif prev.kind == "O":
                violations.append(IobViolation(3, i))
    return violations


@dataclass
class CorpusStats:
    sentences: int
    words: int
    entities: dict[EntityCategory, int]
    iob_defects: dict[int, int]  # validate_iob's count of each kind, 1 to 3


def dataset_stats(dataset: Dataset) -> CorpusStats:
    """Word count, per-category entity counts (shared-span convention)
    and the count of each kind of ``validate_iob`` defect.

    Entities are counted exactly as the scorer extracts them, so orphan
    I-spans count as entities too.  An untagged sentence is an error that
    names it, numbered from 1.
    """
    from .evaluate import extract_entities

    counts = {cat: 0 for cat in EntityCategory}
    defects = dict.fromkeys((1, 2, 3), 0)
    words = 0
    for i, sent in enumerate(dataset, start=1):
        if sent.tags is None:
            raise ValueError(f"sentence {i}: missing tags")
        words += len(sent)
        for span in extract_entities(sent.tags):
            counts[span.category] += 1
        for violation in validate_iob(sent):
            defects[violation.kind] += 1
    return CorpusStats(sentences=len(dataset), words=words, entities=counts, iob_defects=defects)


def format_stats(stats: CorpusStats) -> str:
    lines = [
        f"# Sentences{'':<6}{stats.sentences:>8}",
        f"# Words{'':<10}{stats.words:>8}",
    ]
    for cat in EntityCategory:
        lines.append(f"# {cat.name.capitalize():<15}{stats.entities[cat]:>8}")
    return "\n".join(lines) + "\n"
