"""Reading, writing and sanity-checking of two-column IOB corpora.

File format: one token per line, optionally followed by a TAB and an IOB
tag; a blank line ends a sentence.  Tokens may contain any character
except TAB and newline (tweets bring '#', '@', '/', emoji...).  Encoding
is UTF-8 and nothing is case-folded.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import NamedTuple


class EntityCategory(enum.Enum):
    """The nine entity categories, in report order."""

    PERSON = "person"
    LOCATION = "location"
    PRODUCT = "product"
    TITLE = "title"
    ORGANIZATION = "organization"
    GROUP = "group"
    TIME = "time"
    EVENT = "event"
    OTHER = "other"

    @property
    def code(self) -> str:
        """Short code used in tag strings, e.g. ``PER`` in ``B-PER``."""
        return _CATEGORY_CODES[self]


_CATEGORY_CODES = {
    EntityCategory.PERSON: "PER",
    EntityCategory.LOCATION: "LOC",
    EntityCategory.PRODUCT: "PROD",
    EntityCategory.TITLE: "TITLE",
    EntityCategory.ORGANIZATION: "ORG",
    EntityCategory.GROUP: "GROUP",
    EntityCategory.TIME: "TIME",
    EntityCategory.EVENT: "EVENT",
    EntityCategory.OTHER: "OTHER",
}
_CODE_TO_CATEGORY = {code: cat for cat, code in _CATEGORY_CODES.items()}


class Tag(NamedTuple):
    """One IOB tag: ``O``, or ``B``/``I`` paired with a category."""

    kind: str  # "O", "B" or "I"
    category: EntityCategory | None = None

    def __str__(self) -> str:
        if self.kind == "O":
            return "O"
        return f"{self.kind}-{self.category.code}"


O = Tag("O")


def tag_from_string(s: str) -> Tag:
    """Parse a tag string; raises ValueError on anything outside the 19-tag set."""
    if s == "O":
        return O
    if len(s) > 2 and s[1] == "-" and s[0] in ("B", "I"):
        cat = _CODE_TO_CATEGORY.get(s[2:])
        if cat is not None:
            return Tag(s[0], cat)
    raise ValueError(f"malformed tag {s!r}")


def all_tags() -> list[Tag]:
    """The fixed 19-tag inventory: O first, then B/I per category in report order."""
    tags = [O]
    for cat in EntityCategory:
        tags.append(Tag("B", cat))
        tags.append(Tag("I", cat))
    return tags


TAGS = all_tags()
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


def non_utf8_line(path, newline: str | None = None) -> int:
    """The 1-based number of the first line of ``path`` that is not UTF-8,
    lines split as ``open(path, newline=newline)`` splits them."""
    # each undecodable byte becomes a lone surrogate in U+DC80..U+DCFF
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fp:
        return next(n for n, line in enumerate(fp, 1) if re.search("[\udc80-\udcff]", line))


def read_conll(path, split: str = "") -> Dataset:
    try:
        with open(path, encoding="utf-8") as fp:
            text = fp.read()
    except UnicodeDecodeError:  # text decodes in chunks: find the line
        raise ParseError(non_utf8_line(path), "not valid UTF-8") from None
    return parse_conll(text, split or str(path))


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


def dataset_stats(dataset: Dataset) -> CorpusStats:
    """Word count and per-category entity counts (shared-span convention).

    Entities are counted exactly as the scorer extracts them, so orphan
    I-spans count as entities too.
    """
    from .evaluate import extract_entities

    counts = {cat: 0 for cat in EntityCategory}
    words = 0
    for sent in dataset:
        if sent.tags is None:
            raise ValueError("dataset_stats needs a labeled dataset")
        words += len(sent)
        for span in extract_entities(sent.tags):
            counts[span.category] += 1
    return CorpusStats(sentences=len(dataset), words=words, entities=counts)


def format_stats(stats: CorpusStats) -> str:
    lines = [
        f"# Sentences{'':<6}{stats.sentences:>8}",
        f"# Words{'':<10}{stats.words:>8}",
    ]
    for cat in EntityCategory:
        lines.append(f"# {cat.value.capitalize():<15}{stats.entities[cat]:>8}")
    return "\n".join(lines) + "\n"
