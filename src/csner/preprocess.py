"""Token replacement and vocabulary-driven token normalization.

Twitter tokens are first rewritten by two hard rules (mentions/hashtags
to USR, links to URL) and the leftovers that miss the embedding
vocabulary are retried through four casing/de-repetition heuristics, in
a fixed order, keeping the first form that is in vocabulary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus_io import Dataset, TaggedSentence

USR = "USR"
URL = "URL"

RULE_NONE = "none"
RULE_USR = "replacement_usr"
RULE_URL = "replacement_url"
RULE_A = "heuristic_a"
RULE_B = "heuristic_b"
RULE_C = "heuristic_c"
RULE_D = "heuristic_d"
RULE_UNRESOLVED = "unresolved"

_URL_PREFIXES = ("http://", "https://", "www.")

# collapse runs of >= 3 identical characters, then adjacent repeats of
# 2- and 3-character units ("lololol" -> "lol"), looped to a fixpoint
_RUN_RE = re.compile(r"(.)\1{2,}", re.DOTALL)
_UNIT_RES = (re.compile(r"(..)\1+", re.DOTALL), re.compile(r"(...)\1+", re.DOTALL))


def replace_token(token: str) -> str:
    """Map mentions and hashtags to USR and web links to URL."""
    if not token:
        raise ValueError("empty token")
    if len(token) >= 2 and token[0] in ("@", "#"):
        return USR
    if token.lower().startswith(_URL_PREFIXES):
        return URL
    return token


def strip_repeats(token: str) -> str:
    """Collapse repeated characters and short repeated units.

    Policy (reverse-engineered from "hellooooo"->"hello" and
    "lolololol"->"lol"): any run of 3 or more identical characters
    becomes one character; adjacent repetitions of a 2- or 3-character
    unit collapse to a single copy.  Both steps loop until nothing
    changes, which makes the whole function idempotent.
    """
    while True:
        before = token
        token = _RUN_RE.sub(r"\1", token)
        for unit_re in _UNIT_RES:
            token = unit_re.sub(r"\1", token)
        if token == before:
            return token


@dataclass(frozen=True)
class NormalizedToken:
    result: str
    rule: str


def normalization_candidates(token: str) -> list[tuple[str, str]]:
    """The forms rules a-d try for ``token``, in order, each with its rule:
    (a) first character uppercased, (b) fully lowercased, (c) lowercased
    with repeats stripped, (d) form (c) with its first character
    uppercased."""
    lowered = token.lower()
    stripped = strip_repeats(lowered)
    return [
        (token[0].upper() + token[1:], RULE_A),
        (lowered, RULE_B),
        (stripped, RULE_C),
        (stripped[0].upper() + stripped[1:], RULE_D),
    ]


def normalize_token(token: str, vocab) -> NormalizedToken:
    """Rewrite an out-of-vocabulary token until some form is known.

    The ``normalization_candidates`` are tried in order; the first
    in-vocabulary candidate wins, and if all miss the token stays as is.
    """
    if token in vocab:
        return NormalizedToken(token, RULE_NONE)
    for candidate, rule in normalization_candidates(token):
        if candidate in vocab:
            return NormalizedToken(candidate, rule)
    return NormalizedToken(token, RULE_UNRESOLVED)


def preprocess_token(token: str, vocab) -> NormalizedToken:
    """Replacement followed by normalization, as one per-token record."""
    replaced = replace_token(token)
    if replaced == USR and token != USR:
        return NormalizedToken(USR, RULE_USR)
    if replaced == URL and token != URL:
        return NormalizedToken(URL, RULE_URL)
    return normalize_token(token, vocab)


def preprocess_dataset(dataset: Dataset, vocab) -> Dataset:
    """Apply both preprocessing steps to every token; tags pass through.
    Each distinct token is preprocessed once per call."""
    results: dict[str, str] = {}
    sentences = []
    for sent in dataset:
        tokens = []
        for tok in sent.tokens:
            if tok not in results:
                results[tok] = preprocess_token(tok, vocab).result
            tokens.append(results[tok])
        tags = list(sent.tags) if sent.tags is not None else None
        sentences.append(TaggedSentence(tokens, tags))
    return Dataset(sentences, dataset.split)


@dataclass
class OovReport:
    """OOV percentages over token occurrences (not unique types)."""

    all_tokens: int
    all_oov: int
    entity_tokens: int | None
    entity_oov: int | None

    @property
    def all_pct(self) -> float:
        return 100.0 * self.all_oov / self.all_tokens if self.all_tokens else 0.0

    @property
    def entity_pct(self) -> float | None:
        if self.entity_tokens is None:
            return None
        if self.entity_tokens == 0:
            return 0.0
        return 100.0 * self.entity_oov / self.entity_tokens


def oov_report(dataset: Dataset, vocab) -> OovReport:
    """Fraction of tokens missing from the vocabulary, overall and on entities.

    The entity column covers tokens whose tag is not O and is omitted for
    unlabeled data.
    """
    labeled = dataset.labeled
    all_tokens = all_oov = 0
    entity_tokens = entity_oov = 0
    for sent in dataset:
        for i, token in enumerate(sent.tokens):
            oov = token not in vocab
            all_tokens += 1
            all_oov += oov
            if labeled and sent.tags[i].kind != "O":
                entity_tokens += 1
                entity_oov += oov
    return OovReport(
        all_tokens,
        all_oov,
        entity_tokens if labeled else None,
        entity_oov if labeled else None,
    )
