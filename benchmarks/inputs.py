"""Seeded synthetic inputs for the benchmark: code-switched tweets and
.vec files.

Nothing here imports csner; the program only ever sees the files this
module writes.

Every rate below is an assumption chosen for the benchmark, not a
statistic of a real corpus; README.md lists each one with the figures it
sets.  The only sourced number is ``LINK_LEN``: Twitter wraps every link
in a 23-character t.co URL.  Each run records the shares its inputs
actually had.

Lexicons
    English-like and Spanish-like pseudo-words built from syllables,
    ranked short-first and drawn with Zipf weights 1/(rank+2.7)**1.1.
    ``N_SHARED`` spellings belong to both languages.  Each of the nine
    entity categories has its own lexicon of capitalized names, so the
    tags are learnable and the training loss falls.

Twitter noise (per non-entity token, "zipf" style)
    mention 4%, hashtag 3%, elongation 3%, case change 3%; 20% of tweets
    end in a t.co link.  Entity names are written all lower case 10% and
    all upper case 5% of the time.  The "fresh" style used for one-tweet
    tagging draws words uniformly from the whole lexicon and raises the
    rates to mention 10%, hashtag 8%, elongation 30%, case change 30%,
    and a link in 25% of tweets, so almost every spelling is new to a
    cache keyed on spellings.

Shape
    Sentence lengths cycle through 4..20 tokens before shuffling, so
    every seed yields the same length histogram and the same padded
    batch shapes; no generated token is longer than a link.  The seed
    changes which words, entities and noise appear.
"""

from __future__ import annotations

import numpy as np

CATEGORIES = ("PER", "LOC", "PROD", "TITLE", "ORG", "GROUP", "TIME", "EVENT", "OTHER")
CATEGORY_WEIGHTS = np.array([0.28, 0.16, 0.10, 0.07, 0.11, 0.08, 0.07, 0.08, 0.05])

MIN_LEN, MAX_LEN = 4, 20
LINK_LEN = 23  # t.co links are 23 characters: "https://t.co/" + 10
N_ENGLISH, N_SPANISH, N_SHARED = 1500, 1500, 60
ENTITIES_PER_CATEGORY = 40
ZIPF_OFFSET, ZIPF_EXPONENT = 2.7, 1.1
ENTITY_START = 0.10  # chance that a position opens an entity
SWITCH = 0.15  # chance of switching language between tokens
OOV_HOLDOUT = 0.05  # lexicon words absent from every .vec file
ENTITY_LOWER, ENTITY_UPPER = 0.10, 0.05  # entity names written all lower / upper case

NOISE = {
    "zipf": {"mention": 0.04, "hashtag": 0.03, "elongation": 0.03, "case": 0.03, "link": 0.20},
    "fresh": {"mention": 0.10, "hashtag": 0.08, "elongation": 0.30, "case": 0.30, "link": 0.25},
}

_EN_ONSETS = ("b c d f g h k l m n p r s t w y th st br cl gr sh ch pl tr wh sp").split()
_EN_VOWELS = ("a e i o u ea oo ou ai").split()
_EN_CODAS = ("", "", "n", "t", "st", "ng", "ck", "ll", "r", "s", "d")
_ES_ONSETS = ("b c d f g j l ll m n ñ p qu r rr s t v z ch").split()
_ES_VOWELS = ("a e i o u á é í ó ú ue ie a o").split()
_ES_CODAS = ("", "", "", "n", "s", "r", "l")
_HANDLE_CHARS = np.array(list("abcdefghijklmnopqrstuvwxyz0123456789_"))
_LINK_CHARS = np.array(list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"))


def _pseudo_words(rng, n, onsets, vowels, codas, taken, max_len=11):
    words = []
    while len(words) < n:
        syllables = int(rng.choice([1, 2, 2, 3, 3, 4]))
        word = "".join(
            rng.choice(onsets) + rng.choice(vowels) + (rng.choice(codas) if s == syllables - 1 else "")
            for s in range(syllables)
        )
        if 2 <= len(word) <= max_len and word not in taken:
            taken.add(word)
            words.append(word)
    return sorted(words, key=len)  # short words take the frequent ranks


def _zipf_weights(n):
    w = 1.0 / (np.arange(n) + ZIPF_OFFSET) ** ZIPF_EXPONENT
    return w / w.sum()


class Lexicon:
    """Every word list the generator draws from, built from one seed."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        taken: set[str] = set()
        shared = _pseudo_words(rng, N_SHARED, _EN_ONSETS, _EN_VOWELS[:5], ("", "n", "s"), taken, 4)
        english = _pseudo_words(rng, N_ENGLISH - N_SHARED, _EN_ONSETS, _EN_VOWELS, _EN_CODAS, taken)
        spanish = _pseudo_words(rng, N_SPANISH - N_SHARED, _ES_ONSETS, _ES_VOWELS, _ES_CODAS, taken)
        self.english = shared + english
        self.spanish = shared + spanish
        self.weights = (_zipf_weights(len(self.english)), _zipf_weights(len(self.spanish)))
        self.entities: dict[str, list[list[str]]] = {}
        for cat in CATEGORIES:
            names = []
            for _ in range(ENTITIES_PER_CATEGORY):
                n_tokens = int(rng.choice([1, 1, 2, 2, 3]))
                pool = (_EN_ONSETS, _EN_VOWELS, _EN_CODAS) if rng.random() < 0.5 else (
                    _ES_ONSETS, _ES_VOWELS, _ES_CODAS)
                parts = _pseudo_words(rng, n_tokens, *pool, taken, 9)
                names.append([p[0].upper() + p[1:] for p in parts])
            self.entities[cat] = names
        self.entity_weights = _zipf_weights(ENTITIES_PER_CATEGORY)
        entity_tokens = sorted({t for names in self.entities.values() for name in names for t in name})
        held = rng.random(len(self.english) + len(self.spanish)) < OOV_HOLDOUT
        self.oov = {w for w, h in zip(self.english + self.spanish, held) if h}
        # capitalized .vec entries for 20% of the lexicon words
        self.vec_english = [w for w in self.english if w not in self.oov]
        self.vec_spanish = [w for w in self.spanish if w not in self.oov]
        caps = [w[0].upper() + w[1:] for w in self.english + self.spanish
                if w not in self.oov and rng.random() < 0.2]
        self.vec_entities = [t for t in entity_tokens if rng.random() < 0.7]
        self.vec_caps = caps
        self.taken = taken


def _elongate(rng, word):
    i = int(rng.integers(len(word)))
    out = word[: i + 1] + word[i] * int(rng.integers(3, 7)) + word[i + 1 :]
    return out[:LINK_LEN - 2]


def _recase(rng, word):
    if rng.random() < 0.5:
        return word.upper()
    return "".join(c.upper() if rng.random() < 0.5 else c for c in word)


def _handle(rng):
    return "".join(rng.choice(_HANDLE_CHARS, int(rng.integers(4, 13))))


def _link(rng):
    return "https://t.co/" + "".join(rng.choice(_LINK_CHARS, LINK_LEN - 13))


def _lengths(rng, n):
    lengths = MIN_LEN + np.arange(n) % (MAX_LEN - MIN_LEN + 1)
    return rng.permutation(lengths)


def sentences(lex: Lexicon, seed: int, n: int, style: str = "zipf", stream: int = 0):
    """``n`` tagged tweets as (tokens, tags) pairs."""
    rng = np.random.default_rng([seed, 2, stream])
    noise = NOISE[style]
    out = []
    for length in _lengths(rng, n):
        tokens, tags = [], []
        lang = int(rng.integers(2))
        while len(tokens) < length:
            room = length - len(tokens)
            if rng.random() < ENTITY_START:
                cat = CATEGORIES[rng.choice(len(CATEGORIES), p=CATEGORY_WEIGHTS)]
                name = lex.entities[cat][rng.choice(ENTITIES_PER_CATEGORY, p=lex.entity_weights)]
                if len(name) <= room:
                    case = rng.random()
                    for k, part in enumerate(name):
                        if case < ENTITY_LOWER:
                            part = part.lower()
                        elif case < ENTITY_LOWER + ENTITY_UPPER:
                            part = part.upper()
                        tokens.append(part)
                        tags.append(("B-" if k == 0 else "I-") + cat)
                    continue
            if rng.random() < SWITCH:
                lang = 1 - lang
            words = lex.english if lang == 0 else lex.spanish
            if style == "fresh":
                word = words[int(rng.integers(len(words)))]
            else:
                word = words[rng.choice(len(words), p=lex.weights[lang])]
            r = rng.random()
            if r < noise["mention"]:
                word = "@" + _handle(rng)
            elif r < noise["mention"] + noise["hashtag"]:
                word = "#" + word[0].upper() + word[1:]
            elif r < noise["mention"] + noise["hashtag"] + noise["elongation"]:
                word = _elongate(rng, word)
            elif r < sum(noise[k] for k in ("mention", "hashtag", "elongation", "case")):
                word = _recase(rng, word)
            tokens.append(word)
            tags.append("O")
        if rng.random() < noise["link"]:
            tokens[-1], tags[-1] = _link(rng), "O"
        out.append((tokens, tags))
    return out


def write_conll(path, sents, labeled: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for tokens, tags in sents:
            for token, tag in zip(tokens, tags):
                fp.write(f"{token}\t{tag}\n" if labeled else f"{token}\n")
            fp.write("\n")


def vec_words(lex: Lexicon, seed: int, lang: int, rows: int) -> list[str]:
    """The word column of one language's .vec file: that language's
    lexicon, a share of capitalized forms and entity tokens, then filler
    words the corpus never uses, up to ``rows`` entries (more if the
    lexicon alone has more)."""
    rng = np.random.default_rng([seed, 3, lang])
    base = lex.vec_english if lang == 0 else lex.vec_spanish
    words = list(base) + [w for w in lex.vec_caps if rng.random() < 0.5]
    words += [t for t in lex.vec_entities if rng.random() < 0.6]
    words = list(dict.fromkeys(words))
    taken = set(lex.taken) | set(words)
    onsets, vowels, codas = (_EN_ONSETS, _EN_VOWELS, _EN_CODAS) if lang == 0 else (
        _ES_ONSETS, _ES_VOWELS, _ES_CODAS)
    return words + _pseudo_words(rng, max(rows - len(words), 0), onsets, vowels, codas, taken, 14)


def write_vec(path, words, dim: int, seed: int) -> None:
    """Standard .vec text: 'count dim' header, one row per word.  Values
    come from a pool of pre-formatted numbers, which keeps writing fast."""
    rng = np.random.default_rng([seed, 4, len(words)])
    pool = np.array([f"{v:.4f}" for v in rng.normal(0.0, 0.5, 4096)], dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(f"{len(words)} {dim}\n")
        for word in words:
            fp.write(word + " " + " ".join(pool[rng.integers(0, 4096, dim)]) + "\n")
