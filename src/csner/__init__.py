"""Sequence-labeling toolkit: hierarchical BiLSTM named-entity tagging
for code-switched English-Spanish text."""

__version__ = "0.1.0"

from .corpus_io import (  # noqa: F401
    Dataset,
    EntityCategory,
    Tag,
    TaggedSentence,
    parse_conll,
    write_conll,
)
from .evaluate import EvalReport, harmonic_mean, score  # noqa: F401
from .trainer import TrainingConfig, fit, load_checkpoint, save_checkpoint  # noqa: F401
