"""Per-row ``.vec`` reader: the reference the block-parsing
``embeddings.load_vec`` is checked against.

Each row is split on single spaces and converted with one
``np.array(parts, float64)`` call, so it accepts every number Python's
``float`` does.  Rows are summed one by one in file order, and the
located messages are those ``load_vec`` promises: the first bad row,
then the first row at which the running sum stops being finite, then
the header's row count.
"""

import numpy as np

from csner.embeddings import EmbeddingTable, VectorLoadError, Vocabulary


def load_vec_per_row(path, keep=None) -> EmbeddingTable:
    with open(path, encoding="utf-8", newline="\n") as fp:
        lines = fp.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the file's final newline ends the last row
    try:
        count, dim = map(int, lines[0].split())
    except (ValueError, IndexError):
        raise VectorLoadError("line 1: expected header 'count dim'") from None
    if dim < 1:
        raise VectorLoadError(f"line 1: dimension {dim} is not positive")
    kept = {}
    stat_sum = np.zeros(dim, dtype=np.float64)
    non_finite = None
    with np.errstate(over="ignore", invalid="ignore"):
        for line_no, line in enumerate(lines[1:], start=2):
            parts = line.removesuffix("\r").split(" ")
            if len(parts) > 1 and parts[-1] == "":
                parts.pop()
            if len(parts) - 1 != dim:
                raise VectorLoadError(
                    f"line {line_no}: expected {dim} components, got {len(parts) - 1}")
            try:
                row = np.array(parts[1:], dtype=np.float64)
            except ValueError:
                raise VectorLoadError(f"line {line_no}: non-numeric vector component") from None
            stat_sum += row
            if non_finite is None and not np.isfinite(stat_sum).all():
                non_finite = line_no
            if parts[0] not in kept and (keep is None or parts[0] in keep):
                kept[parts[0]] = row
    if non_finite is not None:
        raise VectorLoadError(f"line {non_finite}: non-finite vector component")
    if len(lines) - 1 != count:
        raise VectorLoadError(f"line 1: header declares {count} rows, file has {len(lines) - 1}")
    vectors = np.vstack(list(kept.values())) if kept else np.zeros((0, dim))
    return EmbeddingTable(Vocabulary(kept, specials=False), vectors,
                          stat_sum=stat_sum, stat_count=count)
