"""Separator schema for arranging compressed slice tokens into one sequence.

The overview block comes first, joined to the slice rows by a single row
separator; slice blocks within a row are joined by the column separator and
rows by the row separator.  Each separator's value is the text it renders
as: "," and a newline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby

from .counts import require_count, require_holder
from .partition import PartitionPlan


class Sep(Enum):
    COL = ","
    ROW = "\n"


@dataclass(frozen=True)
class ContentToken:
    """One token belonging to a content block ('overview' or 'slice-<i>')."""

    block_id: str


@dataclass(frozen=True)
class TokenLayout:
    cols_m: int
    rows_n: int
    overview_len: int
    slice_lens: tuple[tuple[int, ...], ...]  # rows_n tuples of cols_m lengths


class SchemaParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at sequence position {position})")


def serialize_layout(plan: PartitionPlan, tokens_per_block: int) -> list:
    """Flat item sequence: overview block, then each slice in row-major order after its separator.

    The separator before slice i is ROW when i starts a row of m slices and COL otherwise, so
    the ROW before slice 0 joins the overview; content token total is tokens_per_block * (m*n + 1).
    """
    tokens_per_block = require_count("tokens_per_block", tokens_per_block, 1)
    m = require_holder("plan", plan, PartitionPlan).grid.cols_m
    seq: list = [ContentToken("overview")] * tokens_per_block
    for i in range(plan.grid.slice_count):
        seq.append(Sep.ROW if i % m == 0 else Sep.COL)
        seq += [ContentToken(f"slice-{i}")] * tokens_per_block
    return seq


def parse_layout(sequence: list) -> TokenLayout:
    """Recover grid shape and block lengths; inverse of serialize_layout."""
    if not sequence:
        raise SchemaParseError("missing overview block", 0)

    rows: list[list[int]] = [[]]
    block_len = block_start = 0
    for pos, item in enumerate(sequence):
        if isinstance(item, ContentToken):
            block_len += 1
            continue
        if not isinstance(item, Sep):
            raise SchemaParseError(f"unknown sequence item {item!r}", pos)
        if block_len == 0:
            raise SchemaParseError("empty content block before separator", pos)
        rows[-1].append(block_len)
        block_len, block_start = 0, pos + 1
        if item is Sep.ROW:
            rows.append([])
    if block_len == 0:
        raise SchemaParseError("sequence ends with a separator", len(sequence) - 1)
    rows[-1].append(block_len)

    overview, *slice_rows = rows
    if not slice_rows:
        raise SchemaParseError("missing slice rows after overview", block_start)
    if len(overview) != 1:
        raise SchemaParseError("overview row must be a single block", 0)
    m = len(slice_rows[0])
    for i, row in enumerate(slice_rows, 1):
        if len(row) != m:
            raise SchemaParseError(f"ragged rows at row {i}", 0)
    return TokenLayout(m, len(slice_rows), overview[0], tuple(map(tuple, slice_rows)))


def token_count(plan: PartitionPlan, tokens_per_block: int) -> int:
    """Content tokens fed to the LLM: K * (slices + 1)."""
    slices = require_holder("plan", plan, PartitionPlan).grid.slice_count
    return require_count("tokens_per_block", tokens_per_block, 1) * (slices + 1)


def render_layout(sequence: list) -> str:
    """Human-readable rendering: each run of one block as [<block>x<run length>], each separator as its value."""
    parts = []
    for item, run in groupby(sequence):
        count = len(list(run))
        parts.append(item.value * count if isinstance(item, Sep) else f"[{item.block_id}x{count}]")
    return "".join(parts)


def summary(sequence: list) -> dict:
    """Counts from the parsed layout: col_seps is the n*(m-1) COL, and row_seps the n - 1 ROW between slice rows, not
    the one joining the overview, so content_tokens + col_seps + row_seps + 1 == total_items."""
    layout = parse_layout(sequence)
    m, n = layout.cols_m, layout.rows_n
    return {
        "grid": {"m": m, "n": n},
        "content_tokens": layout.overview_len + sum(map(sum, layout.slice_lens)),
        "col_seps": n * (m - 1),
        "row_seps": n - 1,
        "total_items": len(sequence),
    }
