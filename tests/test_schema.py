import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicekit.partition import ImageSize, PartitionPlan, SliceGrid, VitSpec
from slicekit.schema import (
    ContentToken,
    SchemaParseError,
    Sep,
    parse_layout,
    render_layout,
    serialize_layout,
    summary,
    token_count,
)


def nested_serialize(plan, k):
    """The nested row/column serializer that serialize_layout replaced: the reference for its item order."""
    m, n = plan.grid.cols_m, plan.grid.rows_n
    seq = [ContentToken("overview")] * k + [Sep.ROW]
    for row in range(n):
        if row > 0:
            seq.append(Sep.ROW)
        for col in range(m):
            if col > 0:
                seq.append(Sep.COL)
            seq.extend([ContentToken(f"slice-{row * m + col}")] * k)
    return seq


def run_length_render(sequence):
    """The run-length renderer that render_layout replaced: one run per block, each separator written alone."""
    parts = []
    run_block = None
    run_len = 0

    def flush():
        nonlocal run_block, run_len
        if run_len:
            parts.append(f"[{run_block}x{run_len}]")
        run_block, run_len = None, 0

    for item in sequence:
        if isinstance(item, ContentToken):
            if item.block_id != run_block:
                flush()
                run_block = item.block_id
            run_len += 1
        else:
            flush()
            parts.append("," if item is Sep.COL else "\n")
    flush()
    return "".join(parts)


def make_plan(m, n):
    return PartitionPlan(
        image=ImageSize(336 * m, 336 * n),
        vit=VitSpec(),
        grid=SliceGrid(cols_m=m, rows_n=n),
        score=0.0,
        ideal_n=m * n,
        slice_rects=(),
    )


class TestRoundTrip:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=64),
    )
    def test_parse_inverts_serialize(self, m, n, k):
        layout = parse_layout(serialize_layout(make_plan(m, n), k))
        assert (layout.cols_m, layout.rows_n) == (m, n)
        assert layout.overview_len == k
        assert layout.slice_lens == tuple((k,) * m for _ in range(n))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    def test_separator_counts(self, m, n):
        seq = serialize_layout(make_plan(m, n), 5)
        s = summary(seq)
        assert s["col_seps"] == n * (m - 1)
        assert s["row_seps"] == n - 1
        assert s["content_tokens"] == 5 * (m * n + 1)
        assert s["total_items"] == 5 * (m * n + 1) + n * (m - 1) + (n - 1) + 1

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=64),
    )
    def test_serialize_render_and_summary_equal_the_references(self, m, n, k):
        seq = serialize_layout(make_plan(m, n), k)
        assert seq == nested_serialize(make_plan(m, n), k)
        assert render_layout(seq) == run_length_render(seq)
        s = summary(seq)
        assert (s["col_seps"], s["row_seps"], s["total_items"]) == (
            sum(x is Sep.COL for x in seq), sum(x is Sep.ROW for x in seq) - 1, len(seq))

    def test_block_order_row_major(self):
        seq = serialize_layout(make_plan(2, 2), 1)
        ids = [x.block_id for x in seq if isinstance(x, ContentToken)]
        assert ids == ["overview", "slice-0", "slice-1", "slice-2", "slice-3"]


class TestTokenCount:
    def test_six_slices_64_queries(self):
        assert token_count(make_plan(2, 3), 64) == 448

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=128),
    )
    def test_matches_serialized_content(self, m, n, k):
        seq = serialize_layout(make_plan(m, n), k)
        content = sum(1 for x in seq if isinstance(x, ContentToken))
        assert token_count(make_plan(m, n), k) == content

    def test_rejects_zero_tokens(self):
        with pytest.raises(ValueError):
            serialize_layout(make_plan(1, 1), 0)


class TestParseErrors:
    def test_empty_sequence(self):
        with pytest.raises(SchemaParseError, match="missing overview block"):
            parse_layout([])

    def test_missing_slice_rows(self):
        with pytest.raises(SchemaParseError, match="missing slice rows"):
            parse_layout([ContentToken("overview")] * 3)

    def test_trailing_separator(self):
        with pytest.raises(SchemaParseError, match="ends with a separator"):
            parse_layout([ContentToken("overview"), Sep.ROW, ContentToken("slice-0"), Sep.COL])

    def test_empty_block(self):
        with pytest.raises(SchemaParseError, match="empty content block"):
            parse_layout([ContentToken("overview"), Sep.ROW, Sep.COL, ContentToken("slice-0")])

    def test_ragged_rows(self):
        seq = [
            ContentToken("overview"), Sep.ROW,
            ContentToken("slice-0"), Sep.COL, ContentToken("slice-1"), Sep.ROW,
            ContentToken("slice-2"),
        ]
        with pytest.raises(SchemaParseError, match="ragged rows at row 2"):
            parse_layout(seq)

    def test_unknown_item(self):
        with pytest.raises(SchemaParseError, match=r"^unknown sequence item 'junk' \(at sequence position 1\)$"):
            parse_layout([ContentToken("overview"), "junk"])


class TestRender:
    def test_compact_rendering(self):
        text = render_layout(serialize_layout(make_plan(2, 1), 3))
        assert text == "[overviewx3]\n[slice-0x3],[slice-1x3]"
