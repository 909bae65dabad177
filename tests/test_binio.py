import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicekit.binio import (
    MAGIC,
    grid_from_bytes,
    grid_to_bytes,
    tokens_from_bytes,
    tokens_to_bytes,
)
from slicekit.cli import main
from slicekit.patches import PosEmbedGrid


class TestGridRoundTrip:
    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_bitwise_round_trip(self, rows, cols, dim, seed):
        vals = np.random.default_rng(seed).normal(size=(rows, cols, dim))
        data = grid_to_bytes(PosEmbedGrid(values=vals))
        back = grid_from_bytes(data)
        assert np.array_equal(back.values, vals)
        assert len(data) == 16 + rows * cols * dim * 8

    def test_header_layout(self):
        data = grid_to_bytes(PosEmbedGrid(values=np.zeros((2, 3, 4))))
        assert data[:4] == MAGIC
        assert int.from_bytes(data[4:8], "little") == 2
        assert int.from_bytes(data[8:12], "little") == 3
        assert int.from_bytes(data[12:16], "little") == 4


class TestErrors:
    def test_bad_magic(self):
        data = b"XXXX" + b"\x00" * 12
        with pytest.raises(ValueError, match="bad magic"):
            grid_from_bytes(data)

    def test_truncated_header(self):
        with pytest.raises(ValueError, match="truncated"):
            grid_from_bytes(b"PEG")

    def test_payload_size_mismatch(self):
        good = grid_to_bytes(PosEmbedGrid(values=np.zeros((2, 2, 2))))
        with pytest.raises(ValueError, match="size"):
            grid_from_bytes(good[:-8])


class TestTokens:
    def test_round_trip(self):
        vals = np.random.default_rng(1).normal(size=(17, 8))
        assert np.array_equal(tokens_from_bytes(tokens_to_bytes(vals)), vals)

    def test_rejects_multirow_grid(self):
        data = grid_to_bytes(PosEmbedGrid(values=np.zeros((2, 3, 4))))
        with pytest.raises(ValueError, match="single row"):
            tokens_from_bytes(data)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            tokens_to_bytes(np.zeros((2, 2, 2)))


class TestFilesAndCopies:
    """The layout's bytes are pinned by digest, and each direction copies the payload once."""

    def test_grid_and_token_files_keep_their_bytes(self):
        grid = grid_to_bytes(PosEmbedGrid(values=np.random.default_rng(7).normal(size=(3, 4, 5))))
        tokens = tokens_to_bytes(np.random.default_rng(8).normal(size=(6, 5)))
        assert hashlib.sha256(grid).hexdigest() == "40e88a1d06a591971893655c7a3f343ae1e59ac756450edfef6d0a729df4229c"
        assert hashlib.sha256(tokens).hexdigest() == "6ec8947f068795cef93197ddff0801cc7eaeac8cc4ddc848b672125043cf82f0"

    def test_interp_pe_file_keeps_its_bytes(self, tmp_path):
        """Rows 5 -> 9 and columns 3 -> 5 weigh small integers by 0, 1/2 and 1, so every product is exact."""
        values = np.arange(30, dtype=np.float64).reshape(5, 3, 2) % 7 - 3
        src, dst = tmp_path / "in.peg", tmp_path / "out.peg"
        src.write_bytes(grid_to_bytes(PosEmbedGrid(values=values)))
        assert main(["interp-pe", str(src), str(dst), "--rows", "9", "--cols", "5"]) == 0
        digest = hashlib.sha256(dst.read_bytes()).hexdigest()
        assert digest == "8d2749f640d5da10fd7adb59a809c3f756c76ef48b7e69342e0e878bff7f74d0"

    @pytest.mark.parametrize("rows", [1, 4])
    def test_reading_copies_the_payload_once(self, rows):
        """The peak stays below 1.5 payloads: the one copy, plus the finiteness check's booleans (1/8)."""
        data = grid_to_bytes(PosEmbedGrid(values=np.random.default_rng(1).normal(size=(rows, 64, 64))))
        tracemalloc.start()
        try:
            grid = grid_from_bytes(data) if rows > 1 else tokens_from_bytes(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = grid.values if rows > 1 else grid.base
        assert peak < 1.5 * (len(data) - 16)
        assert values.flags.owndata and not values.flags.writeable
        assert values.tobytes() == data[16:]

    def test_writing_tokens_copies_the_payload_once(self):
        tokens = np.random.default_rng(2).normal(size=(256, 64))
        tracemalloc.start()
        try:
            data = tokens_to_bytes(tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * tokens.nbytes
        assert data[16:] == tokens.tobytes()
