import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import slicekit
from slicekit import resampler
from slicekit.resampler import (
    FD_BATCH_ENTRIES,
    AttentionParams,
    QuerySet,
    TokenMatrix,
    _canonical_order,
    _gradients,
    _numeric_gradients,
    _query_keys,
    _softmax_rows,
    attention_weights,
    compress_slices,
    cross_attention_forward,
    grad_check,
    init_resampler,
)

DIM = 16
TOLERANCE = 1e-4  # grad-check's default --tolerance
ENCODE_T = (576, 551, 575, 540, 300, 48, 1)  # token counts of encode blocks at K=64, d=1024
CROSS_THREAD_BOUND = 4e-15  # largest |difference| between BLAS thread counts, relative to the block's largest |entry|

# the backward's two known mistakes, applied to its output: dWk transposed, and 1/sqrt(d) dropped from d_qk,
# which scales every gradient upstream of d_qk by sqrt(d)
MUTANTS = {
    "transposed dWk": lambda g, d: {**g, "w_k": g["w_k"].T},
    "dropped scale": lambda g, d: {**g, **{k: g[k] * np.sqrt(d) for k in ("queries", "w_q", "w_k")}},
}


def setup_case(tokens, dim=DIM, k=4, seed_=0):
    queries, params = init_resampler(k, dim, seed_)
    rng = np.random.default_rng(seed_ + 1)
    return queries, params, TokenMatrix(values=rng.normal(size=(tokens, dim)))


def probe_rel_err(queries, tokens, params, probe, h=1e-5):
    """grad_check's max_rel_err along any probe: _gradients against _numeric_gradients, per entry over the larger
    |gradient| (at least 1e-6)."""
    numeric = _numeric_gradients(queries, tokens, params, probe, h)
    return max(float(np.max(np.abs(a - numeric[k]) / np.maximum(np.maximum(np.abs(a), np.abs(numeric[k])), 1e-6)))
               for k, a in _gradients(queries, tokens, params, probe).items())


def encode_blocks(tie: bool):
    """Blocks of the ENCODE_T token counts at d=1024; with ``tie``, column 0 of the 48-token block holds a tie."""
    rng = np.random.default_rng(1)
    values = [rng.normal(size=(t, 1024)) for t in ENCODE_T]
    if tie:
        values[5][1, 0] = values[5][0, 0]
    return [TokenMatrix(values=v) for v in values]


def sorted_row_bytes(values):
    """The canonical order's oracle: row indices sorted by each row's bytes, in Python."""
    return np.array(sorted(range(len(values)), key=lambda i: values[i].tobytes()), dtype=np.intp)


def reference_compress(slice_tokens, queries, params):
    """The loop compress_slices replaced: qk formed in the call, each block gathered by a fresh fancy index."""
    qk = (queries.values @ params.w_q) @ params.w_k.T
    out = []
    for tokens in slice_tokens:
        x = tokens.values[sorted_row_bytes(tokens.values)]
        out.append((_softmax_rows((qk @ x.T) * params.scale) @ x) @ params.w_v)
    return out


def reference_attention_weights(queries, tokens, params):
    qk = (queries.values @ params.w_q) @ params.w_k.T
    return _softmax_rows((qk @ tokens.values.T) * params.scale)


@pytest.fixture(scope="module")
def encode_case():
    queries, params = init_resampler(64, 1024, 0)
    return queries, params, encode_blocks(tie=True)


class TestForward:
    @pytest.mark.parametrize("t", [1, 2, 64, 576])
    def test_output_always_k_rows(self, t):
        queries, params, tokens = setup_case(t, k=7)
        out = cross_attention_forward(queries, tokens, params)
        assert out.values.shape == (7, DIM)

    def test_rows_stochastic(self):
        queries, params, tokens = setup_case(33)
        attn = attention_weights(queries, tokens, params)
        assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-12
        assert attn.min() >= 0.0

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_permutation_invariance_bitwise(self, t, perm_seed):
        queries, params, tokens = setup_case(t)
        base = cross_attention_forward(queries, tokens, params)
        perm = np.random.default_rng(perm_seed).permutation(t)
        shuffled = TokenMatrix(values=tokens.values[perm])
        out = cross_attention_forward(queries, shuffled, params)
        assert np.array_equal(base.values, out.values)

    def test_deterministic(self):
        queries, params, tokens = setup_case(20)
        a = cross_attention_forward(queries, tokens, params)
        b = cross_attention_forward(queries, tokens, params)
        assert np.array_equal(a.values, b.values)

    def test_single_token_output_is_its_projection(self):
        queries, params, tokens = setup_case(1, k=3)
        out = cross_attention_forward(queries, tokens, params)
        expect = np.tile(tokens.values @ params.w_v, (3, 1))
        assert np.max(np.abs(out.values - expect)) < 1e-12

    def test_dim_mismatch_rejected(self):
        queries, params, _ = setup_case(2)
        with pytest.raises(ValueError):
            cross_attention_forward(queries, TokenMatrix(values=np.zeros((2, DIM + 1))), params)

    def test_error_messages(self):
        queries, params, tokens = setup_case(3)
        mismatch = "^query/token/parameter dims do not match$"
        with pytest.raises(ValueError, match=mismatch):
            compress_slices([tokens], init_resampler(4, DIM + 1, 0)[0], params)
        with pytest.raises(ValueError, match=mismatch):
            attention_weights(queries, TokenMatrix(values=np.zeros((2, DIM + 1))), params)

    @pytest.mark.parametrize("t", [1, 2, 324, 551, 576])
    def test_matches_projected_key_reference(self, t):
        """Against softmax(Q Wq (X Wk)^T / sqrt(d)) (X Wv), grouped as the per-token projections read."""
        queries, params, tokens = setup_case(t, dim=64, k=64, seed_=t)
        q, x = queries.values, tokens.values
        logits = (q @ params.w_q) @ (x @ params.w_k).T / np.sqrt(64)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        ref = (e / e.sum(axis=1, keepdims=True)) @ (x @ params.w_v)
        out = compress_slices([tokens], queries, params)[0].values
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12 * np.abs(ref).max())

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_permutation_invariance_bitwise_with_ties(self, t, seed):
        """Integer tokens from a small range tie in column 0 and often repeat whole rows."""
        queries, params, _ = setup_case(2)
        rng = np.random.default_rng(seed)
        tokens = TokenMatrix(values=rng.integers(-2, 3, size=(t, DIM)).astype(np.float64))
        shuffled = TokenMatrix(values=tokens.values[rng.permutation(t)])
        base = cross_attention_forward(queries, tokens, params)
        assert np.array_equal(base.values, cross_attention_forward(queries, shuffled, params).values)

    def test_signed_zeros_in_first_column_tie(self):
        queries, params, tokens = setup_case(6)
        values = tokens.values.copy()
        values[:, 0] = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0]
        base = cross_attention_forward(queries, TokenMatrix(values=values), params)
        for perm in ([1, 0, 3, 2, 5, 4], [5, 3, 1, 4, 2, 0]):
            out = cross_attention_forward(queries, TokenMatrix(values=values[perm]), params)
            assert np.array_equal(base.values, out.values)

    def test_forms_no_projection_per_token(self):
        """Peak traced memory of one warm forward stays below 1.5x the token block (a (T, d) product adds 1x)."""
        queries, params, tokens = setup_case(2048, dim=1024, k=64)
        cross_attention_forward(queries, tokens, params)
        tracemalloc.start()
        try:
            cross_attention_forward(queries, tokens, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * tokens.values.nbytes


class TestCanonicalOrder:
    @pytest.mark.parametrize("values", [
        np.random.default_rng(0).normal(size=(50, 3)),  # no tie in column 0
        np.random.default_rng(1).integers(-2, 3, size=(50, 3)).astype(np.float64),  # many ties
        np.array([[0.0, 2.0], [-0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]]),  # 0.0 and -0.0 compare equal
        np.zeros((1, 4)),
        np.asfortranarray(np.random.default_rng(2).integers(-2, 3, size=(40, 3)).astype(np.float64)),
        np.random.default_rng(3).normal(size=(30, 5)).astype(np.float32),
    ])
    def test_equals_sorted_row_bytes(self, values):
        assert np.array_equal(_canonical_order(values), sorted_row_bytes(values))

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10**6), st.booleans(), st.booleans())
    def test_tie_breaking_equals_sorted_row_bytes(self, t, d, seed, column_0_tied, duplicates):
        """Small integers with signed zeros tie often; optionally column 0 is one value and rows repeat.

        Any permutation of the rows gathers the same bytes in the canonical order.
        """
        rng = np.random.default_rng(seed)
        values = rng.integers(-2, 3, size=(t, d)).astype(np.float64)
        values[rng.random((t, d)) < 0.3] *= -1.0  # a zero becomes -0.0, equal to 0.0 but not in bytes
        if column_0_tied:
            values[:, 0] = np.where(rng.random(t) < 0.5, 0.0, -0.0)
        if duplicates:
            values = values[rng.integers(0, t, size=t)]
        assert np.array_equal(_canonical_order(values), sorted_row_bytes(values))
        shuffled = values[rng.permutation(t)]
        assert shuffled[_canonical_order(shuffled)].tobytes() == values[_canonical_order(values)].tobytes()

    def test_a_tie_costs_memory_of_the_tied_rows_not_of_the_block(self):
        """T = 48, d = 1024 with one tie in column 0 peaks below the block's own bytes (a sort of row indices)."""
        values = np.random.default_rng(6).normal(size=(48, 1024))
        values[7, 0] = values[30, 0]
        tracemalloc.start()
        try:
            _canonical_order(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes


class TestSoftmax:
    @given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=-50, max_value=50))
    def test_shift_invariance(self, s, shift):
        logits = np.random.default_rng(s).normal(size=(3, 5))
        a = _softmax_rows(logits)
        b = _softmax_rows(logits + shift)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_handles_large_logits(self):
        out = _softmax_rows(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(0.5)


class TestCompressSlices:
    def test_shared_parameters_across_slices(self):
        queries, params, _ = setup_case(2)
        rng = np.random.default_rng(5)
        mats = [TokenMatrix(values=rng.normal(size=(t, DIM))) for t in (3, 17, 64)]
        outs = compress_slices(mats, queries, params)
        assert [o.values.shape for o in outs] == [(4, DIM)] * 3
        # each slice compressed independently with the same module
        solo = cross_attention_forward(queries, mats[1], params)
        assert np.array_equal(outs[1].values, solo.values)


class TestHotPath:
    """compress_slices keeps qk for the last parameter pair and gathers every block into one buffer per call."""

    def test_bitwise_equal_to_the_reference_loop_in_both_orders(self, encode_case):
        queries, params, blocks = encode_case
        for order in (blocks, blocks[::-1]):
            outs = compress_slices(order, queries, params)
            for out, ref in zip(outs, reference_compress(order, queries, params)):
                assert out.values.tobytes() == ref.tobytes()
        for tokens in blocks:
            expected = reference_attention_weights(queries, tokens, params)
            assert attention_weights(queries, tokens, params).tobytes() == expected.tobytes()

    def test_parameter_arrays_are_read_only_and_owned(self):
        rng = np.random.default_rng(3)
        q, w_q, w_v = rng.normal(size=(4, 8)), rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        w_k = np.asfortranarray(rng.normal(size=(8, 8)))  # the copy keeps the layout, so products round alike
        queries, params = QuerySet(values=q), AttentionParams(w_q=w_q, w_k=w_k, w_v=w_v)
        tokens = TokenMatrix(values=rng.normal(size=(5, 8)))
        before = compress_slices([tokens], queries, params)[0].values
        callers = (SimpleNamespace(values=q), SimpleNamespace(w_q=w_q, w_k=w_k, w_v=w_v, scale=params.scale))
        assert before.tobytes() == reference_compress([tokens], *callers)[0].tobytes()
        for a in (queries.values, params.w_q, params.w_k, params.w_v):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
        for a in (q, w_q, w_k, w_v):  # the caller's writable arrays were copied
            a[:] = 0.0
        assert np.array_equal(compress_slices([tokens], queries, params)[0].values, before)
        assert _query_keys(queries, params).flags.writeable is False

    def test_read_only_owned_array_kept_and_read_only_view_copied(self):
        owned = np.random.default_rng(4).normal(size=(3, 6))
        owned.flags.writeable = False
        assert QuerySet(values=owned).values is owned
        base = np.random.default_rng(5).normal(size=(3, 6))
        view = base[:]
        view.flags.writeable = False  # still writable through base
        kept = QuerySet(values=view).values
        assert kept is not view and not np.shares_memory(kept, base)
        queries, params = init_resampler(4, 8, 0)  # fresh draws are wrapped without a copy
        assert all(a.flags.owndata and not a.flags.writeable
                   for a in (queries.values, params.w_q, params.w_k, params.w_v))

    def test_pairs_hash_by_identity(self):
        (q1, p1), (q2, p2) = init_resampler(4, 8, 0), init_resampler(4, 8, 0)
        assert q1 != q2 and p1 != p2 and q1 == q1
        assert len({q1, q2, p1, p2}) == 4

    def test_a_second_pair_is_never_served_the_first_pairs_qk(self):
        rng = np.random.default_rng(6)
        blocks = [TokenMatrix(values=rng.normal(size=(t, DIM))) for t in (7, 3, 12)]
        first, second = init_resampler(4, DIM, 0), init_resampler(4, DIM, 1)
        mixed = (first[0], second[1])  # shares the first pair's queries
        for queries, params in (first, second, first, mixed, second, mixed, first):
            outs = compress_slices(blocks, queries, params)
            for out, ref in zip(outs, reference_compress(blocks, queries, params)):
                assert out.values.tobytes() == ref.tobytes()
        for seed_ in range(3):  # a pair dropped by the caller and one built in its place
            queries, params = init_resampler(4, DIM, 10 + seed_)
            expected = reference_compress(blocks, queries, params)
            assert all(np.array_equal(o.values, e) for o, e in zip(compress_slices(blocks, queries, params), expected))

    def test_one_gather_buffer_per_call(self, encode_case):
        """The traced peak stays below 1.5 largest blocks plus the outputs: a fresh gather per block holds two blocks."""
        queries, params, _ = encode_case
        blocks = encode_blocks(tie=False)
        tracemalloc.start()
        try:
            outs = compress_slices(blocks, queries, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * max(b.values.nbytes for b in blocks) + sum(o.values.nbytes for o in outs)

    def test_blocks_of_other_dtypes_and_widths_share_the_buffer(self):
        queries, params = init_resampler(3, 4, 0)
        rng = np.random.default_rng(8)
        small = TokenMatrix(values=rng.integers(-3, 4, size=(2, 4)))
        wide = TokenMatrix(values=rng.normal(size=(9, 4)).astype(np.float32))
        outs = compress_slices([wide, small], queries, params)
        for out, ref in zip(outs, reference_compress([wide, small], queries, params)):
            assert out.values.tobytes() == ref.tobytes()
        with pytest.raises(ValueError, match="^query/token/parameter dims do not match$"):
            compress_slices([wide, TokenMatrix(values=np.ones((2, 5)))], queries, params)


# runs the encode blocks once in a list, once shuffled (rows within each block and the blocks' order) and once
# block by block, and saves the three (7, 64, 1024) stacks
THREADS_CHILD = """
import sys
import numpy as np
from slicekit.resampler import TokenMatrix, compress_slices, init_resampler
rng = np.random.default_rng(2)
queries, params = init_resampler(64, 1024, 0)
blocks = [TokenMatrix(values=rng.normal(size=(t, 1024))) for t in {t}]
shuffled = [TokenMatrix(values=b.values[rng.permutation(b.count)]) for b in blocks[::-1]]
runs = (compress_slices(blocks, queries, params), compress_slices(shuffled, queries, params)[::-1],
        [compress_slices([b], queries, params)[0] for b in blocks])
np.save(sys.argv[1], np.array([[o.values for o in outs] for outs in runs]))
""".format(t=ENCODE_T)


class TestBlasThreads:
    def test_bitwise_per_thread_count_and_bounded_across_counts(self, tmp_path):
        src = str(Path(slicekit.__file__).parents[1])
        results = {}
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
            runs = []
            for attempt in range(2):
                path = tmp_path / f"threads{threads}_{attempt}.npy"
                proc = subprocess.run([sys.executable, "-c", THREADS_CHILD, str(path)],
                                      capture_output=True, text=True, env=env, timeout=120)
                assert proc.returncode == 0, proc.stderr
                runs.append(np.load(path))
            assert runs[0].tobytes() == runs[1].tobytes(), threads  # the same count twice: the same bits
            listed, shuffled, solo = runs[0]
            assert listed.tobytes() == shuffled.tobytes() == solo.tobytes(), threads
            results[threads] = listed
        for one, two in zip(results[1], results[2]):
            assert np.abs(one - two).max() <= CROSS_THREAD_BOUND * np.abs(one).max()


class TestGradCheck:
    def test_analytic_matches_finite_difference(self):
        queries, params, tokens = setup_case(8, dim=12, k=4, seed_=3)
        report = grad_check(queries, tokens, params, eps=1e-5)
        assert report["max_rel_err"] < 1e-4
        assert set(report) == {"queries", "w_q", "w_k", "w_v", "max_rel_err"}

    def test_random_probe_direction(self):
        queries, params, tokens = setup_case(5, dim=8, k=3, seed_=9)
        probe = np.random.default_rng(11).normal(size=(3, 8))
        assert probe_rel_err(queries, tokens, params, probe) < 1e-4

    @pytest.mark.parametrize("t", [1, 9])
    def test_random_probe_on_one_token_and_on_ties_in_column_0(self, t):
        queries, params, tokens = setup_case(t, dim=8, k=3, seed_=4)
        if t == 9:
            values = tokens.values.copy()
            values[:, 0] = [1.0, -1.0, 1.0, 0.0, -0.0, 0.0, 1.0, -1.0, 2.0]
            tokens = TokenMatrix(values=values)
        probe = np.random.default_rng(12).normal(size=(3, 8))
        assert probe_rel_err(queries, tokens, params, probe) < 1e-4

    def test_batched_differences_equal_per_entry_compress_slices_loop(self, monkeypatch):
        """The finite differences run the pipeline's forward: per entry and step, one compress_slices call agrees."""
        queries, params, tokens = setup_case(5, dim=4, k=2, seed_=6)
        values = tokens.values.copy()
        values[:, 0] = [1.0, -1.0, 1.0, 0.0, -0.0]  # ties in column 0, and a zero of each sign
        tokens = TokenMatrix(values=values)
        probe = np.random.default_rng(7).normal(size=(2, 4))
        h = 1e-3
        arrays = {"queries": queries.values, "w_q": params.w_q, "w_k": params.w_k, "w_v": params.w_v}
        oracle = {}
        for name, arr in arrays.items():
            oracle[name] = np.empty_like(arr)
            for idx in np.ndindex(arr.shape):
                f = []
                for step in (-2.0, -1.0, 1.0, 2.0):
                    moved = dict(arrays, **{name: arr.copy()})
                    moved[name][idx] += step * h
                    out = compress_slices([tokens], QuerySet(values=moved.pop("queries")), AttentionParams(**moved))
                    f.append(np.sum(out[0].values * probe))
                oracle[name][idx] = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
        for batch_entries in (FD_BATCH_ENTRIES, 200, 1):  # one batch per array, then several partly filled ones
            monkeypatch.setattr(resampler, "FD_BATCH_ENTRIES", batch_entries)
            batched = _numeric_gradients(queries, tokens, params, probe, h)
            for name in arrays:
                np.testing.assert_allclose(batched[name], oracle[name], rtol=0, atol=1e-9, err_msg=name)

    def test_rank_one_logits_equal_logits_of_a_perturbed_copy(self, monkeypatch):
        """Each batch's moved logits, for sampled entries of Q, Wq and Wk, are those the forward computes from a
        copy with that entry moved."""
        queries, params, tokens = setup_case(6, dim=8, k=3, seed_=5)
        moved = []
        monkeypatch.setattr(resampler, "_softmax_rows", lambda z: moved.append(z.copy()) or _softmax_rows(z))
        h = 1e-3
        _numeric_gradients(queries, tokens, params, np.ones((3, 8)), h)
        x = tokens.values[_canonical_order(tokens.values)]
        arrays = {"queries": queries.values, "w_q": params.w_q, "w_k": params.w_k}
        # after the unperturbed weights, one batch per array in this order, entries in row-major (i, j) order
        # except Wk's, which run over (j, i)
        for (name, arr), batch in zip(arrays.items(), moved[1:]):
            assert batch.shape == (4, arr.size, 3, 6)
            for i, j in np.random.default_rng(len(name)).integers(0, arr.shape, size=(6, 2)):
                entry = j * arr.shape[0] + i if name == "w_k" else i * arr.shape[1] + j
                for s, step in enumerate((-2.0, -1.0, 1.0, 2.0)):
                    copy = dict(arrays, **{name: arr.copy()})
                    copy[name][i, j] += step * h
                    logits = ((copy["queries"] @ copy["w_q"]) @ copy["w_k"].T @ x.T) * params.scale
                    np.testing.assert_allclose(batch[s, entry], logits, rtol=1e-12, atol=1e-12 * abs(logits).max(),
                                               err_msg=f"{name}[{i}, {j}] {step}h")

    def test_inputs_are_read_only_to_the_check(self):
        queries, params, tokens = setup_case(6, dim=8, k=3, seed_=2)
        arrays = (queries.values, params.w_q, params.w_k, params.w_v, tokens.values)
        before = [a.copy() for a in arrays]
        for a in arrays:
            a.flags.writeable = False  # an in-place perturbation would raise
        assert grad_check(queries, tokens, params)["max_rel_err"] < TOLERANCE
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutated_backward_fails_at_width_16(self, monkeypatch, mutant):
        queries, params, tokens = setup_case(8, dim=16, k=4)
        gradients = resampler._gradients
        monkeypatch.setattr(resampler, "_gradients", lambda *a: MUTANTS[mutant](gradients(*a), 16))
        assert grad_check(queries, tokens, params)["max_rel_err"] >= TOLERANCE

    def test_width_96_passes_in_bounded_memory_and_each_mutant_fails(self, monkeypatch):
        """One four-point evaluation at (K, T, d) = (4, 8, 96) serves the true backward and both mutants."""
        queries, params, tokens = setup_case(8, dim=96, k=4)
        real, memo = resampler._numeric_gradients, []

        def numeric_once(*args):
            if not memo:
                memo.append(real(*args))
            return memo[0]

        monkeypatch.setattr(resampler, "_numeric_gradients", numeric_once)
        tracemalloc.start()
        try:
            report = grad_check(queries, tokens, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["max_rel_err"] < TOLERANCE, report
        assert peak < 3 * FD_BATCH_ENTRIES * 8
        gradients = resampler._gradients
        for name, mutate in MUTANTS.items():
            monkeypatch.setattr(resampler, "_gradients", lambda *a, mutate=mutate: mutate(gradients(*a), 96))
            assert grad_check(queries, tokens, params)["max_rel_err"] >= TOLERANCE, name

    def test_error_messages(self):
        queries, params, tokens = setup_case(3, dim=6, k=2)
        mismatch = "^query/token/parameter dims do not match$"
        with pytest.raises(ValueError, match=mismatch):
            grad_check(queries, TokenMatrix(values=np.zeros((3, 7))), params)
        with pytest.raises(ValueError, match=mismatch):
            grad_check(init_resampler(2, 7, 0)[0], tokens, params)

    def test_backward_forms_no_projection_per_token(self):
        """Peak traced memory of the analytic gradients stays below half the token block (X Wk or X Wv adds 1x)."""
        queries, params, tokens = setup_case(4096, dim=256, k=4)
        probe = np.ones((4, 256))
        _gradients(queries, tokens, params, probe)
        tracemalloc.start()
        try:
            _gradients(queries, tokens, params, probe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * tokens.values.nbytes

    def test_work_over_the_limit_refused_before_any_finite_difference(self, monkeypatch):
        def no_differences(*args):
            raise AssertionError("ran the finite differences")
        monkeypatch.setattr(resampler, "_numeric_gradients", no_differences)
        queries, params, tokens = setup_case(8, dim=1024, k=4)
        with pytest.raises(ValueError, match=r"^grad_check at K=4, T=8, d=1024 needs about 1\.6e\+14 multiply-adds "
                                             r"of finite differences, more than the limit of 1e\+11$"):
            grad_check(queries, tokens, params)
        queries, params, tokens = setup_case(8, dim=128, k=4)  # grad-check --dim 128 (about 5 s) stays allowed
        with pytest.raises(AssertionError, match="ran the finite differences"):
            grad_check(queries, tokens, params)


class TestInit:
    def test_seeded_reproducible(self):
        q1, p1 = init_resampler(8, 32, 42)
        q2, p2 = init_resampler(8, 32, 42)
        assert np.array_equal(q1.values, q2.values)
        assert np.array_equal(p1.w_k, p2.w_k)
        q3, _ = init_resampler(8, 32, 43)
        assert not np.array_equal(q1.values, q3.values)

    @pytest.mark.parametrize("count_k, dim, message", [(0, 16, "count_k must be >= 1, got 0"),
                                                       (4, 0, "dim must be >= 1, got 0"),
                                                       (4, -3, "dim must be >= 1, got -3")],
                             ids=["0-16", "4-0", "4--3"])
    def test_init_rejects_sizes_below_one_before_drawing(self, count_k, dim, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            init_resampler(count_k, dim, 0)
