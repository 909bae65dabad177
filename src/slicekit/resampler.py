"""Query-based token compression via single-head cross-attention.

A fixed set of K learnable queries attends over each slice's visual tokens,
producing exactly K output tokens per slice regardless of the input count.
Includes the analytic backward pass and a central finite-difference
gradient check used to verify it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TokenMatrix:
    """Real-valued (count, dim) token block."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] < 1:
            raise ValueError("token matrix must be 2D (count, dim) with dim >= 1")
        if not np.isfinite(self.values).all():
            raise ValueError("token values must be finite")

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class QuerySet:
    """K learnable query vectors of width dim."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError("queries must be a non-empty 2D (K, dim) array")
        if not np.isfinite(self.values).all():
            raise ValueError("query values must be finite")

    @property
    def count_k(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AttentionParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        d = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise ValueError(f"{name} must be square with matching dim")
            if not np.isfinite(w).all():
                raise ValueError(f"{name} must be finite")

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]

    @property
    def scale(self) -> float:
        return 1.0 / np.sqrt(self.dim)


def init_resampler(count_k: int, dim: int, seed: int) -> tuple[QuerySet, AttentionParams]:
    """Seeded pseudo-random queries and projection matrices (unit-variance / sqrt(dim))."""
    if count_k < 1 or dim < 1:
        raise ValueError(f"the resampler needs K >= 1 queries of dim >= 1, got K={count_k}, dim={dim}")
    rng = np.random.default_rng(seed)
    std = 1.0 / np.sqrt(dim)
    queries = QuerySet(values=rng.normal(0.0, std, size=(count_k, dim)))
    params = AttentionParams(
        w_q=rng.normal(0.0, std, size=(dim, dim)),
        w_k=rng.normal(0.0, std, size=(dim, dim)),
        w_v=rng.normal(0.0, std, size=(dim, dim)),
    )
    return queries, params


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    # max-subtraction keeps exp() in range; shift-invariant up to rounding
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _query_keys(queries: QuerySet, params: AttentionParams) -> np.ndarray:
    """qk = (Q Wq) Wk^T, the (K, d) map from a raw token to its K logits, shared by every block."""
    if queries.dim != params.dim:
        raise ValueError("query/token/parameter dims do not match")
    return (queries.values @ params.w_q) @ params.w_k.T


def _block_weights(qk: np.ndarray, x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Row-stochastic (K, T) weights softmax((qk X^T) / sqrt(d)) of one block's raw tokens X."""
    if x.shape[0] < 1:
        raise ValueError("empty slice: cross-attention needs at least one token")
    if x.shape[1] != params.dim:
        raise ValueError("query/token/parameter dims do not match")
    return _softmax_rows((qk @ x.T) * params.scale)


def _canonical_order(x: np.ndarray) -> np.ndarray:
    """Row order of ``np.lexsort(x.T[::-1])``: by column 0, ties broken by the next columns.

    A stable argsort of column 0 gives that order whenever column 0 has no
    tie; only a tie (``-0.0 == 0.0`` counts as one) pays for the full lexsort.
    """
    order = np.argsort(x[:, 0], kind="stable")
    first = x[order, 0]
    if (first[1:] == first[:-1]).any():
        return np.lexsort(x.T[::-1])
    return order


def attention_weights(queries: QuerySet, tokens: TokenMatrix, params: AttentionParams) -> np.ndarray:
    """Row-stochastic (K, T) attention matrix, columns in the tokens' order."""
    return _block_weights(_query_keys(queries, params), tokens.values, params)


def cross_attention_forward(queries: QuerySet, tokens: TokenMatrix, params: AttentionParams) -> TokenMatrix:
    """softmax(((Q Wq) Wk^T) X^T / sqrt(d)) X Wv, evaluated as (A X) Wv; output always has K rows.

    The same computation as one block of ``compress_slices``.
    """
    return compress_slices([tokens], queries, params)[0]


def compress_slices(
    slice_tokens: list[TokenMatrix], queries: QuerySet, params: AttentionParams
) -> list[TokenMatrix]:
    """Compress every slice with the shared queries/parameters.

    ``qk = (Q Wq) Wk^T`` is formed once per call.  Each block's T rows are
    brought into ``_canonical_order`` (so permuting its key/value pairs yields
    bitwise identical output), then weighted as A = softmax(qk X^T / sqrt(d))
    and reduced to (A X) Wv: two K*T*d products and one K*d*d product, with
    no (T, d) projection of the tokens.
    """
    qk = _query_keys(queries, params)
    out = []
    for tokens in slice_tokens:
        x = tokens.values[_canonical_order(tokens.values)]
        attn = _block_weights(qk, x, params)
        out.append(TokenMatrix(values=(attn @ x) @ params.w_v))
    return out


def _gradients(
    queries: QuerySet, tokens: TokenMatrix, params: AttentionParams, probe: np.ndarray
) -> dict[str, np.ndarray]:
    """Analytic gradients of sum(compress_slices([tokens], queries, params)[0] * probe).

    Backpropagates through qk = (Q Wq) Wk^T and (A X) Wv, the grouping the forward runs, so no (T, d)
    projection is formed.  The gradients do not depend on the token order, so the tokens are taken as given.
    """
    x = tokens.values
    qk = _query_keys(queries, params)
    attn = _block_weights(qk, x, params)
    q = queries.values @ params.w_q
    d_attn = (probe @ params.w_v.T) @ x.T
    d_logits = attn * (d_attn - np.sum(d_attn * attn, axis=1, keepdims=True))
    d_qk = (d_logits @ x) * params.scale
    d_q = d_qk @ params.w_k
    return {
        "queries": d_q @ params.w_q.T,
        "w_q": queries.values.T @ d_q,
        "w_k": d_qk.T @ q,
        "w_v": (attn @ x).T @ probe,
    }


def grad_check(
    queries: QuerySet,
    tokens: TokenMatrix,
    params: AttentionParams,
    eps: float = 1e-5,
    probe_direction: np.ndarray | None = None,
) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    Returns per-parameter relative errors plus the overall maximum under the
    key ``max_rel_err``.
    """
    if not (0.0 < eps <= 1e-3):
        raise ValueError("eps must be in (0, 1e-3]")
    probe = (
        np.ones((queries.count_k, params.dim))
        if probe_direction is None
        else np.asarray(probe_direction, dtype=np.float64)
    )

    # the finite differences perturb these copies in place, through the objects that hold them
    q = QuerySet(values=queries.values.copy())
    p = AttentionParams(w_q=params.w_q.copy(), w_k=params.w_k.copy(), w_v=params.w_v.copy())
    arrays = {"queries": q.values, "w_q": p.w_q, "w_k": p.w_k, "w_v": p.w_v}

    def loss() -> float:
        return float(np.sum(compress_slices([tokens], q, p)[0].values * probe))

    analytic = _gradients(q, tokens, p, probe)
    for g in analytic.values():
        if not np.isfinite(g).all():
            raise ValueError("non-finite analytic gradient")

    report: dict[str, float] = {}
    worst = 0.0
    for name, arr in arrays.items():
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            plus = loss()
            arr[idx] = orig - eps
            minus = loss()
            arr[idx] = orig
            numeric[idx] = (plus - minus) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), 1e-6)
        err = float(np.max(np.abs(analytic[name] - numeric) / denom))
        report[name] = err
        worst = max(worst, err)
    report["max_rel_err"] = worst
    return report
