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


def _attend(q_vals: np.ndarray, t_vals: np.ndarray, params: AttentionParams) -> tuple[np.ndarray, ...]:
    """Projected queries q, projected keys k and the row-stochastic (K, T) attention weights."""
    if t_vals.shape[0] < 1:
        raise ValueError("empty slice: cross-attention needs at least one token")
    if not q_vals.shape[1] == t_vals.shape[1] == params.dim:
        raise ValueError("query/token/parameter dims do not match")
    q = q_vals @ params.w_q
    k = t_vals @ params.w_k
    return q, k, _softmax_rows((q @ k.T) * params.scale)


def attention_weights(queries: QuerySet, tokens: TokenMatrix, params: AttentionParams) -> np.ndarray:
    """Row-stochastic (K, T) attention matrix."""
    return _attend(queries.values, tokens.values, params)[2]


def cross_attention_forward(queries: QuerySet, tokens: TokenMatrix, params: AttentionParams) -> TokenMatrix:
    """softmax(Q Wq (T Wk)^T / sqrt(d)) (T Wv); output always has K rows.

    Token rows are brought into a content-based canonical order before the
    weighted sum, so permuting the input key/value pairs yields bitwise
    identical output.
    """
    t_vals = tokens.values[np.lexsort(tokens.values.T[::-1])]
    attn = _attend(queries.values, t_vals, params)[2]
    return TokenMatrix(values=attn @ (t_vals @ params.w_v))


def compress_slices(
    slice_tokens: list[TokenMatrix], queries: QuerySet, params: AttentionParams
) -> list[TokenMatrix]:
    """Compress every slice with the shared queries/parameters."""
    return [cross_attention_forward(queries, t, params) for t in slice_tokens]


def _forward_backward(
    q_vals: np.ndarray, t_vals: np.ndarray, params: AttentionParams, probe: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss sum(out * probe) and its analytic gradients."""
    scale = params.scale
    q, k, attn = _attend(q_vals, t_vals, params)
    v = t_vals @ params.w_v
    out = attn @ v
    loss = float(np.sum(out * probe))

    d_out = probe
    d_attn = d_out @ v.T
    d_v = attn.T @ d_out
    d_logits = attn * (d_attn - np.sum(d_attn * attn, axis=1, keepdims=True))
    d_q = (d_logits @ k) * scale
    d_k = (d_logits.T @ q) * scale
    grads = {
        "queries": d_q @ params.w_q.T,
        "w_q": q_vals.T @ d_q,
        "w_k": t_vals.T @ d_k,
        "w_v": t_vals.T @ d_v,
    }
    return loss, grads


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

    arrays = {
        "queries": queries.values.copy(),
        "w_q": params.w_q.copy(),
        "w_k": params.w_k.copy(),
        "w_v": params.w_v.copy(),
    }

    def loss_of(arrs: dict[str, np.ndarray]) -> float:
        p = AttentionParams(w_q=arrs["w_q"], w_k=arrs["w_k"], w_v=arrs["w_v"])
        return _forward_backward(arrs["queries"], tokens.values, p, probe)[0]

    p0 = AttentionParams(w_q=arrays["w_q"], w_k=arrays["w_k"], w_v=arrays["w_v"])
    _, analytic = _forward_backward(arrays["queries"], tokens.values, p0, probe)
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
            plus = loss_of(arrays)
            arr[idx] = orig - eps
            minus = loss_of(arrays)
            arr[idx] = orig
            numeric[idx] = (plus - minus) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), 1e-6)
        err = float(np.max(np.abs(analytic[name] - numeric) / denom))
        report[name] = err
        worst = max(worst, err)
    report["max_rel_err"] = worst
    return report
