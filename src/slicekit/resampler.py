"""Query-based token compression via single-head cross-attention.

A fixed set of K learnable queries attends over each slice's visual tokens,
producing exactly K output tokens per slice regardless of the input count.
Includes the analytic backward pass and a four-point finite-difference
gradient check used to verify it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arrays import read_only, require_array
from .counts import _shown, require_count, require_holder, require_real

FD_BATCH_ENTRIES = 2**20  # logit-sized entries held by one batch of grad_check's differences; bounds its memory
FD_MAX_MULTIPLY_ADDS = 10**11  # multiply-adds of grad_check's differences, counted by check_fd_work; bounds its time
MAX_EPS = 1e-3  # largest finite-difference step grad_check takes


@dataclass(frozen=True)
class TokenMatrix:
    """Real-valued (count, dim) token block."""

    values: np.ndarray

    def __post_init__(self):
        require_array("tokens", self.values, ("count", "dim"))

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class QuerySet:
    """K learnable query vectors of width dim; ``values`` is read-only, and the set hashes by identity."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", read_only(require_array("queries", self.values, ("K", "dim"))))

    @property
    def count_k(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Square projections Wq, Wk and Wv; the arrays are read-only, and the parameters hash by identity."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v"):
            w = read_only(require_array(name, getattr(self, name), ("dim", "dim")))
            object.__setattr__(self, name, w)
            if w.shape != (self.w_q.shape[0],) * 2:
                raise ValueError(f"{name} must be square with matching dim")

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]

    @property
    def scale(self) -> float:
        return 1.0 / np.sqrt(self.dim)


def init_resampler(count_k: int, dim: int, seed: int) -> tuple[QuerySet, AttentionParams]:
    """Seeded pseudo-random queries and projection matrices (unit-variance / sqrt(dim))."""
    count_k, dim = require_count("count_k", count_k, 1), require_count("dim", dim, 1)
    rng = np.random.default_rng(require_count("seed", seed, 0))
    std = 1.0 / np.sqrt(dim)

    def draw(rows: int) -> np.ndarray:  # read-only from the start, so the wrappers keep it without a copy
        a = rng.normal(0.0, std, size=(rows, dim))
        a.flags.writeable = False
        return a

    queries = QuerySet(values=draw(count_k))
    params = AttentionParams(w_q=draw(dim), w_k=draw(dim), w_v=draw(dim))
    return queries, params


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    # max-subtraction keeps exp() in range; shift-invariant up to rounding
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@functools.lru_cache(maxsize=1)
def _query_keys(queries: QuerySet, params: AttentionParams) -> np.ndarray:
    """Read-only qk = (Q Wq) Wk^T of the last pair asked for: the (K, d) map from a raw token to its K logits.

    Both arguments hash by identity and their arrays are read-only, so a cached ``qk`` cannot be stale.
    """
    if queries.dim != params.dim:
        raise ValueError("query/token/parameter dims do not match")
    qk = (queries.values @ params.w_q) @ params.w_k.T
    qk.flags.writeable = False
    return qk


def _block_weights(qk: np.ndarray, x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Row-stochastic (K, T) weights softmax((qk X^T) / sqrt(d)) of one block's raw tokens X."""
    if x.shape[1] != params.dim:
        raise ValueError("query/token/parameter dims do not match")
    return _softmax_rows((qk @ x.T) * params.scale)


def _canonical_order(x: np.ndarray) -> np.ndarray:
    """Row order of the (T, d) block ``x`` by each row's bytes, one opaque value per row.

    Rows with equal bytes are equal, so any permutation of the block gathers
    the same bytes in this order; rows that differ only in the sign of a zero
    still sort apart.  The sort holds an index of T entries; a block that is
    not C-contiguous is copied once.
    """
    rows = np.ascontiguousarray(x)
    return np.argsort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(), kind="stable")


def attention_weights(queries: QuerySet, tokens: TokenMatrix, params: AttentionParams) -> np.ndarray:
    """Row-stochastic (K, T) attention matrix, columns in the tokens' order."""
    qk = _query_keys(require_holder("queries", queries, QuerySet), require_holder("params", params, AttentionParams))
    return _block_weights(qk, require_holder("tokens", tokens, TokenMatrix).values, params)


def cross_attention_forward(queries: QuerySet, tokens: TokenMatrix, params: AttentionParams) -> TokenMatrix:
    """softmax(((Q Wq) Wk^T) X^T / sqrt(d)) X Wv, evaluated as (A X) Wv; output always has K rows.

    The same computation as one block of ``compress_slices``.
    """
    return compress_slices([require_holder("tokens", tokens, TokenMatrix)], queries, params)[0]


def compress_slices(
    slice_tokens: list[TokenMatrix], queries: QuerySet, params: AttentionParams
) -> list[TokenMatrix]:
    """Compress every slice with the shared queries/parameters.

    ``qk = (Q Wq) Wk^T`` comes from ``_query_keys``, which keeps it for the
    last parameter pair.  Each block's T rows are gathered in byte order
    (``_canonical_order``, so permuting its key/value pairs yields bitwise
    identical output) into the leading bytes of one buffer per call, then
    weighted as A = softmax(qk X^T / sqrt(d)) and reduced to (A X) Wv: two
    K*T*d products and one K*d*d product, with no (T, d) projection of the
    tokens.  Blocks are multiplied one at a time: a product of several
    stacked blocks rounds a block's rows differently from the block alone.
    """
    qk = _query_keys(require_holder("queries", queries, QuerySet), require_holder("params", params, AttentionParams))
    require_holder("slice_tokens", slice_tokens, TokenMatrix, many=True)
    gathered = np.empty(max((t.values.nbytes for t in slice_tokens), default=0), np.uint8)
    out = []
    for tokens in slice_tokens:
        values = tokens.values
        x = gathered[:values.nbytes].view(values.dtype).reshape(values.shape)
        # mode="raise" would gather into a temporary and copy it into x
        np.take(values, _canonical_order(values), axis=0, out=x, mode="clip")
        with np.errstate(over="ignore", invalid="ignore"):  # tokens that overflow a product are refused below
            block = (_block_weights(qk, x, params) @ x) @ params.w_v
        try:
            out.append(TokenMatrix(values=block))
        except ValueError:  # finite tokens give a non-finite output only where a product overflowed
            raise ValueError("tokens are too large: the resampler's products overflow float64") from None
    return out


def _gradients(queries: QuerySet, tokens: TokenMatrix, params: AttentionParams,
               probe: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic gradients of sum(compress_slices([tokens], queries, params)[0] * probe).

    Backpropagates through qk = (Q Wq) Wk^T and (A X) Wv, the grouping the forward runs, so no (T, d)
    projection is formed.  The gradients do not depend on the token order, so the tokens are taken as given.
    """
    x = tokens.values
    attn = _block_weights(_query_keys(queries, params), x, params)
    d_attn = (probe @ params.w_v.T) @ x.T
    d_logits = attn * (d_attn - np.sum(d_attn * attn, axis=1, keepdims=True))
    d_qk = (d_logits @ x) * params.scale
    d_q = d_qk @ params.w_k
    return {
        "queries": d_q @ params.w_q.T,
        "w_q": queries.values.T @ d_q,
        "w_k": d_qk.T @ (queries.values @ params.w_q),
        "w_v": (attn @ x).T @ probe,
    }


def _numeric_gradients(queries: QuerySet, tokens: TokenMatrix, params: AttentionParams,
                       probe: np.ndarray, h: float) -> dict[str, np.ndarray]:
    """Four-point differences (f(-2h) - 8f(-h) + 8f(+h) - f(+2h)) / 12h of f = sum(compress_slices(...)[0] * probe).

    On the tokens X in byte order (_canonical_order), f = sum(softmax(L) G) = sum(O P) with logits L = ((Q Wq) Wk^T)
    X^T / sqrt(d), G = (P Wv^T) X^T and output O = (A X) Wv.  A step at entry (i, j) adds step * outer(u, v) to L or
    O: u, v = e_i, ((Wq Wk^T) X^T)[j] for Q; Q[:, i], (X Wk)[:, j] for Wq; (Q Wq)[:, j], X[:, i] for Wk (each over
    sqrt(d)); (A X)[:, i], e_j for Wv.  So each perturbed f is one softmax and one weighted sum, in batches whose
    moved arrays for the four steps, with the softmax's three temporaries, hold at most FD_BATCH_ENTRIES entries.
    The softmax stays numeric: the check shares no step of _gradients' chain rule through it.
    """
    x = tokens.values[_canonical_order(tokens.values)]
    q, w_q, w_k, w_v, s = queries.values, params.w_q, params.w_k, params.w_v, params.scale
    logits = (((q @ w_q) @ w_k.T) @ x.T) * s
    ax, g = _softmax_rows(logits) @ x, (probe @ w_v.T) @ x.T
    # per array: the moved base, f of it, and u and v indexed by the entry (a, b), which for Wk is (j, i)
    moves = {"queries": (logits, g, _softmax_rows, np.eye(q.shape[0]) * s, (w_q @ w_k.T) @ x.T),
             "w_q": (logits, g, _softmax_rows, q.T * s, (x @ w_k).T),
             "w_k": (logits, g, _softmax_rows, (q @ w_q).T * s, x.T),
             "w_v": (ax @ w_v, probe, np.asarray, ax.T, np.eye(w_v.shape[1]))}
    steps = np.array([-2.0, -1.0, 1.0, 2.0])[:, None, None, None] * h
    numeric = {}
    for name, (base, weights, transform, u, v) in moves.items():
        grad = np.empty(u.shape[0] * v.shape[0])
        chunk = max(1, FD_BATCH_ENTRIES // (16 * base.size))
        for start in range(0, grad.size, chunk):
            a, b = np.divmod(np.arange(start, min(start + chunk, grad.size)), v.shape[0])
            moved = steps * (u[a][:, :, None] * v[b][:, None, :]) + base
            f = transform(moved).reshape(4, a.size, -1) @ weights.ravel()
            grad[start:start + a.size] = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
        numeric[name] = grad.reshape(u.shape[0], v.shape[0])
    numeric["w_k"] = numeric["w_k"].T
    return numeric


def check_fd_work(k: int, t: int, d: int) -> None:
    """Refuse a grad_check of K queries, T tokens and width d (each >= 1) whose work exceeds FD_MAX_MULTIPLY_ADDS."""
    # four whole forwards per perturbed entry of Q, Wq, Wk and Wv, each (Q Wq) Wk^T, qk X^T, A X and (A X) Wv: the
    # differences' former work, kept so that no refusal moves; it over-counts the rank-1 differences run now
    k, t, d = (require_count(name, value, 1) for name, value in (("k", k), ("t", t), ("d", d)))
    work = 4 * (k * d + 3 * d * d) * k * d * (3 * d + 2 * t)
    if work > FD_MAX_MULTIPLY_ADDS:
        raise ValueError(f"grad_check at K={_shown(k)}, T={_shown(t)}, d={_shown(d)} needs about "
                         f"{_shown(work, '{:.1e}'.format)} multiply-adds of finite "
                         f"differences, more than the limit of {FD_MAX_MULTIPLY_ADDS:.0e}")


def grad_check(queries: QuerySet, tokens: TokenMatrix, params: AttentionParams, eps: float = 1e-3) -> dict[str, float]:
    """Compare analytic gradients of the sum of the output against four-point finite differences with step ``eps``.

    Returns per-parameter relative errors plus the overall maximum under the key ``max_rel_err``.
    """
    require_real("eps", eps, above=0, most=MAX_EPS)
    k, t = require_holder("queries", queries, QuerySet).count_k, require_holder("tokens", tokens, TokenMatrix).count
    check_fd_work(k, t, require_holder("params", params, AttentionParams).dim)
    probe = np.ones((queries.count_k, params.dim))
    analytic = _gradients(queries, tokens, params, probe)
    for g in analytic.values():
        if not np.isfinite(g).all():
            raise ValueError("non-finite analytic gradient")
    numeric = _numeric_gradients(queries, tokens, params, probe, eps)
    report: dict[str, float] = {}
    for name, a in analytic.items():
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric[name])), 1e-6)
        report[name] = float(np.max(np.abs(a - numeric[name]) / denom))
    report["max_rel_err"] = max(report.values())
    return report
