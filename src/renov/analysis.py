"""Representation analysis: similarity maps, correspondence scoring, LDS.

Geometric correspondence is scored as PCK@tau in token units: queries are
tokens of view A whose anchor point is visible in view B (projected depth
agrees with B's rendered depth within 2 percent); the prediction is the
argmax of cosine similarity over B's valid tokens; a hit is a prediction
within Chebyshev distance tau of the token cell containing the projection.
Semantic correspondence replaces the geometric gate with instance labels.
LDS contrasts mean cosine similarity of nearby tokens (Chebyshev distance
<= r_local, excluding self) against far tokens (distance >= r_far).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import FeatureGrid, project_points, token_anchors, view_product
from .scene import RenderedView

DEPTH_REL_TOL = 0.02
TAU, NUM_QUERIES = 1, 64  # correspondence defaults: hit radius in tokens, queries scored
R_LOCAL, R_FAR = 1, 4  # LDS defaults: Chebyshev radii of the local and the distant tokens


@dataclass(frozen=True)
class QueryRecord:
    query_cell: tuple[int, int]
    predicted_cell: tuple[int, int]
    truth_cell: tuple[int, int] | None  # token cell for geometric, None for semantic
    hit: bool


@dataclass(frozen=True)
class CorrespondenceReport:
    pck_at_tau: float
    tau_tokens: int
    num_queries: int
    per_query: tuple[QueryRecord, ...]

    def to_dict(self) -> dict:
        return {
            "pck_at_tau": self.pck_at_tau,
            "tau_tokens": self.tau_tokens,
            "num_queries": self.num_queries,
            "per_query": [
                {
                    "query_cell": list(r.query_cell),
                    "predicted_cell": list(r.predicted_cell),
                    "truth_cell": None if r.truth_cell is None else list(r.truth_cell),
                    "hit": r.hit,
                }
                for r in self.per_query
            ],
        }


def _unit_rows(tokens: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(tokens, axis=-1, keepdims=True)
    return np.where(norms > 0, tokens / np.where(norms > 0, norms, 1.0), 0.0)


def _query_norms(queries: np.ndarray, units: np.ndarray) -> list[float]:
    """The norm of each (n, C) float64 query row, checked to have the channels of the unit rows
    _unit_rows made and to be nonzero.  math.sqrt(q.dot(q)) is np.linalg.norm(q) for a 1-D q."""
    if queries.shape[1] != units.shape[-1]:
        raise InputError(f"query has {queries.shape[1]} channels, grid has {units.shape[-1]}")
    norms = [math.sqrt(q.dot(q)) for q in queries]
    if 0.0 in norms:
        raise InputError("query vector has zero norm")
    return norms


def cosine_similarity_map(query: np.ndarray, target: FeatureGrid) -> np.ndarray:
    """Cosine of one query vector against every target token; zero-norm cells score 0."""
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    units = _unit_rows(target.tokens)
    [qn] = _query_norms(query, units)
    return units @ (query[0] / qn)


def _check_queries(grid_a: FeatureGrid, grid_b: FeatureGrid, num_queries: int, tau=0) -> None:
    if num_queries < 1:
        raise InputError(f"num_queries must be >= 1, got {num_queries}")
    if tau < 0:
        raise InputError(f"tau must be >= 0, got {tau}")
    if grid_b.patch_size != grid_a.patch_size:
        raise InputError("grids must share one patch size")


def _match_queries(grid_a: FeatureGrid, grid_b: FeatureGrid, eligible: np.ndarray,
                   num_queries: int, seed: int, tau: int, judge) -> CorrespondenceReport:
    """Up to num_queries seeded draws of A's eligible flat indices, each matched to its cosine
    argmax over B's valid tokens.  judge(indices, predicted rows, predicted cols) gives the
    queries' truth cells ((n, 2) ints, or None) and hits (n bools)."""
    rng = np.random.default_rng(seed)
    n = min(num_queries, eligible.size)
    chosen = rng.choice(eligible, size=n, replace=False)
    units_b = _unit_rows(grid_b.tokens)  # once per score, not per query
    queries = grid_a.tokens.reshape(-1, grid_a.channels).take(chosen, axis=0)
    sims = np.empty((n, *grid_b.resolution))
    # per query, the (Ht, Wt)-shaped product: a flat (Ht * Wt, C) gemv rounds rows differently
    # unless Wt is a multiple of 4
    for q, qn, out in zip(queries, _query_norms(queries, units_b), sims):
        np.matmul(units_b, q / qn, out=out)
    sims = sims.reshape(n, -1)
    pred = np.argmax(np.where(grid_b.valid.reshape(-1), sims, -2.0), axis=1)  # -2: below any cosine
    pred = np.divmod(pred, grid_b.resolution[1])
    truth, hit = judge(chosen, *pred)
    cells = np.stack([*np.divmod(chosen, grid_a.resolution[1]), *pred], axis=1).tolist()
    truth = [None] * n if truth is None else map(tuple, truth.tolist())
    records = tuple(QueryRecord((qr, qc), (pr, pc), t, h)
                    for (qr, qc, pr, pc), t, h in zip(cells, truth, hit.tolist()))
    return CorrespondenceReport(int(hit.sum()) / n, tau, n, records)


def geometric_correspondence_score(
    grid_a: FeatureGrid,
    grid_b: FeatureGrid,
    view_a: RenderedView,
    view_b: RenderedView,
    tau: int = TAU,
    num_queries: int = NUM_QUERIES,
    seed: int = 0,
) -> CorrespondenceReport:
    """PCK@tau of feature matching from A into B, gated to visible queries."""
    _check_queries(grid_a, grid_b, num_queries, tau)
    p = grid_a.patch_size
    anchors, avalid = token_anchors(view_a.pointmap, p)
    cam_b = view_b.camera

    u, v, z, pvalid = project_points(anchors.reshape(-1, 3), cam_b)
    pvalid &= (avalid & grid_a.valid).reshape(-1)
    # occlusion gate: projected depth must match B's rendered depth within 2%
    pi = np.clip(np.floor(v).astype(np.int64), 0, cam_b.height - 1)
    pj = np.clip(np.floor(u).astype(np.int64), 0, cam_b.width - 1)
    d_b = view_b.depth[pi, pj]
    visible = pvalid & (d_b > 0) & (np.abs(z - d_b) <= DEPTH_REL_TOL * d_b)

    eligible = np.nonzero(visible)[0]
    if eligible.size == 0:
        raise InputError("no query token of A is visible in B")

    def judge(idx, pred_rows, pred_cols):
        truth = np.floor(np.stack([v.take(idx), u.take(idx)], axis=1) / p).astype(np.int64)
        dist = np.maximum(abs(pred_rows - truth[:, 0]), abs(pred_cols - truth[:, 1]))
        return truth, dist <= tau

    return _match_queries(grid_a, grid_b, eligible, num_queries, seed, tau, judge)


def dominant_labels(labels: np.ndarray, patch_size: int) -> np.ndarray:
    """Majority instance label per PxP patch, ties resolved to the smaller id; read-only and
    computed once per read-only label map (geometry.view_product)."""
    return view_product(_dominant_labels, labels, patch_size)


def _dominant_labels(labels: np.ndarray, patch_size: int) -> np.ndarray:
    h, w = labels.shape
    p = patch_size
    if h % p or w % p:
        raise InputError(f"label map {h}x{w} not divisible by patch size {p}")
    ht, wt = h // p, w // p
    patches = labels.reshape(ht, p, wt, p).transpose(0, 2, 1, 3).reshape(ht * wt, p * p)
    # Sort each patch so equal labels form runs in ascending id order; the first longest
    # run of a patch is its majority, ties going to the smaller id.  Memory is O(pixels).
    s = np.sort(patches, axis=1)
    new_run = np.ones(s.shape, dtype=bool)
    new_run[:, 1:] = s[:, 1:] != s[:, :-1]
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, s.size))
    row = starts // (p * p)
    row_first = np.concatenate(([0], np.cumsum(new_run.sum(axis=1))[:-1]))
    best = np.flatnonzero(lengths == np.maximum.reduceat(lengths, row_first)[row])
    first = best[np.concatenate(([True], row[best][1:] != row[best][:-1]))]
    return s.reshape(-1)[starts[first]].reshape(ht, wt).astype(np.int64)


def semantic_correspondence_score(
    grid_a: FeatureGrid,
    grid_b: FeatureGrid,
    labels_a: np.ndarray,
    labels_b: np.ndarray,
    num_queries: int = NUM_QUERIES,
    seed: int = 0,
) -> CorrespondenceReport:
    """Label-agreement PCK: a hit is an argmax cell whose dominant label matches the query's."""
    _check_queries(grid_a, grid_b, num_queries)
    p = grid_a.patch_size
    dom_a = dominant_labels(np.asarray(labels_a), p)
    dom_b = dominant_labels(np.asarray(labels_b), p)
    if dom_a.shape != grid_a.resolution or dom_b.shape != grid_b.resolution:
        raise InputError("label maps inconsistent with grid resolutions")
    eligible = np.nonzero((grid_a.valid & np.isin(dom_a, np.unique(dom_b))).reshape(-1))[0]
    if eligible.size == 0:
        raise InputError("no query token's dominant label appears in B")
    return _match_queries(grid_a, grid_b, eligible, num_queries, seed, 0,
                          lambda idx, rows, cols: (None, dom_b[rows, cols] == dom_a.take(idx)))


def lds_score(grid: FeatureGrid, r_local: int = R_LOCAL, r_far: int = R_FAR) -> float:
    """Mean(local cosine) minus mean(distant cosine), averaged over tokens.

    Local neighbours sit within Chebyshev distance r_local (self excluded),
    distant ones at distance >= r_far; only tokens with both neighbourhoods
    nonempty contribute.
    """
    if not r_far > r_local >= 1:
        raise InputError(f"need r_far > r_local >= 1, got r_local={r_local}, r_far={r_far}")
    ht, wt = grid.resolution
    if max(ht, wt) - 1 < r_far:
        raise InputError(f"grid {ht}x{wt} has no token pairs at distance >= {r_far}")
    ii, jj = np.nonzero(grid.valid)
    if ii.size == 0:
        raise InputError("grid has no valid tokens")
    units = _unit_rows(grid.tokens[ii, jj])
    cos = units @ units.T
    dist = np.maximum(
        np.abs(ii[:, None] - ii[None, :]),
        np.abs(jj[:, None] - jj[None, :]),
    )
    local = (dist <= r_local) & (dist > 0)
    far = dist >= r_far
    n_local = local.sum(axis=1)
    n_far = far.sum(axis=1)
    use = (n_local > 0) & (n_far > 0)
    if not np.any(use):
        raise InputError("no token has both a local and a distant neighbourhood")
    local_mean = (cos * local).sum(axis=1)[use] / n_local[use]
    far_mean = (cos * far).sum(axis=1)[use] / n_far[use]
    return float(np.mean(local_mean - far_mean))
