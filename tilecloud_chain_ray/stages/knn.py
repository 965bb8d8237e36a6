"""kNN / similarity search over embedding columns (SURVEY.md J4).

* ``knn_brute``   — exact top-k cosine: the query matrix is broadcast
  once (``ray.put``), each batch computes a (batch x queries) matmul
  and emits its local top-k partials; a tiny ``groupby(query)``
  merge produces the global top-k.  Scales: the shuffle moves only
  ``O(n_batches * k * n_queries)`` rows.
* ``knn_cell``    — candidate-restricted variant: per-cell bucketing of
  points + ``grid_disk`` rings around each query cell (the IVF-style
  scale path for spatial kNN on geocoded rows).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from tilecloud_chain_ray.functions.cells import cell_decode, grid_disk
from tilecloud_chain_ray.util import hash_group_blocks, vecs_from_arrow


def _merge_topk(partials: ray.data.Dataset, key_col: str, k: int) -> ray.data.Dataset:
    """Global per-query top-k over the local-top-k partials, shared by
    every ANN variant.  One task-exchange pass (util.hash_group_blocks
    — no sort-groupby, so no schema-less empty bundles) whose kernel
    merges EVERY query_id co-located in its hash partition in one
    vectorized sort: score descending, ``key_col`` ascending tie-break,
    rank 1..k — identical semantics to the per-group pandas merge it
    replaces."""

    def merge(batch: pa.Table) -> pa.Table:
        if "query_id" not in batch.column_names:
            return batch  # zero-column probe of an input with no blocks
        df = batch.to_pandas()
        df = df.sort_values(
            ["query_id", "score", key_col], ascending=[True, False, True]
        )
        out = df.groupby("query_id", sort=False).head(k).reset_index(drop=True)
        out["rank"] = (
            out.groupby("query_id", sort=False).cumcount().to_numpy(dtype=np.int64) + 1
        )
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(
            None
        )

    return hash_group_blocks(partials, ["query_id"], merge)


def knn_brute(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 5,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    query_ids: np.ndarray | None = None,
    metric: str = "cosine",
) -> ray.data.Dataset:
    """Exact top-k neighbors of each query row; result columns
    (query_id, vec_id, score, rank) with rank 1..k by descending score,
    ties broken by ascending vec_id (deterministic)."""
    queries = np.asarray(queries, dtype=np.float64)
    if query_ids is None:
        query_ids = np.arange(len(queries))
    if metric == "cosine":
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True).clip(1e-12)
    else:
        qn = queries
    q_ref = ray.put((qn, np.asarray(query_ids)))

    def local_topk(batch: pa.Table) -> pa.Table:
        q, qids = ray.get(q_ref)
        vecs = vecs_from_arrow(batch[vec_col], np.float64)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        if metric == "cosine":
            vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True).clip(1e-12)
            scores = vecs @ q.T  # (n, nq)
        else:  # negative euclidean distance as score
            d2 = ((vecs[:, None, :] - q[None, :, :]) ** 2).sum(-1)
            scores = -np.sqrt(d2)
        kk = min(k, len(keys))
        out_q, out_key, out_score = [], [], []
        for j in range(q.shape[0]):
            col = scores[:, j]
            idx = np.argpartition(-col, kk - 1)[:kk]
            out_q.extend([qids[j]] * kk)
            out_key.extend(keys[idx].tolist())
            out_score.extend(col[idx].tolist())
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(out_q, pa.int64()),
                key_col: pa.array(out_key, pa.int64()),
                "score": pa.array(out_score, pa.float64()),
            }
        )

    partials = ds.map_batches(local_topk, batch_format="pyarrow")

    return _merge_topk(partials, key_col, k)


def knn_lsh(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 5,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    query_ids: np.ndarray | None = None,
    n_planes: int = 10,
    probe_hamming: int = 1,
    seed: int = 23,
) -> ray.data.Dataset:
    """Approximate top-k cosine via random-hyperplane LSH buckets — the
    IVF-style scale path for similarity search.

    Vectors bucket by the sign pattern of ``n_planes`` seeded
    hyperplanes; each query probes its own bucket plus every bucket
    within ``probe_hamming`` bit flips (multi-probe).  Scoring then runs
    only on candidate rows: the per-batch filter drops non-candidates
    *before* any matmul, so compute scales with the probed fraction
    (~``sum_i C(n_planes, i) / 2**n_planes``), trading recall for
    throughput — measure recall against :func:`knn_brute` (see
    tests).  Same output schema as ``knn_brute``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if query_ids is None:
        query_ids = np.arange(len(queries))
    rng = np.random.default_rng(seed)
    # plane count independent of input dim is resolved lazily per batch;
    # draw for the query dim (must match the data dim)
    planes = rng.standard_normal((queries.shape[1], n_planes))
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True).clip(1e-12)
    q_codes = ((qn @ planes) > 0).astype(np.uint32)
    q_code_ints = (q_codes << np.arange(n_planes, dtype=np.uint32)[None, :]).sum(axis=1)

    # multi-probe ring: all codes within probe_hamming flips of any query
    probe: set[int] = set()
    for code in q_code_ints.tolist():
        probe.add(int(code))
        if probe_hamming >= 1:
            for b in range(n_planes):
                c1 = code ^ (1 << b)
                probe.add(int(c1))
                if probe_hamming >= 2:
                    for b2 in range(b + 1, n_planes):
                        probe.add(int(c1 ^ (1 << b2)))
    shared = ray.put((planes, qn, np.asarray(query_ids), np.array(sorted(probe), dtype=np.int64)))

    def local_topk(batch: pa.Table) -> pa.Table:
        pl, q, qids, probe_codes = ray.get(shared)
        vecs = vecs_from_arrow(batch[vec_col], np.float64)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True).clip(1e-12)
        codes = ((vn @ pl) > 0).astype(np.uint32)
        code_ints = (codes << np.arange(pl.shape[1], dtype=np.uint32)[None, :]).sum(axis=1)
        cand = np.isin(code_ints.astype(np.int64), probe_codes)
        if not cand.any():
            return pa.Table.from_pydict(
                {
                    "query_id": pa.array([], pa.int64()),
                    key_col: pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        vn = vn[cand]
        keys = keys[cand]
        scores = vn @ q.T
        kk = min(k, len(keys))
        out_q, out_key, out_score = [], [], []
        for j in range(q.shape[0]):
            col = scores[:, j]
            idx = np.argpartition(-col, kk - 1)[:kk] if kk < len(col) else np.arange(len(col))
            out_q.extend([qids[j]] * len(idx))
            out_key.extend(keys[idx].tolist())
            out_score.extend(col[idx].tolist())
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(out_q, pa.int64()),
                key_col: pa.array(out_key, pa.int64()),
                "score": pa.array(out_score, pa.float64()),
            }
        )

    partials = ds.map_batches(local_topk, batch_format="pyarrow")

    return _merge_topk(partials, key_col, k)


def spherical_kmeans(
    vectors: np.ndarray, n_lists: int, iters: int = 10, seed: int = 5
) -> np.ndarray:
    """Spherical k-means (assign by max dot product on normalized
    vectors, recenter = normalized mean) — the IVF coarse quantizer.
    Deterministic for a given seed; runs on a SAMPLE (standard
    IVF practice: training needs thousands of vectors, not the corpus).
    """
    v = np.asarray(vectors, dtype=np.float64)
    v = v / np.linalg.norm(v, axis=1, keepdims=True).clip(1e-12)
    rng = np.random.default_rng(seed)
    n_lists = min(n_lists, len(v))
    cent = v[rng.choice(len(v), n_lists, replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(v @ cent.T, axis=1)
        for j in range(n_lists):
            members = v[assign == j]
            if len(members):
                m = members.sum(axis=0)
                norm = np.linalg.norm(m)
                if norm > 1e-12:
                    cent[j] = m / norm
    return cent


def knn_ivf(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 5,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    query_ids: np.ndarray | None = None,
    n_lists: int = 16,
    nprobe: int = 4,
    train_sample: int = 4096,
    seed: int = 5,
) -> ray.data.Dataset:
    """Approximate top-k cosine via an IVF index (coarse k-means
    quantizer + probed inverted lists) — the FAISS-style scale path.

    Train: spherical k-means on a bounded driver-side sample
    (``ds.limit(train_sample)``).  Broadcast: centroids + the per-query
    probe sets (each query's ``nprobe`` nearest centroids).  Scan: each
    batch assigns its vectors to their nearest centroid (one matmul)
    and scores a row only against queries probing that row's list —
    compute scales with ``nprobe / n_lists``.  Recall < 1 by
    construction; measure against :func:`knn_brute` (see tests).
    Output schema identical to ``knn_brute``.
    """
    from tilecloud_chain_ray.stages.curation import hash_sample_rows

    queries = np.asarray(queries, dtype=np.float64)
    if query_ids is None:
        query_ids = np.arange(len(queries))
    # layout-independent bottom-n-by-hash sample: limit() would train
    # the quantizer on the FIRST input files only — biased centroids
    # and silent recall loss on a source/date-sorted corpus
    train_tbl = hash_sample_rows(ds, train_sample, key_col, cols=[vec_col])
    train = vecs_from_arrow(train_tbl[vec_col], np.float64)
    cent = spherical_kmeans(train, n_lists=n_lists, seed=seed)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True).clip(1e-12)
    nprobe = min(nprobe, len(cent))
    # (nq, nprobe) probed list ids per query
    q_probes = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]
    # list id -> query indexes probing it
    probes_by_list: dict[int, np.ndarray] = {
        int(l): np.flatnonzero((q_probes == l).any(axis=1))
        for l in np.unique(q_probes)
    }
    shared = ray.put((cent, qn, np.asarray(query_ids), probes_by_list))

    def local_topk(batch: pa.Table) -> pa.Table:
        c, q, qids, by_list = ray.get(shared)
        vecs = vecs_from_arrow(batch[vec_col], np.float64)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True).clip(1e-12)
        lists = np.argmax(vn @ c.T, axis=1)
        out_q, out_key, out_score = [], [], []
        for l, q_idx in by_list.items():
            mask = lists == l
            if not mask.any():
                continue
            sub = vn[mask]
            sub_keys = keys[mask]
            scores = sub @ q[q_idx].T  # (n_l, len(q_idx))
            kk = min(k, len(sub_keys))
            for col_i, j in enumerate(q_idx):
                col = scores[:, col_i]
                idx = (
                    np.argpartition(-col, kk - 1)[:kk]
                    if kk < len(col)
                    else np.arange(len(col))
                )
                out_q.extend([qids[j]] * len(idx))
                out_key.extend(sub_keys[idx].tolist())
                out_score.extend(col[idx].tolist())
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(out_q, pa.int64()),
                key_col: pa.array(out_key, pa.int64()),
                "score": pa.array(out_score, pa.float64()),
            }
        )

    partials = ds.map_batches(local_topk, batch_format="pyarrow")

    return _merge_topk(partials, key_col, k)


def _kmeans(x: np.ndarray, n_codes: int, iters: int = 12, seed: int = 9) -> np.ndarray:
    """Plain (non-spherical) k-means for PQ sub-codebooks: assign by
    min L2, recenter = mean.  Deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    n_codes = min(n_codes, len(x))
    cent = x[rng.choice(len(x), n_codes, replace=False)].copy()
    for _ in range(iters):
        d = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d, axis=1)
        for j in range(n_codes):
            members = x[assign == j]
            if len(members):
                cent[j] = members.mean(axis=0)
    return cent


def knn_ivf_pq(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    k: int = 5,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    query_ids: np.ndarray | None = None,
    n_lists: int = 16,
    nprobe: int = 4,
    m_sub: int = 8,
    n_codes: int = 64,
    rerank: int = 4,
    train_sample: int = 4096,
    seed: int = 5,
) -> ray.data.Dataset:
    """IVF-PQ approximate top-k cosine: coarse inverted lists plus
    product-quantized scoring (the FAISS IVF,PQ memory path — at
    10^12 rows the float vectors don't fit anywhere; PQ codes are
    ``m_sub`` bytes/vector and scoring is table lookups), with exact
    re-ranking of the ADC candidate list (the FAISS ``refine`` step:
    ADC error swamps within-cluster margins, so the top ``rerank*k``
    ADC candidates are re-scored against their true vectors — a tiny
    matmul over candidates only; at deployment scale this is the
    fetch-full-vectors-for-candidates step).

    * Train (bounded driver sample): spherical k-means coarse
      quantizer; PQ codebooks are trained on the RESIDUALS
      ``x - centroid[list(x)]`` (the standard IVF-PQ trick — raw-vector
      codes waste all resolution on the global layout and cannot
      separate near-identical within-cluster neighbors).
    * Broadcast: centroids, residual codebooks, each query's ADC table
      ``T[q, sub, code] = q_sub . codebook[sub, code]`` and the
      per-(query, list) offsets ``q . centroid[l]`` — the score
      decomposes as ``q.x ~ q.c_l + sum_sub T[q, sub, code_sub]``: a
      pure gather + constant, no float-vector math per row.
    * Scan: assign batch rows to lists (one matmul), PQ-encode the
      residuals (one matmul per subspace), gather + sum ADC rows for
      the queries probing each list, then exact-re-rank the top
      ``rerank*k`` ADC candidates.  Approximate by construction —
      measure recall against :func:`knn_brute`.

    Output schema identical to ``knn_brute`` (scores are the ADC
    approximations).
    """
    from tilecloud_chain_ray.stages.curation import hash_sample_rows

    queries = np.asarray(queries, dtype=np.float64)
    if query_ids is None:
        query_ids = np.arange(len(queries))
    # unbiased sampled training — see knn_ivf
    train_tbl = hash_sample_rows(ds, train_sample, key_col, cols=[vec_col])
    train = vecs_from_arrow(train_tbl[vec_col], np.float64)
    train = train / np.linalg.norm(train, axis=1, keepdims=True).clip(1e-12)
    dim = train.shape[1]
    if dim % m_sub:
        raise ValueError(f"dim {dim} not divisible by m_sub {m_sub}")
    sub_d = dim // m_sub
    cent = spherical_kmeans(train, n_lists=n_lists, seed=seed)
    # residual codebooks (IVF-PQ proper)
    train_res = train - cent[np.argmax(train @ cent.T, axis=1)]
    books = np.stack(
        [
            _kmeans(train_res[:, s * sub_d : (s + 1) * sub_d], n_codes, seed=seed + s)
            for s in range(m_sub)
        ]
    )  # (m_sub, n_codes, sub_d)

    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True).clip(1e-12)
    # ADC tables over residual codebooks: (nq, m_sub, n_codes)
    adc = np.stack(
        [qn[:, s * sub_d : (s + 1) * sub_d] @ books[s].T for s in range(m_sub)], axis=1
    )
    q_cent = qn @ cent.T  # per-(query, list) offsets
    nprobe = min(nprobe, len(cent))
    q_probes = np.argsort(-q_cent, axis=1)[:, :nprobe]
    probes_by_list: dict[int, np.ndarray] = {
        int(l): np.flatnonzero((q_probes == l).any(axis=1))
        for l in np.unique(q_probes)
    }
    shared = ray.put((cent, books, adc, q_cent, qn, np.asarray(query_ids), probes_by_list))

    def local_topk(batch: pa.Table) -> pa.Table:
        c, bk, tables, q_off, q_true, qids, by_list = ray.get(shared)
        vecs = vecs_from_arrow(batch[vec_col], np.float64)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True).clip(1e-12)
        lists = np.argmax(vn @ c.T, axis=1)
        res = vn - c[lists]
        n_sub, sd = bk.shape[0], bk.shape[2]
        # PQ-encode the batch residuals: codes (n, m_sub)
        codes = np.empty((len(vn), n_sub), dtype=np.int64)
        for s in range(n_sub):
            sub = res[:, s * sd : (s + 1) * sd]
            # min L2 == max (dot - ||c||^2/2)
            d = sub @ bk[s].T - 0.5 * (bk[s] ** 2).sum(axis=1)
            codes[:, s] = np.argmax(d, axis=1)
        out_q, out_key, out_score = [], [], []
        sub_idx = np.arange(n_sub)
        for l, q_idx in by_list.items():
            mask = lists == l
            if not mask.any():
                continue
            sub_codes = codes[mask]  # (n_l, m_sub)
            sub_keys = keys[mask]
            # scores (n_l, len(q_idx)): gather ADC entries and sum subspaces
            t = tables[q_idx]  # (nq_l, m_sub, n_codes)
            scores = t[:, sub_idx[None, :], sub_codes[:, :]].sum(axis=2).T
            scores = scores + q_off[q_idx, l][None, :]  # + q . centroid_l
            sub_vn = vn[mask]
            n_cand = min(rerank * k, len(sub_keys))
            kk = min(k, len(sub_keys))
            for col_i, j in enumerate(q_idx):
                col = scores[:, col_i]
                cand = (
                    np.argpartition(-col, n_cand - 1)[:n_cand]
                    if n_cand < len(col)
                    else np.arange(len(col))
                )
                # exact re-rank of the ADC candidates
                exact = sub_vn[cand] @ q_true[j]
                sel = (
                    np.argpartition(-exact, kk - 1)[:kk]
                    if kk < len(cand)
                    else np.arange(len(cand))
                )
                out_q.extend([qids[j]] * len(sel))
                out_key.extend(sub_keys[cand[sel]].tolist())
                out_score.extend(exact[sel].tolist())
        return pa.Table.from_pydict(
            {
                "query_id": pa.array(out_q, pa.int64()),
                key_col: pa.array(out_key, pa.int64()),
                "score": pa.array(out_score, pa.float64()),
            }
        )

    partials = ds.map_batches(local_topk, batch_format="pyarrow")

    return _merge_topk(partials, key_col, k)


def knn_cell(
    ds: ray.data.Dataset,
    query_cells: list[int],
    bbox: tuple[float, float, float, float],
    k: int = 5,
    ring: int = 1,
    key_col: str = "doc_id",
    cell_col: str = "cell",
    x_col: str = "x",
    y_col: str = "y",
    micro_res: int | None = None,
) -> ray.data.Dataset:
    """Spatial kNN restricted to grid_disk(ring) candidate cells.

    For each query cell: the k points nearest (euclidean, map coords)
    to the cell center among points whose cell lies within the ring.
    Points outside every ring are dropped *before* the shuffle (the
    broadcast ring set is a semi-join filter); the shuffle key is the
    query cell.  Ring too small to hold k points -> fewer rows (the
    caller widens the ring), the standard IVF-probe trade-off.

    ``micro_res``: when set, ``x_col``/``y_col`` are INTEGER micro
    coordinates and ranking uses the exact squared integer distance to
    the integer cell center ``cx * 2^(32-res) + 2^(31-res)`` —
    bit-reproducible in a SQL oracle (candidates sit within the ring,
    so the squares fit int64).
    """
    ring_map: dict[int, list[int]] = {}
    for qc in query_cells:
        for c in grid_disk(qc, ring).tolist():
            ring_map.setdefault(int(c), []).append(int(qc))
    ring_ref = ray.put(ring_map)

    centers: dict[int, tuple[float, float]] = {}
    for qc in query_cells:
        res, cx, cy = cell_decode(np.array([qc], dtype=np.uint64))
        if micro_res is not None:
            half = 1 << (31 - micro_res)
            centers[int(qc)] = (
                int(cx[0]) * (half * 2) + half,
                int(cy[0]) * (half * 2) + half,
            )
            continue
        size = 1 << int(res[0])
        fx = (int(cx[0]) + 0.5) / size
        fy = (int(cy[0]) + 0.5) / size
        centers[int(qc)] = (
            bbox[0] + fx * (bbox[2] - bbox[0]),
            bbox[3] - fy * (bbox[3] - bbox[1]),  # micro y grows downward
        )
    centers_ref = ray.put(centers)

    def explode(batch: pa.Table) -> pa.Table:
        rm = ray.get(ring_ref)
        cells = batch[cell_col].to_numpy(zero_copy_only=False)
        take, qids = [], []
        for i, c in enumerate(cells):
            for qc in rm.get(int(c), ()):
                take.append(i)
                qids.append(qc)
        out = batch.select([key_col, x_col, y_col]).take(pa.array(take, pa.int64()))
        return out.append_column("query_cell", pa.array(qids, pa.int64()))

    cand = ds.map_batches(explode, batch_format="pyarrow")

    def topk_partition(batch: pa.Table) -> pa.Table:
        """Task-exchange kernel: every query_cell co-located in this
        hash partition ranks in ONE vectorized pass (centers looked up
        once per distinct cell, dist computed columnar, lexsort +
        groupby-head) — identical semantics to the per-group pandas
        merge it replaces."""
        if "query_cell" not in batch.column_names:
            return batch  # zero-column probe of an input with no blocks
        df = batch.to_pandas()
        centers = ray.get(centers_ref)
        qc = df["query_cell"].to_numpy()
        uniq, inv = np.unique(qc, return_inverse=True)
        cs = np.array(
            [centers[int(u)] for u in uniq], dtype=np.float64
        ).reshape(-1, 2)
        if micro_res is not None:
            dx = df[x_col].to_numpy().astype(np.int64) - cs[inv, 0].astype(np.int64)
            dy = df[y_col].to_numpy().astype(np.int64) - cs[inv, 1].astype(np.int64)
            d = dx * dx + dy * dy  # exact int64 (|d| < 2^59 inside the ring)
        else:
            d = np.hypot(df[x_col].to_numpy() - cs[inv, 0], df[y_col].to_numpy() - cs[inv, 1])
        df = df.assign(dist=d).sort_values(["query_cell", "dist", key_col])
        out = df.groupby("query_cell", sort=False).head(k).reset_index(drop=True)
        out["rank"] = (
            out.groupby("query_cell", sort=False).cumcount().to_numpy(dtype=np.int64) + 1
        )
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return hash_group_blocks(cand, ["query_cell"], topk_partition)
