"""Connected components over near-duplicate pair lists, and the
keep-one-per-cluster survivor step that completes near-dedup.

``minhash_dedup_pairs`` / ``simhash_candidates`` (stages/dedup.py)
emit verified PAIRS; production dedup needs CLUSTERS — transitively
connected groups — with one survivor per cluster (the min key, the
same deterministic rule the exact-dedup path uses).  This module
closes that step:

* ``connected_components(pairs)`` — (key, component) where
  ``component`` is the minimum key reachable from ``key``.
* ``near_dedup_survivors(docs, pairs)`` — drop every doc whose key is
  in a cluster but is not its min-key representative.
* ``near_dedup_refs(refs, n_rows, ...)`` — the whole MinHash near-dedup
  tail (pairs -> components -> survivors) on document block refs: the
  tail both curate chains run on their exact-dedup output
  (pipelines/curate.py, pipelines/curate_resumable.py).

Two placements with identical semantics, picked from the input by
``util.fits_driver`` (the engine's one driver-or-cluster rule; no
caller option):

* **driver union-find** — when the pair table (16 B/row) fits, its
  key columns are fetched once and a path-compressed union-find runs
  on the driver.  ``near_dedup_survivors`` then takes the drop set
  straight from the union-find's arrays and broadcasts it: pairs ->
  drop set with no Dataset in between (each Dataset hop costs a fixed
  ~10-40 ms, far more than union-finding a few hundred pairs).
  ``near_dedup_refs`` goes further: banding, candidates, verify and
  union-find hand block refs and driver arrays on, so the only Ray Data
  execution left is the caller's consumption of the filtered docs.
  Near-dup pair tables are tiny relative to the corpus, so this is
  the common case even at large scale.
* **distributed min-label propagation** — labels start as the node's
  own key and each round take the min over the 1-hop neighborhood
  (hash-join of the static message table against the current labels,
  then a min-aggregate).  Labels are non-increasing, so convergence
  is detected by the label SUM reaching a fixpoint — one cheap
  aggregate per round, no label-vs-label join.  Rounds = graph
  diameter (near-dup clusters are shallow; typically 2-4).

Scale note: everything here is proportional to the PAIR table and its
node set, never the corpus — the survivor step touches the corpus
exactly once, with a broadcast (or bucketed anti-join) of the
non-survivor key set, placed by the same rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data.aggregate import Sum

from tilecloud_chain_ray.util import exchange_aggregate, fits_driver, map_refs


def _union_find_driver(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized-ish union-find with path compression; returns
    (nodes, component) with component = min key of each cluster."""
    nodes = np.unique(np.concatenate([a, b]))
    idx = {int(k): i for i, k in enumerate(nodes)}
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    for ka, kb in zip(a.tolist(), b.tolist()):
        ra, rb = find(idx[ka]), find(idx[kb])
        if ra != rb:
            # union by min node key keeps the representative deterministic
            if nodes[ra] <= nodes[rb]:
                parent[rb] = ra
            else:
                parent[ra] = rb
    roots = np.array([find(i) for i in range(len(nodes))], dtype=np.int64)
    return nodes, nodes[roots]


def _driver_pairs(
    pairs: ray.data.Dataset, key_a: str, key_b: str
) -> tuple[np.ndarray, np.ndarray]:
    """The two int64 key columns of a materialized pair table, fetched
    to the driver once (block by block: a (0 rows, 0 cols) block from an
    empty range upstream carries no key columns)."""
    tbls = [t for t in ray.get(pairs.to_arrow_refs()) if t.num_rows]
    return tuple(
        np.concatenate([t[k].to_numpy(zero_copy_only=False) for t in tbls]).astype(np.int64)
        for k in (key_a, key_b)
    )


def connected_components(
    pairs: ray.data.Dataset,
    key_a: str = "key_a",
    key_b: str = "key_b",
    max_rounds: int = 64,
) -> ray.data.Dataset:
    """Pair list -> (key, component) with component = min reachable key.

    Isolated keys never appear in ``pairs`` and so never appear here;
    callers treat absence as "own component" (see
    ``near_dedup_survivors``).
    """
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return ray.data.from_arrow(
            pa.table({"key": pa.array([], pa.int64()), "component": pa.array([], pa.int64())})
        )

    if fits_driver(n_pairs * 16):
        nodes, comp = _union_find_driver(*_driver_pairs(pairs, key_a, key_b))
        return ray.data.from_arrow(
            pa.table({"key": pa.array(nodes, pa.int64()), "component": pa.array(comp, pa.int64())})
        )

    from tilecloud_chain_ray.stages.join import hash_join

    # static message table: each undirected edge in both directions
    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch[key_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[key_b].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, b]), pa.int64()),
                "nbr": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    messages = pairs.map_batches(both_dirs, batch_format="pyarrow").materialize()

    # labels start as the node's own key (task exchange: node keys
    # are ~one per doc — a sort over that key space per round is the
    # exact shape hash_group_blocks replaces)
    labels = exchange_aggregate(
        messages.select_columns(["node"]), ["node"], [("node", "min")], ["node", "label"]
    )
    prev_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]

    for _ in range(max_rounds):
        # neighbor labels flow one hop: messages(node, nbr) x labels(nbr)
        nbr_labels = labels.map_batches(
            lambda b: b.rename_columns(["nbr", "label"]), batch_format="pyarrow"
        )
        flowed = hash_join(messages, nbr_labels, on="nbr")
        # pointer doubling (hash-to-min): label(label) — labels are
        # themselves node keys, so one self-join jumps two hops and the
        # round count drops from O(diameter) to O(log diameter)
        ptr_lookup = labels.map_batches(
            lambda b: b.rename_columns(["label", "label2"]), batch_format="pyarrow"
        )
        doubled = hash_join(
            labels.select_columns(["node", "label"]), ptr_lookup, on="label"
        ).map_batches(
            lambda b: pa.table({"node": b["node"], "label": b["label2"]}),
            batch_format="pyarrow",
        )
        # min over (own label, neighbor labels, two-hop labels)
        candidates = (
            flowed.select_columns(["node", "label"])
            .union(labels.select_columns(["node", "label"]))
            .union(doubled)
        )
        # the exchange emits ONE block per non-empty partition (at most
        # its width), which also fixes the block count the union +
        # join lineage otherwise multiplies every round (union
        # concatenates block lists; per-block fixed costs measured
        # blowing up 1.1 s -> 119 s by round 4 before the fixed-count
        # repartition this replaces), and its output is concrete
        # object-store refs — no extra materialize needed
        labels = exchange_aggregate(candidates, ["node"], [("label", "min")], ["node", "label"])
        # labels only decrease -> sum fixpoint == convergence.  int64
        # sum is exact while n_nodes * max_key < 2^63 (e.g. 2^22 nodes
        # x 2^40 keys); beyond that a keyed count-of-changes check
        # would be needed instead.
        cur_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    return labels.map_batches(
        lambda b: b.rename_columns(["key", "component"]), batch_format="pyarrow"
    )


def near_dedup_survivors(
    docs: ray.data.Dataset,
    pairs: ray.data.Dataset,
    key_col: str = "doc_id",
) -> ray.data.Dataset:
    """Keep one doc per near-dup cluster (the min key) plus every doc
    not in any cluster.

    The drop set (cluster members that are not their component's min)
    is proportional to the DUPLICATE universe, not the corpus.  When
    the pair table fits :func:`~tilecloud_chain_ray.util.fits_driver`
    (16 B/pair) the driver union-finds it and takes the drop set
    straight from its arrays — at most two 8 B keys a pair, so it fits
    too.  Otherwise the components come from label propagation and the
    drop set is broadcast while it fits (8 B/key), else it routes
    through the exact Bloom anti-join (stages/bloom.py) — bitmap
    broadcast + distributed residue, never a driver-sized key set.
    """
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return docs
    if fits_driver(n_pairs * 16):
        nodes, comp = _union_find_driver(*_driver_pairs(pairs, "key_a", "key_b"))
        # nodes come sorted from np.unique, so the drop set is too
        return _drop_sorted(docs, nodes[nodes != comp], key_col)

    def dropped(batch: pa.Table) -> pa.Table:
        keys = batch["key"].to_numpy(zero_copy_only=False)
        cs = batch["component"].to_numpy(zero_copy_only=False)
        return pa.table({"drop_key": pa.array(keys[keys != cs], pa.int64())})

    comp = connected_components(pairs)
    drop_ds = comp.map_batches(dropped, batch_format="pyarrow").materialize()
    n_drop = drop_ds.count()
    if n_drop == 0:
        return docs
    if not fits_driver(n_drop * 8):
        from tilecloud_chain_ray.stages.bloom import bloom_anti_join

        return bloom_anti_join(
            docs, drop_ds, on=key_col, right_key_col="drop_key", n_keys_hint=n_drop
        )

    drop_keys = np.concatenate(
        [
            t["drop_key"].to_numpy(zero_copy_only=False)
            for t in ray.get(drop_ds.to_arrow_refs())
        ]
        or [np.array([], dtype=np.int64)]
    )
    return _drop_sorted(docs, np.sort(drop_keys), key_col)


def near_dedup_refs(
    refs: list, n_rows: int, key_col: str, text_col: str, threshold: float
) -> ray.data.Dataset:
    """MinHash near-dedup of the document blocks ``refs`` (``n_rows``
    rows in all): the docs with one survivor per near-dup cluster (the
    min key) and every doc outside a cluster.

    The pairs come from ``stages.dedup._verified_pairs`` on the refs.
    On the driver placement they arrive as a table and are union-found
    right there: a pair table small enough for the driver verify (8 KiB
    a candidate) fits the union-find (16 B a pair) too, so the drop set
    filters the blocks as one plain task each (``util.map_refs``), and
    the survivors come back as computed blocks: nothing between the
    exact-dedup refs and the caller's consumption runs a Ray Data
    execution, and the consumption runs no map.  On the cluster
    placement the pairs are a Dataset and go through
    :func:`near_dedup_survivors`."""
    from tilecloud_chain_ray.stages.dedup import _verified_pairs

    pairs = _verified_pairs(refs, n_rows, key_col, text_col, threshold)
    if not isinstance(pairs, pa.Table):
        return near_dedup_survivors(ray.data.from_arrow_refs(refs), pairs, key_col)
    nodes, comp = _union_find_driver(
        pairs["key_a"].to_numpy(zero_copy_only=False), pairs["key_b"].to_numpy(zero_copy_only=False)
    )
    drops = nodes[nodes != comp]
    if len(drops):
        refs = map_refs(refs, _drop_keys, ray.put(drops), key_col)
    return ray.data.from_arrow_refs(refs)


def _drop_keys(batch: pa.Table, drops: np.ndarray, key_col: str) -> pa.Table:
    """``batch`` without the rows whose key is in the sorted ``drops``
    (one searchsorted)."""
    keys = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    pos = np.searchsorted(drops, keys)
    hit = (pos < len(drops)) & (drops[np.minimum(pos, len(drops) - 1)] == keys)
    return batch.filter(pa.array(~hit))


def _drop_sorted(docs: ray.data.Dataset, drops: np.ndarray, key_col: str) -> ray.data.Dataset:
    """``docs`` without the rows whose key is in the sorted ``drops``,
    broadcast once via ``ray.put``."""
    if len(drops) == 0:
        return docs
    drop_ref = ray.put(drops)

    def keep(batch: pa.Table) -> pa.Table:
        return _drop_keys(batch, ray.get(drop_ref), key_col)

    return docs.map_batches(keep, batch_format="pyarrow")
