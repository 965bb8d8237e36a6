"""tilecloud_chain_ray — a Ray-Data-native tile-generation and
spatial-join engine.

A from-scratch re-expression of the capabilities of
``camptocamp/tilecloud-chain`` (reference, read-only at
``/root/reference/``) on top of ``ray.data.Dataset`` pipelines over
Arrow batches: tile-coordinate enumeration as interval Datasets,
geometry filters and point-in-polygon joins as STRtree task stages,
deterministic metatile rendering/splitting/hash-dropping as vectorized
``map_batches`` stages, WMTS-layout + Parquet sinks with per-partition
lineage for resume.  See SURVEY.md for the full operator mapping.
"""

__version__ = "0.1.0"
