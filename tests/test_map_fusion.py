"""Per-row stages fuse into the read: one task per read block.

Ray Data fuses a map into its producer only when the map takes whole
blocks; a map with a row-count ``batch_size`` behind an operator that
may change row counts is left unfused, and its bundler merges the read
blocks back into fewer, larger tasks.  Each stage here must therefore
show in the execution stats as a single ``Read...->...->MapBatches``
operator that ran one task per read block.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pytest
import ray

from tilecloud_chain_ray.config import Layer
from tilecloud_chain_ray.geom import box
from tilecloud_chain_ray.grid import SWISSGRID_5, WEBMERC

pytestmark = pytest.mark.usefixtures("ray_session")

BLOCKS = 4
ROWS = 4000


def _read(names: list[str]) -> ray.data.Dataset:
    def columns(batch: pa.Table) -> pa.Table:
        """Range ids -> the columns ``names`` a stage reads (a closure:
        workers cannot import this test module)."""
        ids = batch["id"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "x": pa.array((ids % 100) / 10.0, pa.float64()),
                "y": pa.array((ids // 100 % 100) / 10.0, pa.float64()),
                "z": pa.array(ids % 3, pa.int32()),
                "n": pa.array(np.ones(len(ids)), pa.int32()),
            }
        ).select(names)

    return ray.data.range(ROWS, override_num_blocks=BLOCKS).map_batches(
        columns, batch_format="pyarrow"
    )


def _geocode(ds):
    from tilecloud_chain_ray.stages.geocode import geocode_dataset

    return geocode_dataset(ds, WEBMERC.bbox, key_column="doc_id", cell_res=12)


def _pip_join(ds):
    from tilecloud_chain_ray.stages.pip_join import pip_join

    return pip_join(ds, [("a", box(0, 0, 5, 5))])


def _geom_filter(ds):
    from tilecloud_chain_ray.stages.geom_filter import add_geom_filter

    layer = Layer(name="fusion", grid=SWISSGRID_5, geometries=(box(420000, 30000, 900000, 350000),))
    return add_geom_filter(ds, layer)


def _density_partials(ds):
    """The partials map ``density_pyramid`` hands to its exchange."""
    from tilecloud_chain_ray.pipelines import density

    seen = []
    hash_group_blocks = density.hash_group_blocks

    def capture(partials, keys, kernel):
        seen.append(partials.materialize())
        return hash_group_blocks(seen[-1], keys, kernel)

    layer = Layer(name="fusion_density", grid=WEBMERC, meta=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "hash_group_blocks", capture)
        density.density_pyramid(_geocode(ds), layer, zooms=[0, 1], with_summary=False)
    return seen[0]


STAGES = {
    "geocode_dataset": (["doc_id"], _geocode),
    "pip_join": (["x", "y"], _pip_join),
    "add_geom_filter": (["z", "x", "y", "n"], _geom_filter),
    "density_partials": (["doc_id"], _density_partials),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_stage_fuses_into_the_read(stage):
    names, build = STAGES[stage]
    stats = build(_read(names)).materialize().stats()
    ops = re.findall(r"Operator \d+ (\S+): (\d+) tasks executed", stats)
    assert len(ops) == 1, stats
    name, tasks = ops[0]
    assert name.startswith("Read") and name.rsplit("->", 1)[-1].startswith("MapBatches("), stats
    assert int(tasks) == BLOCKS, stats
