"""No public signature may pick an operator's driver-or-cluster path
or its exchange width.

The placement is the engine's decision, made from the input by
``util.fits_driver``, and so is the width, made by
``util.exchange_width``; these parameter names are the per-operator
switches, byte gates and widths they replaced, so a new one fails
here.  A bare ``**kwargs`` fails too: it would forward any of them.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import tilecloud_chain_ray.pipelines
import tilecloud_chain_ray.stages

PATH_KNOBS = {
    "force_distributed",
    "small_table_max_bytes",
    "residue_max_bytes",
    "broadcast_max_bytes",
}
WIDTH_KNOBS = {
    "n_buckets",
    "num_partitions",
    "shuffle_blocks",
    "reduce_fanout",
    "tree_reduce_min_bytes",
}


def _public_callables():
    for pkg in (tilecloud_chain_ray.stages, tilecloud_chain_ray.pipelines):
        for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
            mod = importlib.import_module(info.name)
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{mod.__name__}.{name}", obj
                elif inspect.isclass(obj):
                    if inspect.isfunction(obj.__init__):  # not a builtin's slot
                        yield f"{mod.__name__}.{name}", obj.__init__
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            yield f"{mod.__name__}.{name}.{meth}", fn


def test_walk_finds_the_pair_operators():
    names = {n for n, _ in _public_callables()}
    assert "tilecloud_chain_ray.stages.dedup.minhash_dedup_pairs" in names
    assert "tilecloud_chain_ray.stages.bloom.bloom_anti_join" in names
    assert "tilecloud_chain_ray.pipelines.curate.curate_corpus" in names


def _offenders(knobs):
    for name, fn in _public_callables():
        params = inspect.signature(fn).parameters
        yield from (f"{name}({p})" for p in sorted(knobs & set(params)))


def test_no_path_knob_parameter():
    assert list(_offenders(PATH_KNOBS)) == []


def test_no_width_knob_parameter():
    assert list(_offenders(WIDTH_KNOBS)) == []


def test_no_kwargs_pass_through():
    offenders = []
    for name, fn in _public_callables():
        params = inspect.signature(fn).parameters.values()
        offenders += [f"{name}(**{p.name})" for p in params if p.kind is p.VAR_KEYWORD]
    assert offenders == []
