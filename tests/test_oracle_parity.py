"""Every SQL-checkable query vs its DuckDB oracle at sf0.001 — the same
comparison the driver does (row count, schema names, value equality on
rows sorted by all columns)."""

import os

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def oracle_run(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(SF_DIR, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
    return con.execute(sql).fetchdf()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    for c in df.columns:
        if str(df[c].dtype).startswith(("uint", "int", "Int")):
            df[c] = df[c].astype("int64")
    return df


def assert_same_kinds(name: str, engine_df: pd.DataFrame, oracle_df: pd.DataFrame):
    """The driver hashes raw values, so int-vs-float dtype divergence
    (e.g. DuckDB HUGEINT -> float) breaks its hash even when values are
    numerically equal.  Enforce matching dtype *kinds* column by column."""
    for c in engine_df.columns:
        ek, ok = engine_df[c].dtype.kind, oracle_df[c].dtype.kind
        assert ek == ok, f"{name}.{c}: engine dtype kind {ek!r} vs oracle {ok!r}"


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


SQL_KEYS = sorted(entrymod.oracle_sql().keys())


@pytest.fixture(scope="module", autouse=True)
def no_sort_groupby():
    """Every query of this module runs with Ray's sort-based
    ``Dataset.groupby`` refused: grouped work goes through
    ``util.exchange_aggregate`` / ``util.hash_group_blocks`` only."""
    import ray

    def refuse(self, *args, **kwargs):
        raise AssertionError("Dataset.groupby called: group through util.exchange_aggregate")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ray.data.Dataset, "groupby", refuse)
        yield


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", SQL_KEYS)
def test_query_matches_oracle(name):
    engine_df = normalize(to_pandas(entrymod.queries()[name](SF_DIR)))
    oracle_df = normalize(oracle_run(entrymod.oracle_sql()[name]))
    assert list(engine_df.columns) == list(oracle_df.columns), (
        f"{name}: columns {list(engine_df.columns)} vs {list(oracle_df.columns)}"
    )
    assert len(engine_df) == len(oracle_df), f"{name}: {len(engine_df)} vs {len(oracle_df)} rows"
    assert_same_kinds(name, engine_df, oracle_df)
    pd.testing.assert_frame_equal(engine_df, oracle_df, check_dtype=False, check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_rows_only_queries_run():
    qs = entrymod.queries()
    sql = set(entrymod.oracle_sql())
    for name, fn in qs.items():
        if name in sql or name in ("density_tiles", "generate_point_hash"):
            continue  # heavy ones covered elsewhere
        df = to_pandas(fn(SF_DIR))
        assert df is not None


# quality_hist left the 50-entry driver registry when substring_dedup
# joined it; its SQL parity check lives on here so nothing regresses
QUALITY_HIST_SQL = r"""
    WITH m AS (
        SELECT len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens,
               length(text) AS n_chars,
               length(regexp_replace(text, '[^A-Z]', '', 'g')) AS n_upper
        FROM documents
    )
    SELECT CAST(floor(least(n_tokens, 100) / 100.0
                  * (1.0 - n_upper / greatest(n_chars, 1.0)) * 10.0) AS BIGINT) AS bucket,
           count(*) AS n
    FROM m GROUP BY 1
"""


@pytest.mark.usefixtures("ray_session")
def test_quality_hist_matches_sql():
    from tilecloud_chain_ray import queries as q

    engine_df = normalize(to_pandas(q.q_quality_hist(SF_DIR)))
    oracle_df = normalize(oracle_run(QUALITY_HIST_SQL))
    pd.testing.assert_frame_equal(engine_df, oracle_df, check_dtype=False, check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_entry_smoke():
    result = entrymod.entry()
    df = to_pandas(result)
    assert len(df) >= 0
    assert set(df.columns) == {"z", "x", "y", "status", "size"}


@pytest.mark.usefixtures("ray_session")
def test_orders_topk_on_empty_orders(tmp_path):
    """A 0-row ``orders`` table reaches the exchange as blocks with no
    columns; the top-5 kernel's probe still answers the query's typed
    columns (read from the output blocks: ``Dataset.to_pandas`` of 0
    rows drops them)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from tilecloud_chain_ray import queries as q

    orders = pq.read_table(os.path.join(SF_DIR, "orders.parquet"))
    pq.write_table(orders.slice(0, 0), tmp_path / "orders.parquet")
    out = pa.concat_tables(ray.get(q.q_orders_topk(str(tmp_path)).to_arrow_refs()))
    assert out.num_rows == 0
    assert out.schema == pa.schema(
        [("o_orderpriority", pa.string()), ("o_orderkey", pa.int64()), ("rnk", pa.int64())]
    )
