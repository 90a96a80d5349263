"""Relational queries over the TPC-H-style tables (lineitem, orders, customer,
part, partsupp, supplier, nation, region): filters, semi- and anti-joins
through stages/join.lookup_join, grouped aggregates and deterministic top-k.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from core_ray.queries._shared import _collect_numpy, _collect_table, _p, _read, query
from core_ray.rounding import sql_round, sql_round_np
from core_ray.stages.agg import count_by_u64, fold, fold_table, map_groups_partitioned, min_by_u64, sum_by_u64
from core_ray.stages.join import hash_join, lookup_join, read_dim


# ================================================================ relational
# Q1-style pricing summary: filter + one grouped fold (agg.fold_table: the
# combiner pattern, SURVEY.md §2.6 A1-A3, finished on the driver).

_Q1_CUTOFF = datetime(2000, 1, 1)


@query(sql="""
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2)                        AS sum_qty,
       ROUND(SUM(l_extendedprice), 2)                   AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS sum_disc_price,
       COUNT(*)                                         AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '2000-01-01'
GROUP BY 1, 2
""")
def q1_pricing_summary(sf_dir: str):
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def priced(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less_equal(batch["l_shipdate"], pa.scalar(_Q1_CUTOFF)))
        disc = pc.multiply(batch["l_extendedprice"], pc.subtract(1.0, batch["l_discount"]))
        return batch.append_column("disc_price", disc)

    # (None, "count") is COUNT(*): a column count would skip nulls
    t = fold_table(
        ds.map_batches(priced, batch_format="pyarrow", batch_size=65536),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("l_quantity", "sum"),
            "sum_base_price": ("l_extendedprice", "sum"),
            "sum_disc_price": ("disc_price", "sum"),
            "count_order": (None, "count"),
        },
    )
    for c in ("sum_qty", "sum_base_price", "sum_disc_price"):
        t = t.set_column(t.schema.get_field_index(c), c, sql_round(t[c], 2))
    return t


# Q3-style: semi-join cascade (customer segment -> orders -> lineitem),
# groupby revenue, deterministic top-10 (SURVEY.md §2.5 J1 small-side pattern).

_Q3_DATE = datetime(1998, 1, 1)


@query(sql="""
SELECT l_orderkey AS o_orderkey,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS revenue
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-01-01'
  AND l_shipdate  > TIMESTAMP '1998-01-01'
GROUP BY 1
ORDER BY revenue DESC, o_orderkey
LIMIT 10
""")
def q3_top_orders(sf_dir: str):
    """Distributed cascade of semi-joins (stages/join.lookup_join): the
    BUILDING customers filter the date-pruned orders, whose surviving keys
    filter the ship-date-pruned lineitem. No fact table ever reaches the
    driver; each key set is the product of a distributed filter."""
    import ray.data

    # the segment and date predicates are PUSHED INTO THE READS (pyarrow
    # dataset filter: row-group pruning via statistics + exact row filtering
    # in the scanner, VERDICT r2 item 6) — those columns never leave storage
    cust = read_dim(
        _p(sf_dir, "customer"), ["c_custkey"],
        filter=pads.field("c_mktsegment") == "BUILDING",
    )
    orders = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey"],
        filter=pads.field("o_orderdate") < _Q3_DATE,
    )
    okeys = lookup_join(orders, cust, on="o_custkey", right_on="c_custkey", how="semi")

    def revenue(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(1.0, b["l_discount"]))
        return pa.table({"o_orderkey": b["l_orderkey"], "rev": rev})

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_shipdate") > _Q3_DATE,
    )
    agg = fold(
        lookup_join(li, okeys, on="l_orderkey", right_on="o_orderkey", how="semi")
        .map_batches(revenue, batch_format="pyarrow", batch_size=65536),
        "o_orderkey",
        {"revenue": ("rev", "sum")},
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"o_orderkey": b["o_orderkey"], "revenue": sql_round(b["revenue"], 2)}
        )

    out = agg.map_batches(finish, batch_format="pyarrow")
    return out.sort(["revenue", "o_orderkey"], descending=[True, False]).limit(10)


# Q5-style: chained dimension lookups -> per-nation revenue.


@query(sql="""
SELECT n_name, ROUND(SUM(l_extendedprice * (1.0 - l_discount)), 2) AS revenue
FROM lineitem
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation   ON s_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
GROUP BY 1
""")
def q5_region_revenue(sf_dir: str, region: str = "ASIA"):
    nation = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = pq.read_table(_p(sf_dir, "region"), columns=["r_regionkey", "r_name"])
    rkeys = reg.filter(pc.equal(reg["r_name"], region))["r_regionkey"].combine_chunks()
    n_in = nation.filter(pc.is_in(nation["n_regionkey"], value_set=rkeys)).select(
        ["n_nationkey", "n_name"]
    )
    supp = read_dim(_p(sf_dir, "supplier"), ["s_suppkey", "s_nationkey"])

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b["l_extendedprice"], pc.subtract(1.0, b["l_discount"]))
        return pa.table({"n_name": b["n_name"], "rev": r})

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])
    # chained lookups: lineitem -> supplier nation -> region's nation names
    t = fold_table(
        lookup_join(
            lookup_join(li, supp, on="l_suppkey", right_on="s_suppkey"),
            n_in, on="s_nationkey", right_on="n_nationkey",
        ).map_batches(rev, batch_format="pyarrow", batch_size=65536),
        "n_name",
        {"revenue": ("rev", "sum")},
    )
    return pa.table({"n_name": t["n_name"], "revenue": sql_round(t["revenue"], 2)})


_NO_ORDERS_CUTOFF = datetime(2000, 6, 1)


@query(sql="""
SELECT c_custkey, c_name FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '2000-06-01')
""")
def cust_no_orders(sf_dir: str):
    """Anti-join: customers with NO order since the cutoff. The order side
    is filtered and reduced per batch to its distinct custkeys (np.unique
    combiner) before the anti lookup_join against customer — the q3 shape,
    negated."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def recent_keys(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b["o_orderdate"], pa.scalar(_NO_ORDERS_CUTOFF)))
        return pa.table(
            {"o_custkey": pa.array(np.unique(b["o_custkey"].to_numpy(zero_copy_only=False)))}
        )

    recent = orders.map_batches(recent_keys, batch_format="pyarrow", batch_size=131072)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    return lookup_join(cust, recent, on="c_custkey", right_on="o_custkey", how="anti")


@query(sql="""
SELECT c_mktsegment, COUNT(*) AS n_orders,
       SUM(CAST(ROUND(o_totalprice * 100.0) AS BIGINT)) / 100.0 AS total
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1
""")
def orders_cust_join(sf_dir: str):
    """Large-large equi-join through the generic hash-partitioned join
    operator (stages/join.py): orders ⋈ customer on custkey — NEITHER side
    broadcast — then a per-segment rollup. This drives hash_join itself
    through the driver's oracle gate."""

    def to_cents(b: pa.Table) -> pa.Table:
        # exact integer cents: a float SUM at ~1e9 magnitude rounds
        # differently depending on accumulation order (Ray partials vs SQL)
        v = b["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "custkey": b["o_custkey"],
                "cents": pa.array(sql_round_np(v * 100.0, 0).astype(np.int64), pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        to_cents, batch_format="pyarrow"
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: pa.table({"custkey": b["c_custkey"], "c_mktsegment": b["c_mktsegment"]}),
        batch_format="pyarrow",
    )
    joined = hash_join(orders, cust, on="custkey")
    t = fold_table(
        joined, "c_mktsegment", {"n_orders": (None, "count"), "total_cents": ("cents", "sum")}
    )
    return pa.table(
        {
            "c_mktsegment": t["c_mktsegment"],
            "n_orders": t["n_orders"],
            "total": pc.divide(pc.cast(t["total_cents"], pa.float64()), 100.0),
        }
    )


@query(sql="""
SELECT c_custkey, c_name,
       SUM(CAST(ROUND(l_extendedprice * (1.0 - l_discount) * 100.0) AS BIGINT)) / 100.0 AS revenue
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE l_returnflag = 'R'
GROUP BY 1, 2
ORDER BY revenue DESC, c_custkey
LIMIT 20
""")
def q10_returned_revenue(sf_dir: str, k: int = 20):
    """TPC-H q10 shape: revenue of RETURNED items per customer, top-k.
    Plan: pruned+filtered lineitem scan (returnflag pushed into the read) ->
    lookup_join against the orders key map (stages/join.py picks broadcast
    or shuffle) -> exact integer-cents partitioned sum by custkey
    (agg.sum_by_u64) -> tiny sort+limit; the k customer names are read
    with the top-k keys pushed into the scan."""
    import ray.data

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_returnflag") == "R",
    ).map_batches(
        # exact integer cents (see orders_cust_join): float SUMs at this
        # magnitude depend on accumulation order; int64 sums do not
        lambda b: pa.table(
            {
                "okey": b["l_orderkey"],
                "cents": pa.array(
                    sql_round_np(
                        b["l_extendedprice"].to_numpy(zero_copy_only=False)
                        * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
                        * 100.0,
                        0,
                    ).astype(np.int64),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    orders = read_dim(_p(sf_dir, "orders"), ["o_orderkey", "o_custkey"])
    keyed = lookup_join(li, orders, on="okey", right_on="o_orderkey").map_batches(
        lambda b: pa.table(
            {"key": pc.cast(b["o_custkey"], pa.uint64()), "cents": b["cents"]}
        ),
        batch_format="pyarrow",
    )
    sums = sum_by_u64(keyed, "key", "cents")
    top = _collect_table(
        sums.sort(["cnt", "key"], descending=[True, False]).limit(k)
    )
    ckeys = top["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    ct = pq.read_table(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_name"],
        filters=pads.field("c_custkey").isin(ckeys.tolist()),
    )
    name_of = dict(zip(ct["c_custkey"].to_pylist(), ct["c_name"].to_pylist()))
    return pa.table(
        {
            "c_custkey": pa.array(ckeys, pa.int64()),
            "c_name": pa.array([name_of[int(c)] for c in ckeys], pa.string()),
            "revenue": pa.array(
                top["cnt"].to_numpy(zero_copy_only=False).astype(np.float64) / 100.0,
                pa.float64(),
            ),
        }
    )


# ========================================================== relational wave 2
# TPC-H-shape breadth: EXISTS semi-join (q4), multi-predicate pruned scalar
# scan (q6), conditional aggregation after a join (q12), group-HAVING +
# join + top-k (q18). Each exercises a distinct plan shape over the same
# fact tables; all money/quantity aggregates use exact integer arithmetic
# (the q10 cents discipline) so hashes match the oracle bit-for-bit.

_Q4_LO = datetime(1996, 1, 1)
_Q4_HI = datetime(1996, 7, 1)


@query(sql="""
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1996-07-01'
  AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 45.0)
GROUP BY 1
""")
def q4_priority_semi(sf_dir: str):
    """TPC-H q4 shape: orders per priority with >=1 high-quantity lineitem
    (EXISTS semi-join). Plan: both predicates pushed into the parquet reads;
    distinct qualifying orderkeys via the count_by_u64 combiner (per-batch
    np.unique -> ONE hash partition -> reduceat); hash-partitioned semi-join
    (neither fact side broadcast — the qualifying-key set is a large
    fraction of all orders at any scale); 5-key final count."""
    import ray.data

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey"],
        filter=pads.field("l_quantity") > 45.0,
    ).map_batches(
        lambda b: pa.table({"key": pc.cast(b["l_orderkey"], pa.uint64())}),
        batch_format="pyarrow",
    )
    # distinct keys (count_by_u64's keys are unique by construction)
    keys = count_by_u64(li, "key").map_batches(
        lambda b: pa.table({"okey": pc.cast(b["key"], pa.int64())}),
        batch_format="pyarrow",
    )
    orders = ray.data.read_parquet(
        _p(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderpriority"],
        filter=(pads.field("o_orderdate") >= _Q4_LO) & (pads.field("o_orderdate") < _Q4_HI),
    ).map_batches(
        lambda b: pa.table({"okey": b["o_orderkey"], "o_orderpriority": b["o_orderpriority"]}),
        batch_format="pyarrow",
    )
    j = hash_join(orders, keys, on="okey")
    return fold_table(j, "o_orderpriority", {"order_count": (None, "count")})


@query(sql="""
SELECT SUM(CAST(ROUND(l_extendedprice * l_discount * 10000.0) AS BIGINT)) / 10000.0 AS revenue,
       COUNT(*) AS n_items
FROM lineitem
WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
  AND l_discount BETWEEN 0.03 AND 0.07 AND l_quantity < 24.0
""")
def q6_forecast_revenue(sf_dir: str):
    """TPC-H q6 shape: multi-predicate pruned scan + single-row scalar
    aggregate. Every predicate rides the parquet read (row-group pruning);
    only 2 columns are decoded; the per-batch combiner emits ONE partial row
    per batch and the tiny partial table is summed on the driver — revenue
    in exact integer 10^-4 units so the sum is accumulation-order-free."""
    import ray.data

    f = (
        (pads.field("l_shipdate") >= datetime(1996, 1, 1))
        & (pads.field("l_shipdate") < datetime(1997, 1, 1))
        & (pads.field("l_discount") >= 0.03)
        & (pads.field("l_discount") <= 0.07)
        & (pads.field("l_quantity") < 24.0)
    )
    ds = ray.data.read_parquet(
        _p(sf_dir, "lineitem"), columns=["l_extendedprice", "l_discount"], filter=f
    )

    def partial(b: pa.Table) -> pa.Table:
        units = sql_round_np(
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * b["l_discount"].to_numpy(zero_copy_only=False)
            * 10000.0,
            0,
        ).astype(np.int64)
        return pa.table(
            {
                "c": pa.array([int(units.sum())], pa.int64()),
                "n": pa.array([len(units)], pa.int64()),
            }
        )

    parts = _collect_table(ds.map_batches(partial, batch_format="pyarrow", batch_size=131072))
    c = int(pc.sum(parts["c"]).as_py() or 0)
    n = int(pc.sum(parts["n"]).as_py() or 0)
    return pa.table(
        {
            "revenue": pa.array([c / 10000.0], pa.float64()),
            "n_items": pa.array([n], pa.int64()),
        }
    )


_Q12_HIGH = ("1-URGENT", "2-HIGH")


@query(sql="""
SELECT l_linestatus,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END) AS BIGINT) AS high_count,
       CAST(SUM(CASE WHEN o_orderpriority NOT IN ('1-URGENT','2-HIGH') THEN 1 ELSE 0 END) AS BIGINT) AS low_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= DATE '1997-01-01' AND l_shipdate < DATE '1998-01-01'
GROUP BY 1
""")
def q12_priority_class(sf_dir: str):
    """TPC-H q12 shape: conditional aggregation (CASE WHEN) after an
    equi-join. The ship-year filter rides the read; the orders priority
    attaches by lookup_join and the high/low flag is computed on the joined
    batches. Per-batch combiner folds to <=2 rows before the final 2-key
    groupby."""
    import ray.data

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linestatus"],
        filter=(pads.field("l_shipdate") >= datetime(1997, 1, 1))
        & (pads.field("l_shipdate") < datetime(1998, 1, 1)),
    )
    orders = read_dim(_p(sf_dir, "orders"), ["o_orderkey", "o_orderpriority"])

    def flags(b: pa.Table) -> pa.Table:
        hi = pc.cast(
            pc.is_in(b["o_orderpriority"], value_set=pa.array(_Q12_HIGH)), pa.int64()
        )
        return pa.table(
            {"l_linestatus": b["l_linestatus"], "high": hi, "low": pc.subtract(1, hi)}
        )

    return fold_table(
        lookup_join(li, orders, on="l_orderkey", right_on="o_orderkey")
        .map_batches(flags, batch_format="pyarrow", batch_size=131072),
        "l_linestatus",
        {"high_count": ("high", "sum"), "low_count": ("low", "sum")},
    )


_Q18_QTY = 200


@query(sql=f"""
WITH heavy AS (
  SELECT l_orderkey, SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS q
  FROM lineitem GROUP BY 1
  HAVING SUM(CAST(ROUND(l_quantity) AS BIGINT)) > {_Q18_QTY}
)
SELECT o_orderkey, o_custkey, ROUND(o_totalprice, 2) AS o_totalprice,
       CAST(q AS DOUBLE) AS total_qty
FROM heavy JOIN orders ON l_orderkey = o_orderkey
ORDER BY ROUND(o_totalprice, 2) DESC, o_orderkey
LIMIT {20}
""")
def q18_heavy_orders(sf_dir: str, k: int = 20):
    """TPC-H q18 shape: group + HAVING + join + deterministic top-k. Plan:
    exact integer quantity sums per orderkey (agg.sum_by_u64 — combiner,
    one shuffle, reduceat), HAVING filter inside map_batches, then a
    hash-partitioned join against orders (the heavy-order set shrinks with
    the threshold but is unbounded in principle — never broadcast), sorted
    top-k on the rounded price with orderkey tie-break."""
    import ray.data

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        # quantities are integral-valued doubles -> exact int64 sums
        lambda b: pa.table(
            {
                "key": pc.cast(b["l_orderkey"], pa.uint64()),
                "q": pc.cast(pc.round(b["l_quantity"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    heavy = sum_by_u64(li, "key", "q").map_batches(
        lambda b: pa.table(
            {
                "okey": pc.cast(b["key"], pa.int64()),
                "total_qty": b["cnt"],
            }
        ).filter(pc.greater(b["cnt"], _Q18_QTY)),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]).map_batches(
        lambda b: pa.table(
            {
                "okey": b["o_orderkey"],
                "o_custkey": b["o_custkey"],
                "o_totalprice": sql_round(b["o_totalprice"], 2),
            }
        ),
        batch_format="pyarrow",
    )
    top = hash_join(heavy, orders, on="okey").sort(
        ["o_totalprice", "okey"], descending=[True, False]
    ).limit(k)
    return top.map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b["okey"],
                "o_custkey": b["o_custkey"],
                "o_totalprice": b["o_totalprice"],
                "total_qty": pc.cast(b["total_qty"], pa.float64()),
            }
        ),
        batch_format="pyarrow",
    )


# ===================================================== relational wave 3
# q13/q14/q16/q17/q19/q22 shapes: outer-join count distribution, promo
# ratio, distinct-count per group with anti-join, per-group-avg threshold
# join, disjunctive multi-table predicate, scalar-subquery threshold +
# anti-join. Discipline as above: predicates ride the read, facts never
# broadcast, dims attach by stages/join.lookup_join (which picks broadcast
# or shuffle), monetary math in exact integer units.


@query(sql="""
SELECT c_count, COUNT(*) AS custdist
FROM (SELECT c_custkey, COUNT(o_orderkey) AS c_count
      FROM customer LEFT JOIN orders ON c_custkey = o_custkey
      GROUP BY 1)
GROUP BY 1
""")
def q13_cust_order_dist(sf_dir: str):
    """TPC-H q13 shape: LEFT-outer-join count distribution — per-customer
    order counts INCLUDING zero-order customers. Plan: per-custkey counts
    via the count_by_u64 combiner (one small shuffle over distinct
    custkeys, never the orders fact); the distribution is a second tiny
    count_by_u64 whose key is the count value; the zero-order bucket is
    |customer| minus the ordering customers — pure subtraction, so the
    customer table is never shuffled at all (metadata row count only;
    relies on o_custkey ⊆ c_custkey, which the corpus guarantees)."""
    counts = count_by_u64(
        _read(sf_dir, "orders", ["o_custkey"]).map_batches(
            lambda b: pa.table({"key": pc.cast(b["o_custkey"], pa.uint64())}),
            batch_format="pyarrow",
        ),
        "key",
    ).map_batches(
        lambda b: pa.table({"key": pc.cast(b["cnt"], pa.uint64())}),
        batch_format="pyarrow",
    )
    hist = _collect_table(count_by_u64(counts, "key"))
    c_count = hist["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    custdist = hist["cnt"].to_numpy(zero_copy_only=False)
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    zero = n_cust - int(custdist.sum())
    if zero > 0:
        c_count = np.concatenate([c_count, [0]])
        custdist = np.concatenate([custdist, [zero]])
    return pa.table(
        {
            "c_count": pa.array(c_count, pa.int64()),
            "custdist": pa.array(custdist, pa.int64()),
        }
    )


@query(sql="""
SELECT ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO'
                 THEN CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)
                 ELSE 0 END)
       / SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)), 6)
       AS promo_revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= DATE '1997-09-01' AND l_shipdate < DATE '1997-10-01'
""")
def q14_promo_revenue(sf_dir: str):
    """TPC-H q14 shape: conditional aggregation ratio after a fact-dim
    join. The month window rides the lineitem read; the part type attaches
    by lookup_join and the promo bit is computed on the joined batches.
    Revenue in exact 10^-4 units; the ratio is one float division on the
    driver, identical IEEE ops to the SQL."""
    import ray.data

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= datetime(1997, 9, 1))
        & (pads.field("l_shipdate") < datetime(1997, 10, 1)),
    )
    part = read_dim(_p(sf_dir, "part"), ["p_partkey", "p_type"])

    def partial(b: pa.Table) -> pa.Table:
        u = sql_round_np(
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
            * 10000.0,
            0,
        ).astype(np.int64)
        promo = pc.fill_null(pc.equal(b["p_type"], "PROMO"), False).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "p": pa.array([int(u[promo].sum())], pa.int64()),
                "t": pa.array([int(u.sum())], pa.int64()),
            }
        )

    pt_tbl = _collect_table(
        lookup_join(li, part, on="l_partkey", right_on="p_partkey").map_batches(
            partial, batch_format="pyarrow", batch_size=131072
        )
    )
    p = int(pc.sum(pt_tbl["p"]).as_py() or 0)
    t = int(pc.sum(pt_tbl["t"]).as_py() or 0)
    val = sql_round(100.0 * p / t, 6) if t else None
    return pa.table({"promo_revenue": pa.array([val], pa.float64())})


_Q16_SIZES = (5, 10, 15, 20, 25, 30)
_Q16_SUPP_BAL = 2000.0


@query(sql=f"""
SELECT p_brand, p_type, p_size, COUNT(DISTINCT l_suppkey) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#1' AND p_size IN {_Q16_SIZES}
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < {_Q16_SUPP_BAL})
GROUP BY 1, 2, 3
""")
def q16_supplier_cnt(sf_dir: str):
    """TPC-H q16 shape: COUNT(DISTINCT supplier) per part group, with a
    NOT-IN supplier anti-join. Plan: lineitem minus the excluded suppliers
    (anti lookup_join) reduces to distinct (partkey, suppkey) pairs — ONE
    packed-u64 count_by_u64; group labels are discovered DISTRIBUTEDLY
    (per-batch distinct triple combiner -> tiny driver set, <= brands x
    types x sizes rows); the qualifying parts attach by lookup_join and
    the dense gid is computed on the joined batches; distinct (gid,
    suppkey) and the final per-gid counts are two more packed count_by_u64
    passes — no shuffle ever carries strings."""
    import ray.data

    pfilter = (pads.field("p_brand") != "Brand#1") & (
        pads.field("p_size").isin(list(_Q16_SIZES))
    )
    pcols = ["p_partkey", "p_brand", "p_type", "p_size"]
    parts = ray.data.read_parquet(_p(sf_dir, "part"), columns=pcols, filter=pfilter)

    def _codes(b: pa.Table) -> pa.Array:
        return pc.binary_join_element_wise(
            b["p_brand"], b["p_type"], pc.cast(b["p_size"], pa.string()), "|"
        )

    # distinct group triples: per-batch unique combiner -> tiny driver set
    gtbl = _collect_table(
        parts.map_batches(
            lambda b: pa.table({"g": pc.unique(_codes(b))}), batch_format="pyarrow"
        )
    )
    gset = np.unique(gtbl["g"].to_numpy(zero_copy_only=False))
    if len(gset) == 0:
        return pa.table(
            {
                "p_brand": pa.array([], pa.string()),
                "p_type": pa.array([], pa.string()),
                "p_size": pa.array([], pa.int32()),
                "supplier_cnt": pa.array([], pa.int64()),
            }
        )

    # distinct (partkey, suppkey) pairs, excluded suppliers dropped
    excl = read_dim(
        _p(sf_dir, "supplier"), ["s_suppkey"],
        filter=pads.field("s_acctbal") < _Q16_SUPP_BAL,
    )

    def pack_pairs(b: pa.Table) -> pa.Table:
        pk = b["l_partkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        sk = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table({"key": pa.array((pk << np.uint64(32)) | sk, pa.uint64())})

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    pairs = count_by_u64(
        lookup_join(li, excl, on="l_suppkey", right_on="s_suppkey", how="anti")
        .map_batches(pack_pairs, batch_format="pyarrow", batch_size=131072),
        "key",
    )
    unpacked = pairs.map_batches(
        lambda b: pa.table(
            {
                "pkey": pc.cast(pc.shift_right(b["key"], 32), pa.int64()),
                "skey": pc.cast(pc.bit_wise_and(b["key"], 0xFFFFFFFF), pa.uint64()),
            }
        ),
        batch_format="pyarrow",
    )

    def gid_pairs(b: pa.Table, gset=gset) -> pa.Table:
        gid = np.searchsorted(gset, _codes(b).to_numpy(zero_copy_only=False))
        skey = b["skey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"key": pa.array((gid.astype(np.uint64) << np.uint64(32)) | skey, pa.uint64())}
        )

    part = read_dim(_p(sf_dir, "part"), pcols, filter=pfilter)
    gs_pairs = lookup_join(unpacked, part, on="pkey", right_on="p_partkey").map_batches(
        gid_pairs, batch_format="pyarrow", batch_size=131072
    )

    # distinct (gid, suppkey) -> per-gid count; result <= #groups rows
    gs_distinct = count_by_u64(gs_pairs, "key").map_batches(
        lambda b: pa.table({"key": pc.shift_right(b["key"], 32)}),
        batch_format="pyarrow",
    )
    final = _collect_table(count_by_u64(gs_distinct, "key"))
    gids = final["key"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnts = final["cnt"].to_numpy(zero_copy_only=False)
    trip = [gset[g].split("|") for g in gids]
    return pa.table(
        {
            "p_brand": pa.array([t[0] for t in trip], pa.string()),
            "p_type": pa.array([t[1] for t in trip], pa.string()),
            "p_size": pa.array([int(t[2]) for t in trip], pa.int32()),
            "supplier_cnt": pa.array(cnts, pa.int64()),
        }
    )


_Q17_BRAND = "Brand#23"


@query(sql=f"""
WITH ag AS (
  SELECT l_partkey AS pk,
         SUM(CAST(ROUND(l_quantity * 100.0) AS BIGINT)) AS s100,
         COUNT(*) AS cnt
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = '{_Q17_BRAND}'
  GROUP BY 1)
SELECT ROUND(COALESCE(SUM(CAST(ROUND(l_extendedprice * 10000.0) AS BIGINT)), 0) / 70000.0, 2)
         AS avg_yearly,
       COUNT(*) AS n_items
FROM lineitem l JOIN ag ON l.l_partkey = ag.pk
WHERE CAST(ROUND(l.l_quantity * 100.0) AS BIGINT) * 5 * ag.cnt < ag.s100
""")
def q17_small_qty_revenue(sf_dir: str):
    """TPC-H q17 shape: join against a per-group AVERAGE threshold
    (correlated-subquery flattening). Plan: the qualifying partkeys (one
    brand, dim side) semi-filter lineitem; pass 1 computes per-part
    (sum_qty, count) in ONE packed sum_by_u64 (qty100 << 21 | 1 — exact
    while a part has < 2^21 lineitems); the per-part stats re-attach by
    lookup_join on pass 2 and the avg comparison is pure integers
    (qty*5*cnt < sum — no division); revenue in 10^-4 units, one-row
    result."""
    brand = read_dim(
        _p(sf_dir, "part"), ["p_partkey"], filter=pads.field("p_brand") == _Q17_BRAND
    )

    def qty_pre(b: pa.Table) -> pa.Table:
        q100 = sql_round_np(
            b["l_quantity"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table(
            {
                "key": pc.cast(b["l_partkey"], pa.uint64()),
                "v": pa.array((q100 << 21) | 1, pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    agg = sum_by_u64(
        lookup_join(li, brand, on="l_partkey", right_on="p_partkey", how="semi")
        .map_batches(qty_pre, batch_format="pyarrow", batch_size=131072),
        "key", "v",
    )
    stats = agg.map_batches(
        lambda b: pa.table({"pkey": pc.cast(b["key"], pa.int64()), "v": b["cnt"]}),
        batch_format="pyarrow",
    )

    def partial(b: pa.Table) -> pa.Table:
        v = b["v"].to_numpy(zero_copy_only=False)
        s100, cnt = v >> 21, v & ((1 << 21) - 1)
        q100 = sql_round_np(
            b["l_quantity"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        u = sql_round_np(
            b["l_extendedprice"].to_numpy(zero_copy_only=False) * 10000.0, 0
        ).astype(np.int64)
        keep = q100 * 5 * cnt < s100
        return pa.table(
            {
                "u": pa.array([int(u[keep].sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    li2 = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
    t = _collect_table(
        lookup_join(li2, stats, on="l_partkey", right_on="pkey").map_batches(
            partial, batch_format="pyarrow", batch_size=131072
        )
    )
    u = int(pc.sum(t["u"]).as_py() or 0)
    n = int(pc.sum(t["n"]).as_py() or 0)
    return pa.table(
        {
            "avg_yearly": pa.array([sql_round(u / 70000.0, 2)], pa.float64()),
            "n_items": pa.array([n], pa.int64()),
        }
    )


_Q2_SUPP_BITS = 24  # suppkey rides the low bits of the packed argmin value


@query(sql="""
WITH r AS (
  SELECT l_partkey, l_suppkey, l_extendedprice,
         ROW_NUMBER() OVER (
           PARTITION BY l_partkey
           ORDER BY CAST(ROUND(l_extendedprice * 100.0) AS BIGINT), l_suppkey) AS rn
  FROM lineitem)
SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
       ROUND(CAST(ROUND(l_extendedprice * 100.0) AS BIGINT) / 100.0, 2) AS min_price,
       s_name
FROM r JOIN supplier ON s_suppkey = l_suppkey
WHERE rn = 1
""")
def q2_min_cost_supplier(sf_dir: str):
    """TPC-H q2 shape: grouped ARGMIN with join-back — per part, the
    supplier offering the minimum price (price tie -> min suppkey). Plan:
    ONE packed agg.min_by_u64 pass (price_cents << 24 | suppkey, so the
    u64 minimum IS the lexicographic (price, suppkey) argmin — no window,
    no second scan); supplier names attach by lookup_join.
    Bound: suppkey < 2^24, price < 2^39 cents — both hold by orders of
    magnitude at any TPC-H scale."""

    def pre(b: pa.Table) -> pa.Table:
        cents = sql_round_np(
            b["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.uint64)
        sk = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.table(
            {
                "key": pc.cast(b["l_partkey"], pa.uint64()),
                "val": pa.array(
                    (cents << np.uint64(_Q2_SUPP_BITS)) | sk, pa.uint64()
                ),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])
    best = min_by_u64(li.map_batches(pre, batch_format="pyarrow", batch_size=131072), "key", "val")

    def unpack(b: pa.Table) -> pa.Table:
        v = b["val"].to_numpy(zero_copy_only=False)
        cents = (v >> np.uint64(_Q2_SUPP_BITS)).astype(np.int64)
        return pa.table(
            {
                "p_partkey": pc.cast(b["key"], pa.int64()),
                "s_suppkey": pa.array(
                    (v & np.uint64((1 << _Q2_SUPP_BITS) - 1)).astype(np.int64), pa.int64()
                ),
                "min_price": pa.array(sql_round_np(cents / 100.0, 2), pa.float64()),
            }
        )

    supp = read_dim(_p(sf_dir, "supplier"), ["s_suppkey", "s_name"])
    return lookup_join(
        best.map_batches(unpack, batch_format="pyarrow"), supp, on="s_suppkey"
    )


_Q7_NATIONS = ("NATION_3", "NATION_7")


@query(sql=f"""
SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       ROUND(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT))
             / 10000.0, 2) AS revenue
FROM lineitem
JOIN orders   ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
JOIN customer ON o_custkey = c_custkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
WHERE sn.n_name IN {_Q7_NATIONS} AND cn.n_name IN {_Q7_NATIONS}
  AND sn.n_name <> cn.n_name
  AND l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1998-01-01'
GROUP BY 1, 2, 3
""")
def q7_nation_volume(sf_dir: str):
    """TPC-H q7 shape: shipping volume between two nations, grouped by the
    directed (supp_nation, cust_nation) pair and ship year. Plan: the
    supplier side prunes lineitem EARLY (the two nations' suppliers attach
    by lookup_join, rows outside them never reach the fact join); the
    orders fact attaches via the fully-distributed hash join (fact-fact —
    never broadcast); the two nations' customers attach to orders the same
    way; final group is (2 x 2 x years) rows via a per-batch combiner.
    Exact integer 10^-4 revenue units."""
    import ray.data

    # nation name -> key (25-row dimension)
    nt = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    key_of = dict(zip(nt["n_name"].to_pylist(), nt["n_nationkey"].to_pylist()))
    nk = sorted(key_of[n] for n in _Q7_NATIONS if n in key_of)
    name_of = {key_of[n]: n for n in _Q7_NATIONS if n in key_of}

    supp = read_dim(
        _p(sf_dir, "supplier"), ["s_suppkey", "s_nationkey"],
        filter=pads.field("s_nationkey").isin(nk),
    )

    def li_pre(b: pa.Table) -> pa.Table:
        units = sql_round_np(
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
            * 10000.0,
            0,
        ).astype(np.int64)
        yr = (
            b["l_shipdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "okey": pc.cast(b["l_orderkey"], pa.int64()),
                "supp_nk": pc.cast(b["s_nationkey"], pa.int64()),
                "l_year": pa.array(yr, pa.int64()),
                "units": pa.array(units, pa.int64()),
            }
        )

    li = lookup_join(
        ray.data.read_parquet(
            _p(sf_dir, "lineitem"),
            columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
            filter=(pads.field("l_shipdate") >= datetime(1996, 1, 1))
            & (pads.field("l_shipdate") < datetime(1998, 1, 1)),
        ),
        supp, on="l_suppkey", right_on="s_suppkey",
    ).map_batches(li_pre, batch_format="pyarrow", batch_size=131072)

    cust = read_dim(
        _p(sf_dir, "customer"), ["c_custkey", "c_nationkey"],
        filter=pads.field("c_nationkey").isin(nk),
    )
    orders = lookup_join(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        cust, on="o_custkey", right_on="c_custkey",
    ).map_batches(
        lambda b: pa.table(
            {
                "okey": pc.cast(b["o_orderkey"], pa.int64()),
                "cust_nk": pc.cast(b["c_nationkey"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    j = hash_join(li, orders, on="okey")

    # directed pairs between DISTINCT nations only (q7 semantics)
    t = fold_table(
        j.filter(expr="supp_nk != cust_nk"),
        ["supp_nk", "cust_nk", "l_year"],
        {"u": ("units", "sum")},
    )
    return pa.table(
        {
            "supp_nation": pa.array(
                [name_of[k] for k in t["supp_nk"].to_pylist()], pa.string()
            ),
            "cust_nation": pa.array(
                [name_of[k] for k in t["cust_nk"].to_pylist()], pa.string()
            ),
            "l_year": t["l_year"],
            "revenue": pa.array(
                sql_round_np(t["u"].to_numpy(zero_copy_only=False) / 10000.0, 2),
                pa.float64(),
            ),
        }
    )


@query(sql="""
WITH rev AS (
  SELECT l_suppkey,
         SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)) AS u
  FROM lineitem
  WHERE l_shipdate >= DATE '1997-01-01' AND l_shipdate < DATE '1997-04-01'
  GROUP BY 1)
SELECT l_suppkey AS s_suppkey, s_name, ROUND(u / 10000.0, 2) AS total_revenue
FROM rev JOIN supplier ON s_suppkey = l_suppkey
WHERE u = (SELECT MAX(u) FROM rev)
""")
def q15_top_supplier(sf_dir: str):
    """TPC-H q15 shape: global ARGMAX with ties — every supplier achieving
    the maximum quarterly revenue (LIMIT 1 would silently drop ties, which
    is the point of the shape). Plan: per-supplier exact revenue units via
    ONE sum_by_u64; the global max is a per-batch combiner over that small
    table (never collected whole); a second pass filters equality. Output
    joins the supplier dim for names by lookup_join."""
    import ray.data

    def pre(b: pa.Table) -> pa.Table:
        units = sql_round_np(
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
            * 10000.0,
            0,
        ).astype(np.int64)
        return pa.table(
            {
                "key": pc.cast(b["l_suppkey"], pa.uint64()),
                "v": pa.array(units, pa.int64()),
            }
        )

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= datetime(1997, 1, 1))
        & (pads.field("l_shipdate") < datetime(1997, 4, 1)),
    ).map_batches(pre, batch_format="pyarrow", batch_size=131072)
    rev = sum_by_u64(li, "key", "v").materialize()  # one execution, two consumers

    mx_parts = _collect_table(
        rev.map_batches(
            lambda b: pa.table(
                {
                    "m": pa.array(
                        [int(b["cnt"].to_numpy(zero_copy_only=False).max()) if b.num_rows else np.iinfo(np.int64).min],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
    )
    mx = int(pc.max(mx_parts["m"]).as_py())

    def winners(b: pa.Table, mx=mx) -> pa.Table:
        keep = b.filter(pc.equal(b["cnt"], mx))
        return pa.table(
            {
                "s_suppkey": pc.cast(keep["key"], pa.int64()),
                "total_revenue": pa.array(
                    sql_round_np(
                        keep["cnt"].to_numpy(zero_copy_only=False) / 10000.0, 2
                    ),
                    pa.float64(),
                ),
            }
        )

    supp = read_dim(_p(sf_dir, "supplier"), ["s_suppkey", "s_name"])
    return lookup_join(
        rev.map_batches(winners, batch_format="pyarrow"), supp, on="s_suppkey"
    )


_Q19_BRACKETS = (
    (12, 1, 11, 1, 5),
    (23, 10, 20, 1, 10),
    (34, 20, 30, 1, 15),
)


@query(sql=f"""
SELECT ROUND(COALESCE(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)), 0)
             / 10000.0, 2) AS revenue,
       COUNT(*) AS n_items
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5)
   OR (p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10)
   OR (p_brand = 'Brand#34' AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15)
""")
def q19_disjunctive_revenue(sf_dir: str):
    """TPC-H q19 shape: revenue under a DISJUNCTION of multi-table
    predicate brackets (brand x quantity-range x size-range). The common
    envelope (quantity <= max bracket) rides the read; part attrs attach by
    lookup_join and reduce to (brand_num, size) ints on the joined batches;
    the OR-of-ANDs mask is one vectorized expression; exact integer units,
    one-row result."""
    import ray.data

    qmax = float(max(hi for _, _, hi, _, _ in _Q19_BRACKETS))
    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        filter=pads.field("l_quantity") <= qmax,
    )
    part = read_dim(_p(sf_dir, "part"), ["p_partkey", "p_brand", "p_size"])

    def partial(b: pa.Table) -> pa.Table:
        bn = pc.cast(pc.utf8_slice_codeunits(b["p_brand"], 6, 99), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        size = b["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        keep = np.zeros(b.num_rows, dtype=bool)
        for brand, qlo, qhi, slo, shi in _Q19_BRACKETS:
            keep |= (
                (bn == brand)
                & (qty >= qlo)
                & (qty <= qhi)
                & (size >= slo)
                & (size <= shi)
            )
        u = sql_round_np(
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
            * 10000.0,
            0,
        ).astype(np.int64)[keep]
        return pa.table(
            {
                "u": pa.array([int(u.sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    t = _collect_table(
        lookup_join(li, part, on="l_partkey", right_on="p_partkey").map_batches(
            partial, batch_format="pyarrow", batch_size=131072
        )
    )
    u = int(pc.sum(t["u"]).as_py() or 0)
    n = int(pc.sum(t["n"]).as_py() or 0)
    return pa.table(
        {
            "revenue": pa.array([sql_round(u / 10000.0, 2)], pa.float64()),
            "n_items": pa.array([n], pa.int64()),
        }
    )


_Q22_CUTOFF = datetime(1999, 1, 1)


@query(sql="""
WITH t AS (
  SELECT SUM(CAST(ROUND(c_acctbal * 100.0) AS BIGINT)) AS s, COUNT(*) AS n
  FROM customer WHERE CAST(ROUND(c_acctbal * 100.0) AS BIGINT) > 0)
SELECT c_custkey % 7 AS cntrycode, COUNT(*) AS numcust,
       ROUND(SUM(CAST(ROUND(c_acctbal * 100.0) AS BIGINT)) / 100.0, 2) AS totacctbal
FROM customer, t
WHERE CAST(ROUND(c_acctbal * 100.0) AS BIGINT) * t.n > t.s
  AND c_custkey NOT IN (SELECT DISTINCT o_custkey FROM orders
                        WHERE o_orderdate >= DATE '1999-01-01')
GROUP BY 1
""")
def q22_idle_balance(sf_dir: str):
    """TPC-H q22 shape: scalar-subquery threshold (global average of
    positive balances) + NOT-IN anti-join + group aggregate. Plan: the
    threshold is two integers (sum, count of positive rounded cents) from a
    per-batch combiner; RECENT purchaser custkeys (idle = no order since
    the cutoff — every customer has ordered at least once in this corpus)
    reduce distributedly to a distinct key set that anti-filters customer
    (lookup_join — the cust_no_orders shape); the avg comparison is
    integer cross-multiply (cents * n > sum), so both engines agree
    exactly."""
    import ray.data

    def cents_of(b: pa.Table) -> np.ndarray:
        return sql_round_np(
            b["c_acctbal"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def thresh_partial(b: pa.Table) -> pa.Table:
        c = cents_of(b)
        pos = c > 0
        return pa.table(
            {
                "s": pa.array([int(c[pos].sum())], pa.int64()),
                "n": pa.array([int(pos.sum())], pa.int64()),
            }
        )

    tt = _collect_table(
        cust.map_batches(thresh_partial, batch_format="pyarrow", batch_size=131072)
    )
    s = int(pc.sum(tt["s"]).as_py() or 0)
    n = int(pc.sum(tt["n"]).as_py() or 0)

    purch = count_by_u64(
        ray.data.read_parquet(
            _p(sf_dir, "orders"),
            columns=["o_custkey"],
            filter=pads.field("o_orderdate") >= _Q22_CUTOFF,
        ).map_batches(
            lambda b: pa.table({"key": pc.cast(b["o_custkey"], pa.uint64())}),
            batch_format="pyarrow",
        ),
        "key",
    ).map_batches(
        lambda b: pa.table({"o_custkey": pc.cast(b["key"], pa.int64())}),
        batch_format="pyarrow",
    )

    def partial(b: pa.Table, s=s, n=n) -> pa.Table:
        ck = b["c_custkey"].to_numpy(zero_copy_only=False)
        c = cents_of(b)
        keep = c * n > s
        code = ck[keep] % 7
        cc = c[keep]
        u = np.unique(code)
        sums = np.array([int(cc[code == g].sum()) for g in u], dtype=np.int64)
        cnts = np.array([int((code == g).sum()) for g in u], dtype=np.int64)
        return pa.table(
            {
                "cntrycode": pa.array(u, pa.int64()),
                "numcust": pa.array(cnts, pa.int64()),
                "cents": pa.array(sums, pa.int64()),
            }
        )

    parts = _collect_table(
        lookup_join(cust, purch, on="c_custkey", right_on="o_custkey", how="anti")
        .map_batches(partial, batch_format="pyarrow", batch_size=131072)
    )
    code = parts["cntrycode"].to_numpy(zero_copy_only=False)
    order = np.argsort(code, kind="stable")
    code, nc, ce = (
        code[order],
        parts["numcust"].to_numpy(zero_copy_only=False)[order],
        parts["cents"].to_numpy(zero_copy_only=False)[order],
    )
    new = np.ones(len(code), dtype=bool)
    if len(code):
        new[1:] = code[1:] != code[:-1]
    starts = np.nonzero(new)[0]
    return pa.table(
        {
            "cntrycode": pa.array(code[starts], pa.int64()),
            "numcust": pa.array(
                np.add.reduceat(nc, starts) if len(starts) else nc[:0], pa.int64()
            ),
            "totacctbal": pa.array(
                sql_round_np(
                    (np.add.reduceat(ce, starts) if len(starts) else ce[:0]) / 100.0, 2
                ),
                pa.float64(),
            ),
        }
    )


# ========================================================== misc wave 2
# Ordered string aggregation, bag-difference set op, stratified sampling.


@query(sql="""
SELECT r_name, STRING_AGG(n_name, ',' ORDER BY n_name) AS nations
FROM nation JOIN region ON n_regionkey = r_regionkey
GROUP BY 1
""")
def region_nations_agg(sf_dir: str):
    """STRING_AGG per group (ordered list aggregation): nation names per
    region, comma-joined in name order. One hash-partition shuffle by the
    grouping key; the per-partition pass sorts each key's segment and joins
    — string concatenation is inherently per-group work, but groups never
    leave their partition and the 5-row region dim rides a closure."""
    rt = pq.read_table(_p(sf_dir, "region"), columns=["r_regionkey", "r_name"])
    r_name_of = dict(zip(rt["r_regionkey"].to_pylist(), rt["r_name"].to_pylist()))

    ds = _read(sf_dir, "nation", ["n_regionkey", "n_name"]).map_batches(
        lambda b: pa.table(
            {"rkey": pc.cast(b["n_regionkey"], pa.int64()), "n_name": b["n_name"]}
        ),
        batch_format="pyarrow",
    )

    def per_part(g: pa.Table, r_name_of=r_name_of) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"r_name": pa.array([], pa.string()), "nations": pa.array([], pa.string())})
        rk = g["rkey"].to_numpy(zero_copy_only=False)
        names = np.asarray(g["n_name"].to_pylist())
        out_r, out_n = [], []
        for key in np.unique(rk):
            seg = np.sort(names[rk == key])
            out_r.append(r_name_of[int(key)])
            out_n.append(",".join(seg))
        return pa.table(
            {"r_name": pa.array(out_r, pa.string()), "nations": pa.array(out_n, pa.string())}
        )

    return map_groups_partitioned(ds, "rkey", per_part)


# ---------------------------------------------------------------- registry

# ---------------------------------------------------------------- q8/q9/q11/q20/q21 shapes
# The last relational skeletons from the TPC-H family expressible over this
# corpus (no partsupp table exists, so q9/q11/q20 substitute an equivalent
# dim/threshold while keeping the plan shape — noted per query).

_Q8_TYPE = "ECONOMY"
_Q8_REGION = "ASIA"
_Q8_NATION = "NATION_2"  # regionkey 2 = ASIA (n_regionkey = n_nationkey % 5)


@query(sql=f"""
SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
       ROUND(CAST(SUM(CASE WHEN sn.n_name = '{_Q8_NATION}'
                      THEN CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)
                      ELSE 0 END) AS DOUBLE)
             / SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)),
             6) AS mkt_share
FROM lineitem
JOIN part     ON l_partkey = p_partkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
JOIN orders   ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
JOIN region   ON cn.n_regionkey = r_regionkey
WHERE p_type = '{_Q8_TYPE}' AND r_name = '{_Q8_REGION}'
  AND o_orderdate >= DATE '1995-01-01' AND o_orderdate < DATE '1997-01-01'
GROUP BY 1
""")
def q8_market_share(sf_dir: str):
    """TPC-H q8 shape: national market share — the share of one nation's
    suppliers in a region's market for one part type, by order year. Plan:
    the part type semi-filters lineitem and the supplier nation attaches
    (both lookup_join), the region's customers semi-filter orders BEFORE
    the fact-fact hash join on orderkey, and the share is a conditional /
    total ratio of exact 10^-4 integer units with ONE float division per
    year (identical IEEE ops to the SQL)."""
    import ray.data

    nt = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name", "n_regionkey"])
    rt = pq.read_table(_p(sf_dir, "region"), columns=["r_regionkey", "r_name"])
    region_key = rt["r_regionkey"].to_pylist()[rt["r_name"].to_pylist().index(_Q8_REGION)]
    region_nations = sorted(
        k
        for k, r in zip(nt["n_nationkey"].to_pylist(), nt["n_regionkey"].to_pylist())
        if r == region_key
    )
    nation_key = nt["n_nationkey"].to_pylist()[nt["n_name"].to_pylist().index(_Q8_NATION)]

    part = read_dim(_p(sf_dir, "part"), ["p_partkey"], filter=pads.field("p_type") == _Q8_TYPE)
    supp = read_dim(_p(sf_dir, "supplier"), ["s_suppkey", "s_nationkey"])

    def li_pre(b: pa.Table) -> pa.Table:
        units = sql_round_np(
            b["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - b["l_discount"].to_numpy(zero_copy_only=False))
            * 10000.0,
            0,
        ).astype(np.int64)
        is_nat = (
            b["s_nationkey"].to_numpy(zero_copy_only=False) == nation_key
        ).astype(np.int64)
        return pa.table(
            {
                "okey": pc.cast(b["l_orderkey"], pa.int64()),
                "units": pa.array(units, pa.int64()),
                "nat_units": pa.array(units * is_nat, pa.int64()),
            }
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]
    )
    li = lookup_join(
        lookup_join(li, part, on="l_partkey", right_on="p_partkey", how="semi"),
        supp, on="l_suppkey", right_on="s_suppkey",
    ).map_batches(li_pre, batch_format="pyarrow", batch_size=131072)

    # orders in the window, customers in the region
    cust = read_dim(
        _p(sf_dir, "customer"), ["c_custkey"],
        filter=pads.field("c_nationkey").isin(region_nations),
    )

    def orders_pre(b: pa.Table) -> pa.Table:
        yr = (
            b["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "okey": pc.cast(b["o_orderkey"], pa.int64()),
                "o_year": pa.array(yr, pa.int64()),
            }
        )

    orders = lookup_join(
        ray.data.read_parquet(
            _p(sf_dir, "orders"),
            columns=["o_orderkey", "o_custkey", "o_orderdate"],
            filter=(pads.field("o_orderdate") >= datetime(1995, 1, 1))
            & (pads.field("o_orderdate") < datetime(1997, 1, 1)),
        ),
        cust, on="o_custkey", right_on="c_custkey", how="semi",
    ).map_batches(orders_pre, batch_format="pyarrow", batch_size=131072)

    j = hash_join(li, orders, on="okey")

    t = fold_table(j, "o_year", {"t": ("units", "sum"), "p": ("nat_units", "sum")})
    tot = t["t"].to_numpy(zero_copy_only=False).astype(np.float64)
    nat = t["p"].to_numpy(zero_copy_only=False).astype(np.float64)
    share = sql_round_np(nat / tot, 6)
    return pa.table(
        {
            "o_year": t["o_year"],
            "mkt_share": pa.array(share, pa.float64()),
        }
    )


_Q9_TOKEN = "widget"


@query(sql=f"""
SELECT n_name AS nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       ROUND(SUM(CAST(ROUND(l_extendedprice * (1 - l_discount) * 10000.0) AS BIGINT)
               - CAST(ROUND(0.5 * p_retailprice * l_quantity * 10000.0) AS BIGINT))
             / 10000.0, 2) AS profit
FROM lineitem
JOIN part     ON l_partkey = p_partkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation   ON s_nationkey = n_nationkey
WHERE p_name LIKE '%{_Q9_TOKEN}%'
GROUP BY 1, 2
""")
def q9_profit_proxy(sf_dir: str):
    """TPC-H q9 shape: product-type profit by supplier nation and year.
    The corpus has no partsupp, so supply cost is the deterministic proxy
    0.5 * p_retailprice * l_quantity (identical expression in the SQL) —
    the PLAN is q9's: the substring-filtered part dim and the supplier dim
    both attach by lookup_join, profit is exact 10^-4 integer units, and
    the final group is (nation x year) via a per-batch combiner."""

    part = read_dim(
        _p(sf_dir, "part"), ["p_partkey", "p_retailprice"],
        filter=pc.match_substring(pads.field("p_name"), _Q9_TOKEN),
    )
    supp = read_dim(_p(sf_dir, "supplier"), ["s_suppkey", "s_nationkey"])

    def partial(b: pa.Table) -> pa.Table:
        ext = b["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = b["l_discount"].to_numpy(zero_copy_only=False)
        qty = b["l_quantity"].to_numpy(zero_copy_only=False)
        cost = b["p_retailprice"].to_numpy(zero_copy_only=False)
        profit = sql_round_np(ext * (1.0 - disc) * 10000.0, 0).astype(
            np.int64
        ) - sql_round_np(0.5 * cost * qty * 10000.0, 0).astype(np.int64)
        yr = (
            b["l_shipdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "nk": pc.cast(b["s_nationkey"], pa.int64()),
                "l_year": pa.array(yr, pa.int64()),
                "profit_u": pa.array(profit, pa.int64()),
            }
        )

    li = _read(
        sf_dir,
        "lineitem",
        ["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    t = fold_table(
        lookup_join(
            lookup_join(li, part, on="l_partkey", right_on="p_partkey"),
            supp, on="l_suppkey", right_on="s_suppkey",
        ).map_batches(partial, batch_format="pyarrow", batch_size=131072),
        ["nk", "l_year"],
        {"u": ("profit_u", "sum")},
    )
    nt = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nt["n_nationkey"].to_pylist(), nt["n_name"].to_pylist()))
    return pa.table(
        {
            "nation": pa.array([name_of[k] for k in t["nk"].to_pylist()], pa.string()),
            "l_year": t["l_year"],
            "profit": pa.array(
                sql_round_np(t["u"].to_numpy(zero_copy_only=False) / 10000.0, 2),
                pa.float64(),
            ),
        }
    )


_Q11_FRACTION = 0.02


@query(sql=f"""
WITH sums AS (
  SELECT s_nationkey AS nk,
         SUM(CAST(ROUND(s_acctbal * 100.0) AS BIGINT)) AS cents
  FROM supplier GROUP BY 1)
SELECT n_name, ROUND(cents / 100.0, 2) AS balance
FROM sums JOIN nation ON nk = n_nationkey
WHERE CAST(cents AS DOUBLE) > {_Q11_FRACTION} * (SELECT CAST(SUM(cents) AS DOUBLE) FROM sums)
ORDER BY balance DESC, n_name
""")
def q11_balance_concentration(sf_dir: str):
    """TPC-H q11 shape: groups whose aggregate exceeds a fraction of the
    GLOBAL aggregate (scalar-subquery HAVING). No partsupp table, so the
    measured value is supplier account balance by nation; the plan is
    q11's: one distributed pass produces per-group integer-cent sums, the
    global scalar is the sum OF those group sums (no second scan), and the
    threshold compare is one float multiply (identical IEEE ops in SQL)."""

    def pre(b: pa.Table) -> pa.Table:
        cents = sql_round_np(
            b["s_acctbal"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table(
            {"nk": pc.cast(b["s_nationkey"], pa.int64()), "cents": pa.array(cents, pa.int64())}
        )

    t = fold_table(
        _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])
        .map_batches(pre, batch_format="pyarrow", batch_size=131072),
        "nk",
        {"cents": ("cents", "sum")},
    )
    cents = t["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(cents.sum())
    keep = cents.astype(np.float64) > _Q11_FRACTION * float(total)
    nt = pq.read_table(_p(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nt["n_nationkey"].to_pylist(), nt["n_name"].to_pylist()))
    out = pa.table(
        {
            "n_name": pa.array(
                [name_of[k] for k in pc.array_filter(t["nk"], pa.array(keep)).to_pylist()],
                pa.string(),
            ),
            "balance": pa.array(
                sql_round_np(cents[keep] / 100.0, 2), pa.float64()
            ),
        }
    )
    return out.sort_by([("balance", "descending"), ("n_name", "ascending")])


_Q20_BRAND = "Brand#13"
_Q20_YEAR = 1996


@query(sql=f"""
WITH sums AS (
  SELECT l_suppkey AS sk, SUM(CAST(ROUND(l_quantity * 100.0) AS BIGINT)) AS cq
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = '{_Q20_BRAND}'
    AND l_shipdate >= DATE '{_Q20_YEAR}-01-01' AND l_shipdate < DATE '{_Q20_YEAR + 1}-01-01'
  GROUP BY 1)
SELECT s_name, ROUND(cq / 100.0, 2) AS qty
FROM sums JOIN supplier ON sk = s_suppkey
WHERE CAST(cq AS DOUBLE) > (SELECT CAST(SUM(cq) AS DOUBLE) / COUNT(*) FROM sums)
ORDER BY s_name
""")
def q20_excess_shippers(sf_dir: str):
    """TPC-H q20 shape: suppliers selected by a nested aggregate threshold
    — here, suppliers whose shipped quantity of one brand's parts in one
    year exceeds the per-supplier average of that same aggregate (the
    partsupp availqty threshold re-expressed self-referentially). Plan:
    the brand's partkeys semi-filter lineitem (lookup_join), ONE combiner
    pass sums integer centi-units per supplier, the scalar threshold is
    derived from the collected per-supplier sums (tiny: |supplier| rows),
    and the name join is a driver-side dim lookup."""
    import ray.data

    part = read_dim(
        _p(sf_dir, "part"), ["p_partkey"], filter=pads.field("p_brand") == _Q20_BRAND
    )

    def pre(b: pa.Table) -> pa.Table:
        cq = sql_round_np(
            b["l_quantity"].to_numpy(zero_copy_only=False) * 100.0, 0
        ).astype(np.int64)
        return pa.table(
            {
                "sk": pc.cast(b["l_suppkey"], pa.int64()),
                "cq": pa.array(cq, pa.int64()),
            }
        )

    li = ray.data.read_parquet(
        _p(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_quantity"],
        filter=(pads.field("l_shipdate") >= datetime(_Q20_YEAR, 1, 1))
        & (pads.field("l_shipdate") < datetime(_Q20_YEAR + 1, 1, 1)),
    )
    t = fold_table(
        lookup_join(li, part, on="l_partkey", right_on="p_partkey", how="semi")
        .map_batches(pre, batch_format="pyarrow", batch_size=131072),
        "sk",
        {"cq": ("cq", "sum")},
    )
    cq = t["cq"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(cq)
    if n == 0:
        return pa.table({"s_name": pa.array([], pa.string()), "qty": pa.array([], pa.float64())})
    thresh = float(cq.sum()) / n  # single division, mirrored in SQL
    keep = cq.astype(np.float64) > thresh
    st = pq.read_table(_p(sf_dir, "supplier"), columns=["s_suppkey", "s_name"])
    name_of = dict(zip(st["s_suppkey"].to_pylist(), st["s_name"].to_pylist()))
    out = pa.table(
        {
            "s_name": pa.array(
                [name_of[k] for k in pc.array_filter(t["sk"], pa.array(keep)).to_pylist()],
                pa.string(),
            ),
            "qty": pa.array(sql_round_np(cq[keep] / 100.0, 2), pa.float64()),
        }
    )
    return out.sort_by("s_name")


@query(sql="""
WITH per_order AS (
  SELECT l_orderkey, CAST(COUNT(*) AS BIGINT) AS n,
         MIN(l_suppkey) AS mn, MAX(l_suppkey) AS mx
  FROM lineitem GROUP BY 1)
SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numsole
FROM per_order JOIN supplier ON mn = s_suppkey
WHERE n >= 2 AND mn = mx
GROUP BY 1 ORDER BY numsole DESC, s_name LIMIT 20
""")
def q21_sole_supplier(sf_dir: str):
    """TPC-H q21 shape: per-group EXISTS / NOT-EXISTS over sibling rows —
    here, suppliers who were the SOLE supplier on a multi-line order (the
    corpus has no commit/receipt dates, so 'other supplier kept it
    waiting' becomes 'no other supplier present'; the skeleton — an
    order-grained co-grouping deciding each supplier's membership — is
    q21's). Plan: per-batch combiner computes (orderkey -> count, min supp,
    max supp), ONE hash shuffle co-locates order fragments, a vectorized
    reduceat merge closes each order, and the per-supplier count is a tiny
    final fold."""

    def pre(b: pa.Table) -> pa.Table:
        ok = b["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = b["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ok, kind="stable")
        oks, sks = ok[order], sk[order]
        new = np.ones(len(oks), dtype=bool)
        if len(oks):
            new[1:] = oks[1:] != oks[:-1]
        starts = np.nonzero(new)[0]
        cnt = np.diff(np.append(starts, len(oks)))
        mn = np.minimum.reduceat(sks, starts) if len(starts) else sks[:0]
        mx = np.maximum.reduceat(sks, starts) if len(starts) else sks[:0]
        return pa.table(
            {
                "okey": pa.array(oks[starts], pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
                "mn": pa.array(mn, pa.int64()),
                "mx": pa.array(mx, pa.int64()),
            }
        )

    def close_orders(g: pa.Table) -> pa.Table:
        ok = g["okey"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        mn = g["mn"].to_numpy(zero_copy_only=False)
        mx = g["mx"].to_numpy(zero_copy_only=False)
        order = np.argsort(ok, kind="stable")
        oks = ok[order]
        new = np.ones(len(oks), dtype=bool)
        if len(oks):
            new[1:] = oks[1:] != oks[:-1]
        starts = np.nonzero(new)[0]
        tot = np.add.reduceat(n[order], starts) if len(starts) else n[:0]
        tmn = np.minimum.reduceat(mn[order], starts) if len(starts) else mn[:0]
        tmx = np.maximum.reduceat(mx[order], starts) if len(starts) else mx[:0]
        sole = (tot >= 2) & (tmn == tmx)
        return pa.table({"sk": pa.array(tmn[sole], pa.int64())})

    t = fold_table(
        map_groups_partitioned(
            _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"]).map_batches(
                pre, batch_format="pyarrow", batch_size=131072
            ),
            "okey",
            close_orders,
        ),
        "sk",
        {"numsole": (None, "count")},
    )
    st = pq.read_table(_p(sf_dir, "supplier"), columns=["s_suppkey", "s_name"])
    name_of = dict(zip(st["s_suppkey"].to_pylist(), st["s_name"].to_pylist()))
    out = pa.table(
        {
            "s_name": pa.array([name_of[k] for k in t["sk"].to_pylist()], pa.string()),
            "numsole": t["numsole"],
        }
    ).sort_by([("numsole", "descending"), ("s_name", "ascending")])
    return out.slice(0, 20)


@query(sql="""
WITH c AS (SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > 5000.0),
o AS (SELECT o_custkey AS c_custkey, CAST(COUNT(*) AS BIGINT) AS n_orders
      FROM orders WHERE o_orderdate >= TIMESTAMP '1997-01-01' GROUP BY 1)
SELECT COALESCE(c.c_custkey, o.c_custkey) AS c_custkey, c.c_acctbal, o.n_orders
FROM c FULL JOIN o ON c.c_custkey = o.c_custkey
""")
def cust_orders_full_outer(sf_dir: str):
    """FULL OUTER equi-join at the driver surface — the one hash_join mode
    (stages/join.py full-outer Acero path, null-key retention unit-tested)
    that had no oracle query. Left = high-balance customers, right =
    per-customer 1997+ order counts (exact count_by_u64 combiner): both
    sides surface unmatched rows (rich customer with no recent orders ->
    null n_orders; active customer below the balance cut -> null
    c_acctbal), keys coalesced exactly like SQL USING."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).filter(
        expr="c_acctbal > 5000.0"
    )
    cutoff = np.datetime64("1997-01-01", "us").astype(np.int64)

    def recent_keys(b: pa.Table) -> pa.Table:
        t = (
            b["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").astype(np.int64)
        )
        return pa.table(
            {"key": pc.cast(b["o_custkey"], pa.uint64()).filter(pa.array(t >= cutoff))}
        )

    counts = count_by_u64(
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
            recent_keys, batch_format="pyarrow", batch_size=131072
        ),
        "key",
    ).map_batches(
        lambda b: pa.table(
            {"c_custkey": pc.cast(b["key"], pa.int64()), "n_orders": b["cnt"]}
        ),
        batch_format="pyarrow",
    )
    return hash_join(
        cust, counts, on="c_custkey", how="full",
        left_schema=pa.schema([("c_custkey", pa.int64()), ("c_acctbal", pa.float64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()), ("n_orders", pa.int64())]),
    )
