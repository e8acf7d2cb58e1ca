"""The keyed exchange, and the read layout in front of it.

`exchange(ds, key, fn, parts, order)` routes rows by an integer key in
[0, parts) into R reduce blocks, then calls `fn` once per non-empty block
after a stable sort by `order`. It is the package's only keyed shuffle:
every branch keeps each key group whole in one block, the guarantee of
Ray's own `groupby(key).map_groups`, but none samples a predicted input:

  * R is the block count `predicted_num_blocks(ds)` reads off the logical
    plan, capped at `parts`; `parts <= 1` is R = 1 whatever the prediction;
  * R == 1: a gather, one `map_batches` whose batch size is every row:
    Ray's bundler sends all input blocks to one task and its batcher
    concatenates them, so `fn` runs once over all rows; the map fuses with
    the maps before it, with no all-to-all barrier. A `parts == 1` call
    never reads `key`, so a whole-input kernel (a graph held in one task,
    an all-pairs sample) names a key its rows need not carry;
  * R > 1: `ds.sort(key, boundaries=...)` at round(i * parts / R), so the
    sort skips its SortSample round trip and each reducer gets the same
    number of key values;
  * no prediction: Ray's sampled `ds.sort(key)`, as map_groups does.

A wrong prediction costs speed only. A block holds many keys, so `fn` is a
block kernel: one call per reduce block rather than one per key value. A
kernel that computes one result per key (a top-k merge, a per-cluster
prune) loops over the key runs of its block (`state.kernels._seg_head`
over rows the exchange sorted by `order`).

`pid_of(keys, parts)` is the one partition hash of the package: the
golden-ratio (Fibonacci) mix of a 64-bit key, `((key * GOLD) >> 33) % parts`.
The events, relational, text, dedup, join, graph, window, spans, bpe and ann
operators tag their rows with it, so an integer key maps to the same
partition id in every operator. A few tags keep a hash of their own (the
md5 digest of exact dedup, the `avalanche64` pids of the relational folds,
string keys through `string_hash_strong`); `exchange` needs only a key in
[0, parts).

The read in front of the exchange fixes R. `read_num_blocks(files)` picks
the read's block count without reading any data: from the cluster CPUs and
the parquet footers. Ray 2.49 sizes a read it is left to size as

    max(min(200, mem / target_min_block_size), mem / target_max_block_size, 2 x CPUs)

For a table that is large per CPU, that is the right count. For a small one
the 2 x CPUs floor wins over Ray's own minimum block size, and a 20k-row
events table (0.55 MiB) reads as eight 2,500-row blocks whose per-task
overhead is most of each query's wall. The rule has three branches:

  * at least as many files as cluster CPUs: one block per file (any format);
  * fewer files, parquet: ceil(footer bytes / target_min_block_size) blocks
    when that is below 2 x CPUs, i.e. Ray's heuristic with the CPU floor
    dropped only where the floor would decide the count;
  * otherwise (no Ray session, Ray's count already above the floor,
    unreadable or non-parquet input): None, and Ray splits as it always has.

"Footer bytes" is the sum of every row group's `total_byte_size`
(uncompressed), the in-memory size the footer promises without a data read.
The threshold is Ray's own `DataContext.target_min_block_size`, so lowering
that knob is also how a caller (or a test) asks for a finer split.

`read_table(files, columns)` reads with that count. A one-block table is
one Ray task running `pq.read_table`, handed over by
`ray.data.from_arrow_refs`, which skips the planning and the fragment
sampling of Ray's parquet read; any other count goes to
`ray.data.read_parquet`. A one-block table then costs one read task and
one fused map task from the read to `fn`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import DataContext, Dataset
from ray.data._internal.logical.operators.n_ary_operator import Union
from ray.data._internal.logical.operators.read_operator import Read

GOLD = np.uint64(0x9E3779B97F4A7C15)


def pid_of(keys, parts: int) -> np.ndarray:
    """int32 partition id in [0, parts) of each 64-bit key. Signed keys mix
    by their two's-complement bits; string keys hash to uint64 first
    (functions.hashing.hash64_str_array)."""
    with np.errstate(over="ignore"):
        pid = ((np.asarray(keys).astype(np.uint64) * GOLD) >> np.uint64(33)) % np.uint64(parts)
    return pid.astype(np.int32)


def _footer_bytes(files: list[str]) -> int | None:
    """Uncompressed bytes of every row group, from the parquet footers
    alone. None when a file is missing or not parquet."""
    total = 0
    for path in files:
        try:
            md = pq.read_metadata(path)
        except (OSError, pa.ArrowInvalid):
            return None
        total += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    return total


def read_num_blocks(files: list[str]) -> int | None:
    """Block count for reading `files`, or None to leave it to Ray (see the
    module docstring for the three branches)."""
    if not ray.is_initialized():
        return None
    cpus = int(ray.cluster_resources().get("CPU", 0))
    if cpus <= 0:
        return None
    if len(files) >= cpus:
        return len(files)
    nbytes = _footer_bytes(files)
    if nbytes is None:
        return None
    n = max(1, math.ceil(nbytes / DataContext.get_current().target_min_block_size))
    return n if n < 2 * cpus else None


@ray.remote
def _read_one_block(files: list[str], columns: list[str] | None) -> pa.Table:
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def read_table(files: list[str], columns: list[str] | None = None) -> Dataset:
    """The parquet `files` as a Dataset of `read_num_blocks(files)` blocks:
    one Ray task for a one-block table, else Ray's parquet read. Columns,
    their order and types are those of `ray.data.read_parquet`; files in
    hive-style `key=value` directories, whose partition columns only Ray's
    read adds, always take Ray's read."""
    n = read_num_blocks(files)
    if n == 1 and not any("=" in d for f in files for d in f.split("/")[:-1]):
        return ray.data.from_arrow_refs([_read_one_block.remote(files, columns)])
    return ray.data.read_parquet(files, columns=columns, override_num_blocks=n)


def _predicted_outputs(op) -> int | None:
    if isinstance(op, Read):
        # n read tasks; a requested count p above n makes Ray cut each task's
        # output into ceil(p / n) blocks (SplitBlocks). With no request Ray
        # sizes the read at plan time, which the logical plan cannot tell.
        n, p = op._num_outputs, op._parallelism
        if p <= 0:
            return None
        return n * max(1, math.ceil(p / n)) if n else 0
    if isinstance(op, Union):
        counts = [_predicted_outputs(d) for d in op.input_dependencies]
        return None if None in counts else sum(counts)
    if op._num_outputs is None and len(op.input_dependencies) == 1:
        return _predicted_outputs(op.input_dependencies[0])
    return op.estimated_num_outputs()


def predicted_num_blocks(ds: Dataset) -> int | None:
    """Blocks `ds` is predicted to produce, from its logical plan alone:
    Ray's `estimated_num_outputs`, except that a read counts the SplitBlocks
    Ray adds to reach a requested block count. None when unknown."""
    return _predicted_outputs(ds._logical_plan.dag)


def _stable_order(tbl: pa.Table, order: tuple[str, ...]) -> np.ndarray:
    """Row order of `tbl` stably sorted by the `order` columns, first column
    most significant; timestamps compare as int64."""
    cols = []
    for c in reversed(order):
        col = tbl.column(c)
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        cols.append(col.to_numpy(zero_copy_only=False))
    return np.lexsort(cols)


def exchange(
    ds: Dataset,
    key: str,
    fn: Callable[[pa.Table], pa.Table],
    parts: int,
    order: tuple[str, ...] = (),
) -> Dataset:
    """Route the rows of `ds` by the integer column `key`, whose values lie
    in [0, parts), so that each key value lands whole in one reduce block;
    then call `fn` once per non-empty block, sorted stably by `order` (see
    the module docstring for the routing rule)."""
    r = 1 if parts <= 1 else predicted_num_blocks(ds)
    batch_size = None  # one call per reduce block
    if r is None:
        ds = ds.sort(key)
    elif min(r, parts) <= 1:
        batch_size = sys.maxsize  # the gather: one call over every row
    else:
        r = min(r, parts)
        ds = ds.sort(key, boundaries=[round(i * parts / r) for i in range(1, r)])

    # Ray's batcher drops empty blocks, so a block that no key routed to
    # never reaches fn
    def per_block(tbl: pa.Table) -> pa.Table:
        if order:
            idx = _stable_order(tbl, order)
            if (np.diff(idx) != 1).any():  # no copy for a block already in order
                tbl = tbl.take(pa.array(idx))
        return fn(tbl)

    # the operator is named after fn, as map_groups names it
    per_block.__name__ = fn.__name__
    return ds.map_batches(per_block, batch_format="pyarrow", batch_size=batch_size)
