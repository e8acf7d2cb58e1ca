"""Read layout in front of a keyed exchange.

Every keyed exchange here is a sort-based shuffle, and Ray Data's sort emits
one reduce block (one grouped-kernel task) per upstream block. So the block
count of the read fixes the task count of every stage after it, across the
barrier too. `read_num_blocks(files)` picks that count without reading any
data: from the cluster CPUs and the parquet footers.

Ray 2.49 sizes a read it is left to size as

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
"""

from __future__ import annotations

import math

import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import DataContext


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
