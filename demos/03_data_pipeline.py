"""Sharded input pipelines: host shards, padded eval batches, train stream.

Run: python3 demos/03_data_pipeline.py
"""

from deskml import rng as R
from deskml.config import Config
from deskml.data import ShardSpec, build_dataset, shard_indices

# Hosts own disjoint contiguous index blocks covering [0, n).
n, hosts = 10, 3
print(f"{n} examples over {hosts} hosts:")
for h in range(hosts):
    print(f"  host {h}: {shard_indices(n, ShardSpec(h, hosts)).tolist()}")
print()

# A dataset bundles an infinite shuffled train stream, a per-epoch eval
# iterator, and metadata. 10 eval examples with host batch 4 produce
# two full batches plus one padded batch whose mask marks real rows.
cfg = Config({"dataset": {"num_train_examples": 32, "num_eval_examples": 10}})
ds = build_dataset("blobs_classification",
                   ShardSpec(host_id=0, host_count=1, devices_per_host=1,
                             per_device_batch=4),
                   R.RngKey.from_seed(0), cfg)
print("metadata:", ds.meta_data)
for i, batch in enumerate(ds.eval_iter()):
    mask = batch["batch_mask"].data
    print(f"eval batch {i}: inputs {batch['inputs'].shape}, "
          f"mask {mask.tolist()} ({int(mask.sum())} real rows)")
total = sum(b["batch_mask"].data.sum() for b in ds.eval_iter())
print(f"total unmasked rows across the epoch: {int(total)} (exact count)")
print()

# The train stream is infinite: each epoch is a fresh permutation of the
# host's shard derived from the seed, so the same seed replays it exactly.
first = next(ds.train_iter)
print("first train batch labels:", first["label"].data.tolist())
