// Placement for the sharded NDP serving tier: which server owns which
// slice of a dataset, and where its replicas live.
//
// The unit of placement is the *shard* — a deterministic 1/Nth of a
// dataset's brick space (or the whole blob for unbricked arrays). Shard s
// is homed on server s, so primaries are perfectly balanced by
// construction; the rest of its replica chain is the rendezvous
// (highest-random-weight) ranking of the remaining servers, so losing
// any one server spreads its load evenly over the survivors instead of
// dumping it on a single successor, and the chain never changes when an
// unrelated server joins or leaves.
//
// Bricks map to shards by rendezvous hashing over (key, brick, shard):
// stable under key renames of *other* datasets, uniform without any
// divisibility assumptions, and computable by every client independently
// — there is no placement service to query or keep consistent.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vizndp::cluster {

class ShardMap {
 public:
  // `servers` = cluster size N (one shard homed per server); `replicas` =
  // copies per shard, clamped to [1, N].
  ShardMap(int servers, int replicas);

  int servers() const { return servers_; }
  int replicas() const { return replicas_; }

  // Stable 64-bit dataset hash; the salt every placement decision mixes
  // in, so two datasets spread their bricks differently.
  static std::uint64_t KeyHash(std::string_view key);

  // Owning shard for one brick of `key` (rendezvous over all shards).
  int ShardOfBrick(std::uint64_t key_hash, std::int64_t brick) const;

  // Owning shard for an unbricked (whole-blob) dataset.
  int ShardOfKey(std::string_view key) const;

  // Per-shard sorted brick lists for a dataset with `brick_count` bricks:
  // Partition(...)[s] is shard s's slice. Slices are disjoint and cover
  // [0, brick_count); a slice may be empty for tiny datasets.
  std::vector<std::vector<std::int64_t>> Partition(
      std::string_view key, std::int64_t brick_count) const;

  // Replica chain for shard s: servers to try in order, starting with the
  // home server s, then the rendezvous ranking of the other servers.
  // Size is replicas().
  std::vector<int> ReplicaChain(int shard) const;

  // Every server a replica of shard s lives on must hold the shard's
  // data. With brick-granular placement that means each server stores
  // any brick whose shard chain includes it; the testbed and the tool
  // load full datasets on every server, which trivially satisfies this.

 private:
  int servers_;
  int replicas_;
};

}  // namespace vizndp::cluster
