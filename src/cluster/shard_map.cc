#include "cluster/shard_map.h"

#include <algorithm>

#include "common/error.h"
#include "net/retry.h"

namespace vizndp::cluster {

namespace {

// Rendezvous score for (candidate, item): the candidate with the highest
// score owns the item. Pure function of its inputs — every participant
// computes the same placement with no coordination.
std::uint64_t Score(std::uint64_t item, std::uint64_t candidate) {
  return net::MixBits(item ^ net::MixBits(candidate + 0x632BE59BD9B4E019ull));
}

}  // namespace

ShardMap::ShardMap(int servers, int replicas)
    : servers_(servers),
      replicas_(std::clamp(replicas, 1, servers)) {
  VIZNDP_CHECK_MSG(servers >= 1, "ShardMap needs at least one server");
}

std::uint64_t ShardMap::KeyHash(std::string_view key) {
  // FNV-1a, then one mix round so short keys still diffuse into the
  // rendezvous scores.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return net::MixBits(h);
}

int ShardMap::ShardOfBrick(std::uint64_t key_hash, std::int64_t brick) const {
  const std::uint64_t item =
      net::MixBits(key_hash ^ static_cast<std::uint64_t>(brick) *
                                  0x9E3779B97F4A7C15ull);
  int best = -1;
  std::uint64_t best_score = 0;
  for (int s = 0; s < servers_; ++s) {
    const std::uint64_t score = Score(item, static_cast<std::uint64_t>(s));
    if (best < 0 || score > best_score) {
      best = s;
      best_score = score;
    }
  }
  return best;
}

int ShardMap::ShardOfKey(std::string_view key) const {
  // Whole-blob datasets are a single "brick".
  return ShardOfBrick(KeyHash(key), -1);
}

std::vector<std::vector<std::int64_t>> ShardMap::Partition(
    std::string_view key, std::int64_t brick_count) const {
  std::vector<std::vector<std::int64_t>> slices(
      static_cast<size_t>(servers_));
  const std::uint64_t key_hash = KeyHash(key);
  for (std::int64_t b = 0; b < brick_count; ++b) {
    slices[static_cast<size_t>(ShardOfBrick(key_hash, b))].push_back(b);
  }
  // Ascending brick order falls out of the loop; keep it an invariant
  // (the wire protocol requires sorted restrictions).
  return slices;
}

std::vector<int> ShardMap::ReplicaChain(int shard) const {
  VIZNDP_CHECK_MSG(shard >= 0 && shard < servers_, "shard out of range");
  std::vector<int> chain = {shard};
  // Rank the other servers by rendezvous score for this shard and fill
  // the chain up to replicas().
  std::vector<std::pair<std::uint64_t, int>> ranked;
  ranked.reserve(static_cast<size_t>(servers_));
  const std::uint64_t item =
      net::MixBits(static_cast<std::uint64_t>(shard) + 0xA24BAED4963EE407ull);
  for (int s = 0; s < servers_; ++s) {
    if (s == shard) continue;
    ranked.emplace_back(Score(item, static_cast<std::uint64_t>(s)), s);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0;
       i < ranked.size() && chain.size() < static_cast<size_t>(replicas_);
       ++i) {
    chain.push_back(ranked[i].second);
  }
  return chain;
}

}  // namespace vizndp::cluster
