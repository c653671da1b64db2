#ifndef PWS_PERFBENCH_WORKLOAD_H_
#define PWS_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "eval/world.h"
#include "serve/protocol.h"
#include "util/random.h"

namespace pws::perfbench {

/// Connections (and generator threads) the benchmark drives the server
/// with. User u is only ever sent on connection u % kConnections, so the
/// order of each user's requests is fixed by the seed.
constexpr int kConnections = 4;

/// The traffic mix of a workload (see perfbench/README.md for why each
/// exists).
enum class Mix {
  kHotRead,    // serve only, pool queries, every lookup an analysis hit
  kColdRead,   // serve only, every query text new, every lookup a miss
  kClickWrite  // half click, half serve over the pool
};

/// Parses "hot_read" | "cold_read" | "click_write".
bool MixFromString(std::string_view name, Mix* mix);

struct WorkloadOptions {
  Mix mix = Mix::kHotRead;
  /// The workload seed: the same seed gives the same request streams.
  uint64_t seed = 1;
  /// Users the server registered (ids 0..users-1).
  int users = 64;
};

/// Zipf(s) over ranks 0..n-1 by inverse CDF (O(log n) per draw).
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);
  int Sample(Random& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Everything the request streams draw from, built once from the world
/// and the seed. Popularity ranks are fixed, not seeded, so a seed
/// changes the request sequence but never which query or user is the hot
/// one (that moved the figures between seeds more than sampling does).
class Workload {
 public:
  Workload(const eval::World& world, WorkloadOptions options);

  const WorkloadOptions& options() const { return options_; }
  /// The server's query pool, in world order.
  const std::vector<std::string>& pool() const { return pool_; }

 private:
  friend class ConnectionStream;

  WorkloadOptions options_;
  std::vector<std::string> pool_;
  /// Pool queries in popularity order (rank 0 most popular).
  std::vector<std::string> ranked_pool_;
  ZipfSampler pool_zipf_;
  /// Per connection: its users in popularity order (user id order).
  std::vector<std::vector<int64_t>> users_;
  std::vector<ZipfSampler> user_zipf_;
  /// Per connection: unique query texts absent from the pool.
  std::vector<std::vector<std::string>> cold_;
};

/// The request sequence one connection sends. Lazy and deterministic:
/// the n-th request of connection c depends only on (seed, c, n).
class ConnectionStream {
 public:
  /// `workload` must outlive the stream.
  ConnectionStream(const Workload& workload, int connection);

  /// Requests sent before anything is timed: kHotRead and kClickWrite
  /// serve this connection's share of the pool once, so every pool query
  /// is analyzed before timing; kColdRead has none.
  std::vector<serve::Request> WarmUp() const;

  /// The next request of the workload's traffic.
  serve::Request Next();

  /// The next click of the write tail that follows the traffic: a pool
  /// query, or for kColdRead one of this connection's recently served
  /// queries (still cached, so the click measures the write path).
  serve::Request NextTailClick();

  /// False once a kColdRead stream has used every generated query.
  bool exhausted() const { return exhausted_; }

 private:
  serve::Request Serve(std::string query);
  serve::Request Click(std::string query);
  int64_t NextUser();

  const Workload* workload_;
  int connection_;
  Random rng_;
  size_t cold_next_ = 0;
  bool exhausted_ = false;
  std::deque<std::string> recent_;
};

}  // namespace pws::perfbench

#endif  // PWS_PERFBENCH_WORKLOAD_H_
