#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>
#include <utility>

#include "util/check.h"

namespace pws::perfbench {
namespace {

// Distinct sub-seeds per purpose, so adding a draw to one stream never
// shifts another.
constexpr uint64_t kColdSalt = 0x636f6c64ULL;
constexpr uint64_t kStreamSalt = 0x73747265ULL;

// Zipf exponent of query and user popularity.
constexpr double kZipfS = 1.1;
// Doc ids a `serve` asks for.
constexpr int kServeLimit = 10;
// `click` positions are drawn uniformly from 1..kMaxClickPosition.
constexpr int kMaxClickPosition = 10;
// kColdRead: never-seen query texts generated up front.
constexpr int kColdQueries = 40000;
// Cold queries per connection a kColdRead tail click picks from.
constexpr size_t kRecentQueries = 64;

// A query text in the shape of the pool's: one or two terms of one
// topic, often followed by a city name.
std::string ColdQueryText(const eval::World& world,
                          const std::vector<geo::LocationId>& cities,
                          Random& rng) {
  const corpus::TopicSpec& topic =
      world.topics().topic(static_cast<int>(rng.UniformUint64(
          static_cast<uint64_t>(world.topics().num_topics()))));
  auto term = [&]() -> const std::string& {
    const auto& terms = rng.Bernoulli(0.5) || topic.filler_terms.empty()
                            ? topic.core_terms
                            : topic.filler_terms;
    return terms[rng.UniformUint64(terms.size())];
  };
  std::string text = term();
  if (rng.Bernoulli(0.7)) {
    const std::string& second = term();
    if (second != text) text += " " + second;
  }
  if (rng.Bernoulli(0.6)) {
    text += " " + world.ontology()
                      .node(cities[rng.UniformUint64(cities.size())])
                      .name;
  }
  return text;
}

}  // namespace

bool MixFromString(std::string_view name, Mix* mix) {
  if (name == "hot_read") {
    *mix = Mix::kHotRead;
  } else if (name == "cold_read") {
    *mix = Mix::kColdRead;
  } else if (name == "click_write") {
    *mix = Mix::kClickWrite;
  } else {
    return false;
  }
  return true;
}

ZipfSampler::ZipfSampler(int n, double s) {
  PWS_CHECK_GT(n, 0);
  cdf_.reserve(static_cast<size_t>(n));
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int ZipfSampler::Sample(Random& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(
      std::min<ptrdiff_t>(it - cdf_.begin(),
                          static_cast<ptrdiff_t>(cdf_.size()) - 1));
}

Workload::Workload(const eval::World& world, WorkloadOptions options)
    : options_(options),
      pool_zipf_(static_cast<int>(world.queries().size()), kZipfS) {
  PWS_CHECK_GE(options_.users, kConnections);
  // Rank the pool round-robin over query classes (content-heavy,
  // location-heavy, mixed), so the popular head mixes all three.
  std::vector<std::pair<int, int>> rank_keys;  // (index in class, class)
  std::map<click::QueryClass, int> seen_in_class;
  for (const auto& intent : world.queries()) {
    pool_.push_back(intent.text);
    rank_keys.emplace_back(seen_in_class[intent.query_class]++,
                           static_cast<int>(intent.query_class));
  }
  std::vector<size_t> order(pool_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return rank_keys[a] < rank_keys[b];
  });
  for (size_t i : order) ranked_pool_.push_back(pool_[i]);

  users_.resize(kConnections);
  for (int64_t u = 0; u < options_.users; ++u) {
    users_[static_cast<size_t>(u % kConnections)].push_back(u);
  }
  for (const auto& mine : users_) {
    user_zipf_.emplace_back(static_cast<int>(mine.size()), kZipfS);
  }

  cold_.resize(kConnections);
  if (options_.mix != Mix::kColdRead) return;
  const std::vector<geo::LocationId> cities =
      world.ontology().CitiesUnder(world.ontology().root());
  PWS_CHECK(!cities.empty());
  std::unordered_set<std::string> seen(pool_.begin(), pool_.end());
  Random cold_rng(options_.seed ^ kColdSalt);
  int made = 0;
  int attempts = 0;
  while (made < kColdQueries) {
    PWS_CHECK_LT(attempts++, kColdQueries * 20)
        << "vocabulary too small for " << kColdQueries
        << " distinct cold queries";
    std::string text = ColdQueryText(world, cities, cold_rng);
    if (!seen.insert(text).second) continue;
    cold_[static_cast<size_t>(made % kConnections)].push_back(std::move(text));
    ++made;
  }
}

ConnectionStream::ConnectionStream(const Workload& workload, int connection)
    : workload_(&workload),
      connection_(connection),
      rng_(workload.options().seed ^ kStreamSalt ^
           (static_cast<uint64_t>(connection) << 32)) {
  PWS_CHECK(connection >= 0 && connection < kConnections);
}

std::vector<serve::Request> ConnectionStream::WarmUp() const {
  std::vector<serve::Request> out;
  if (workload_->options().mix == Mix::kColdRead) return out;
  const auto& users = workload_->users_[static_cast<size_t>(connection_)];
  const auto& pool = workload_->pool();
  for (size_t q = static_cast<size_t>(connection_); q < pool.size();
       q += kConnections) {
    serve::Request request;
    request.type = serve::RequestType::kServe;
    request.user = users[q % users.size()];
    request.limit = kServeLimit;
    request.query = pool[q];
    out.push_back(std::move(request));
  }
  return out;
}

int64_t ConnectionStream::NextUser() {
  const size_t c = static_cast<size_t>(connection_);
  return workload_->users_[c][static_cast<size_t>(
      workload_->user_zipf_[c].Sample(rng_))];
}

serve::Request ConnectionStream::Serve(std::string query) {
  serve::Request request;
  request.type = serve::RequestType::kServe;
  request.user = NextUser();
  request.limit = kServeLimit;
  request.query = std::move(query);
  return request;
}

serve::Request ConnectionStream::Click(std::string query) {
  serve::Request request;
  request.type = serve::RequestType::kClick;
  request.user = NextUser();
  request.position = rng_.UniformInt(1, kMaxClickPosition);
  request.query = std::move(query);
  return request;
}

serve::Request ConnectionStream::Next() {
  const auto& ranked = workload_->ranked_pool_;
  switch (workload_->options().mix) {
    case Mix::kHotRead:
      return Serve(ranked[static_cast<size_t>(
          workload_->pool_zipf_.Sample(rng_))]);
    case Mix::kColdRead: {
      const auto& cold = workload_->cold_[static_cast<size_t>(connection_)];
      if (cold_next_ >= cold.size()) {
        // Out of never-seen texts: recycling one would turn the request
        // into a cache hit, so mark the stream and let the caller fail.
        exhausted_ = true;
        cold_next_ = 0;
      }
      std::string query = cold[cold_next_++];
      recent_.push_back(query);
      if (recent_.size() > kRecentQueries) recent_.pop_front();
      return Serve(std::move(query));
    }
    case Mix::kClickWrite: {
      const bool click = rng_.Bernoulli(0.5);
      std::string query =
          ranked[static_cast<size_t>(workload_->pool_zipf_.Sample(rng_))];
      return click ? Click(std::move(query)) : Serve(std::move(query));
    }
  }
  PWS_CHECK(false) << "unknown mix";
  return {};
}

serve::Request ConnectionStream::NextTailClick() {
  if (workload_->options().mix == Mix::kColdRead && !recent_.empty()) {
    return Click(recent_[rng_.UniformUint64(recent_.size())]);
  }
  return Click(workload_->ranked_pool_[static_cast<size_t>(
      workload_->pool_zipf_.Sample(rng_))]);
}

}  // namespace pws::perfbench
