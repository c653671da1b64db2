// The benchmark's load generator and traced replay (see README.md).
//
//   pws_bench drive  --port=N --workload=NAME --seed=N --docs=N --users=N
//                    --warm-requests=N --closed-requests=N --open-s=S
//                    --open-rps=R [--tail-s=S]
//                    [--pings=N] --ref-users=N --ref-requests=N
//                    --samples=FILE
//   pws_bench replay --workload=NAME --seed=N --docs=N --users=N
//                    [--resident-users=N] --state-dir=DIR --requests=N
//                    --spans=FILE
//
// `drive` sends the workload's request streams to a running pws_serve
// over kConnections loopback connections: a warm-up, then kRounds rounds
// of a closed loop, an open loop of Poisson arrivals timed from when each
// request was due and (read workloads) an open-loop tail of clicks, then
// (traced runs) a burst of pings. Counts and durations are totals over
// the rounds. It writes one line per timed request to --samples, replays
// a seeded sample of users on an in-process reference engine, and prints
// a one-line JSON summary of counts.
//
// `replay` runs the first --requests requests of the same streams on one
// thread against an in-process PwsEngine with the server's options, WAL
// and tiering. It times each call into the engine and opens an
// obs::RequestTrace around it, so the engine's own PWS_SPAN stages inside
// the call (analysis parts, WAL appends) are its children. It keeps the
// spans in memory and writes them to --spans at exit.

#include <sys/prctl.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/pws_engine.h"
#include "eval/world.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/socket_io.h"
#include "util/arg_parser.h"
#include "util/check.h"
#include "util/string_util.h"
#include "workload.h"

namespace pws::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kScheduleSalt = 0x7363686564ULL;
constexpr uint64_t kReferenceSalt = 0x726566ULL;
// Bound on the traced replay's training phase.
constexpr int64_t kMaxTrainedUsers = 256;

int64_t Nanos(Clock::time_point t, Clock::time_point base) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - base)
      .count();
}

// The world pws_serve builds for --docs/--users at its default --seed.
eval::WorldConfig WorldConfigFor(const ArgParser& args) {
  eval::WorldConfig config;
  config.seed = 42;
  config.corpus.num_documents = static_cast<int>(args.GetInt("docs", 8000));
  config.users.num_users = static_cast<int>(args.GetInt("users", 64));
  config.backend.page_size = 30;
  return config;
}

WorkloadOptions WorkloadOptionsFor(const ArgParser& args) {
  WorkloadOptions options;
  const std::string name = args.GetString("workload", "");
  PWS_CHECK(MixFromString(name, &options.mix))
      << "unknown --workload '" << name << "'";
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.users = static_cast<int>(args.GetInt("users", 64));
  return options;
}

// The reply pws_serve sends for a request, computed on `engine` the way
// PwsServer::Dispatch does.
std::string ExpectedReply(core::PwsEngine& engine,
                          const serve::Request& request) {
  const auto user = static_cast<click::UserId>(request.user);
  const core::PersonalizedPage page = engine.Serve(user, request.query);
  if (request.type == serve::RequestType::kClick) {
    engine.Observe(user, page,
                   serve::BuildSatisfiedClickRecord(
                       user, page, static_cast<int>(request.position)));
    return serve::FormatOkReply(
        "click", {std::to_string(engine.training_pair_count(user))});
  }
  const size_t limit = std::min(static_cast<size_t>(request.limit),
                                page.order.size());
  std::vector<corpus::DocId> docs;
  for (size_t j = 0; j < limit; ++j) {
    docs.push_back(page.backend_page().results[page.order[j]].doc);
  }
  return serve::FormatOkReply(
      "serve", {FormatDouble(page.alpha_used, 6), serve::EncodeDocIds(docs)});
}

// ---------------------------------------------------------------- drive

enum Phase : int { kWarm = 0, kClosed, kOpen, kTail, kPing };
constexpr const char* kPhaseNames[] = {"warm", "closed", "open", "tail",
                                       "ping"};

struct Sample {
  Phase phase = kWarm;
  int round = 0;
  serve::RequestType verb = serve::RequestType::kInvalid;
  bool ok = false;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
};

struct Exchanged {
  serve::Request request;
  std::string reply;
};

struct Connection {
  Connection(std::unique_ptr<serve::LineChannel> channel_in,
             const Workload& workload, int index,
             const std::set<int64_t>* logged_users_in)
      : channel(std::move(channel_in)),
        stream(workload, index),
        logged_users(logged_users_in) {}

  std::unique_ptr<serve::LineChannel> channel;
  ConnectionStream stream;
  /// Users whose exchanges the reference check replays.
  const std::set<int64_t>* logged_users;
  std::vector<Sample> samples;
  /// The logged users' serves and clicks with their raw replies, in send
  /// order.
  std::vector<Exchanged> log;
  int64_t sent = 0;
  int64_t err_replies = 0;
  int64_t transport_failures = 0;
  bool broken = false;
};

// One request, one reply. Returns false when the connection failed.
bool Exchange(Connection& conn, serve::Request request, Phase phase,
              int round, Clock::time_point due) {
  if (conn.broken) return false;
  const std::string line = serve::FormatRequest(request);
  const Clock::time_point sent = Clock::now();
  ++conn.sent;
  std::string reply;
  if (!conn.channel->WriteLine(line).ok() || !conn.channel->ReadLine(&reply)) {
    conn.broken = true;
    ++conn.transport_failures;
    return false;
  }
  const Clock::time_point done = Clock::now();
  const serve::Reply parsed = serve::ParseReply(reply);
  const bool ok = parsed.ok &&
                  parsed.verb_or_code == serve::RequestTypeName(request.type);
  if (!ok && conn.err_replies++ < 3) {
    std::cerr << "error reply to '" << line << "': " << reply << "\n";
  }
  if (phase != kWarm) {
    conn.samples.push_back({phase, round, request.type, ok, due, sent, done});
  }
  if (conn.logged_users->count(request.user) != 0 &&
      (request.type == serve::RequestType::kServe ||
       request.type == serve::RequestType::kClick)) {
    conn.log.push_back({std::move(request), std::move(reply)});
  }
  return true;
}

// Closed- and open-loop phases alternate this many times, so both sample
// the whole run.
constexpr int kRounds = 5;
// Rate of the read workloads' click tails: well under the WAL's fsync
// ceiling, so the tail measures a click rather than a click queue.
constexpr double kTailRps = 1000.0;

// Totals over the rounds; each connection sends its 1/kConnections share
// of a round's 1/kRounds share.
struct DriveConfig {
  /// After the pool warm-up.
  int64_t warm_requests = 0;
  /// A count, not a duration, so the state trainall and save see depends
  /// on the seed only: a slow host takes longer instead of sending less.
  int64_t closed_requests = 0;
  double open_s = 0.0;
  double open_rps = 0.0;
  /// Read workloads: clicks sent open loop at kTailRps after each round's
  /// serves, so every run measures the write verbs across the whole run.
  double tail_s = 0.0;
  int64_t pings = 0;
  uint64_t seed = 1;
};

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// Sends `next()` requests at Poisson arrivals of `rate` per second from
// `start`, until `count` were sent or the next one falls due at or after
// `end`. A request is timed from its due time: a late generator or a
// slow reply delays the requests behind it, and that wait is counted.
template <typename Next>
void OpenLoop(Connection& conn, Next next, Phase phase, int round,
              double rate, Clock::time_point start, Clock::time_point end,
              int64_t count, Random& schedule) {
  Clock::time_point due = start;
  for (int64_t i = 0; i < count; ++i) {
    due += Seconds(schedule.Exponential(rate));
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    if (!Exchange(conn, next(), phase, round, due)) break;
  }
}

void RunConnection(Connection& conn, int index, const DriveConfig& config,
                   std::barrier<>& sync) {
  // Default timer slack (50µs) would show up as generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  auto closed_loop = [&](Phase phase, int round, int64_t count) {
    for (int64_t i = 0; i < count; ++i) {
      if (!Exchange(conn, conn.stream.Next(), phase, round, Clock::now())) {
        break;
      }
    }
  };
  // Arrival times depend only on the seed, so each round sends the same
  // requests on a slow host as on a fast one.
  Random schedule(config.seed ^ kScheduleSalt ^
                  (static_cast<uint64_t>(index) << 40));
  const int64_t share = kRounds * kConnections;

  for (serve::Request& request : conn.stream.WarmUp()) {
    if (!Exchange(conn, std::move(request), kWarm, 0, Clock::now())) break;
  }
  sync.arrive_and_wait();
  closed_loop(kWarm, 0, config.warm_requests / kConnections);
  sync.arrive_and_wait();
  for (int round = 0; round < kRounds; ++round) {
    closed_loop(kClosed, round, config.closed_requests / share);
    sync.arrive_and_wait();
    Clock::time_point start = Clock::now();
    OpenLoop(conn, [&] { return conn.stream.Next(); }, kOpen, round,
             config.open_rps / kConnections, start,
             start + Seconds(config.open_s / kRounds), INT64_MAX, schedule);
    if (config.tail_s > 0) {
      start = Clock::now();
      OpenLoop(conn, [&] { return conn.stream.NextTailClick(); }, kTail,
               round, kTailRps / kConnections, start,
               Clock::time_point::max(),
               std::llround(kTailRps * config.tail_s) / share, schedule);
    }
    sync.arrive_and_wait();
  }

  if (index == 0) {
    for (int64_t i = 0; i < config.pings; ++i) {
      serve::Request ping;
      ping.type = serve::RequestType::kPing;
      if (!Exchange(conn, ping, kPing, 0, Clock::now())) break;
    }
  }
}

// Checks the pool the server samples from is the one this process built.
bool ServerPoolMatches(serve::LineChannel& channel,
                       const std::vector<std::string>& pool) {
  serve::Request request;
  request.type = serve::RequestType::kQueries;
  std::string reply;
  if (!channel.WriteLine(serve::FormatRequest(request)).ok() ||
      !channel.ReadLine(&reply)) {
    return false;
  }
  const serve::Reply parsed = serve::ParseReply(reply);
  return parsed.ok && parsed.fields.size() == 2 &&
         SplitLines(UnescapeLineBreaks(parsed.fields[1])) == pool;
}

// The seeded sample of users the reference check replays.
std::set<int64_t> SampleUsers(int users, int64_t count, uint64_t seed) {
  std::vector<int64_t> all(static_cast<size_t>(users));
  for (int u = 0; u < users; ++u) all[static_cast<size_t>(u)] = u;
  Random rng(seed ^ kReferenceSalt);
  rng.Shuffle(all);
  all.resize(static_cast<size_t>(std::clamp<int64_t>(count, 1, users)));
  return {all.begin(), all.end()};
}

struct ReferenceResult {
  int64_t requests = 0;
  int64_t mismatches = 0;
};

// Replays each logged user's requests from the first, on a fresh engine,
// and compares every reply byte for byte. Stops after `request_budget`
// requests; a prefix of a user's history is as good a check as all of it.
ReferenceResult CheckAgainstReference(const eval::World& world,
                                      const std::vector<Connection>& conns,
                                      const std::set<int64_t>& users,
                                      int64_t request_budget) {
  core::PwsEngine reference(&world.search_backend(), &world.ontology(),
                            core::EngineOptions{});
  ReferenceResult result;
  for (const int64_t user : users) {
    reference.RegisterUser(static_cast<click::UserId>(user));
    const Connection& conn = conns[static_cast<size_t>(user % kConnections)];
    for (const Exchanged& exchanged : conn.log) {
      if (exchanged.request.user != user) continue;
      if (result.requests >= request_budget) return result;
      ++result.requests;
      const std::string expected = ExpectedReply(reference, exchanged.request);
      if (expected != exchanged.reply && result.mismatches++ < 3) {
        std::cerr << "reference mismatch for '"
                  << serve::FormatRequest(exchanged.request)
                  << "':\n  server:    " << exchanged.reply
                  << "\n  reference: " << expected << "\n";
      }
    }
  }
  return result;
}

int Drive(const ArgParser& args) {
  const eval::World world(WorldConfigFor(args));
  const Workload workload(world, WorkloadOptionsFor(args));
  DriveConfig config;
  config.warm_requests = args.GetInt("warm-requests", 0);
  config.closed_requests = args.GetInt("closed-requests", 0);
  config.open_s = args.GetDouble("open-s", 0.0);
  config.open_rps = args.GetDouble("open-rps", 0.0);
  config.tail_s = args.GetDouble("tail-s", 0.0);
  config.pings = args.GetInt("pings", 0);
  config.seed = workload.options().seed;
  const int port = static_cast<int>(args.GetInt("port", 0));
  const std::string samples_path = args.GetString("samples", "");
  PWS_CHECK(port > 0 && !samples_path.empty()) << "need --port and --samples";
  PWS_CHECK(config.closed_requests > 0 && config.open_s > 0 &&
            config.open_rps > 0)
      << "need --closed-requests, --open-s and --open-rps";
  const std::set<int64_t> logged_users =
      SampleUsers(workload.options().users, args.GetInt("ref-users", 8),
                  workload.options().seed);

  std::vector<Connection> conns;
  conns.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    StatusOr<int> fd = serve::ConnectToLoopback(port);
    if (!fd.ok()) {
      std::cerr << "cannot connect to port " << port << ": " << fd.status()
                << "\n";
      return 1;
    }
    conns.emplace_back(std::make_unique<serve::LineChannel>(*fd), workload, c,
                       &logged_users);
  }
  const bool pool_ok = ServerPoolMatches(*conns[0].channel, workload.pool());
  if (!pool_ok) std::cerr << "server query pool differs from the world's\n";

  const Clock::time_point base = Clock::now();
  {
    std::barrier<> sync(kConnections);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back(RunConnection, std::ref(conns[c]), c,
                           std::cref(config), std::ref(sync));
    }
    for (std::thread& thread : threads) thread.join();
  }

  // The `queries` request above counts as sent.
  int64_t sent = 1;
  int64_t err_replies = 0;
  int64_t transport_failures = 0;
  bool exhausted = false;
  std::FILE* out = std::fopen(samples_path.c_str(), "w");
  PWS_CHECK(out != nullptr) << "cannot write " << samples_path;
  for (const Connection& conn : conns) {
    sent += conn.sent;
    err_replies += conn.err_replies;
    transport_failures += conn.transport_failures;
    exhausted = exhausted || conn.stream.exhausted();
    for (const Sample& s : conn.samples) {
      std::fprintf(out, "%s %d %s %d %lld %lld %lld\n", kPhaseNames[s.phase],
                   s.round, serve::RequestTypeName(s.verb), s.ok ? 1 : 0,
                   static_cast<long long>(Nanos(s.due, base)),
                   static_cast<long long>(Nanos(s.sent, base)),
                   static_cast<long long>(Nanos(s.done, base)));
    }
  }
  PWS_CHECK(std::fclose(out) == 0) << "cannot write " << samples_path;
  if (exhausted) std::cerr << "ran out of never-seen cold queries\n";

  const ReferenceResult reference = CheckAgainstReference(
      world, conns, logged_users, args.GetInt("ref-requests", 2000));
  std::cout << "{\"sent\": " << sent << ", \"err_replies\": " << err_replies
            << ", \"transport_failures\": " << transport_failures
            << ", \"pool_ok\": " << (pool_ok ? "true" : "false")
            << ", \"cold_exhausted\": " << (exhausted ? "true" : "false")
            << ", \"ref_users\": " << logged_users.size()
            << ", \"ref_requests\": " << reference.requests
            << ", \"ref_mismatches\": " << reference.mismatches << "}"
            << std::endl;
  return 0;
}

// --------------------------------------------------------------- replay

// Engine stages (PWS_SPAN names) recorded as children of the traced call
// that ran them, under the benchmark's layer names.
struct Stage {
  const char* engine_name;
  const char* span_name;
};
constexpr Stage kMissStages[] = {
    {"engine.analyze.tokenize", "backend.analyze"},
    {"engine.analyze.search", "backend.search"},
    {"engine.analyze.content", "concepts.content"},
    {"engine.analyze.locations", "concepts.location"},
};
constexpr Stage kObserveStages[] = {{"wal.append", "io.wal_append"}};
// TrainUser logs a WAL record per user where the TrainAllUsers sweep
// logs one for all; the append is subtracted, not reported as io.
constexpr Stage kTrainStages[] = {{"wal.append", "core.train_user.wal"}};

// One engine call, timed from outside, with the engine stages that closed
// inside it.
struct TracedCall {
  Clock::time_point start;
  Clock::time_point end;
  obs::TraceRecord record;

  bool Ran(const char* engine_name) const {
    return std::any_of(record.events.begin(), record.events.end(),
                       [&](const obs::TraceEvent& event) {
                         return std::strcmp(event.name, engine_name) == 0;
                       });
  }
};

template <typename Fn>
TracedCall Trace(Fn&& fn) {
  TracedCall call;
  obs::RequestTrace trace;
  call.start = Clock::now();
  trace.Open("replay", std::string(), 0, call.start);
  fn();
  call.end = Clock::now();
  trace.CloseUs();
  call.record = trace.Take();
  return call;
}

struct Span {
  int parent = -1;
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

// Spans held in memory until the run ends; a span's id is its index.
class SpanLog {
 public:
  // Records `call` as span `name` and the stages it ran as its children.
  void Add(const char* name, const TracedCall& call,
           std::span<const Stage> stages) {
    const int parent = Add(name, -1, call.start, call.end);
    for (const obs::TraceEvent& event : call.record.events) {
      for (const Stage& stage : stages) {
        if (std::strcmp(event.name, stage.engine_name) != 0) continue;
        const Clock::time_point start =
            call.start + std::chrono::microseconds(event.start_us);
        Add(stage.span_name, parent, start,
            start + std::chrono::microseconds(event.duration_us));
      }
    }
  }
  int Add(const char* name, int parent, Clock::time_point start,
          Clock::time_point end) {
    spans_.push_back({parent, name, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Runs `fn` and records it as span `name`.
  template <typename Fn>
  void Time(const char* name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    Add(name, -1, start, Clock::now());
  }
  bool Write(const std::string& path, Clock::time_point base) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu %d %s %lld %lld\n", i, s.parent, s.name,
                   static_cast<long long>(Nanos(s.start, base)),
                   static_cast<long long>(Nanos(s.end, base)));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
};

uint64_t WalBytes(const core::PwsEngine& engine) {
  uint64_t total = 0;
  for (const std::string& path : engine.wal_paths()) {
    std::error_code error;
    const uintmax_t size = std::filesystem::file_size(path, error);
    if (!error) total += size;
  }
  return total;
}

int Replay(const ArgParser& args) {
  const eval::World world(WorldConfigFor(args));
  const Workload workload(world, WorkloadOptionsFor(args));
  const std::string state_dir = args.GetString("state-dir", "");
  const std::string spans_path = args.GetString("spans", "");
  const int64_t request_count = args.GetInt("requests", 0);
  PWS_CHECK(!state_dir.empty() && !spans_path.empty() && request_count > 0)
      << "need --state-dir, --spans and --requests";

  // The engine pws_serve runs: default options, tiering when the server
  // has a resident budget, the WAL its --state turns on.
  core::PwsEngine engine(&world.search_backend(), &world.ontology(),
                         core::EngineOptions{});
  if (const int64_t resident = args.GetInt("resident-users", 0);
      resident > 0) {
    const Status status = engine.EnableTiering(state_dir + "/cold", resident);
    PWS_CHECK(status.ok()) << status;
  }
  for (int u = 0; u < workload.options().users; ++u) engine.RegisterUser(u);
  PWS_CHECK(engine.EnableWal(state_dir + "/state.wal").ok());

  std::vector<ConnectionStream> streams;
  std::vector<std::vector<serve::Request>> warm;
  for (int c = 0; c < kConnections; ++c) {
    streams.emplace_back(workload, c);
    warm.push_back(streams.back().WarmUp());
  }
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& requests : warm) {
      if (i >= requests.size()) continue;
      any = true;
      engine.Serve(static_cast<click::UserId>(requests[i].user),
                   requests[i].query);
    }
    if (!any) break;
  }

  SpanLog spans;
  const Clock::time_point base = Clock::now();
  const CacheStats cache_before = engine.query_cache_stats();
  const core::UserStateStore::Stats store_before = engine.store_stats();
  int64_t clicks = 0;
  uint64_t wal_bytes = 0;
  std::set<int64_t> clicked_users;

  for (int64_t i = 0; i < request_count; ++i) {
    const serve::Request request =
        streams[static_cast<size_t>(i % kConnections)].Next();
    const auto user = static_cast<click::UserId>(request.user);
    core::PersonalizedPage page;
    TracedCall serve = Trace([&] { page = engine.Serve(user, request.query); });
    if (serve.Ran("engine.analyze.compute")) {
      spans.Add("core.serve_miss", serve, kMissStages);
    } else {
      spans.Add("core.serve_hit", serve, {});
    }
    std::string reply_field;
    std::vector<corpus::DocId> docs;
    if (request.type == serve::RequestType::kClick) {
      const click::ClickRecord record = serve::BuildSatisfiedClickRecord(
          user, page, static_cast<int>(request.position));
      const uint64_t wal_before = WalBytes(engine);
      spans.Add("core.observe",
                Trace([&] { engine.Observe(user, page, record); }),
                kObserveStages);
      wal_bytes += WalBytes(engine) - wal_before;
      ++clicks;
      clicked_users.insert(request.user);
      reply_field = std::to_string(engine.training_pair_count(user));
    } else {
      const size_t limit = std::min(static_cast<size_t>(request.limit),
                                    page.order.size());
      for (size_t j = 0; j < limit; ++j) {
        docs.push_back(page.backend_page().results[page.order[j]].doc);
      }
    }
    spans.Time("serve.codec", [&] {
      const serve::Request parsed =
          serve::ParseRequest(serve::FormatRequest(request));
      const std::string reply =
          request.type == serve::RequestType::kClick
              ? serve::FormatOkReply("click", {reply_field})
              : serve::FormatOkReply("serve",
                                     {FormatDouble(page.alpha_used, 6),
                                      serve::EncodeDocIds(docs)});
      const serve::Reply parsed_reply = serve::ParseReply(reply);
      PWS_CHECK(parsed.type == request.type && parsed_reply.ok);
    });
  }
  const CacheStats cache_after = engine.query_cache_stats();
  const core::UserStateStore::Stats store_after = engine.store_stats();

  // Per-user retraining, the unit TrainAllUsers fans out.
  int64_t trained = 0;
  for (const int64_t user : clicked_users) {
    if (trained >= kMaxTrainedUsers) break;
    ++trained;
    spans.Add("core.train_user", Trace([&] {
                engine.TrainUser(static_cast<click::UserId>(user));
              }),
              kTrainStages);
  }

  PWS_CHECK(spans.Write(spans_path, base)) << "cannot write " << spans_path;
  std::cout << "{\"requests\": " << request_count << ", \"clicks\": " << clicks
            << ", \"analysis_hits\": " << cache_after.hits - cache_before.hits
            << ", \"analysis_misses\": "
            << cache_after.misses - cache_before.misses
            << ", \"store_faults\": " << store_after.faults - store_before.faults
            << ", \"store_spills\": " << store_after.spills - store_before.spills
            << ", \"wal_bytes\": " << wal_bytes
            << ", \"trained_users\": " << trained << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace pws::perfbench

int main(int argc, char** argv) {
  const pws::ArgParser args(argc, argv);
  const std::string mode =
      args.positional().empty() ? "" : args.positional().front();
  if (mode == "drive") return pws::perfbench::Drive(args);
  if (mode == "replay") return pws::perfbench::Replay(args);
  std::cerr << "usage: pws_bench drive|replay [flags] (see pws_bench.cc)\n";
  return 2;
}
