// perfbench: the repository's end-to-end benchmark. One command runs one
// seeded workload against the shipped defaults, checks its outputs and
// prints every metric by name and unit; the last stdout line is the JSON
// result. See NOTES.md for why each workload exists.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --serve-bin <path to cspm_serve> --work-dir <dir>
//
// Workloads:
//   mine-pokec8k   cold mine + save, an exact re-mine at 1% dirty, then the
//                  server's update sequence in-process
//   churn-pokec8k  fixed-rate scores beside a fixed schedule of kFast updates
// Both report every end-to-end metric; each times its own operations most.
//
// --trace 0 measures the end-to-end metrics. --trace 1 prints the per-layer
// metrics instead: every one is either a timed call into a public function
// of datasets/graph/cspm/engine/store/net made from this file, or a value
// read from the program's own MetricsRegistry (in-process, or through the
// server's `metrics` verb). Nothing is added inside src/. A traced run of
// either workload runs the traced passes of both, so it prints every
// per-layer metric.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cspm/inverted_database.h"
#include "cspm/scoring_plan.h"
#include "datasets/synthetic.h"
#include "engine/model_registry.h"
#include "engine/serving.h"
#include "engine/session.h"
#include "graph/graph_delta.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "stats.h"
#include "store/model_store.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"
#include "wire.h"

namespace perfbench {
namespace {

using cspm::Rng;
using cspm::Status;
using cspm::StatusOr;
using cspm::WallTimer;
using cspm::graph::AttributedGraph;
using cspm::graph::GraphDelta;
using cspm::graph::VertexId;
namespace engine = cspm::engine;
namespace net = cspm::net;
namespace store = cspm::store;

constexpr uint32_t kPokecVertices = 8000;
/// The served score stream: model name, vertices per frame, k, and the
/// offered load in vertices/s (absolute, so a faster server shows lower
/// latency at the same load).
constexpr const char* kModel = "pokec8k";
constexpr uint32_t kVerticesPerFrame = 8;
constexpr uint32_t kTopK = 10;
constexpr double kScoreRateVps = 600;
constexpr size_t kConnections = 4;
/// In-process server updates after each repetition of mine-pokec8k.
constexpr size_t kMineUpdates = 10;
/// Length of the churn pass in a traced mine-pokec8k run, seconds.
constexpr double kShortChurnSeconds = 8;
/// Vertices checked bit-for-bit against in-process scoring per run.
constexpr size_t kCheckSample = 64;

// --- report ----------------------------------------------------------------

/// Process start; every report line carries the time since.
const WallTimer g_clock;

void Say(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Say(const char* fmt, ...) {
  std::printf("[%7.2fs] ", g_clock.ElapsedSeconds());
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// What one open-loop phase did, split by verb.
struct PhaseSummary {
  uint64_t attempted = 0, ok = 0, overloaded = 0, errors = 0, unanswered = 0;
  std::vector<double> score_ms;   ///< OK score replies, from due time
  std::vector<double> update_ms;  ///< OK update replies, from due time
  std::vector<double> lateness_ms;
  /// p50 and p99 of score latency per one-second window (in-run
  /// steadiness).
  std::vector<double> window_p50_ms;
  std::vector<double> window_p99_ms;
};

/// Collects the metrics, failures and checks of one run and prints the
/// result line.
class Report {
 public:
  /// One metric of the JSON line, with the samples it summarises.
  void Add(const std::string& name, const std::string& unit, double value,
           const std::vector<double>& samples = {}) {
    metrics_.push_back({name, unit, value, samples});
  }

  /// An end-to-end number a shared host cannot hold steady enough to bound
  /// (NOTES.md has the measured spreads): printed with its unit and in-run
  /// spread, left out of the result.
  void Info(const std::string& name, const std::string& unit, double value,
            const std::vector<double>& samples = {}) {
    const auto [q1, q3] = Quartiles(samples);
    Say("info   %-32s %14.6g %-6s (not in the result; in-run samples n=%zu "
        "median=%.6g q1=%.6g q3=%.6g)",
        name.c_str(), value, unit.c_str(), samples.size(), Median(samples),
        q1, q3);
  }
  /// Operations outside the open loop that succeeded: mines and re-mines
  /// (a failure there ends the run).
  void Operations(uint64_t succeeded) {
    attempted_ += succeeded;
    ok_ += succeeded;
  }
  /// One open-loop phase.
  void Phase(const PhaseSummary& s) {
    attempted_ += s.attempted;
    ok_ += s.ok;
    overloaded_ += s.overloaded;
    errors_ += s.errors;
    unanswered_ += s.unanswered;
    lateness_ms_.insert(lateness_ms_.end(), s.lateness_ms.begin(),
                        s.lateness_ms.end());
  }
  /// An output check: a failure counts as a failed operation and makes the
  /// run incorrect.
  void Check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++check_failed_;
      Say("CHECK FAILED: %s", what.c_str());
    }
  }

  /// Prints the accounting and each metric with its in-run spread, then the
  /// JSON line. Returns the process exit code.
  int Finish() {
    const uint64_t failed =
        overloaded_ + errors_ + unanswered_ + check_failed_;
    Say("accounting: attempted=%llu ok=%llu overloaded=%llu error=%llu "
        "unanswered=%llu check_failed=%llu (of %llu checks) | generator "
        "lateness p50=%.4f p99=%.4f ms (n=%zu)",
        static_cast<unsigned long long>(attempted_ + checks_),
        static_cast<unsigned long long>(ok_ + checks_ - check_failed_),
        static_cast<unsigned long long>(overloaded_),
        static_cast<unsigned long long>(errors_),
        static_cast<unsigned long long>(unanswered_),
        static_cast<unsigned long long>(check_failed_),
        static_cast<unsigned long long>(checks_),
        Percentile(lateness_ms_, 0.5), Percentile(lateness_ms_, 0.99),
        lateness_ms_.size());
    bool correct = check_failed_ == 0 && attempted_ > 0;
    std::string metrics;
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) {
        correct = false;
        Say("metric %s has no finite value", m.name.c_str());
        continue;
      }
      if (m.samples.size() > 1) {
        const auto [q1, q3] = Quartiles(m.samples);
        Say("metric %-32s %14.6g %-6s (in-run samples n=%zu median=%.6g "
            "q1=%.6g q3=%.6g)",
            m.name.c_str(), m.value, m.unit.c_str(), m.samples.size(),
            Median(m.samples), q1, q3);
      } else {
        Say("metric %-32s %14.6g %-6s", m.name.c_str(), m.value,
            m.unit.c_str());
      }
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", m.value);
      metrics += metrics.empty() ? "" : ", ";
      metrics += "\"" + m.name + "\": {\"value\": " + value +
                 ", \"unit\": \"" + m.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_ + checks_),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
    std::vector<double> samples;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0, ok_ = 0, overloaded_ = 0, errors_ = 0,
           unanswered_ = 0, checks_ = 0, check_failed_ = 0;
  std::vector<double> lateness_ms_;
};

// --- shared set-up -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
};

void PrintFingerprint(const Args& args) {
  std::string load = "?";
  std::ifstream loadavg("/proc/loadavg");
  if (loadavg) {
    std::string a, b, c;
    loadavg >> a >> b >> c;
    load = a + " " + b + " " + c;
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "g++ " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  Say("perfbench workload=%s seed=%llu seconds=%g trace=%d",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0);
  Say("fingerprint: nproc=%ld compiler=\"%s\" loadavg_start=\"%s\"",
      ::sysconf(_SC_NPROCESSORS_ONLN), compiler, load.c_str());
}

/// The options `cspm_shell mine` and the server's replay path use; every
/// other knob stays at its shipped default.
engine::MiningOptions ShippedMiningOptions() {
  engine::MiningOptions opts;
  opts.record_iteration_stats = false;
  opts.enable_updates = true;
  return opts;
}

engine::SaveModelOptions ServableSave(const std::string& name) {
  engine::SaveModelOptions save;
  save.format = engine::ModelFileFormat::kBinaryStore;
  save.model_name = name;
  save.include_graph = true;
  return save;
}

double SelfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string StorePath(const Args& args, const std::string& tag) {
  return args.work_dir + "/" + args.workload + "-" + tag + ".cspm";
}

/// An independent random stream per (seed, purpose), so the inputs of one
/// phase never depend on how many draws an earlier phase made.
Rng Stream(uint64_t seed, uint64_t purpose) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + purpose);
}

/// Times `fn` `reps` times; returns the per-call samples in ms.
std::vector<double> TimeMs(size_t reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (size_t i = 0; i < reps; ++i) {
    WallTimer t;
    fn();
    samples.push_back(t.ElapsedMillis());
  }
  return samples;
}

/// Histogram of the in-process registry: mean of the recorded spans, ms.
double SpanMeanMs(const char* name) {
  const auto snap = cspm::obs::GetHistogram(name)->Snap();
  return snap.count == 0 ? std::nan("")
                         : static_cast<double>(snap.sum_ns) / 1e6 /
                               static_cast<double>(snap.count);
}

/// One mine + save of `shared` to `path` with the shipped options.
StatusOr<engine::MiningSession> MineAndSave(
    const std::shared_ptr<const AttributedGraph>& shared,
    const std::string& path) {
  std::remove(path.c_str());
  CSPM_ASSIGN_OR_RETURN(engine::MiningSession session,
                        engine::MiningSession::Create(shared,
                                                      ShippedMiningOptions()));
  CSPM_RETURN_IF_ERROR(session.Mine());
  CSPM_RETURN_IF_ERROR(session.SaveModel(path, ServableSave(kModel)));
  return session;
}

/// The exact re-mine's input: 40 edge rewires dirty ~80 vertices, 1% of
/// n=8000.
StatusOr<GraphDelta> MakeExactDelta(const AttributedGraph& g, uint64_t seed) {
  return cspm::graph::MakeRandomEdgeRewires(g, 40, seed ^ 0x5eed);
}

/// A chain of deltas, each valid on the graph the previous ones produced:
/// 4 edge ops (2 removals, 2 additions), at most 8 dirty vertices — 0.1%
/// of n=8000. Attribute changes are kept out of the timed stream: one
/// makes a kFast update re-seed every pair (6-10 s on this graph, longer
/// than a cold mine), which would park every score behind it until the
/// admission bound refuses them. The traced run times that path on its
/// own (engine.apply_fast_attr_ms).
StatusOr<std::vector<GraphDelta>> MakeChurnDeltas(const AttributedGraph& g0,
                                                  size_t count, uint64_t seed) {
  std::vector<GraphDelta> deltas;
  Rng rng(seed);
  AttributedGraph cur = g0;
  for (size_t i = 0; i < count; ++i) {
    CSPM_ASSIGN_OR_RETURN(GraphDelta d,
                          cspm::graph::MakeRandomEdgeRewires(cur, 4, rng.Next()));
    CSPM_ASSIGN_OR_RETURN(cspm::graph::DeltaApplication applied,
                          cspm::graph::ApplyDelta(cur, d));
    cur = std::move(applied.graph);
    deltas.push_back(std::move(d));
  }
  return deltas;
}

/// One attribute set on a seeded vertex that lacks the attribute.
GraphDelta MakeAttributeDelta(const AttributedGraph& g, Rng& rng) {
  GraphDelta d;
  const uint32_t n = g.num_vertices().value();
  for (;;) {
    const VertexId v(static_cast<uint32_t>(rng.Uniform(n)));
    const cspm::core::AttrId a(
        static_cast<uint32_t>(rng.Uniform(g.num_attribute_values())));
    if (g.HasAttribute(v, a)) continue;
    d.SetAttribute(v, g.dict().Name(a));
    return d;
  }
}

/// What the server does for one update frame (ModelHost::Update), without
/// the wire: ApplyUpdates, AppendDelta in the mode that ran, then Publish.
Status ServerUpdate(engine::MiningSession& session, store::ModelStore& st,
                    engine::ModelRegistry& registry, const GraphDelta& delta) {
  engine::UpdateStats stats;
  CSPM_RETURN_IF_ERROR(
      session.ApplyUpdates(delta, engine::UpdateMode::kFast, &stats));
  CSPM_RETURN_IF_ERROR(st.AppendDelta(kModel, delta,
                                      stats.fast_path
                                          ? store::WalDeltaMode::kFast
                                          : store::WalDeltaMode::kExact));
  return session.Publish(registry, kModel).status();
}

// --- open-loop traffic ---------------------------------------------------------

/// One score request for kVerticesPerFrame vertex ids drawn uniformly over
/// the graph.
std::string RandomScorePayload(Rng& rng, uint32_t num_vertices) {
  net::ScoreRequest req;
  req.model = kModel;
  req.k = kTopK;
  for (uint32_t j = 0; j < kVerticesPerFrame; ++j) {
    req.vertices.push_back(
        VertexId(static_cast<uint32_t>(rng.Uniform(num_vertices))));
  }
  return net::EncodeScoreRequest(req);
}

/// Appends a Poisson stream of score frames (rate x seconds arrivals spread
/// uniformly over [0, seconds) — a Poisson process conditioned on its
/// count, so the offered rate is exact) with vertex ids uniform over the
/// graph.
void AddScoreArrivals(Rng& rng, uint32_t num_vertices, double seconds,
                      std::vector<Arrival>* arrivals,
                      std::vector<std::string>* payloads) {
  const auto count = static_cast<size_t>(
      std::llround(kScoreRateVps * seconds / kVerticesPerFrame));
  for (size_t i = 0; i < count; ++i) {
    Arrival a;
    a.due_ns = static_cast<uint64_t>(seconds * rng.UniformDouble() * 1e9);
    a.payload = static_cast<uint32_t>(payloads->size());
    a.verb = net::Verb::kScore;
    arrivals->push_back(a);
    payloads->push_back(RandomScorePayload(rng, num_vertices));
  }
}

/// Sorts by due time and deals the arrivals round-robin over connections.
void Finalize(std::vector<Arrival>* arrivals) {
  std::stable_sort(arrivals->begin(), arrivals->end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_ns < b.due_ns;
                   });
  for (size_t i = 0; i < arrivals->size(); ++i) {
    (*arrivals)[i].conn = static_cast<uint32_t>(i % kConnections);
  }
}

PhaseSummary Summarize(const std::vector<Arrival>& arrivals,
                       const OpenLoopResult& r) {
  PhaseSummary s;
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    ++s.attempted;
    switch (r.outcome[i]) {
      case Outcome::kOk: {
        ++s.ok;
        if (arrivals[i].verb == net::Verb::kScore) {
          s.score_ms.push_back(r.latency_ms[i]);
          const auto w = static_cast<size_t>(arrivals[i].due_ns / 1'000'000'000);
          if (windows.size() <= w) windows.resize(w + 1);
          windows[w].push_back(r.latency_ms[i]);
        } else {
          s.update_ms.push_back(r.latency_ms[i]);
        }
        break;
      }
      case Outcome::kOverloaded: ++s.overloaded; break;
      case Outcome::kError: ++s.errors; break;
      case Outcome::kUnanswered: ++s.unanswered; break;
    }
    if (std::isfinite(r.lateness_ms[i])) s.lateness_ms.push_back(r.lateness_ms[i]);
  }
  for (const auto& w : windows) {
    if (w.empty()) continue;
    s.window_p50_ms.push_back(Percentile(w, 0.5));
    s.window_p99_ms.push_back(Percentile(w, 0.99));
  }
  return s;
}

void PrintPhase(const char* name, const PhaseSummary& s) {
  Say("phase %s: offered=%.1f vertices/s attempted=%llu ok=%llu "
      "overloaded=%llu error=%llu unanswered=%llu | "
      "score p50=%.3f p99=%.3f ms (n=%zu) window-median p99=%.3f ms | "
      "generator lateness p50=%.3f p99=%.3f ms",
      name, kScoreRateVps, static_cast<unsigned long long>(s.attempted),
      static_cast<unsigned long long>(s.ok),
      static_cast<unsigned long long>(s.overloaded),
      static_cast<unsigned long long>(s.errors),
      static_cast<unsigned long long>(s.unanswered), Percentile(s.score_ms, 0.5),
      Percentile(s.score_ms, 0.99), s.score_ms.size(), Median(s.window_p99_ms),
      Percentile(s.lateness_ms, 0.5), Percentile(s.lateness_ms, 0.99));
}

/// True when both models hold the same a-stars, code lengths bit for bit.
bool SameAStars(const cspm::core::CspmModel& a, const cspm::core::CspmModel& b) {
  if (a.astars.size() != b.astars.size()) return false;
  for (size_t i = 0; i < a.astars.size(); ++i) {
    const cspm::core::AStar& x = a.astars[i];
    const cspm::core::AStar& y = b.astars[i];
    if (x.core_values != y.core_values || x.leaf_values != y.leaf_values ||
        x.frequency != y.frequency ||
        std::memcmp(&x.code_length_bits, &y.code_length_bits,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// True when `wire` (a score reply payload) is bit-identical to the
/// in-process ranking of `expected`.
bool SameReply(const std::string& wire,
               const std::vector<cspm::core::AttributeScores>& expected,
               uint32_t k) {
  auto decoded = net::DecodeScoreResponse(wire);
  if (!decoded.ok() || decoded->results.size() != expected.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    const auto local = net::TopKScores(expected[i], k);
    const auto& got = decoded->results[i];
    if (got.size() != local.size()) return false;
    for (size_t j = 0; j < local.size(); ++j) {
      if (got[j].attr != local[j].attr ||
          std::memcmp(&got[j].score, &local[j].score, sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// --- served-model set-up -------------------------------------------------------

/// A mined model saved to a store and served by a cspm_serve child.
struct Served {
  std::shared_ptr<const AttributedGraph> graph;
  /// The set-up's mining session (nothing has been applied to it) and the
  /// time its Create + Mine + SaveModel took.
  std::optional<engine::MiningSession> session;
  double mine_s = 0;
  std::string store_path;
  std::unique_ptr<ServerProcess> server;
  Conns conns;
};

/// Set-up of a served workload: the pokec stand-in from the seed, mined and
/// saved with its graph snapshot; then the server is started on that store
/// and every connection pinged.
StatusOr<Served> SetUpServed(const Args& args) {
  Served s;
  CSPM_ASSIGN_OR_RETURN(AttributedGraph g,
                        cspm::datasets::MakePokecLike(args.seed, kPokecVertices));
  s.graph = std::make_shared<const AttributedGraph>(std::move(g));
  s.store_path = StorePath(args, "served");
  WallTimer t;
  CSPM_ASSIGN_OR_RETURN(s.session, MineAndSave(s.graph, s.store_path));
  s.mine_s = t.ElapsedSeconds();
  CSPM_ASSIGN_OR_RETURN(s.server,
                        ServerProcess::Start(args.serve_bin, s.store_path));
  CSPM_ASSIGN_OR_RETURN(s.conns, Connect(s.server->port(), kConnections));
  for (auto& conn : s.conns) {
    CSPM_ASSIGN_OR_RETURN(net::Frame pong, Call(*conn, net::Verb::kPing, ""));
    if (pong.status != net::WireStatus::kOk) {
      return Status::Internal("ping refused");
    }
  }
  return s;
}

/// A few synchronous scores so the server has mapped the plan pages and
/// built its engine before anything is timed.
Status WarmUp(Served& s, Rng& rng) {
  for (size_t i = 0; i < 16; ++i) {
    CSPM_ASSIGN_OR_RETURN(
        net::Frame reply,
        Call(*s.conns[i % kConnections], net::Verb::kScore,
             RandomScorePayload(rng, s.graph->num_vertices().value())));
    if (reply.status != net::WireStatus::kOk) {
      return Status::Internal("warm-up score refused");
    }
  }
  return Status::OK();
}

StatusOr<std::string> ServerMetrics(Served& s) {
  CSPM_ASSIGN_OR_RETURN(net::Frame reply,
                        Call(*s.conns[0], net::Verb::kMetrics, ""));
  if (reply.status != net::WireStatus::kOk) {
    return Status::Internal("metrics verb refused");
  }
  return reply.payload;  // the JSON text itself
}

/// Server-side stage metrics for the ledger, from two `metrics` snapshots
/// taken around the traced phase (histograms are cumulative since start).
void AddServerLayers(Report& report, const std::string& before,
                     const std::string& after) {
  const auto delta = [&](const char* name) {
    return SnapshotNumber(after, "counters", name) -
           SnapshotNumber(before, "counters", name);
  };
  report.Add("net.batch_wait_p50_us", "us",
             SnapshotNumber(after, "histograms", "net.batch.wait", "p50_ns") /
                 1e3);
  report.Add("net.batch_wait_p99_us", "us",
             SnapshotNumber(after, "histograms", "net.batch.wait", "p99_ns") /
                 1e3);
  report.Add("net.request_score_p50_us", "us",
             SnapshotNumber(after, "histograms", "net.request.score",
                            "p50_ns") /
                 1e3);
  report.Add("net.requests_per_batch", "count",
             delta("net.coalesced_requests") / delta("net.batches_flushed"));
  report.Add("net.overloaded_share", "share",
             delta("net.score_overloaded") / delta("net.requests_score"));
}

/// Per-layer probes of the score path, run in-process after the server has
/// stopped (nothing contends): the public calls a served request passes
/// through, over the score requests of the traced phase. Adds the plan,
/// gather, posting-loop, ScoreBatch, parse and encode metrics, then prints
/// the score ledger: those stages plus the server's batch wait against the
/// client p50. False if a call fails.
bool AddScoreLayers(Report& report, const AttributedGraph& graph,
                    const std::string& store_path,
                    const std::vector<Arrival>& arrivals,
                    const std::vector<std::string>& payloads,
                    const std::string& server_metrics, double client_p50_ms) {
  std::vector<double> open_ms;
  std::shared_ptr<const cspm::core::ScoringPlan> plan;
  for (int i = 0; i < 15; ++i) {
    WallTimer t;
    auto st = store::ModelStore::Open(store_path);
    if (!st.ok()) return false;
    auto p = st->OpenPlan(kModel);
    open_ms.push_back(t.ElapsedMillis());
    if (!p.ok()) return false;
    plan = *p;
  }
  // The sample: the vertices of the traced phase, in order.
  std::vector<VertexId> sample;
  std::vector<net::ScoreRequest> requests;
  constexpr size_t kMaxVertices = 2048;
  for (const Arrival& a : arrivals) {
    if (a.verb != net::Verb::kScore) continue;
    auto req = net::DecodeScoreRequest(payloads[a.payload]);
    if (!req.ok()) return false;
    sample.insert(sample.end(), req->vertices.begin(), req->vertices.end());
    requests.push_back(std::move(req).value());
    if (sample.size() >= kMaxVertices) break;
  }
  const double nv = static_cast<double>(sample.size());
  std::vector<std::vector<cspm::core::AttrId>> neighbourhoods(sample.size());
  std::vector<double> gather_us, score_into_us, batch_us, batch4_us, parse_us,
      encode_us;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer t;
    for (size_t i = 0; i < sample.size(); ++i) {
      cspm::core::GatherNeighbourhoodAttrs(graph, sample[i],
                                           &neighbourhoods[i]);
    }
    gather_us.push_back(t.ElapsedMillis() * 1e3 / nv);
  }
  cspm::core::ScoringScratch scratch;
  plan->PrepareScratch(&scratch);
  cspm::core::AttributeScores out;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer t;
    for (const auto& nb : neighbourhoods) {
      plan->ScoreInto(nb, cspm::core::ScoringOptions(), &scratch, &out);
    }
    score_into_us.push_back(t.ElapsedMillis() * 1e3 / nv);
  }
  std::vector<cspm::core::AttributeScores> scored;
  for (uint32_t threads : {1u, 4u}) {
    engine::ServingOptions so;
    so.num_threads = threads;
    auto eng = engine::ServingEngine::Create(graph, plan, so);
    if (!eng.ok()) return false;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer t;
      auto res = eng->ScoreBatch(sample);
      (threads == 1 ? batch_us : batch4_us)
          .push_back(t.ElapsedMillis() * 1e3 / nv);
      if (!res.ok()) return false;
      if (threads == 1) scored = std::move(res).value();
    }
  }
  std::string wire;
  uint32_t id = 1;
  for (const auto& req : requests) {
    net::Frame f;
    f.request_id = id++;
    f.verb = net::Verb::kScore;
    f.payload = net::EncodeScoreRequest(req);
    net::AppendFrame(f, &wire);
  }
  const double frames = static_cast<double>(requests.size());
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer t;
    net::FrameParser parser;
    std::vector<net::Frame> parsed;
    for (size_t off = 0; off < wire.size(); off += 65536) {
      if (!parser.Feed(std::string_view(wire).substr(off, 65536), &parsed).ok()) {
        return false;
      }
    }
    for (const auto& f : parsed) {
      if (!net::DecodeScoreRequest(f.payload).ok()) return false;
    }
    parse_us.push_back(t.ElapsedMillis() * 1e3 / frames);
  }
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer t;
    size_t v = 0;
    std::string sink;
    for (const auto& req : requests) {
      net::ScoreResponse resp;
      for (size_t j = 0; j < req.vertices.size(); ++j) {
        resp.results.push_back(net::TopKScores(scored[v++], req.k));
      }
      net::Frame f;
      f.verb = net::Verb::kScore;
      f.payload = net::EncodeScoreResponse(resp);
      net::AppendFrame(f, &sink);
    }
    encode_us.push_back(t.ElapsedMillis() * 1e3 / frames);
  }

  report.Add("store.open_plan_ms", "ms", Median(open_ms), open_ms);
  report.Add("cspm.gather_us", "us", Median(gather_us), gather_us);
  report.Add("cspm.score_into_us", "us", Median(score_into_us), score_into_us);
  report.Add("engine.score_batch_us", "us", Median(batch_us), batch_us);
  report.Add("engine.score_batch_scaling_t4", "x",
             Median(batch_us) / Median(batch4_us));
  Say("scaling: ScoreBatch %.3f us/vertex at 1 thread, %.3f us/vertex at 4 "
      "threads (%zu vertices)",
      Median(batch_us), Median(batch4_us), sample.size());
  report.Add("net.parse_us", "us", Median(parse_us), parse_us);
  report.Add("net.encode_us", "us", Median(encode_us), encode_us);

  const double wait_us =
      SnapshotNumber(server_metrics, "histograms", "net.batch.wait", "p50_ns") /
      1e3;
  const double vpf = kVerticesPerFrame;
  const double sum_ms = (Median(parse_us) + wait_us +
                         vpf * (Median(gather_us) + Median(score_into_us)) +
                         Median(encode_us)) /
                        1e3;
  Say("ledger score: parse %.4f + batch_wait %.4f + %g x (gather %.4f + "
      "score_into %.4f) + topk_encode %.4f = %.4f ms vs client p50 %.4f ms -> "
      "unattributed %.4f ms (%.1f%%)",
      Median(parse_us) / 1e3, wait_us / 1e3, vpf, Median(gather_us) / 1e3,
      Median(score_into_us) / 1e3, Median(encode_us) / 1e3, sum_ms, client_p50_ms,
      client_p50_ms - sum_ms, 100.0 * (client_p50_ms - sum_ms) / client_p50_ms);
  report.Add("ledger.score_unattributed_ms", "ms", client_p50_ms - sum_ms);
  return true;

}

// --- workload: mine-pokec8k ----------------------------------------------------

/// `reps` repetitions of: cold mine + save, an exact re-mine at 1% dirty
/// on that fresh session, then kMineUpdates kFast updates through the
/// server's update sequence (ServerUpdate). A traced run alternates plain
/// and traced repetitions.
int RunMine(const Args& args, size_t reps, Report& report,
            const WallTimer& clock) {
  // Set-up: the inputs from the seed, then one mine + save of them that is
  // not counted in mine_s. It is the mine an operator waits for before the
  // first model exists; the repetitions then run in a warm process, and
  // its DL is the one they must reproduce.
  auto graph = cspm::datasets::MakePokecLike(args.seed, kPokecVertices);
  auto delta = graph.ok() ? MakeExactDelta(*graph, args.seed)
                          : StatusOr<GraphDelta>(graph.status());
  auto remined = delta.ok() ? cspm::graph::ApplyDelta(*graph, *delta)
                            : StatusOr<cspm::graph::DeltaApplication>(
                                  delta.status());
  auto updates = remined.ok() ? MakeChurnDeltas(remined->graph, kMineUpdates,
                                                args.seed * 31 + 11)
                              : StatusOr<std::vector<GraphDelta>>(
                                    remined.status());
  if (!updates.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", updates.status().ToString().c_str());
    return 2;
  }
  const auto shared =
      std::make_shared<const AttributedGraph>(std::move(graph).value());
  const std::string path = StorePath(args, "mine");
  double dl_cold = 0;
  {
    auto warm = MineAndSave(shared, path);
    report.Operations(1);
    if (!warm.ok()) {
      std::fprintf(stderr, "perfbench: set-up mine failed: %s\n",
                   warm.status().ToString().c_str());
      return 2;
    }
    dl_cold = warm->stats().final_dl_bits;
  }
  const double setup_s = clock.ElapsedSeconds();
  Say("set-up: inputs + one mine + save in %.3f s, DL %.3f bits", setup_s,
      dl_cold);

  std::vector<double> mine_s, mine_only_s, remine_s, update_ms,
      candidate_gen_s, merge_loop_s, merges, dirty_pairs;
  std::vector<double> traced_mine_s, plain_mine_s;
  std::optional<double> dl_remine, dl_updated;
  bool dl_stable = true;
  for (size_t rep = 0; rep < reps; ++rep) {
    // In a traced run, odd repetitions read the program's registry (reset
    // before the mine, read after), even ones do not: their difference is
    // the tracing overhead.
    const bool traced = args.trace && rep % 2 == 1;
    if (traced) cspm::obs::MetricsRegistry::Global().Reset();
    std::remove(path.c_str());
    WallTimer t;
    auto session = engine::MiningSession::Create(shared, ShippedMiningOptions());
    Status st = session.ok() ? session->Mine() : session.status();
    const double mined = t.ElapsedSeconds();
    if (st.ok()) st = session->SaveModel(path, ServableSave(kModel));
    const double total = t.ElapsedSeconds();
    report.Operations(1);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: mine failed: %s\n", st.ToString().c_str());
      return 2;
    }
    mine_s.push_back(total);
    mine_only_s.push_back(mined);
    (traced ? traced_mine_s : plain_mine_s).push_back(total);
    if (traced) {
      candidate_gen_s.push_back(
          SpanMeanMs("phase.mine.candidate_gen") / 1e3);
      merge_loop_s.push_back(SpanMeanMs("phase.mine.merge_loop") / 1e3);
      merges.push_back(static_cast<double>(
          cspm::obs::GetCounter("mine.merges")->Value()));
    }
    const double dl = session->stats().final_dl_bits;
    if (dl != dl_cold) dl_stable = false;

    engine::UpdateStats ustats;
    WallTimer r;
    st = session->ApplyUpdates(*delta, engine::UpdateMode::kExact, &ustats);
    remine_s.push_back(r.ElapsedSeconds());
    report.Operations(1);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: re-mine failed: %s\n",
                   st.ToString().c_str());
      return 2;
    }
    if (traced) {
      // Counted on the exact path only (the kFast path re-seeds instead).
      dirty_pairs.push_back(static_cast<double>(
          cspm::obs::GetCounter("update.dirty_pairs")->Value()));
    }
    const double dl2 = session->stats().final_dl_bits;
    if (dl_remine && *dl_remine != dl2) dl_stable = false;
    dl_remine = dl2;

    auto stored = store::ModelStore::Open(path);
    if (!stored.ok()) return 2;
    engine::ModelRegistry registry;
    const size_t first = update_ms.size();
    for (const GraphDelta& d : *updates) {
      WallTimer u;
      st = ServerUpdate(*session, *stored, registry, d);
      update_ms.push_back(u.ElapsedMillis());
      report.Operations(1);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: update failed: %s\n",
                     st.ToString().c_str());
        return 2;
      }
    }
    const double dl3 = session->stats().final_dl_bits;
    if (dl_updated && *dl_updated != dl3) dl_stable = false;
    dl_updated = dl3;
    Say("rep %zu: mine+save %.3f s (mine %.3f s) exact re-mine %.3f s "
        "(%zu dirty vertices) %zu updates p50 %.3f ms DL %.3f -> %.3f -> "
        "%.3f bits%s",
        rep, total, mined, remine_s.back(), ustats.dirty_vertices,
        updates->size(),
        Median(std::vector<double>(update_ms.begin() + first, update_ms.end())),
        dl, dl2, dl3, traced ? " [traced]" : "");
  }
  const double peak_rss = SelfPeakRssMb();
  report.Check(dl_stable, "final DL identical across set-up and repetitions");

  // Losslessness, once per run, on a session that keeps its database.
  {
    engine::MiningOptions opts = ShippedMiningOptions();
    opts.keep_database = true;
    auto session = engine::MiningSession::Create(shared, opts);
    Status st = session.ok() ? session->Mine() : session.status();
    if (st.ok()) st = session->VerifyLossless();
    report.Check(st.ok(), "VerifyLossless: " + st.ToString());
    report.Check(st.ok() && session->stats().final_dl_bits == dl_cold,
                 "lossless-check mine has the same DL");
  }

  if (!args.trace) {
    report.Add("setup_s", "s", setup_s);
    report.Add("peak_rss_mb", "MiB", peak_rss);
    report.Add("mine_s", "s", Median(mine_s), mine_s);
    report.Add("remine_exact_s", "s", Median(remine_s), remine_s);
    report.Add("update_p50_ms", "ms", Median(update_ms), update_ms);
    return 0;
  }

  // Per-layer: the public calls a mine is made of, timed one by one.
  std::vector<double> db_build = TimeMs(5, [&] {
    auto idb = cspm::core::InvertedDatabase::FromGraph(*shared);
    if (!idb.ok()) std::abort();
  });
  auto session = engine::MiningSession::Create(shared, ShippedMiningOptions());
  if (!session.ok() || !session->Mine().ok()) return 2;
  std::shared_ptr<const cspm::core::ScoringPlan> plan;
  std::vector<double> compile = TimeMs(5, [&] {
    plan = cspm::core::CompileSharedPlan(session->model(),
                                         shared->num_attribute_values());
  });
  store::StoredModel stored;
  stored.model = session->model();
  stored.dict = shared->dict();
  stored.graph = *shared;
  std::vector<double> put_ms, pages;
  for (int i = 0; i < 5; ++i) {
    std::remove(path.c_str());
    const uint64_t before =
        cspm::obs::GetCounter("store.pages_written")->Value();
    WallTimer t;
    auto st = store::ModelStore::Create(path);
    Status put = st.ok() ? st->Put(kModel, stored) : st.status();
    put_ms.push_back(t.ElapsedMillis());
    if (!put.ok()) return 2;
    pages.push_back(static_cast<double>(
        cspm::obs::GetCounter("store.pages_written")->Value() - before));
  }
  std::remove(path.c_str());

  // Thread scaling of a cold mine: 4 threads against the 1-thread mines
  // above (mine only, no save).
  engine::MiningOptions t4 = ShippedMiningOptions();
  t4.num_threads = 4;
  WallTimer t4_timer;
  auto session4 = engine::MiningSession::Create(shared, t4);
  if (!session4.ok() || !session4->Mine().ok()) return 2;
  const double mine_t4 = t4_timer.ElapsedSeconds();
  report.Check(session4->stats().final_dl_bits == dl_cold,
               "4-thread mine has the same DL as 1 thread");
  Say("scaling: mine at 1 thread %.3f s (median), at 4 threads %.3f s",
      Median(mine_only_s), mine_t4);

  const double db_ms = Median(db_build);
  const double cg = Median(candidate_gen_s);
  const double ml = Median(merge_loop_s);
  const double pc = Median(compile);
  const double put = Median(put_ms);
  report.Add("cspm.db_build_ms", "ms", db_ms, db_build);
  report.Add("cspm.candidate_gen_s", "s", cg, candidate_gen_s);
  report.Add("cspm.merge_loop_s", "s", ml, merge_loop_s);
  report.Add("cspm.merges", "count", Median(merges), merges);
  report.Add("cspm.plan_compile_ms", "ms", pc, compile);
  report.Add("cspm.plan_bytes", "bytes", static_cast<double>(plan->ApproxBytes()));
  report.Add("engine.mine_scaling_t4", "x", Median(mine_only_s) / mine_t4);
  report.Add("engine.apply_exact_s", "s", Median(remine_s), remine_s);
  report.Add("update.dirty_pairs", "count", Median(dirty_pairs), dirty_pairs);
  report.Add("store.put_ms", "ms", put, put_ms);
  report.Add("store.pages_written", "count", Median(pages), pages);

  const double total = Median(traced_mine_s);
  const double sum = db_ms / 1e3 + cg + ml + pc / 1e3 + put / 1e3;
  Say("ledger mine: db_build %.4f + candidate_gen %.4f + merge_loop %.4f + "
      "plan_compile %.4f + put %.4f = %.4f s vs mine_s %.4f s -> "
      "unattributed %.4f s (%.1f%%)",
      db_ms / 1e3, cg, ml, pc / 1e3, put / 1e3, sum, total, total - sum,
      100.0 * (total - sum) / total);
  report.Add("ledger.mine_unattributed_s", "s", total - sum);
  const double overhead = Median(traced_mine_s) - Median(plain_mine_s);
  Say("tracing overhead: mine_s traced %.4f s vs untraced %.4f s -> %+.4f s "
      "(%+.2f%%)",
      Median(traced_mine_s), Median(plain_mine_s), overhead,
      100.0 * overhead / Median(plain_mine_s));
  report.Add("trace.overhead_mine_s", "s", overhead);
  return 0;
}

// --- workload: churn-pokec8k -----------------------------------------------------

/// `seconds` of scores at a fixed rate beside one kFast update frame a
/// second, then the output checks.
int RunChurn(const Args& args, double seconds, Report& report,
             const WallTimer& clock) {
  // Seconds between update frames: thirty updates in a 30 s run, so their
  // p50 is steady against the spread of single updates. An update holds
  // the executor for ~200 ms, so about one score in five queues behind
  // one; the score p50 stays in the unblocked mode and the p99 measures
  // the blocking.
  constexpr double kUpdateEvery = 1.0;
  const double measure_s = std::max(2.0, seconds);
  const size_t updates = static_cast<size_t>(measure_s / kUpdateEvery) + 1;

  auto served = SetUpServed(args);
  if (!served.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 served.status().ToString().c_str());
    return 2;
  }
  Served& s = *served;
  auto deltas = MakeChurnDeltas(*s.graph, updates + 1, args.seed * 31 + 7);
  if (!deltas.ok()) return 2;
  std::vector<std::string> update_payloads;
  for (const GraphDelta& d : *deltas) {
    net::UpdateRequest req;
    req.model = kModel;
    req.mode = 1;  // kFast
    req.delta = d;
    update_payloads.push_back(net::EncodeUpdateRequest(req));
  }
  // Warm-up: one update, so the server's lazy cold mine happens here.
  auto warm = Call(*s.conns[0], net::Verb::kUpdate, update_payloads[0]);
  Rng warm_rng = Stream(args.seed, 1);
  if (!warm.ok() || warm->status != net::WireStatus::kOk ||
      !WarmUp(s, warm_rng).ok()) {
    std::fprintf(stderr, "perfbench: warm-up update failed\n");
    return 2;
  }
  const double setup_s = clock.ElapsedSeconds();
  const uint32_t n = s.graph->num_vertices().value();

  // Scores at a fixed rate plus one kFast update every kUpdateEvery
  // seconds, all open loop. A traced run splits this into an untraced and
  // a traced half.
  size_t next_update = 1;
  std::vector<Arrival> arrivals;
  std::vector<std::string> payloads;
  const auto run_phase = [&](uint64_t phase, double seconds) {
    Rng rng = Stream(args.seed, phase);
    arrivals.clear();
    payloads.clear();
    AddScoreArrivals(rng, n, seconds,
                     &arrivals, &payloads);
    for (double t = kUpdateEvery / 2; t < seconds && next_update < update_payloads.size();
         t += kUpdateEvery) {
      Arrival a;
      a.due_ns = static_cast<uint64_t>(t * 1e9);
      a.payload = static_cast<uint32_t>(payloads.size());
      a.verb = net::Verb::kUpdate;
      arrivals.push_back(a);
      payloads.push_back(update_payloads[next_update++]);
    }
    Finalize(&arrivals);
    OpenLoopResult r = RunOpenLoop(s.conns, arrivals, payloads);
    PhaseSummary sum = Summarize(arrivals, r);
    report.Phase(sum);
    return sum;
  };
  PhaseSummary untraced;
  std::string before, after;
  if (args.trace) {
    untraced = run_phase(100, measure_s / 2);
    PrintPhase("churn-untraced", untraced);
    auto m = ServerMetrics(s);
    if (!m.ok()) return 2;
    before = *m;
  }
  PhaseSummary phase = run_phase(101, args.trace ? measure_s / 2 : measure_s);
  PrintPhase(args.trace ? "churn-traced" : "churn", phase);
  Say("updates: %zu acknowledged, p50 %.3f ms, p99 %.3f ms",
      phase.update_ms.size(), Percentile(phase.update_ms, 0.5),
      Percentile(phase.update_ms, 0.99));
  if (args.trace) {
    auto m = ServerMetrics(s);
    if (!m.ok()) return 2;
    after = *m;
  }

  // Output check: the served state against snapshot + WAL replay.
  Rng rng = Stream(args.seed, 300);
  net::ScoreRequest check;
  check.model = kModel;
  check.k = 0;  // the full surface
  for (size_t i = 0; i < kCheckSample; ++i) {
    check.vertices.push_back(VertexId(static_cast<uint32_t>(rng.Uniform(n))));
  }
  auto wire = Call(*s.conns[0], net::Verb::kScore, net::EncodeScoreRequest(check));
  auto rss = s.server->PeakRssMb();
  report.Check(s.server->Stop().ok(), "server shut down cleanly");
  if (!wire.ok() || wire->status != net::WireStatus::kOk || !rss.ok()) {
    report.Check(false, "final wire score");
    return report.Finish();
  }
  // One exact re-mine at 1% dirty on the set-up's fresh session, after the
  // server has stopped (a traced run takes it from the mine pass).
  double remine_exact_s = 0;
  if (!args.trace) {
    auto exact = MakeExactDelta(*s.graph, args.seed);
    if (!exact.ok()) return 2;
    WallTimer t;
    const Status remined =
        s.session->ApplyUpdates(*exact, engine::UpdateMode::kExact, nullptr);
    remine_exact_s = t.ElapsedSeconds();
    report.Operations(1);
    if (!remined.ok()) {
      std::fprintf(stderr, "perfbench: re-mine failed: %s\n",
                   remined.ToString().c_str());
      return 2;
    }
    Say("set-up mine+save %.3f s, exact re-mine %.3f s", s.mine_s,
        remine_exact_s);
  }
  s.session.reset();
  auto st = store::ModelStore::Open(s.store_path);
  if (!st.ok()) return 2;
  const Status invariants = st->CheckInvariants();
  report.Check(invariants.ok(), "ModelStore::CheckInvariants: " + invariants.ToString());
  auto wal = st->ReadWal(kModel);
  if (!wal.ok()) return 2;
  const size_t acknowledged = 1 + phase.update_ms.size() + untraced.update_ms.size();
  report.Check(!wal->truncated && wal->deltas.size() == acknowledged,
               "WAL holds every acknowledged update");
  // The reference: the model and graph snapshot as stored, mined again
  // from that snapshot, with the WAL rolled forward in its recorded modes.
  auto snapshot = st->Get(kModel);
  if (!snapshot.ok() || !snapshot->graph.has_value()) return 2;
  auto ref = engine::MiningSession::Create(
      std::make_shared<const AttributedGraph>(std::move(*snapshot->graph)),
      ShippedMiningOptions());
  if (!ref.ok() || !ref->Mine().ok()) return 2;
  report.Check(SameAStars(ref->model(), snapshot->model),
               "a mine of the stored snapshot reproduces the stored model");
  if (args.trace) cspm::obs::MetricsRegistry::Global().Reset();
  std::vector<double> apply_ms;
  uint64_t replay_dirty = 0;
  for (size_t i = 0; i < wal->deltas.size(); ++i) {
    const auto mode = wal->modes[i] == store::WalDeltaMode::kFast
                          ? engine::UpdateMode::kFast
                          : engine::UpdateMode::kExact;
    engine::UpdateStats us;
    WallTimer t;
    const Status applied = ref->ApplyUpdates(wal->deltas[i], mode, &us);
    apply_ms.push_back(t.ElapsedMillis());
    replay_dirty += us.dirty_vertices;
    if (!applied.ok()) {
      report.Check(false, "WAL replay: " + applied.ToString());
      break;
    }
  }
  auto expected = ref->ScoreBatch(check.vertices);
  report.Check(expected.ok() && SameReply(wire->payload, *expected, 0),
               "served state bit-identical to snapshot + WAL replay");
  Say("check: %zu WAL records replayed (%llu dirty vertices), %zu vertices x "
      "all attribute values compared",
      wal->deltas.size(), static_cast<unsigned long long>(replay_dirty),
      check.vertices.size());

  if (!args.trace) {
    report.Add("setup_s", "s", setup_s);
    report.Add("peak_rss_mb", "MiB", *rss);
    report.Add("mine_s", "s", s.mine_s);
    report.Add("remine_exact_s", "s", remine_exact_s);
    report.Add("update_p50_ms", "ms", Percentile(phase.update_ms, 0.5),
               phase.update_ms);
    report.Info("score_p50_ms", "ms", Percentile(phase.score_ms, 0.5),
                phase.window_p50_ms);
    report.Info("score_p99_ms", "ms", Percentile(phase.score_ms, 0.99),
                phase.window_p99_ms);
    return 0;
  }

  const double updates_replayed = static_cast<double>(apply_ms.size());
  report.Add("engine.apply_fast_ms", "ms", Median(apply_ms), apply_ms);
  report.Add("update.graph_patch_ms", "ms", SpanMeanMs("phase.update.graph_patch"));
  report.Add("update.db_patch_ms", "ms", SpanMeanMs("phase.update.db_patch"));
  report.Add("update.resume_ms", "ms", SpanMeanMs("phase.update.resume"));
  report.Add("update.reseeded_pairs", "count",
             static_cast<double>(
                 cspm::obs::GetCounter("update.reseeded_pairs")->Value()) /
                 updates_replayed);
  engine::ModelRegistry registry;
  std::vector<double> swap_ms = TimeMs(7, [&] {
    if (!ref->Publish(registry, kModel).ok()) std::abort();
  });
  report.Add("engine.hot_swap_ms", "ms", Median(swap_ms), swap_ms);
  {
    engine::UpdateStats us;
    WallTimer t;
    const GraphDelta attr = MakeAttributeDelta(ref->graph(), rng);
    if (!ref->ApplyUpdates(attr, engine::UpdateMode::kFast, &us).ok()) {
      return 2;
    }
    report.Add("engine.apply_fast_attr_ms", "ms", t.ElapsedMillis());
    Say("kFast update with one attribute set: %.1f ms, %llu pairs re-seeded, "
        "%zu dirty vertices",
        t.ElapsedMillis(), static_cast<unsigned long long>(us.reseeded_pairs),
        us.dirty_vertices);
  }
  const std::string scratch = StorePath(args, "wal");
  std::remove(scratch.c_str());
  auto ws = store::ModelStore::Create(scratch);
  store::StoredModel stored;
  stored.model = ref->model();
  stored.dict = ref->graph().dict();
  stored.graph = ref->graph();
  if (!ws.ok() || !ws->Put(kModel, stored).ok()) return 2;
  std::vector<double> wal_ms;
  for (const GraphDelta& d : *deltas) {
    WallTimer t;
    if (!ws->AppendDelta(kModel, d, store::WalDeltaMode::kFast).ok()) return 2;
    wal_ms.push_back(t.ElapsedMillis());
  }
  std::remove(scratch.c_str());
  report.Add("store.wal_append_ms", "ms", Median(wal_ms), wal_ms);
  // The score path's layers, over the traced phase's score requests; its
  // ledger remainder here includes the wait behind updates.
  const double p50 = Percentile(phase.score_ms, 0.5);
  if (!AddScoreLayers(report, *s.graph, s.store_path, arrivals, payloads, after,
                      p50)) {
    return 2;
  }
  AddServerLayers(report, before, after);
  report.Add("net.request_update_p50_us", "us",
             SnapshotNumber(after, "histograms", "net.request.update",
                            "p50_ns") /
                 1e3);

  const double base = Percentile(untraced.score_ms, 0.5);
  Say("tracing overhead: score_p50 traced %.4f ms vs untraced %.4f ms -> "
      "%+.4f ms; update_p50 traced %.4f ms vs untraced %.4f ms",
      p50, base, p50 - base, Percentile(phase.update_ms, 0.5),
      Percentile(untraced.update_ms, 0.5));
  report.Add("trace.overhead_score_p50_ms", "ms", p50 - base);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <mine-pokec8k|churn-pokec8k> "
               "--seed N --seconds S --trace 0|1 "
               "--serve-bin PATH --work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const cspm::WallTimer clock;  // set-up time counts from here
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--serve-bin") {
      args.serve_bin = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.serve_bin.empty() || args.work_dir.empty() ||
      !(args.seconds > 0)) {
    return Usage();
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  PrintFingerprint(args);

  const bool mine = args.workload == "mine-pokec8k";
  if (!mine && args.workload != "churn-pokec8k") return Usage();
  // A repetition of the mine workload is ~11 s of work, so their count
  // follows --seconds; a traced run needs one plain and one traced.
  const size_t mine_reps =
      std::max<size_t>(args.trace ? 2 : 1, std::lround(args.seconds / 10.0));
  Report report;
  int rc = 0;
  if (!args.trace) {
    rc = mine ? RunMine(args, mine_reps, report, clock)
              : RunChurn(args, args.seconds, report, clock);
  } else {
    // Every per-layer metric comes from one of the two passes; the named
    // workload's pass runs at full size, the other's at its smallest.
    rc = RunMine(args, mine ? mine_reps : 2, report, clock);
    if (rc == 0) {
      rc = RunChurn(args, mine ? kShortChurnSeconds : args.seconds, report,
                    clock);
    }
  }
  if (rc != 0) return rc;
  return report.Finish();
}
