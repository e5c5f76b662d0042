// The two pdxd workloads. Both start an in-process pdxd (serve::Server on
// a Unix socket, the real wire protocol), load one tenant, and drive it
// from this single process with an open loop: every connection has its
// own schedule of due times at a fixed rate and sends each request at its
// due time, or as soon as its previous request returns when it runs late.
// Latency is taken from the due time, so a stall also charges the
// requests queued behind it; how late the generator ran (lag) and how many
// requests were due but unsent (backlog) are reported.
//
//   serve_read_heavy   genomics tenant (Section 1 peers), 3 readers sending
//                      contains / exists / certain lower_bound / ping /
//                      stats and 1 writer sending write/retract pairs of a
//                      fresh protein; writes are 10% of traffic.
//   serve_write_churn  relay tenant (Σ_st E→R1, Σ_ts R1→E, Σ_t R1→…→R6),
//                      3 writers toggling edges of their own slice of a
//                      bounded universe and 1 reader sending contains of
//                      derived R6 facts of edges nobody writes.
//
// A run: set-up (start pdxd and load the tenant, several times), warm-up,
// the nominal-rate phase (read/write latency), then the search for the
// highest rung of a fixed geometric ladder of rates that still passes: its
// read tail meets the workload's limit, nothing fails and the backlog does
// not grow (the generator never ends a rung further behind than the limit).
// Rungs are probed by bisection, which assumes passing is monotone in the
// rate; a failing rung is probed a second time. Afterwards the tenant's canonical instance
// is compared with an in-process reference Chase of the net base, and the
// offline figures (reference exchange, Figure 3 existence check) are
// timed. A traced run does all of it with spans on and then times each
// layer's public functions directly.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#include <vector>

#include "chase/chase.h"
#include "chase/stream.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "pde/certain_answers.h"
#include "pde/ctract_solver.h"
#include "pde/setting_file.h"
#include "plan/compiler.h"
#include "relational/instance_io.h"
#include "serve/client.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/tenant.h"
#include "inputs.h"
#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using pdx::serve::Client;
using pdx::serve::JsonValue;

// Set-up is cheap (tens of ms), so it is repeated often enough for a steady
// median: kSetupsBefore times before the traffic, then once per round, so
// that the median spans the whole run.
constexpr int kSetupsBefore = 9;
constexpr double kWarmupS = 0.5;
constexpr double kDrainCapS = 1.0;
constexpr int64_t kSpinNs = 200'000;
// Offline-figure samples taken between traffic phases, per figure.
constexpr double kOfflineSliceS = 0.12;
// Rungs 5% apart, so that where the knee falls moves the result by little;
// the top rung is 15x the nominal rate.
constexpr double kLadderRatio = 1.05;
constexpr int kLadderRungs = 56;
// ceil(log2(kLadderRungs + 1)) decisions settle the bisection.
constexpr int kLadderProbes = 6;
constexpr int kRounds = 2 * kLadderProbes;
// Share of the measured time spent at the nominal rate; the ladder probes
// share the rest.
constexpr double kNominalShare = 0.7;

// --- Traffic ---------------------------------------------------------------

constexpr int kReadHeavyProteins = 500;
constexpr int kRelayNodes = 3000;
constexpr int kRelayStableEdges = 4000;
constexpr int kRelaySliceEdges = 600;

enum Verb { kPing, kStats, kContains, kExists, kCertain, kWrite, kRetract,
            kVerbCount };
const char* const kVerbNames[kVerbCount] = {
    "ping", "stats", "contains", "exists", "certain", "write", "retract"};
const char* const kHandleSpans[kVerbCount] = {
    "serve.handle.ping",   "serve.handle.stats",   "serve.handle.contains",
    "serve.handle.exists", "serve.handle.certain", "serve.handle.write",
    "serve.handle.retract"};
const char* const kTenantSpans[kVerbCount] = {
    "",                    "serve.tenant.stats",   "serve.tenant.contains",
    "serve.tenant.exists", "serve.tenant.certain", "serve.tenant.write",
    "serve.tenant.retract"};

bool IsWrite(Verb verb) { return verb == kWrite || verb == kRetract; }

// One request and what its response must say.
struct Op {
  Verb verb = kPing;
  std::string line;
  std::string facts;  // write / retract / contains payload
  int expect_answers = -1;
  // In-process visibility checks once the write/retract is acknowledged.
  std::vector<std::string> visible_after;
  std::vector<std::string> gone_after;
};

std::string Quote(const std::string& text) {
  JsonValue value = JsonValue::String(text);
  return value.Dump();
}

std::string RequestLine(Verb verb, const std::string& tenant,
                        const std::string& payload_key = "",
                        const std::string& payload = "",
                        const std::string& extra = "") {
  std::string line = "{\"verb\":\"" + std::string(kVerbNames[verb]) + "\"";
  if (verb != kPing) line += ",\"tenant\":\"" + tenant + "\"";
  if (!payload_key.empty()) {
    line += ",\"" + payload_key + "\":" + Quote(payload);
  }
  line += extra + "}";
  return line;
}

Op FactsOp(Verb verb, const std::string& tenant, const std::string& facts) {
  Op op;
  op.verb = verb;
  op.facts = facts;
  op.line = RequestLine(verb, tenant, "facts", facts);
  return op;
}

// A connection's deterministic request sequence. Writers own their facts:
// no other connection writes or retracts them, so each writer knows
// exactly which of its facts are live.
class Script {
 public:
  virtual ~Script() = default;
  virtual Op Next() = 0;
  // Base facts this connection currently keeps live (writers only).
  virtual std::string LiveFacts() const { return ""; }
};

struct GenomicsData {
  std::vector<Protein> stable;  // loaded at set-up, never written
  int annotations = 2;
};

class GenomicsReader : public Script {
 public:
  GenomicsReader(const GenomicsData* data, std::string tenant, uint64_t seed)
      : data_(data), tenant_(std::move(tenant)), rng_(seed) {}

  Op Next() override {
    const Protein& p = data_->stable[rng_.Uniform(data_->stable.size())];
    double r = rng_.UniformDouble();
    if (r < 0.2) {
      // Alternate a derived fact (Σ_st) and a base fact.
      std::string fact =
          rng_.Uniform(2) == 0
              ? "Organism(" + p.acc + ", " + p.organism + ")."
              : "SPAnnotation(" + p.acc + ", " + p.go_terms[0] + ").";
      return FactsOp(kContains, tenant_, fact);
    }
    Op op;
    if (r < 0.4) {
      op.verb = kExists;
      op.line = RequestLine(kExists, tenant_);
    } else if (r < 0.9) {
      op.verb = kCertain;
      op.line = RequestLine(kCertain, tenant_, "query",
                            "q(g) :- Annotation('" + p.acc + "', g, e).",
                            ",\"mode\":\"lower_bound\"");
      op.expect_answers = data_->annotations;
    } else if (r < 0.95) {
      op.verb = kPing;
      op.line = RequestLine(kPing, tenant_);
    } else {
      op.verb = kStats;
      op.line = RequestLine(kStats, tenant_);
    }
    return op;
  }

 private:
  const GenomicsData* data_;
  std::string tenant_;
  Rng rng_;
};

// Writes a fresh protein (source and backed target facts), then retracts
// it, then the next one: the base stays stationary.
class GenomicsWriter : public Script {
 public:
  GenomicsWriter(std::string tenant, std::string prefix, uint64_t seed)
      : tenant_(std::move(tenant)), prefix_(std::move(prefix)), seed_(seed) {}

  Op Next() override {
    if (!live_) {
      current_ = MakeProteins(seed_ + next_, 1, 2, prefix_ + std::to_string(next_) + "_")[0];
      ++next_;
    }
    std::string facts = ProteinSourceFacts(current_) + ProteinTargetFacts(current_);
    Op op = FactsOp(live_ ? kRetract : kWrite, tenant_, facts);
    std::string derived =
        "Organism(" + current_.acc + ", " + current_.organism + ").";
    (live_ ? op.gone_after : op.visible_after).push_back(derived);
    if (!live_) op.visible_after.push_back(ProteinTargetFacts(current_));
    live_ = !live_;
    return op;
  }
  std::string LiveFacts() const override {
    return live_ ? ProteinSourceFacts(current_) + ProteinTargetFacts(current_)
                 : "";
  }

 private:
  std::string tenant_;
  std::string prefix_;
  uint64_t seed_;
  int next_ = 0;
  bool live_ = false;
  Protein current_;
};

class RelayReader : public Script {
 public:
  RelayReader(const std::vector<std::string>* stable, std::string tenant,
              uint64_t seed)
      : stable_(stable), tenant_(std::move(tenant)), rng_(seed) {}

  Op Next() override {
    const std::string& edge = (*stable_)[rng_.Uniform(stable_->size())];
    return FactsOp(kContains, tenant_, RelayDerived(edge));
  }

 private:
  const std::vector<std::string>* stable_;
  std::string tenant_;
  Rng rng_;
};

// Toggles random edges of its own slice; the first half starts live.
class RelayWriter : public Script {
 public:
  RelayWriter(std::vector<std::string> slice, std::string tenant,
              uint64_t seed)
      : slice_(std::move(slice)), live_(slice_.size(), false),
        tenant_(std::move(tenant)), rng_(seed) {
    for (size_t i = 0; i < slice_.size() / 2; ++i) live_[i] = true;
  }

  Op Next() override {
    size_t i = rng_.Uniform(slice_.size());
    bool was_live = live_[i];
    Op op = FactsOp(was_live ? kRetract : kWrite, tenant_, slice_[i]);
    std::vector<std::string>& after =
        was_live ? op.gone_after : op.visible_after;
    after.push_back(slice_[i]);
    after.push_back(RelayDerived(slice_[i]));
    live_[i] = !was_live;
    return op;
  }
  std::string LiveFacts() const override {
    std::string text;
    for (size_t i = 0; i < slice_.size(); ++i) {
      if (live_[i]) text += slice_[i] + "\n";
    }
    return text;
  }

 private:
  std::vector<std::string> slice_;
  std::vector<bool> live_;
  std::string tenant_;
  Rng rng_;
};

// --- Workload specs --------------------------------------------------------

struct ServeSpec {
  std::string name;
  std::string setting;
  // The setting the Figure 3 existence check runs on: the tenant's own, or
  // for the relay its Σ_t-free core (same solution existence).
  std::string exists_setting;
  std::string base_facts;       // loaded at set-up
  std::string stable_facts;     // the part of the base nobody writes
  std::string certain_query;    // for the lower-bound layer probe
  std::string probe_write;      // facts only the layer probes write
  int readers = 1;
  int writers = 1;
  double write_share = 0.1;     // writes / all requests
  // Total over all connections. Rung i of the ladder offers
  // nominal_rps × kLadderRatio^(i+1), for i < kLadderRungs.
  double nominal_rps = 100;
  double read_p99_limit_ms = 100;  // the ladder's pass limit
  // Verbs the layer probes time: every verb the tenant answers cheaply.
  std::vector<Verb> probed;
  GenomicsData genomics;
  RelayUniverse relay;
};


ServeSpec MakeSpec(const std::string& name, uint64_t seed) {
  ServeSpec spec;
  spec.name = name;
  if (name == "serve_read_heavy") {
    spec.setting = GenomicsSetting();
    spec.exists_setting = spec.setting;
    spec.genomics.stable =
        MakeProteins(seed * 7 + 1, kReadHeavyProteins, 2, "P");
    for (const Protein& p : spec.genomics.stable) {
      spec.stable_facts += ProteinSourceFacts(p) + ProteinTargetFacts(p);
    }
    spec.base_facts = spec.stable_facts;
    spec.certain_query = "q(g) :- Annotation('" +
                         spec.genomics.stable.front().acc + "', g, e).";
    Protein probe = MakeProteins(seed * 7 + 2, 1, 2, "X")[0];
    spec.probe_write = ProteinSourceFacts(probe) + ProteinTargetFacts(probe);
    spec.readers = 3;
    spec.writers = 1;
    spec.write_share = 0.1;
    spec.nominal_rps = 150;
    spec.read_p99_limit_ms = 100;
    spec.probed = {kPing, kStats, kContains, kExists, kCertain, kWrite,
                   kRetract};
  } else {
    spec.setting = RelaySetting();
    spec.exists_setting = RelayCoreSetting();
    spec.relay = MakeRelayUniverse(seed * 7 + 3, kRelayNodes,
                                   kRelayStableEdges, 3, kRelaySliceEdges);
    for (const std::string& edge : spec.relay.stable) {
      spec.stable_facts += edge + "\n";
    }
    spec.base_facts = spec.stable_facts;
    for (const auto& slice : spec.relay.slices) {
      for (size_t i = 0; i < slice.size() / 2; ++i) {
        spec.base_facts += slice[i] + "\n";
      }
    }
    spec.certain_query = "q(y) :- R1('v1', y).";
    spec.probe_write = "E(probe_a, probe_b).";
    spec.readers = 1;
    spec.writers = 3;
    // Writes are 5% of requests but nearly all of the work (a write is
    // ~9 ms, mostly the generation's fingerprint; a read ~0.1 ms). At the
    // nominal rate, 20 evenly interleaved writes a second keep the write
    // path ~20% busy and never queue behind each other (see Shares): the
    // read tail is a read waiting behind one write, so it moves with what a
    // write costs. The ladder finds where the write path saturates.
    spec.write_share = 0.05;
    spec.nominal_rps = 400;
    spec.read_p99_limit_ms = 100;
    // Not exists: on the relay it runs the NP generic search.
    spec.probed = {kPing, kStats, kContains, kCertain, kWrite, kRetract};
  }
  return spec;
}

std::vector<std::unique_ptr<Script>> MakeScripts(const ServeSpec& spec,
                                                 const std::string& tenant,
                                                 uint64_t seed) {
  std::vector<std::unique_ptr<Script>> scripts;
  if (spec.name == "serve_read_heavy") {
    for (int w = 0; w < spec.writers; ++w) {
      scripts.push_back(std::make_unique<GenomicsWriter>(
          tenant, "W" + std::to_string(w) + "_", seed * 11 + w));
    }
    for (int r = 0; r < spec.readers; ++r) {
      scripts.push_back(std::make_unique<GenomicsReader>(
          &spec.genomics, tenant, seed * 13 + r));
    }
  } else {
    for (int w = 0; w < spec.writers; ++w) {
      scripts.push_back(std::make_unique<RelayWriter>(
          spec.relay.slices[w], tenant, seed * 11 + w));
    }
    for (int r = 0; r < spec.readers; ++r) {
      scripts.push_back(std::make_unique<RelayReader>(&spec.relay.stable,
                                                      tenant, seed * 13 + r));
    }
  }
  return scripts;
}

// --- The open-loop load generator ------------------------------------------

// pdxd and the load generator run on separate halves of the CPUs (with at
// least two each), as a server and its load generator would on separate
// machines. Sharing them, a pdxd connection thread ran on its client's CPU
// in some runs and on another in others, and the read median moved between
// about 0.06 and 0.13 ms from one run to the next with it.
struct CpuSplit {
  std::vector<int> all, daemon, load;
};

CpuSplit SplitCpus() {
  CpuSplit split;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) split.all.push_back(cpu);
  }
  size_t half = split.all.size() / 2;
  if (half < 2) {
    split.daemon = split.load = split.all;
  } else {
    split.daemon.assign(split.all.begin(), split.all.begin() + half);
    split.load.assign(split.all.begin() + half, split.all.end());
  }
  return split;
}

// Restricts the calling thread to `cpus`; threads it starts inherit them.
void PinThisThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

struct LoggedWrite {
  int64_t ack_ns = 0;
  bool retract = false;
  std::string facts;
};

struct ConnStats {
  Samples reads, writes;  // ms from due time; failures are +inf
  Samples per_verb[kVerbCount];
  Samples lag_ms;
  int64_t backlog_max = 0;
  int64_t queue_depth_max = 0;
  int64_t sent = 0;
  int64_t failed = 0;
  int64_t abandoned = 0;    // due before the phase ended, never sent
  int64_t completed = 0;
  int64_t last_done_ns = 0;
  double final_lag_ms = 0;
  int64_t exists = 0;
  int64_t exists_cached = 0;
  std::vector<std::string> check_failures;
  std::vector<LoggedWrite> write_log;
  // The last acknowledged write or retract of each payload this phase.
  std::map<std::string, Op> last_write;

  void Fail(const std::string& what) {
    if (check_failures.size() < 5) check_failures.push_back(what);
  }
};

// Checks one response against its op; returns an empty string when fine.
std::string CheckResponse(const Op& op, const JsonValue& response,
                          uint64_t* last_generation, ConnStats* stats) {
  if (!response.GetBool("ok")) return "not ok: " + response.Dump();
  const JsonValue* generation = response.Find("generation");
  if (op.verb == kStats) {
    const JsonValue* tenants = response.Find("tenants");
    if (tenants == nullptr || tenants->items().size() != 1) {
      return "stats without exactly one tenant";
    }
    generation = tenants->items()[0].Find("generation");
  }
  if (generation != nullptr) {
    uint64_t seq = static_cast<uint64_t>(generation->as_int());
    if (seq < *last_generation) return "generation went backwards";
    *last_generation = seq;
  } else if (op.verb != kPing) {
    return "response without a generation";
  }
  switch (op.verb) {
    case kPing:
      if (!response.GetBool("pong")) return "ping without pong";
      break;
    case kContains:
      if (!response.GetBool("contains")) {
        return "contains " + op.facts + " returned the wrong answer";
      }
      break;
    case kExists:
      ++stats->exists;
      if (response.GetString("solver") == "cached") ++stats->exists_cached;
      if (!response.GetBool("exists")) return "exists turned false";
      break;
    case kCertain: {
      const JsonValue* answers = response.Find("answers");
      if (answers == nullptr ||
          static_cast<int>(answers->items().size()) != op.expect_answers) {
        return "certain returned the wrong number of answers";
      }
      break;
    }
    default:
      break;
  }
  return "";
}

struct PhaseSetup {
  int64_t t0 = 0;
  int64_t t_end = 0;
};

// Due times of one connection in [t0, t_end): evenly spaced at `rate`,
// starting `offset` of a period in, so the connections interleave.
// (Poisson arrivals were tried too: on a single blocking connection their
// bursts queue behind each other and made every tail noisier.)
std::vector<int64_t> Schedule(double rate, double offset, int64_t t0,
                              int64_t t_end) {
  std::vector<int64_t> dues;
  for (int64_t k = 0;; ++k) {
    int64_t due = t0 + static_cast<int64_t>((k + offset) * 1e9 / rate);
    if (due >= t_end) break;
    dues.push_back(due);
  }
  return dues;
}

// Runs one connection's schedule for a phase. Each request is sent at its
// due time or, when the previous one returned late, immediately.
void DriveConnection(Client* client, Script* script,
                     const std::vector<int64_t>& dues, const PhaseSetup& phase,
                     ConnStats* stats) {
  static pdx::serve::ServeMetrics& metrics = pdx::serve::GlobalServeMetrics();
  uint64_t last_generation = 0;
  int64_t drain_cap = phase.t_end + static_cast<int64_t>(kDrainCapS * 1e9);
  for (size_t k = 0; k < dues.size(); ++k) {
    int64_t due = dues[k];
    int64_t now = NowNs();
    if (now > drain_cap) {
      // Overloaded: what is still due is abandoned and misses the limit.
      stats->abandoned += static_cast<int64_t>(dues.size() - k);
      break;
    }
    // Sleep to just before the due time, then spin, so that the
    // generator's own wake-up delay does not pass for server latency.
    if (due - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
    }
    while (NowNs() < due) {
    }
    int64_t send = NowNs();
    double lag_ms = (send - due) / 1e6;
    stats->lag_ms.Add(lag_ms);
    stats->final_lag_ms = lag_ms;
    int64_t due_by_now =
        std::upper_bound(dues.begin(), dues.end(), send) - dues.begin();
    stats->backlog_max = std::max(stats->backlog_max,
                                  due_by_now - static_cast<int64_t>(k) - 1);
    stats->queue_depth_max =
        std::max(stats->queue_depth_max, metrics.queue_depth.Value());

    Op op = script->Next();
    RequestSpan request_span("loadgen.request");
    pdx::StatusOr<JsonValue> response = [&] {
      pdx::obs::Span span("serve.call");
      return client->CallRaw(op.line);
    }();
    int64_t done = NowNs();
    ++stats->sent;
    stats->last_done_ns = done;
    double latency_ms = (done - due) / 1e6;
    std::string problem =
        response.ok() ? CheckResponse(op, *response, &last_generation, stats)
                      : "transport: " + response.status().ToString();
    Samples& samples = IsWrite(op.verb) ? stats->writes : stats->reads;
    if (!problem.empty()) {
      ++stats->failed;
      stats->Fail(std::string(kVerbNames[op.verb]) + ": " + problem);
      samples.AddFailure();
      stats->per_verb[op.verb].AddFailure();
      continue;
    }
    ++stats->completed;
    samples.Add(latency_ms);
    stats->per_verb[op.verb].Add(latency_ms);
    if (!IsWrite(op.verb)) continue;
    stats->write_log.push_back({done, op.verb == kRetract, op.facts});
    stats->last_write[op.facts] = op;
  }
}

struct PhaseResult {
  ConnStats total;
  double offered_rps = 0;
  double seconds = 0;
  double achieved_rps = 0;
  Samples::Point read_tail;
  bool passed = false;
  std::vector<LoggedWrite> write_log;  // all writers, by ack time
  // Registry / tenant deltas over the phase.
  int64_t writes = 0, batches = 0, fallbacks = 0, generations = 0;
};

void MergeStats(const ConnStats& from, ConnStats* into);

// Folds one nominal-rate segment into the accumulated nominal phase.
void MergePhase(const PhaseResult& from, PhaseResult* into) {
  double completed = into->achieved_rps * into->seconds +
                     from.achieved_rps * from.seconds;
  MergeStats(from.total, &into->total);
  into->offered_rps = from.offered_rps;
  into->seconds += from.seconds;
  into->achieved_rps = completed / into->seconds;
  into->writes += from.writes;
  into->batches += from.batches;
  into->fallbacks += from.fallbacks;
  into->generations += from.generations;
}

void MergeStats(const ConnStats& from, ConnStats* into) {
  into->reads.Merge(from.reads);
  into->writes.Merge(from.writes);
  for (int v = 0; v < kVerbCount; ++v) into->per_verb[v].Merge(from.per_verb[v]);
  into->lag_ms.Merge(from.lag_ms);
  into->backlog_max = std::max(into->backlog_max, from.backlog_max);
  into->queue_depth_max = std::max(into->queue_depth_max, from.queue_depth_max);
  into->sent += from.sent;
  into->failed += from.failed;
  into->abandoned += from.abandoned;
  into->completed += from.completed;
  into->last_done_ns = std::max(into->last_done_ns, from.last_done_ns);
  into->final_lag_ms = std::max(into->final_lag_ms, from.final_lag_ms);
  into->exists += from.exists;
  into->exists_cached += from.exists_cached;
  for (const std::string& f : from.check_failures) into->Fail(f);
}

// Read-your-writes, checked when a phase has ended and no traffic runs, so
// the check costs the measured requests nothing: every payload a writer
// wrote or retracted during the phase must be visible (its facts and
// derived facts) or gone exactly as its last acknowledged request left it.
// Writers own their payloads, so nothing else can have changed them since.
void CheckReadYourWrites(pdx::serve::Tenant* tenant,
                         std::vector<ConnStats>* stats) {
  pdx::obs::Span span("check.read_your_writes");
  for (ConnStats& conn : *stats) {
    for (const auto& [payload, op] : conn.last_write) {
      for (const std::string& fact : op.visible_after) {
        auto seen = tenant->Contains(fact);
        if (!seen.ok() || !seen->contains) {
          conn.Fail("acknowledged write not visible: " + fact);
          ++conn.failed;
        }
      }
      for (const std::string& fact : op.gone_after) {
        auto seen = tenant->Contains(fact);
        if (!seen.ok() || seen->contains) {
          conn.Fail("acknowledged retract still visible: " + fact);
          ++conn.failed;
        }
      }
    }
  }
}

// Per-connection share of the total rate. Readers get rates a few percent
// apart, none a whole multiple of another's, so no two schedules keep a
// fixed phase: with equal or commensurate periods the writer always met
// the same point of the readers' schedules, and how often it collided with
// a solver read depended on that phase. Writers share one rate, and
// writer c starts c/writers of the period in, so their writes are evenly
// spaced: below the write path's saturation no write queues behind
// another, so the write tail is what one write costs. Where writes queue
// up is what the ladder finds.
std::vector<double> Shares(const ServeSpec& spec) {
  static constexpr double kSkew[] = {0.97, 1.01, 1.02};
  std::vector<double> shares;
  auto add = [&](int count, double total, bool skewed) {
    double sum = 0;
    for (int i = 0; i < count; ++i) sum += skewed ? kSkew[i % 3] : 1;
    for (int i = 0; i < count; ++i) {
      shares.push_back(total * (skewed ? kSkew[i % 3] : 1) / sum);
    }
  };
  add(spec.writers, spec.write_share, false);
  add(spec.readers, 1 - spec.write_share, true);
  return shares;
}

// Runs every connection for `seconds` at `total_rps`. Connection 0 runs
// on the calling thread, so the load side uses exactly one thread per
// connection.
PhaseResult RunLoadPhase(const ServeSpec& spec, pdx::serve::Tenant* tenant,
                         std::vector<Client>* clients,
                         std::vector<std::unique_ptr<Script>>* scripts,
                         double total_rps, double seconds,
                         const CpuSplit& cpus) {
  pdx::serve::ServeMetrics& metrics = pdx::serve::GlobalServeMetrics();
  int64_t writes_before = metrics.write_requests_total.Value() +
                          metrics.retract_requests_total.Value();
  int64_t batches_before = metrics.batches_total.Value();
  int64_t fallbacks_before = metrics.stream_fallbacks_total.Value();
  uint64_t generation_before = tenant->Stats().generation;

  size_t n = clients->size();
  std::vector<double> shares = Shares(spec);
  PhaseSetup phase;
  phase.t0 = NowNs() + 2'000'000;  // 2 ms to start the threads
  phase.t_end = phase.t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<int64_t>> dues(n);
  for (size_t c = 0; c < n; ++c) {
    double offset = static_cast<int>(c) < spec.writers
                        ? static_cast<double>(c) / spec.writers
                        : static_cast<double>(c) / n;
    dues[c] = Schedule(total_rps * shares[c], offset, phase.t0, phase.t_end);
  }
  std::vector<ConnStats> stats(n);
  // Each load thread runs on one CPU of the load half, so where the
  // scheduler happens to put it does not change what a request costs from
  // run to run.
  auto drive = [&](size_t c) {
    PinThisThread({cpus.load[c % cpus.load.size()]});
    DriveConnection(&(*clients)[c], (*scripts)[c].get(), dues[c], phase,
                    &stats[c]);
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < n; ++c) threads.emplace_back(drive, c);
  drive(0);
  PinThisThread(cpus.all);
  for (std::thread& thread : threads) thread.join();
  CheckReadYourWrites(tenant, &stats);
  CollectSpans();

  PhaseResult result;
  for (size_t c = 0; c < n; ++c) {
    MergeStats(stats[c], &result.total);
    result.write_log.insert(result.write_log.end(),
                            stats[c].write_log.begin(),
                            stats[c].write_log.end());
  }
  std::sort(result.write_log.begin(), result.write_log.end(),
            [](const LoggedWrite& a, const LoggedWrite& b) {
              return a.ack_ns < b.ack_ns;
            });
  result.offered_rps = total_rps;
  result.seconds = seconds;
  result.achieved_rps =
      result.total.completed / ((result.total.last_done_ns - phase.t0) / 1e9);
  Samples reads = result.total.reads;
  for (int64_t i = 0; i < result.total.abandoned; ++i) reads.AddFailure();
  result.read_tail = reads.Tail(99);
  result.passed = result.total.failed == 0 && result.total.abandoned == 0 &&
                  result.read_tail.value <= spec.read_p99_limit_ms &&
                  result.total.final_lag_ms <= spec.read_p99_limit_ms;
  result.writes = metrics.write_requests_total.Value() +
                  metrics.retract_requests_total.Value() - writes_before;
  result.batches = metrics.batches_total.Value() - batches_before;
  result.fallbacks = metrics.stream_fallbacks_total.Value() - fallbacks_before;
  result.generations =
      static_cast<int64_t>(tenant->Stats().generation - generation_before);
  return result;
}

// --- Set-up ----------------------------------------------------------------

struct Daemon {
  std::unique_ptr<pdx::serve::Server> server;
  std::shared_ptr<pdx::serve::Tenant> tenant;
  std::string tenant_id;
};

// Starts pdxd and loads the tenant over the wire. Empty server on error.
Daemon StartDaemon(const ServeSpec& spec, const RunOptions& options,
                   int workers, int index, std::string* error) {
  Daemon daemon;
  pdx::serve::ServerOptions server_options;
  server_options.address = "unix:" + options.out_dir + "/pdxd-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(index) + ".sock";
  server_options.worker_threads = workers;
  auto server = pdx::serve::Server::Start(server_options);
  if (!server.ok()) {
    *error = "cannot start pdxd: " + server.status().ToString();
    return daemon;
  }
  auto client = Client::Connect((*server)->address());
  if (!client.ok()) {
    *error = "cannot connect: " + client.status().ToString();
    return daemon;
  }
  std::string load = "{\"verb\":\"load\",\"setting\":" + Quote(spec.setting) +
                     ",\"facts\":" + Quote(spec.base_facts) + "}";
  auto response = client->CallRaw(load);
  if (!response.ok() || !response->GetBool("ok")) {
    *error = "load failed: " +
             (response.ok() ? response->Dump() : response.status().ToString());
    return daemon;
  }
  daemon.tenant_id = response->GetString("tenant");
  auto tenant = (*server)->registry().Find(daemon.tenant_id);
  if (!tenant.ok()) {
    *error = "loaded tenant not found";
    return daemon;
  }
  daemon.tenant = *tenant;
  daemon.server = std::move(*server);
  return daemon;
}

// --- Offline figures and the final-state check ----------------------------

struct Reference {
  pdx::SymbolTable symbols;
  std::optional<pdx::PdeSetting> setting;
  std::optional<pdx::ChaseResult> chased;
  double wall_s = 0;
  int64_t facts = 0;
  std::string error;
};

// Parse + Chase of `facts` under `setting_text` at 1 thread.
std::unique_ptr<Reference> ReferenceChase(const std::string& setting_text,
                                          const std::string& facts) {
  auto ref = std::make_unique<Reference>();
  RequestSpan root("reference.exchange");
  int64_t t0 = NowNs();
  {
    pdx::obs::Span span("logic.parse_setting");
    auto setting = pdx::ParseSettingFile(setting_text, &ref->symbols);
    if (!setting.ok()) {
      ref->error = setting.status().ToString();
      return ref;
    }
    ref->setting.emplace(std::move(*setting));
  }
  pdx::StatusOr<pdx::Instance> base = [&] {
    pdx::obs::Span span("relational.parse");
    return pdx::ParseInstance(facts, ref->setting->schema(), &ref->symbols);
  }();
  if (!base.ok()) {
    ref->error = base.status().ToString();
    return ref;
  }
  std::vector<pdx::Tgd> tgds = ref->setting->st_tgds();
  tgds.insert(tgds.end(), ref->setting->target_tgds().begin(),
              ref->setting->target_tgds().end());
  pdx::ChaseOptions options;
  options.num_threads = 1;
  {
    pdx::obs::Span span("chase.reference");
    ref->chased.emplace(pdx::Chase(*base, tgds, ref->setting->target_egds(),
                                   &ref->symbols, options));
  }
  ref->wall_s = (NowNs() - t0) / 1e9;
  if (ref->chased->outcome != pdx::ChaseOutcome::kSuccess) {
    ref->error = "reference chase failed";
  }
  ref->facts = static_cast<int64_t>(ref->chased->instance.ResolvedFactCount());
  return ref;
}

struct ExistsRun {
  bool ok = false;
  bool verdict = false;
  double wall_s = 0;          // parse + solve
  double solve_us = 0;
  double certain_us = 0;
};

// Parse + CtractExistsSolution on the (I, J) of `facts`, then with
// `certain` (untimed for the end-to-end figure) the certain-answer lower
// bound.
ExistsRun RunExists(const ServeSpec& spec, const std::string& facts,
                    bool certain) {
  ExistsRun run;
  RequestSpan root("reference.exists");
  int64_t t0 = NowNs();
  pdx::SymbolTable symbols;
  auto setting = pdx::ParseSettingFile(spec.exists_setting, &symbols);
  if (!setting.ok()) return run;
  pdx::StatusOr<pdx::Instance> combined = [&] {
    pdx::obs::Span span("relational.parse");
    return pdx::ParseInstance(facts, setting->schema(), &symbols);
  }();
  if (!combined.ok()) return run;
  pdx::Instance source = setting->SourcePart(*combined);
  pdx::Instance target = setting->TargetPart(*combined);
  int64_t s0 = NowNs();
  pdx::ChaseOptions options;
  options.num_threads = 1;
  auto result = [&] {
    pdx::obs::Span span("pde.ctract");
    return pdx::CtractExistsSolution(*setting, source, target, &symbols,
                                     options);
  }();
  int64_t s1 = NowNs();
  if (!result.ok()) return run;
  run.verdict = result->has_solution;
  run.wall_s = (s1 - t0) / 1e9;
  run.solve_us = (s1 - s0) / 1e3;
  if (certain) {
    auto query = pdx::ParseUnionQuery(spec.certain_query, setting->schema(),
                                      &symbols);
    if (!query.ok()) return run;
    pdx::obs::Span span("pde.certain_lb");
    int64_t c0 = NowNs();
    auto answers = pdx::ComputeCertainAnswersLowerBound(*setting, source,
                                                        target, *query,
                                                        &symbols);
    run.certain_us = (NowNs() - c0) / 1e3;
    if (!answers.ok()) return run;
  }
  run.ok = true;
  return run;
}

// True when every fact of the reference is in the tenant's canonical
// instance and both hold the same number of facts. The reference is
// null-free (checked), so this is equality of the sorted rendered facts.
// It deliberately avoids comparing CanonicalFingerprint across the two
// symbol tables, which is not content-defined.
std::string CompareFinalState(pdx::serve::Tenant* tenant,
                              const Reference& ref) {
  if (!ref.error.empty()) return "reference: " + ref.error;
  for (const pdx::Fact& fact : ref.chased->instance.AllFacts()) {
    for (pdx::Value v : fact.tuple) {
      if (v.is_null()) return "reference chase produced a labeled null";
    }
  }
  std::string rendered = ref.chased->instance.ToString(ref.symbols);
  auto contained = tenant->Contains(rendered);
  if (!contained.ok()) return "contains failed: " + contained.status().ToString();
  if (!contained->contains) return "a reference fact is missing from pdxd";
  size_t canonical = tenant->Stats().canonical_facts;
  if (static_cast<int64_t>(canonical) != ref.facts) {
    return "pdxd holds " + std::to_string(canonical) +
           " canonical facts, the reference " + std::to_string(ref.facts);
  }
  return "";
}

// --- Reporting -------------------------------------------------------------

struct RunFigures {
  double setup_s = 0;
  int setups = 0;
  double peak_rss_mb = 0;
  double exchange_facts_per_s = 0;
  std::vector<double> exchange_rates;
  int64_t exchange_facts = 0;
  double exists_solve_s = 0;
  std::vector<double> exists_s;
  PhaseResult nominal;
  std::vector<PhaseResult> ladder;
  // Read and write latencies of each nominal segment.
  std::vector<Samples> segment_reads, segment_writes;
  // Every acknowledged write, in acknowledgement order.
  std::vector<LoggedWrite> write_log;
  double sustained_rps = 0;
  double sustained_rung = 0;
  std::vector<double> exists_solve_us, certain_us;
  // The solver's own ctract.block_check spans per call (traced runs only).
  std::vector<double> block_check_s;
};

void ReportFigures(const ServeSpec& spec, const RunFigures& f,
                   Report* report) {
  char detail[320];
  report->Metric("setup_s", f.setup_s, "s",
                 "median of " + std::to_string(f.setups) + " set-ups (" +
                     std::to_string(kSetupsBefore) +
                     " before the traffic, one after each round): start "
                     "pdxd + load the tenant over the wire");
  report->Metric("peak_rss_mb", f.peak_rss_mb, "MB",
                 "getrusage ru_maxrss of the single process (pdxd + load)");
  std::snprintf(detail, sizeof(detail),
                "reference parse + Chase of the loaded base, %lld facts, median "
                "of %d",
                static_cast<long long>(f.exchange_facts),
                static_cast<int>(f.exchange_rates.size()));
  report->Metric("exchange_facts_per_s", f.exchange_facts_per_s, "facts/s",
                 detail);
  std::snprintf(detail, sizeof(detail),
                "parse + CtractExistsSolution on the loaded (I, J), median of "
                "%d",
                static_cast<int>(f.exists_s.size()));
  report->Metric("exists_solve_s", f.exists_solve_s, "s", detail);
  const ConnStats& nominal = f.nominal.total;
  std::snprintf(detail, sizeof(detail),
                "at the nominal %.0f req/s, all %zu segments: ",
                spec.nominal_rps, f.segment_reads.size());
  const Samples& reads = nominal.reads;
  const Samples& writes = nominal.writes;
  report->Metric("read_p50_ms", reads.Median().value, "ms",
                 detail + Samples::Describe(reads.Median(), "ms"));
  SegmentedTail read_tail = MedianSegmentTail(f.segment_reads);
  report->Metric("read_p99_ms", read_tail.value, "ms",
                 detail + read_tail.Describe("ms"));
  report->Metric("write_p50_ms", writes.Median().value, "ms",
                 detail + Samples::Describe(writes.Median(), "ms") +
                     ", until the write's generation is published");
  SegmentedTail write_tail = MedianSegmentTail(f.segment_writes);
  report->Metric("write_p99_ms", write_tail.value, "ms",
                 detail + write_tail.Describe("ms"));
  std::snprintf(detail, sizeof(detail),
                "achieved rate at the highest passing rung (%.0f req/s) of "
                "the ladder; read tail limit %.0f ms",
                f.sustained_rung, spec.read_p99_limit_ms);
  report->Metric("sustained_qps", f.sustained_rps, "1/s", detail);

  for (size_t i = 0; i < f.segment_reads.size(); ++i) {
    report->Note("nominal segment " + std::to_string(i) + ": read tail " +
                 Samples::Describe(f.segment_reads[i].Tail(99), "ms") +
                 ", write tail " +
                 Samples::Describe(f.segment_writes[i].Tail(99), "ms"));
  }
  for (int v = 0; v < kVerbCount; ++v) {
    const Samples& samples = nominal.per_verb[v];
    if (samples.empty()) continue;
    report->Note(std::string("nominal ") + kVerbNames[v] + ": p50 " +
                 Samples::Describe(samples.Median(), "ms") + ", tail " +
                 Samples::Describe(samples.Tail(99), "ms"));
  }
  char line[256];
  for (const PhaseResult& rung : f.ladder) {
    std::snprintf(line, sizeof(line),
                  "ladder %.0f req/s: achieved %.1f, read tail %.3f ms (p%.2f, "
                  "n=%zu), final lag %.3f ms, abandoned %lld -> %s",
                  rung.offered_rps, rung.achieved_rps, rung.read_tail.value,
                  rung.read_tail.percentile, rung.read_tail.count,
                  rung.total.final_lag_ms,
                  static_cast<long long>(rung.total.abandoned),
                  rung.passed ? "pass" : "FAIL");
    report->Note(line);
  }
}

// Replays the recorded ±Δ on a StreamingChase of the initial base, in
// batches of the observed coalesced size. Returns per-batch samples (us)
// and the mean steps per batch.
struct StreamReplay {
  Samples batch_us;
  double steps_per_batch = 0;
  int batch_size = 1;
  bool ok = false;
};

StreamReplay ReplayStream(const ServeSpec& spec,
                          const std::vector<LoggedWrite>& log_writes,
                          double writes_per_batch) {
  StreamReplay replay;
  pdx::SymbolTable symbols;
  auto setting = pdx::ParseSettingFile(spec.setting, &symbols);
  if (!setting.ok()) return replay;
  auto base = pdx::ParseInstance(spec.base_facts, setting->schema(), &symbols);
  if (!base.ok()) return replay;
  std::vector<pdx::Tgd> tgds = setting->st_tgds();
  tgds.insert(tgds.end(), setting->target_tgds().begin(),
              setting->target_tgds().end());
  pdx::ChaseOptions options;
  options.strategy = pdx::ChaseStrategy::kRestricted;
  options.num_threads = 1;
  pdx::StreamingChase stream(&setting->schema(), tgds,
                             setting->target_egds(), &symbols, options);
  if (!stream.Initialize(*base).ok()) return replay;
  replay.batch_size = std::max(1, static_cast<int>(std::lround(writes_per_batch)));
  int64_t steps = 0, batches = 0;
  for (size_t i = 0; i < log_writes.size(); i += replay.batch_size) {
    std::vector<pdx::Fact> adds, deletes;
    for (size_t j = i; j < log_writes.size() && j < i + replay.batch_size; ++j) {
      auto parsed = pdx::ParseInstance(log_writes[j].facts, setting->schema(),
                                       &symbols);
      if (!parsed.ok()) return replay;
      std::vector<pdx::Fact> facts = parsed->AllFacts();
      auto& into = log_writes[j].retract ? deletes : adds;
      into.insert(into.end(), facts.begin(), facts.end());
    }
    RequestSpan span("chase.stream_batch");
    int64_t t0 = NowNs();
    auto stats = stream.ResumeWithDeltas(adds, deletes);
    replay.batch_us.Add((NowNs() - t0) / 1e3);
    if (!stats.ok()) return replay;
    steps += stats->steps;
    ++batches;
  }
  replay.steps_per_batch = batches > 0 ? static_cast<double>(steps) / batches : 0;
  replay.ok = batches > 0;
  return replay;
}


// Times each layer's public function directly on the loaded daemon, with
// no traffic running.
void ProbeLayers(const ServeSpec& spec, Daemon* daemon, const RunFigures& f,
                 Report* report) {
  constexpr int kProbeRounds = 15;
  bool probed[kVerbCount] = {};
  for (Verb v : spec.probed) probed[v] = true;
  pdx::serve::ProtocolHandler handler(&daemon->server->registry(), {});
  pdx::serve::Tenant* tenant = daemon->tenant.get();
  const std::string& id = daemon->tenant_id;
  std::string contains_fact =
      spec.name == "serve_read_heavy"
          ? "Organism(" + spec.genomics.stable.front().acc + ", " +
                spec.genomics.stable.front().organism + ")."
          : RelayDerived(spec.relay.stable.front());
  std::string lines[kVerbCount] = {
      RequestLine(kPing, id),
      RequestLine(kStats, id),
      RequestLine(kContains, id, "facts", contains_fact),
      RequestLine(kExists, id),
      RequestLine(kCertain, id, "query", spec.certain_query,
                  ",\"mode\":\"lower_bound\""),
      RequestLine(kWrite, id, "facts", spec.probe_write),
      RequestLine(kRetract, id, "facts", spec.probe_write)};
  std::vector<double> handle_us[kVerbCount], tenant_us[kVerbCount];
  auto deadline = [] {
    return std::chrono::steady_clock::now() + std::chrono::seconds(30);
  };
  auto time_us = [&](const char* span_name, auto&& call) {
    RequestSpan span(span_name);
    int64_t t0 = NowNs();
    call();
    return (NowNs() - t0) / 1e3;
  };
  // Each round writes the probe facts, reads (the exists after a write is
  // uncached, as in the traffic), then retracts them again.
  Verb order[] = {kWrite, kExists, kCertain, kContains, kStats, kPing, kRetract};
  for (int round = 0; round < kProbeRounds; ++round) {
    for (Verb v : order) {
      if (!probed[v]) continue;
      handle_us[v].push_back(time_us(kHandleSpans[v], [&] {
        std::string response = handler.HandleLine(lines[v], nullptr);
        if (response.find("\"ok\":true") == std::string::npos) {
          report->CheckFailed(std::string("HandleLine ") + kVerbNames[v] +
                              ": " + response);
        }
      }));
    }
    for (Verb v : order) {
      if (!probed[v] || v == kPing) continue;
      tenant_us[v].push_back(time_us(kTenantSpans[v], [&] {
        bool ok = true;
        switch (v) {
          case kWrite: ok = tenant->Write(spec.probe_write, deadline()).ok(); break;
          case kRetract: ok = tenant->Retract(spec.probe_write, deadline()).ok(); break;
          case kExists: ok = tenant->Exists("auto").ok(); break;
          case kCertain: ok = tenant->Certain(spec.certain_query, "lower_bound").ok(); break;
          case kContains: ok = tenant->Contains(contains_fact).ok(); break;
          case kStats: tenant->Stats(); break;
          default: break;
        }
        if (!ok) report->CheckFailed(std::string("Tenant ") + kVerbNames[v]);
      }));
    }
  }
  for (int v = 0; v < kVerbCount; ++v) {
    std::string suffix = std::string(".") + kVerbNames[v];
    std::string detail = "median of " + std::to_string(handle_us[v].size()) +
                         " in-process calls, no traffic";
    if (!handle_us[v].empty()) {
      report->Metric("serve.handle_us" + suffix, MedianOf(handle_us[v]), "us",
                     "ProtocolHandler::HandleLine, " + detail);
    }
    if (!tenant_us[v].empty()) {
      report->Metric("serve.tenant_us" + suffix, MedianOf(tenant_us[v]), "us",
                     "Tenant::" + std::string(kVerbNames[v]) + ", " + detail);
    }
  }
  // Wire cost: a ping over the socket minus the handler's own ping.
  auto client = Client::Connect(daemon->server->address());
  std::vector<double> wire_us, ping_us;
  for (int i = 0; client.ok() && i < 50; ++i) {
    wire_us.push_back(time_us("serve.wire_ping", [&] {
      (void)client->CallRaw(lines[kPing]);
    }));
    ping_us.push_back(time_us(kHandleSpans[kPing], [&] {
      handler.HandleLine(lines[kPing], nullptr);
    }));
  }
  char detail[200];
  std::snprintf(detail, sizeof(detail),
                "median Client::CallRaw ping %.2f us - median HandleLine ping "
                "%.2f us, n=%zu each",
                MedianOf(wire_us), MedianOf(ping_us), wire_us.size());
  report->Metric("serve.wire_us", MedianOf(wire_us) - MedianOf(ping_us), "us",
                 detail);

  // CanonicalFingerprint on a pinned generation.
  std::shared_ptr<const pdx::serve::Generation> generation = tenant->Snapshot();
  std::vector<double> fingerprint_us;
  for (int i = 0; i < kProbeRounds; ++i) {
    fingerprint_us.push_back(time_us("relational.fingerprint", [&] {
      volatile uint64_t fp = generation->canonical().CanonicalFingerprint();
      (void)fp;
    }));
  }
  report->Metric("relational.fingerprint_us", MedianOf(fingerprint_us), "us",
                 "CanonicalFingerprint of a pinned generation (" +
                     std::to_string(generation->canonical().fact_count()) +
                     " facts), median of " + std::to_string(kProbeRounds));

  // Setting parse, cold compile and fact parse on the tenant's own text.
  std::vector<double> parse_ms, compile_ms, parse_rate;
  for (int i = 0; i < 5; ++i) {
    pdx::SymbolTable symbols;
    int64_t t0 = NowNs();
    auto setting = [&] {
      RequestSpan span("logic.parse_setting");
      return pdx::ParseSettingFile(spec.setting, &symbols);
    }();
    int64_t t1 = NowNs();
    if (!setting.ok()) break;
    std::vector<pdx::Tgd> tgds = setting->st_tgds();
    tgds.insert(tgds.end(), setting->target_tgds().begin(),
                setting->target_tgds().end());
    {
      RequestSpan span("plan.compile");
      pdx::plan::CompileSetting(tgds, setting->target_egds());
    }
    int64_t t2 = NowNs();
    auto facts = [&] {
      RequestSpan span("relational.parse");
      return pdx::ParseInstance(spec.base_facts, setting->schema(), &symbols);
    }();
    int64_t t3 = NowNs();
    parse_ms.push_back((t1 - t0) / 1e6);
    compile_ms.push_back((t2 - t1) / 1e6);
    if (facts.ok()) parse_rate.push_back(facts->fact_count() / ((t3 - t2) / 1e9));
  }
  report->Metric("logic.parse_setting_ms", MedianOf(parse_ms), "ms",
                 "ParseSettingFile of the tenant setting, median of 5");
  report->Metric("plan.compile_ms", MedianOf(compile_ms), "ms",
                 "cold CompileSetting of the tenant setting, median of 5");
  report->Metric("relational.parse_facts_per_s", MedianOf(parse_rate),
                 "facts/s", "ParseInstance of the base facts, median of 5");

  report->Metric("pde.exists_us", MedianOf(f.exists_solve_us), "us",
                 "CtractExistsSolution on the loaded (I, J) (median of " +
                     std::to_string(f.exists_solve_us.size()) + ")");
  report->Metric("pde.ctract_s", MedianOf(f.exists_solve_us) / 1e6, "s",
                 "the same calls in seconds");
  report->Metric("pde.certain_lb_us", MedianOf(f.certain_us), "us",
                 "ComputeCertainAnswersLowerBound of '" + spec.certain_query +
                     "', median of " + std::to_string(f.certain_us.size()));
  report->Metric("hom.block_check_s", MedianOf(f.block_check_s), "s",
                 "the solver's ctract.block_check spans per CtractExistsSolution "
                 "call, median of " + std::to_string(f.block_check_s.size()));
}

void ReportPhaseLayers(const ServeSpec& spec, const RunFigures& f,
                       int threads, Report* report) {
  const PhaseResult& nominal = f.nominal;
  const ConnStats& total = nominal.total;
  report->Metric("serve.writes_per_batch",
                 nominal.batches > 0
                     ? static_cast<double>(nominal.writes) / nominal.batches
                     : 0,
                 "writes/batch",
                 "write+retract requests / batches: " +
                     Ratio{nominal.writes, nominal.batches}.ToString());
  report->Metric("serve.queue_depth_max",
                 static_cast<double>(total.queue_depth_max), "count",
                 "pdx_serve_queue_depth sampled at every send");
  report->Metric("serve.stream_fallbacks", static_cast<double>(nominal.fallbacks),
                 "count", "pdx_serve_stream_fallbacks_total delta");
  report->Metric("serve.generations_per_s",
                 nominal.generations / nominal.seconds, "1/s",
                 std::to_string(nominal.generations) +
                     " generations (Tenant::Stats) over the nominal phase");
  report->Metric("serve.exists_memo_hit_ratio",
                 total.exists > 0
                     ? static_cast<double>(total.exists_cached) / total.exists
                     : 0,
                 "ratio",
                 "cached exists responses / exists responses: " +
                     Ratio{total.exists_cached, total.exists}.ToString());
  Samples::Point lag = total.lag_ms.Tail(99);
  report->Metric("loadgen.lag_p99_ms", lag.value, "ms",
                 Samples::Describe(lag, "ms"));
  report->Metric("loadgen.backlog_max", static_cast<double>(total.backlog_max),
                 "count", "requests due but not yet sent, max over sends");
  report->Metric("loadgen.threads", threads, "count",
                 "one thread and one connection per load connection");
  report->Metric("loadgen.nproc", Nproc(), "count", "sched_getaffinity");

  StreamReplay replay = ReplayStream(
      spec, f.write_log,
      nominal.batches > 0 ? static_cast<double>(nominal.writes) / nominal.batches
                          : 1);
  if (replay.ok) {
    std::string detail = "StreamingChase::ResumeWithDeltas replaying " +
                         std::to_string(f.write_log.size()) +
                         " logged writes in batches of " +
                         std::to_string(replay.batch_size) + ": ";
    report->Metric("chase.stream_batch_us.p50", replay.batch_us.Median().value,
                   "us", detail + Samples::Describe(replay.batch_us.Median(), "us"));
    report->Metric("chase.stream_batch_us.p99", replay.batch_us.Tail(99).value,
                   "us", detail + Samples::Describe(replay.batch_us.Tail(99), "us"));
    report->Metric("chase.stream_steps_per_batch", replay.steps_per_batch,
                   "steps", detail + "mean");
  } else {
    report->CheckFailed("stream replay failed");
  }
}

void AppendWrites(const PhaseResult& phase, RunFigures* f) {
  f->write_log.insert(f->write_log.end(), phase.write_log.begin(),
                      phase.write_log.end());
}

// The offline figures on the loaded base: the reference exchange (parse +
// Chase at 1 thread) and the Figure 3 existence check. Each call adds
// about `budget_s` of samples per figure; RunOnce calls it between the
// traffic phases so the samples span the whole run.
bool MeasureOffline(const ServeSpec& spec, double budget_s, bool certain,
                    Report* report, RunFigures* f) {
  int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int i = 0; i < 2 || NowNs() < deadline; ++i) {
    std::unique_ptr<Reference> ref =
        ReferenceChase(spec.setting, spec.base_facts);
    if (!ref->error.empty()) {
      report->CheckFailed("reference chase: " + ref->error);
      return false;
    }
    f->exchange_rates.push_back(ref->facts / ref->wall_s);
    f->exchange_facts = ref->facts;
  }
  deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int i = 0; i < 2 || NowNs() < deadline; ++i) {
    ExistsRun run = RunExists(spec, spec.base_facts, certain);
    if (!run.ok || !run.verdict) {
      report->CheckFailed(spec.name + ": the Figure 3 check on the base did "
                          "not find the expected solution");
      return false;
    }
    f->exists_s.push_back(run.wall_s);
    f->exists_solve_us.push_back(run.solve_us);
    f->certain_us.push_back(run.certain_us);
    for (double s :
         SecondsUnder(CollectSpans(), "pde.ctract", "ctract.block_check")) {
      f->block_check_s.push_back(s);
    }
  }
  f->exchange_facts_per_s = MedianOf(f->exchange_rates);
  f->exists_solve_s = MedianOf(f->exists_s);
  return true;
}

// One run of the workload; a traced run also times the certain-answer
// lower bound with the offline figures.
bool RunOnce(const ServeSpec& spec, const RunOptions& options, Report* report,
             RunFigures* f, Daemon* kept) {
  int nproc = Nproc();
  int connections = spec.readers + spec.writers;
  if (connections > nproc) {
    std::fprintf(stderr,
                 "%d load connections would exceed nproc %d; refusing\n",
                 connections, nproc);
    return false;
  }

  // Set-up, several times; the last of these daemons stays up for the
  // run, and the ones started between rounds are shut down again. pdxd's
  // threads inherit the daemon half of the CPUs from this thread.
  CpuSplit cpus = SplitCpus();
  std::vector<double> setup_s;
  auto set_up = [&](Daemon* daemon) {
    if (daemon->server != nullptr) daemon->server->Shutdown();
    *daemon = Daemon();
    PinThisThread(cpus.daemon);
    int64_t t0 = NowNs();
    std::string error;
    {
      RequestSpan span("serve.setup");
      *daemon = StartDaemon(spec, options, connections + 1,
                            static_cast<int>(setup_s.size()), &error);
    }
    PinThisThread(cpus.all);
    if (daemon->server == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return false;
    }
    setup_s.push_back((NowNs() - t0) / 1e9);
    CollectSpans();
    return true;
  };
  Daemon daemon, extra;
  for (int i = 0; i < kSetupsBefore; ++i) {
    if (!set_up(&daemon)) return false;
  }

  if (!MeasureOffline(spec, kOfflineSliceS, options.trace, report, f)) {
    return false;
  }

  std::vector<Client> clients;
  for (int c = 0; c < connections; ++c) {
    auto client = Client::Connect(daemon.server->address());
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
      return false;
    }
    clients.push_back(std::move(*client));
  }
  std::vector<std::unique_ptr<Script>> scripts =
      MakeScripts(spec, daemon.tenant_id, options.seed * 31);
  pdx::serve::Tenant* tenant = daemon.tenant.get();

  auto count = [&](const PhaseResult& phase) {
    report->CountOperations(phase.total.sent, phase.total.failed);
    for (const std::string& failure : phase.total.check_failures) {
      report->CheckFailed(spec.name + ": " + failure);
    }
  };
  PhaseResult warmup = RunLoadPhase(spec, tenant, &clients, &scripts,
                                    spec.nominal_rps, kWarmupS, cpus);
  count(warmup);
  AppendWrites(warmup, f);
  // The run is kRounds rounds of: a nominal-rate segment, a slice of the
  // offline figures and, until the bisection settles, one ladder probe.
  // Spreading every figure over the whole run averages out the machine's
  // slow and fast stretches. The ladder's share of the time is sized for
  // the typical count of probes: the decisions plus half as many repeats.
  double segment_s = options.seconds * kNominalShare / kRounds;
  double rung_s = options.seconds * (1 - kNominalShare) /
                  (kLadderProbes + kLadderProbes / 2);
  // Bisection over the ladder: rung `low` passes (-1 = the nominal rate),
  // rung `high` fails (kLadderRungs = beyond the top). A rung that fails
  // is probed once more and fails only if it fails again, so that one
  // stall does not end the search far below the knee; kRounds rounds leave
  // room for that on every probe.
  int low = -1, high = kLadderRungs;
  int failed_once = -1;
  for (int round = 0; round < kRounds; ++round) {
    PhaseResult segment =
        RunLoadPhase(spec, tenant, &clients, &scripts, spec.nominal_rps,
                     segment_s, cpus);
    count(segment);
    AppendWrites(segment, f);
    f->segment_reads.push_back(segment.total.reads);
    f->segment_writes.push_back(segment.total.writes);
    MergePhase(segment, &f->nominal);
    if (!MeasureOffline(spec, kOfflineSliceS, options.trace, report, f)) {
      return false;
    }
    if (!set_up(&extra)) return false;
    extra.server->Shutdown();
    extra = Daemon();
    if (high - low <= 1) continue;
    int mid = failed_once >= 0 ? failed_once : (low + high) / 2;
    double rate = spec.nominal_rps * std::pow(kLadderRatio, mid + 1);
    PhaseResult rung =
        RunLoadPhase(spec, tenant, &clients, &scripts, rate, rung_s, cpus);
    count(rung);
    AppendWrites(rung, f);
    if (rung.passed) {
      low = mid;
      f->sustained_rps = rung.achieved_rps;
      f->sustained_rung = rate;
      failed_once = -1;
    } else if (failed_once == mid) {
      high = mid;
      failed_once = -1;
    } else {
      failed_once = mid;
    }
    f->ladder.push_back(std::move(rung));
  }
  f->setup_s = MedianOf(setup_s);
  f->setups = static_cast<int>(setup_s.size());
  // With no rung passing, the nominal rate is the highest sustained one if
  // the nominal phase as a whole meets the same conditions.
  Samples::Point nominal_tail = f->nominal.total.reads.Tail(99);
  if (low < 0 && f->nominal.total.failed == 0 &&
      f->nominal.total.abandoned == 0 &&
      nominal_tail.value <= spec.read_p99_limit_ms) {
    f->sustained_rps = f->nominal.achieved_rps;
    f->sustained_rung = spec.nominal_rps;
  }
  // The net base: the stable part plus what each writer keeps live.
  std::string net_base = spec.stable_facts;
  for (const auto& script : scripts) net_base += script->LiveFacts();

  // The final state must equal the reference Chase of the net base.
  std::unique_ptr<Reference> ref = ReferenceChase(spec.setting, net_base);
  std::string mismatch = CompareFinalState(tenant, *ref);
  if (mismatch.empty()) {
    report->CheckPassed(spec.name + ": final canonical instance equals the "
                        "reference Chase of the net base (" +
                        std::to_string(ref->facts) + " facts)");
  } else {
    report->CheckFailed(spec.name + ": final state: " + mismatch);
  }
  ExistsRun final_exists = RunExists(spec, net_base, false);
  if (!final_exists.ok || !final_exists.verdict) {
    report->CheckFailed(spec.name + ": the Figure 3 check on the final "
                        "(I, J) did not find the expected solution");
  }
  f->peak_rss_mb = PeakRssMb();
  *kept = std::move(daemon);
  return true;
}

}  // namespace

bool RunServeWorkload(const RunOptions& options, Report* report) {
  ServeSpec spec = MakeSpec(options.workload, options.seed);
  report->Note(spec.name + ": base " +
               std::to_string(std::count(spec.base_facts.begin(),
                                         spec.base_facts.end(), '\n')) +
               " facts, " + std::to_string(spec.readers) + " reader + " +
               std::to_string(spec.writers) +
               " writer connections, open loop, nominal " +
               std::to_string(static_cast<int>(spec.nominal_rps)) +
               " req/s, nproc " + std::to_string(Nproc()));
  // A traced run measures the same run with spans on, then the layers.
  if (options.trace) EnableSpans();
  RunFigures figures;
  Daemon daemon;
  if (!RunOnce(spec, options, report, &figures, &daemon)) return false;
  report->CheckPassed(spec.name + ": every response ok, generations "
                      "non-decreasing per connection, acknowledged writes "
                      "visible, reads as expected");
  ReportFigures(spec, figures, report);
  if (options.trace) {
    ReportPhaseLayers(spec, figures, spec.readers + spec.writers, report);
    ProbeLayers(spec, &daemon, figures, report);
    FinishTrace(options, report);
    FillUnexercisedLayers(report);
  }
  daemon.server->Shutdown();
  return true;
}

}  // namespace perfbench
