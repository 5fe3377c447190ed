// PlanServer — serving-grade request lifecycle in front of the search.
//
// The ROADMAP's plan-service direction turns fusion search into a request/
// response system: callers ask "plan for (program, device), within this
// deadline" and must ALWAYS get a legal plan back, on time, no matter what
// the store, the injected faults, or the load are doing. The lifecycle:
//
//   1. Admission. A token bucket with a bounded virtual queue
//      (serve/admission.hpp) decides admit / queue / reject before any work
//      happens. A rejected request is still answered — with the always-legal
//      identity plan — so overload sheds work, not correctness.
//   2. Degradation ladder. An admitted request walks down until a rung
//      succeeds:
//        StoreHit        exact (program, device) fingerprint hit, validated
//                        against this process's legality checker whenever
//                        its text differs from the last one the context
//                        accepted, and served from that memo otherwise — a
//                        stored plan that does not check out is evicted,
//                        never served;
//        PolishedStored  nearest stored plan for the same program (any
//                        device), repaired to legality and improved by the
//                        HGGA's steepest-descent local polish within the
//                        request's remaining deadline — the cross-device
//                        warm start;
//        FullSearch      SearchDriver under the request's remaining
//                        deadline/eval budget, retried with exponential
//                        backoff when a fault storm aborts an attempt
//                        (quarantined groups persist across attempts, so a
//                        retry converges instead of re-faulting);
//        TrivialFloor    the identity (no-fusion) plan — always legal, always
//                        available, the floor the ladder cannot fall past.
//      A request is *degraded* when it was rejected or served below its
//      natural rung (PolishedStored / TrivialFloor); FullSearch is the
//      normal cache-miss path, not a degradation.
//   3. Write-back. FullSearch / PolishedStored results are committed to the
//      store so the next request for the pair is a StoreHit. A store write
//      failure (torn/injected) degrades durability, never the response.
//
// Every request lands in a bounded provenance ring (ServeLog, the
// DecisionLog idiom) and in kfc-metrics (serve.requests_total,
// serve.rung_total.*, serve.degraded_total, ...); `kfc serve-batch` replays
// a JSONL request stream through this class and reports the distribution.
//
// Observability (PR "serving-grade observability"): each request gets a
// RequestContext at admission — a deterministic 128-bit trace id installed
// thread-locally (TraceScope) for the request's duration, so every span,
// decision, metric exemplar and store journal event recorded downstream
// (SearchDriver, Objective, GroupCostCache, PlanStore) stamps the owning
// id with no API threading. The lifecycle itself is spanned (cat "serve",
// exported under Chrome-trace pid 4), each stage's deadline-budget
// consumption is charged to the context's ledger, and finish() emits the
// request's single canonical *wide event* ("serve_request" JSONL line:
// rung, stage budgets, hit state, retries, final cost) plus the SLO sample
// (telemetry->slo) and the latency histogram observation whose bucket
// exemplar carries the trace id.
//
// Concurrency (PR "worker-pool serving engine"): serve() is fully
// concurrent — many workers (serve/serve_engine.hpp) run requests at once.
// The shared state is fine-grained: per-(program, device) evaluation
// contexts are built once under a std::call_once slot and then immutable
// apart from their validated-hit memo, a pointer copied or swapped under a
// mutex held for nothing else; Stats sit behind their own mutex; the token
// bucket (not itself thread-safe) behind another; the sequence counter is
// atomic; the store and every telemetry sink are thread-safe on their own.
// Concurrent misses on the same (program fingerprint, device) key
// *coalesce*: the first becomes the leader and runs the miss ladder, the
// rest park on a condition variable and receive the leader's plan when it
// publishes (result.coalesced = true) — one search fans out to all
// waiters, which is the microseconds-repeat-program story under load.
// Requests arriving through the engine additionally carry their enqueue
// time (queue wait is charged against the deadline and the stage ledger)
// and a worker id, and a full engine queue is answered with the
// rejected_overload floor.
//
// Time and sleep are injectable (monotone seconds), so tests drive the
// bucket, deadlines and backoff with a fake clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "search/driver.hpp"
#include "serve/admission.hpp"
#include "store/plan_store.hpp"
#include "telemetry/request_context.hpp"

namespace kf {

/// Which rung of the degradation ladder answered a request.
enum class ServeRung { StoreHit, PolishedStored, FullSearch, TrivialFloor };
const char* to_string(ServeRung rung) noexcept;

/// RejectedOverload is the queue-full outcome: the request never reached
/// the token bucket because the engine's bounded queue was full (or the
/// engine was drained) — it is still answered, with the identity floor.
enum class AdmissionOutcome { Admitted, Queued, Rejected, RejectedOverload };
const char* to_string(AdmissionOutcome outcome) noexcept;

struct ServeRequest {
  double deadline_s = 0.0;   ///< wall budget; <= 0: server default
  long max_evaluations = 0;  ///< eval budget for FullSearch; <= 0: server default

  // Stamped by the serving engine, not by callers: when a request arrives
  // through a worker pool, latency and the deadline clock start at enqueue
  // time, and the result records which worker served it.
  double enqueue_s = -1.0;  ///< server-clock enqueue time; < 0: direct call
  int worker_id = -1;       ///< serving worker; -1: direct call
};

struct ServeResult {
  FusionPlan plan;
  double cost_s = 0.0;           ///< plan cost under this process's objective
  double baseline_cost_s = 0.0;  ///< identity-plan cost (the floor's cost)
  int num_kernels = 0;
  PlanKey key;
  ServeRung rung = ServeRung::TrivialFloor;
  AdmissionOutcome admission = AdmissionOutcome::Admitted;
  bool degraded = false;   ///< rejected, or served below the natural rung
  int retries = 0;         ///< FullSearch attempts beyond the first
  double queue_wait_s = 0.0;
  double latency_s = 0.0;  ///< admission decision through response, waits included
  double deadline_s = 0.0; ///< effective deadline this request ran under
  bool deadline_met = true;
  bool coalesced = false;  ///< answered by another request's in-flight search
  int worker_id = -1;      ///< engine worker that served this; -1: direct call
  TraceId trace_id;        ///< this request's 128-bit trace identity
  /// Deadline budget consumed per lifecycle stage (RequestContext::Stage
  /// order); sums to <= latency_s.
  double stage_s[RequestContext::kNumStages] = {};

  double speedup() const noexcept {
    return cost_s > 0.0 ? baseline_cost_s / cost_s : 0.0;
  }
};

/// Bounded ring of per-request provenance (the DecisionLog idiom): the last
/// `capacity` requests with rung, admission, retries and latency, so an
/// operator can ask "what has the server been doing" without a trace file.
class ServeLog {
 public:
  struct Entry {
    long seq = 0;  ///< 1-based request ordinal
    std::uint64_t program_fp = 0;
    std::uint64_t device_fp = 0;
    ServeRung rung = ServeRung::TrivialFloor;
    AdmissionOutcome admission = AdmissionOutcome::Admitted;
    int retries = 0;
    double latency_s = 0.0;
    bool deadline_met = true;
    bool degraded = false;
    TraceId trace;  ///< the request's trace id (links to spans/wide events)
  };

  explicit ServeLog(std::size_t capacity = 256);

  void record(Entry entry);
  long recorded() const;             ///< total ever recorded (>= size())
  std::size_t size() const;          ///< entries currently held
  long dropped() const;              ///< entries evicted by ring wrap (exact)
  std::vector<Entry> entries() const;  ///< oldest-first snapshot

 private:
  mutable std::mutex mu_;
  std::vector<Entry> ring_;
  std::size_t capacity_;
  long recorded_ = 0;
};

struct PlanServerConfig {
  TokenBucket::Config admission;  ///< rate_per_s <= 0: admission off
  int max_queue_depth = 8;

  double default_deadline_s = 2.0;
  long default_max_evaluations = 200000;

  /// FullSearch retry policy: a fault-storm-aborted attempt is retried after
  /// backoff_base_s * 2^attempt (quarantine persists, so retries converge).
  int max_retries = 2;
  double backoff_base_s = 0.005;
  /// Faults per attempt before the driver declares a storm and the server
  /// backs off.
  long fault_storm_evals = 64;
  /// Below this remaining budget the FullSearch rung is skipped entirely —
  /// a search that cannot finish is worse than an honest degradation.
  double min_search_budget_s = 0.010;
  /// Fraction of the remaining deadline handed to each search attempt (the
  /// rest is headroom for costing, write-back and the response path).
  double search_budget_fraction = 0.8;

  SearchMethod method = SearchMethod::Greedy;
  HggaConfig hgga;          ///< used when method == Hgga
  bool write_back = true;

  /// Expandable-array relaxation applied to incoming programs (matches
  /// `kfc search` defaults so served plans and offline plans share keys).
  bool expand = true;
  double mem_budget = -1.0;

  std::size_t log_capacity = 256;

  /// Observability (nullable, must outlive the server).
  const Telemetry* telemetry = nullptr;

  /// Extra entropy folded into derived trace ids so two servers replaying
  /// the same batch can be told apart; 0 keeps traces replay-stable.
  std::uint64_t trace_salt = 0;

  /// Monotone clock / sleep in seconds; defaults are real time. Tests
  /// inject fakes to drive admission, deadlines and backoff deterministically.
  std::function<double()> clock;
  std::function<void(double)> sleep;

  /// TEST ONLY (the PlanStore::test_tear_next_append idiom): called by a
  /// coalescing *leader* right before it runs the miss ladder, so tests can
  /// hold the leader until followers are provably parked and make the
  /// fan-out deterministic instead of timing-dependent.
  std::function<void()> test_coalesce_hold;
};

class PlanServer {
 public:
  /// `store` must outlive the server.
  PlanServer(PlanStore& store, PlanServerConfig config);
  ~PlanServer();

  /// Serves one request: admission, then the degradation ladder. Never
  /// throws on faults, storms, store corruption or overload — the result's
  /// plan is always legal for the (expanded) program. Throws only on
  /// precondition violations (e.g. an empty program).
  ServeResult serve(const Program& program, const DeviceSpec& device,
                    const ServeRequest& request = ServeRequest());

  /// Answers a request that never made it into the system (full engine
  /// queue, or a drained engine) with the rejected_overload floor: an
  /// always-legal identity plan, fully accounted (ServeLog, stats, SLO
  /// sample, wide event) like any other response. Cheap — no admission, no
  /// ladder — so it is safe to call inline on a submitter's thread.
  ServeResult reject_overload(const Program& program, const DeviceSpec& device,
                              const ServeRequest& request = ServeRequest());

  struct Stats {
    long requests = 0;
    long store_hits = 0;
    long polished = 0;
    long full_searches = 0;
    long trivial = 0;
    long degraded = 0;
    long queued = 0;
    long rejected = 0;
    long rejected_overload = 0;  ///< shed at the engine queue mouth
    long retries = 0;
    long deadline_missed = 0;
    long writebacks = 0;
    long writeback_failures = 0;  ///< store put faults survived
    long invalid_stored = 0;      ///< stored plans evicted as no-longer-legal
    long coalesced = 0;           ///< requests answered by another's search
    long coalesce_timeouts = 0;   ///< waiters whose leader missed their deadline
    long coalesce_waiting = 0;    ///< waiters parked right now (point-in-time)
  };
  Stats stats() const;

  const ServeLog& log() const noexcept { return log_; }
  PlanStore& store() noexcept { return store_; }
  const Telemetry* telemetry() const noexcept { return config_.telemetry; }
  /// The server's monotone clock (the injected one in tests) — the engine
  /// stamps ServeRequest::enqueue_s in this domain.
  double now() const { return config_.clock(); }

 private:
  /// Per-(program, device) evaluation stack, built once and reused across
  /// requests: expansion, simulator, legality checker, projection model and
  /// the Objective whose group-cost cache makes repeat requests cheap.
  struct Context;
  /// Map slot for a Context: the slot is created under the map lock, the
  /// (expensive) Context inside it under std::call_once — so two requests
  /// racing on a new key build it exactly once, without holding the map
  /// lock across expansion + checker construction.
  struct ContextSlot;
  /// One in-flight miss per key: the leader's rendezvous with its waiters.
  struct InFlight;

  using ContextKey = std::pair<std::uint64_t, std::uint64_t>;

  PlanStore& store_;
  PlanServerConfig config_;
  ServeLog log_;

  std::mutex bucket_mu_;  ///< TokenBucket is not itself thread-safe
  TokenBucket bucket_;

  std::mutex contexts_mu_;
  std::map<ContextKey, std::shared_ptr<ContextSlot>> contexts_;

  std::mutex inflight_mu_;
  std::map<ContextKey, std::shared_ptr<InFlight>> inflight_;

  mutable std::mutex stats_mu_;
  Stats stats_;

  std::atomic<long> seq_{0};
  std::atomic<int> inflight_requests_{0};  ///< serve.inflight gauge source
  std::atomic<long> coalesce_waiting_{0};

  Context& context(const Program& program, const DeviceSpec& device);
  bool plan_usable(const Context& ctx, const std::string& plan_text,
                   FusionPlan* out) const;
  /// One exact-key store probe: get -> validate -> cost. A stored text this
  /// context already validated is served from its memo; any other text
  /// runs plan_usable + plan_cost (in a "serve.validate" span) and, once
  /// accepted, becomes the memo. A stored plan that fails validation is
  /// evicted, never served. On a hit sets result.{rung, plan, cost_s}.
  bool probe_store(Context& ctx, ServeResult& result);
  bool repair_plan(const Context& ctx, FusionPlan& plan) const;
  /// Rungs 2..4 (polish / full search / floor) for a confirmed store miss;
  /// sets result.{rung, plan, cost_s, retries}. Write-back and waiter
  /// publication happen in the caller.
  void miss_ladder(Context& ctx, const ServeRequest& request, double start_s,
                   ServeResult& result, RequestContext& rc);
  /// Hands the leader's outcome to every parked waiter and retires the
  /// in-flight entry for `key`.
  void publish_flight(const std::shared_ptr<InFlight>& flight,
                      const ContextKey& key, const ServeResult& result);
  void write_back(Context& ctx, const ServeResult& result, RequestContext& rc);
  void finish(ServeResult& result, const Context* ctx, double start_s,
              const RequestContext& rc);
};

}  // namespace kf
