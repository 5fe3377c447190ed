#include "serve/plan_server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <string_view>
#include <thread>
#include <utility>

#include "graph/array_expansion.hpp"
#include "model/proposed_model.hpp"
#include "store/fingerprint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace kf {

const char* to_string(ServeRung rung) noexcept {
  switch (rung) {
    case ServeRung::StoreHit: return "store_hit";
    case ServeRung::PolishedStored: return "polished_stored";
    case ServeRung::FullSearch: return "full_search";
    case ServeRung::TrivialFloor: return "trivial_floor";
  }
  return "?";
}

const char* to_string(AdmissionOutcome outcome) noexcept {
  switch (outcome) {
    case AdmissionOutcome::Admitted: return "admitted";
    case AdmissionOutcome::Queued: return "queued";
    case AdmissionOutcome::Rejected: return "rejected";
    case AdmissionOutcome::RejectedOverload: return "rejected_overload";
  }
  return "?";
}

// ---------------------------------------------------------------- ServeLog

ServeLog::ServeLog(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void ServeLog::record(Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(entry);
  } else {
    ring_[static_cast<std::size_t>(recorded_) % capacity_] = entry;
  }
  ++recorded_;
}

long ServeLog::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::size_t ServeLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

long ServeLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ > static_cast<long>(capacity_)
             ? recorded_ - static_cast<long>(capacity_)
             : 0;
}

std::vector<ServeLog::Entry> ServeLog::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    const std::size_t head = static_cast<std::size_t>(recorded_) % capacity_;
    for (std::size_t i = 0; i < capacity_; ++i)
      out.push_back(ring_[(head + i) % capacity_]);
  }
  return out;
}

// -------------------------------------------------------------- PlanServer

/// The per-(program, device) evaluation stack. Declaration order is
/// construction order: the objective borrows everything above it. Immutable
/// after construction apart from the Objective's internally-synchronised
/// state (atomic counters, lock-striped group-cost cache) and the validated
/// store-hit memo (its own mutex), so concurrent requests share one Context
/// freely.
struct PlanServer::Context {
  /// A stored plan this context has validated: its exact stored text, the
  /// parsed plan and its cost. Legality and cost are pure functions of
  /// (text, this context), so a hit whose stored text equals the memo's is
  /// served from it — validated once, trusted afterwards (the MIOpen
  /// FusionPlanDescriptor idiom: isValid() at build, then execute many
  /// times). Keyed on the text, not the store revision, so compaction and
  /// recovery cannot make a stale memo look current.
  struct Validated {
    std::string plan_text;
    FusionPlan plan;
    double cost_s = 0.0;
  };

  ExpansionResult expansion;
  DeviceSpec device;
  TimingSimulator simulator;
  LegalityChecker checker;
  ProposedModel model;
  Objective objective;
  PlanKey key;

  /// Guards only the copy of `validated` — never held across validation.
  std::mutex validated_mu;
  std::shared_ptr<const Validated> validated;

  Context(const Program& program, const DeviceSpec& dev,
          const PlanServerConfig& config)
      : expansion(config.expand
                      ? expand_arrays(program, config.mem_budget)
                      : ExpansionResult{.program = program,
                                        .arrays_added = 0,
                                        .extra_bytes = 0.0,
                                        .versions = {}}),
        device(dev),
        simulator(device),
        checker(expansion.program, device),
        model(device),
        objective(checker, model, simulator) {
    key.program_fp = program_fingerprint(expansion.program);
    key.device_fp = device_fingerprint(device);
    objective.set_telemetry(config.telemetry);
  }
};

struct PlanServer::ContextSlot {
  std::once_flag once;
  std::unique_ptr<Context> ctx;
};

/// Rendezvous between a coalescing leader and its waiters. The leader
/// fills the outcome under `mu` and flips `done`; waiters time out against
/// their own remaining deadline, so a stuck leader degrades its waiters to
/// the floor instead of hanging them.
struct PlanServer::InFlight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ServeRung rung = ServeRung::TrivialFloor;
  FusionPlan plan;
  double cost_s = 0.0;
  int retries = 0;
};

namespace {

/// serve.inflight as a real concurrent-request count (it was a 0/1 marker
/// when serve() was serial).
class InflightGauge {
 public:
  InflightGauge(std::atomic<int>& count, const Telemetry* telemetry)
      : count_(count), telemetry_(telemetry) {
    set(count_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  ~InflightGauge() {
    set(count_.fetch_sub(1, std::memory_order_relaxed) - 1);
  }

 private:
  void set(int value) const {
    if (telemetry_ != nullptr && telemetry_->metrics != nullptr)
      telemetry_->metrics->gauge("serve.inflight", static_cast<double>(value));
  }
  std::atomic<int>& count_;
  const Telemetry* telemetry_;
};

/// RAII owner of a flight-recorder in-flight slot: marks the request busy
/// for the watchdog / signal dump, clears on every exit path.
class InflightMark {
 public:
  InflightMark(FlightRecorder* recorder, const ServeRequest& request,
               const RequestContext& rc, double deadline_s, double start_s)
      : recorder_(recorder) {
    if (recorder_ != nullptr)
      slot_ = recorder_->inflight_begin(request.worker_id, rc.trace_id,
                                        rc.seq, deadline_s, start_s);
  }
  ~InflightMark() {
    if (recorder_ != nullptr) recorder_->inflight_end(slot_);
  }
  /// Republishes the stage ledger; called at stage boundaries so a crash
  /// mid-request dumps a current ledger, not the admission-time zeros.
  void update(const RequestContext& rc) const noexcept {
    if (recorder_ != nullptr) recorder_->inflight_update(slot_, rc);
  }

 private:
  FlightRecorder* recorder_ = nullptr;
  int slot_ = -1;
};

/// Names finish() records under on every request, built once: concatenating
/// them per request cost heap allocations on the store-hit path.
struct FinishNames {
  static constexpr int kNumRungs =
      static_cast<int>(ServeRung::TrivialFloor) + 1;
  /// "serve.rung_total.<rung>", indexed by ServeRung.
  std::string rung_total[kNumRungs];
  /// "stage_<name>_s", indexed by RequestContext::Stage.
  std::string stage[RequestContext::kNumStages];

  static const FinishNames& get() {
    static const FinishNames names = [] {
      FinishNames n;
      for (int r = 0; r < kNumRungs; ++r)
        n.rung_total[r] = std::string("serve.rung_total.") +
                          to_string(static_cast<ServeRung>(r));
      for (int s = 0; s < RequestContext::kNumStages; ++s)
        n.stage[s] =
            std::string("stage_") + RequestContext::stage_name(s) + "_s";
      return n;
    }();
    return names;
  }
};

/// Writes `v` as 16 lowercase hex digits (the wide event's "%016llx",
/// without varargs formatting).
std::string_view hex16(std::uint64_t v, char (&out)[16]) noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kHex[v & 0xF];
  return {out, 16};
}

}  // namespace

PlanServer::PlanServer(PlanStore& store, PlanServerConfig config)
    : store_(store), config_(std::move(config)), log_(config_.log_capacity),
      bucket_(config_.admission) {
  KF_REQUIRE(config_.default_deadline_s > 0.0,
             "PlanServer: default_deadline_s must be > 0");
  KF_REQUIRE(config_.search_budget_fraction > 0.0 &&
                 config_.search_budget_fraction <= 1.0,
             "PlanServer: search_budget_fraction must be in (0, 1]");
  if (!config_.clock) {
    auto watch = std::make_shared<Stopwatch>();
    config_.clock = [watch] { return watch->elapsed_s(); };
  }
  if (!config_.sleep) {
    config_.sleep = [](double s) {
      if (s > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
    };
  }
  if (config_.telemetry != nullptr && config_.telemetry->metrics != nullptr) {
    // Explicit buckets so the Prometheus exporter can render the serve
    // latency and queue-wait histograms (with per-bucket trace-id
    // exemplars). Declared before the first request for exact counts.
    config_.telemetry->metrics->declare_buckets(
        "serve.latency_seconds",
        {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
         5.0, 10.0});
    config_.telemetry->metrics->declare_buckets(
        "serve.queue_wait_seconds",
        {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
         0.1, 0.25, 0.5, 1.0});
  }
}

PlanServer::~PlanServer() = default;

PlanServer::Context& PlanServer::context(const Program& program,
                                         const DeviceSpec& device) {
  // Keyed on the *raw* program so the lookup never re-runs expansion; the
  // stored PlanKey inside uses the expanded fingerprint.
  const ContextKey cache_key = std::make_pair(program_fingerprint(program),
                                              device_fingerprint(device));
  std::shared_ptr<ContextSlot> slot;
  {
    std::lock_guard<std::mutex> lock(contexts_mu_);
    std::shared_ptr<ContextSlot>& entry = contexts_[cache_key];
    if (!entry) entry = std::make_shared<ContextSlot>();
    slot = entry;
  }
  // Expansion + checker construction run outside the map lock; racing
  // requests on a brand-new key build the stack exactly once and the
  // losers block only on this key, not on the whole map.
  std::call_once(slot->once, [&] {
    slot->ctx = std::make_unique<Context>(program, device, config_);
  });
  return *slot->ctx;
}

bool PlanServer::plan_usable(const Context& ctx, const std::string& plan_text,
                             FusionPlan* out) const {
  const int n = ctx.expansion.program.num_kernels();
  FusionPlan plan;
  try {
    plan = FusionPlan::parse(n, plan_text);
  } catch (const std::exception&) {
    return false;
  }
  if (!ctx.checker.plan_is_legal(plan)) return false;
  *out = std::move(plan);
  return true;
}

bool PlanServer::probe_store(Context& ctx, ServeResult& result) {
  std::optional<StoredPlan> stored = store_.get(ctx.key);
  if (!stored) return false;
  std::shared_ptr<const Context::Validated> memo;
  {
    std::lock_guard<std::mutex> lock(ctx.validated_mu);
    memo = ctx.validated;
  }
  if (memo == nullptr || memo->plan_text != stored->plan_text) {
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.validate", "serve");
    FusionPlan plan;
    if (!plan_usable(ctx, stored->plan_text, &plan)) {
      span.end();
      // Stored but no longer legal under this process's checker: evict, and
      // let the caller fall through the ladder as a miss.
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.invalid_stored;
      }
      try {
        store_.erase(ctx.key);
      } catch (const StoreError&) {
        // eviction is advisory; a wedged store must not fail the request
      }
      const Telemetry* t = config_.telemetry;
      if (t != nullptr && t->metrics != nullptr)
        t->metrics->count("serve.invalid_stored_total");
      return false;
    }
    auto fresh = std::make_shared<Context::Validated>();
    fresh->cost_s = ctx.objective.plan_cost(plan);
    fresh->plan = std::move(plan);
    fresh->plan_text = std::move(stored->plan_text);
    memo = std::move(fresh);
    std::lock_guard<std::mutex> lock(ctx.validated_mu);
    ctx.validated = memo;
  }
  result.rung = ServeRung::StoreHit;
  result.plan = memo->plan;
  result.cost_s = memo->cost_s;
  return true;
}

bool PlanServer::repair_plan(const Context& ctx, FusionPlan& plan) const {
  // Split every illegal group into singletons (singletons are always
  // legal), then demand schedulability — splitting only removes contracted
  // precedence edges, so a repaired plan that still has a cycle is beyond
  // this rung.
  const int n = ctx.expansion.program.num_kernels();
  FusionPlan repaired(n);
  std::vector<KernelId> members;
  for (int g = 0; g < plan.num_groups(); ++g) {
    members.assign(plan.group(g).begin(), plan.group(g).end());
    if (members.size() < 2 || !ctx.checker.group_is_legal(members)) continue;
    for (std::size_t i = 1; i < members.size(); ++i)
      repaired.merge_groups(repaired.group_of(members[0]),
                            repaired.group_of(members[i]));
  }
  repaired.canonicalize();
  if (!ctx.checker.plan_is_schedulable(repaired)) return false;
  plan = std::move(repaired);
  return true;
}

void PlanServer::write_back(Context& ctx, const ServeResult& result,
                            RequestContext& rc) {
  if (!config_.write_back) return;
  const double mark = config_.clock();
  SpanTracer::Scope span =
      scoped_span(config_.telemetry, "serve.write_back", "serve");
  StoredPlan stored;
  stored.key = ctx.key;
  stored.num_kernels = ctx.expansion.program.num_kernels();
  stored.plan_text = result.plan.to_string();
  stored.best_cost_s = result.cost_s;
  stored.baseline_cost_s = result.baseline_cost_s;
  try {
    store_.put(std::move(stored));
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.writebacks;
  } catch (const StoreError&) {
    // A torn/injected store write degrades durability, never the response.
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.writeback_failures;
    }
    const Telemetry* t = config_.telemetry;
    if (t != nullptr && t->metrics != nullptr)
      t->metrics->count("serve.store_writeback_failures");
  }
  rc.charge(RequestContext::kWriteBack, config_.clock() - mark);
}

void PlanServer::finish(ServeResult& result, const Context* ctx,
                        double start_s, const RequestContext& rc) {
  result.latency_s = std::max(0.0, config_.clock() - start_s);
  result.deadline_met = result.latency_s <= result.deadline_s;
  result.degraded = result.admission == AdmissionOutcome::Rejected ||
                    result.admission == AdmissionOutcome::RejectedOverload ||
                    result.rung == ServeRung::PolishedStored ||
                    result.rung == ServeRung::TrivialFloor;
  if (ctx != nullptr) result.key = ctx->key;
  result.trace_id = rc.trace_id;
  for (int s = 0; s < RequestContext::kNumStages; ++s)
    result.stage_s[s] = rc.stage_s[s];

  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.requests;
    switch (result.rung) {
      case ServeRung::StoreHit: ++stats_.store_hits; break;
      case ServeRung::PolishedStored: ++stats_.polished; break;
      case ServeRung::FullSearch: ++stats_.full_searches; break;
      case ServeRung::TrivialFloor: ++stats_.trivial; break;
    }
    if (result.degraded) ++stats_.degraded;
    if (result.admission == AdmissionOutcome::Queued) ++stats_.queued;
    if (result.admission == AdmissionOutcome::Rejected) ++stats_.rejected;
    if (result.admission == AdmissionOutcome::RejectedOverload)
      ++stats_.rejected_overload;
    if (result.coalesced) ++stats_.coalesced;
    stats_.retries += result.retries;
    if (!result.deadline_met) ++stats_.deadline_missed;
  }

  ServeLog::Entry entry;
  entry.seq = rc.seq;
  entry.program_fp = result.key.program_fp;
  entry.device_fp = result.key.device_fp;
  entry.rung = result.rung;
  entry.admission = result.admission;
  entry.retries = result.retries;
  entry.latency_s = result.latency_s;
  entry.deadline_met = result.deadline_met;
  entry.degraded = result.degraded;
  entry.trace = rc.trace_id;
  log_.record(entry);

  const Telemetry* t = config_.telemetry;
  if (t != nullptr && t->slo != nullptr) {
    SloTracker::Sample sample;
    sample.t_s = config_.clock();
    sample.latency_s = result.latency_s;
    sample.deadline_met = result.deadline_met;
    sample.degraded = result.degraded;
    sample.rung = static_cast<int>(result.rung);
    t->slo->record(sample);
  }
  if (t != nullptr && t->metrics != nullptr) {
    MetricsRegistry* m = t->metrics;
    m->count("serve.requests_total");
    m->count(FinishNames::get().rung_total[static_cast<int>(result.rung)]);
    if (result.degraded) m->count("serve.degraded_total");
    if (result.admission == AdmissionOutcome::Queued)
      m->count("serve.queued_total");
    if (result.admission == AdmissionOutcome::Rejected)
      m->count("serve.admission_rejected_total");
    if (result.admission == AdmissionOutcome::RejectedOverload)
      m->count("serve.queue_rejected_total");
    if (result.coalesced) m->count("serve.coalesced_total");
    if (result.retries > 0) m->count("serve.retries_total", result.retries);
    if (!result.deadline_met) m->count("serve.deadline_missed_total");
    // Observed while the request's TraceScope is active: the histogram
    // bucket this sample lands in captures the trace id as its exemplar.
    m->observe("serve.latency_seconds", result.latency_s);
  }
  if (t != nullptr && t->recorder != nullptr) {
    // The black-box twin of the wide event below: a fixed-size binary
    // record in the always-on ring, plus the state-page counters the
    // signal path snapshots without locks.
    FlightRecorder* rec = t->recorder;
    FlightServePayload p;
    p.program_fp = result.key.program_fp;
    p.device_fp = result.key.device_fp;
    p.latency_s = result.latency_s;
    p.deadline_s = result.deadline_s;
    p.queue_wait_s = result.queue_wait_s;
    p.cost_s = result.cost_s;
    p.baseline_cost_s = result.baseline_cost_s;
    for (int s = 0; s < RequestContext::kNumStages; ++s)
      p.stage_s[s] = rc.stage_s[s];
    p.worker_id = static_cast<std::int16_t>(
        std::clamp(result.worker_id, -1, int(INT16_MAX)));
    p.retries = static_cast<std::int16_t>(
        std::clamp(result.retries, 0, int(INT16_MAX)));
    p.rung = static_cast<std::uint8_t>(result.rung);
    p.admission = static_cast<std::uint8_t>(result.admission);
    if (result.degraded) p.flags |= FlightServePayload::kFlagDegraded;
    if (result.coalesced) p.flags |= FlightServePayload::kFlagCoalesced;
    if (result.deadline_met) p.flags |= FlightServePayload::kFlagDeadlineMet;
    rec->record_serve(p, rc.trace_id);
    StatePage& sp = rec->state();
    sp.requests_total.fetch_add(1, std::memory_order_relaxed);
    if (!result.deadline_met)
      sp.deadline_missed_total.fetch_add(1, std::memory_order_relaxed);
    if (result.degraded)
      sp.degraded_total.fetch_add(1, std::memory_order_relaxed);
    if (result.admission == AdmissionOutcome::RejectedOverload)
      sp.rejected_overload_total.fetch_add(1, std::memory_order_relaxed);
    if (result.retries > 0)
      sp.retries_total.fetch_add(result.retries, std::memory_order_relaxed);
    if (result.rung == ServeRung::TrivialFloor)
      sp.trivial_floor_total.fetch_add(1, std::memory_order_relaxed);
    sp.inflight.store(inflight_requests_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  if (t != nullptr && t->wants_trace()) {
    // The request's single canonical wide event: identity, rung, hit
    // state, per-stage deadline budget, retries and final cost on one
    // line. (The line's "trace" field is stamped by TraceLog itself.)
    t->trace->emit("serve_request", [&](TraceEvent& e) {
      char program_hex[16], device_hex[16];
      e.num("seq", entry.seq)
          .str("program_fp", hex16(result.key.program_fp, program_hex))
          .str("device_fp", hex16(result.key.device_fp, device_hex))
          .num("num_kernels", result.num_kernels)
          .str("rung", to_string(result.rung))
          .str("admission", to_string(result.admission))
          .boolean("store_hit", result.rung == ServeRung::StoreHit)
          .boolean("degraded", result.degraded)
          .boolean("coalesced", result.coalesced)
          .num("worker_id", result.worker_id)
          .num("retries", result.retries)
          .num("queue_wait_s", result.queue_wait_s)
          .num("latency_s", result.latency_s)
          .num("deadline_s", result.deadline_s)
          .boolean("deadline_met", result.deadline_met)
          .num("deadline_frac_used",
               result.deadline_s > 0.0 ? result.latency_s / result.deadline_s
                                       : 0.0);
      for (int s = 0; s < RequestContext::kNumStages; ++s) {
        if (rc.stage_s[s] > 0.0)
          e.num(FinishNames::get().stage[s], rc.stage_s[s]);
      }
      e.num("cost_s", result.cost_s)
          .num("baseline_cost_s", result.baseline_cost_s)
          .num("speedup", result.speedup());
    });
  }
}

void PlanServer::miss_ladder(Context& ctx, const ServeRequest& request,
                             double start_s, ServeResult& result,
                             RequestContext& rc) {
  const int n = ctx.expansion.program.num_kernels();

  // ---- rung 2: polish the nearest stored plan (same program, any device) ----
  {
    double mark = config_.clock();
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.polish_stored", "serve");
    std::vector<StoredPlan> candidates =
        store_.plans_for_program(ctx.key.program_fp);
    // Newest revision first: the most recently found plan is the best guess.
    std::sort(candidates.begin(), candidates.end(),
              [](const StoredPlan& a, const StoredPlan& b) {
                return a.revision > b.revision;
              });
    for (const StoredPlan& candidate : candidates) {
      if (candidate.key == ctx.key) continue;  // the evicted exact entry
      if (candidate.num_kernels != n) continue;
      FusionPlan plan;
      try {
        plan = FusionPlan::parse(n, candidate.plan_text);
      } catch (const std::exception&) {
        continue;
      }
      if (!ctx.checker.plan_is_legal(plan) && !repair_plan(ctx, plan))
        continue;
      // The polish gets the same slice of the remaining deadline as a search
      // attempt and returns its legal best-so-far when the slice runs out.
      // (Limits reads a deadline <= 0 as none, so an exhausted one is 1 ns.)
      const double remaining = result.deadline_s - (config_.clock() - start_s);
      SearchControl control(
          ctx.objective,
          {.deadline_s =
               std::max(1e-9, remaining * config_.search_budget_fraction)});
      control.set_telemetry(config_.telemetry);
      double cost = 0.0;
      local_polish(ctx.objective, plan, &cost, config_.telemetry, &control);
      result.rung = ServeRung::PolishedStored;
      result.plan = std::move(plan);
      result.cost_s = cost;
      span.end();
      rc.charge(RequestContext::kPolish, config_.clock() - mark);
      return;
    }
    span.end();
    rc.charge(RequestContext::kPolish, config_.clock() - mark);
  }

  // ---- rung 3: full search under the remaining budget, with retries ----
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    const double remaining = result.deadline_s - (config_.clock() - start_s);
    if (remaining < config_.min_search_budget_s) break;

    DriverConfig driver;
    driver.method = config_.method;
    driver.hgga = config_.hgga;
    driver.limits.deadline_s = remaining * config_.search_budget_fraction;
    driver.limits.max_evaluations = request.max_evaluations > 0
                                        ? request.max_evaluations
                                        : config_.default_max_evaluations;
    driver.limits.max_faults = config_.fault_storm_evals;
    driver.telemetry = config_.telemetry;

    double mark = config_.clock();
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.search_attempt", "serve");
    SearchResult search = SearchDriver(ctx.objective, driver).run();
    span.end();
    rc.charge(RequestContext::kSearch, config_.clock() - mark);
    const bool stormed =
        search.fault_report.stop_reason == StopReason::FaultStorm;
    if (!stormed && ctx.checker.plan_is_legal(search.best)) {
      result.rung = ServeRung::FullSearch;
      result.plan = std::move(search.best);
      result.cost_s = search.best_cost_s;
      return;
    }
    // Fault storm: back off exponentially and retry. The objective's
    // quarantine survives the attempt, so the retry walks around the
    // faulting groups instead of re-triggering them.
    if (attempt < config_.max_retries) {
      ++result.retries;
      const double backoff = std::min(
          config_.backoff_base_s * static_cast<double>(1 << attempt),
          std::max(0.0, result.deadline_s - (config_.clock() - start_s)));
      double mark2 = config_.clock();
      {
        SpanTracer::Scope span2 =
            scoped_span(config_.telemetry, "serve.backoff", "serve");
        config_.sleep(backoff);
      }
      rc.charge(RequestContext::kBackoff, config_.clock() - mark2);
    }
  }

  // ---- rung 4: the always-legal floor ----
  result.rung = ServeRung::TrivialFloor;
  result.plan = FusionPlan(n);
  result.cost_s = result.baseline_cost_s;
}

void PlanServer::publish_flight(const std::shared_ptr<InFlight>& flight,
                                const ContextKey& key,
                                const ServeResult& result) {
  // Retire the entry first so a request arriving after publication starts a
  // fresh flight (it will usually be a StoreHit by then anyway) instead of
  // joining a finished one.
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->rung = result.rung;
    flight->plan = result.plan;
    flight->cost_s = result.cost_s;
    flight->retries = result.retries;
  }
  flight->cv.notify_all();
}

ServeResult PlanServer::reject_overload(const Program& program,
                                        const DeviceSpec& device,
                                        const ServeRequest& request) {
  KF_REQUIRE(program.num_kernels() > 0, "PlanServer: empty program");
  const double dequeue_s = config_.clock();
  const double start = request.enqueue_s >= 0.0
                           ? std::min(request.enqueue_s, dequeue_s)
                           : dequeue_s;
  ServeResult result;
  result.worker_id = request.worker_id;
  result.deadline_s =
      request.deadline_s > 0.0 ? request.deadline_s : config_.default_deadline_s;

  Context& ctx = context(program, device);
  const int n = ctx.expansion.program.num_kernels();
  result.num_kernels = n;
  result.baseline_cost_s = ctx.objective.baseline_cost();

  RequestContext rc;
  rc.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  rc.deadline_s = result.deadline_s;
  rc.trace_id = TraceId::derive(static_cast<std::uint64_t>(rc.seq),
                                ctx.key.program_fp, ctx.key.device_fp,
                                config_.trace_salt);
  TraceScope trace_scope(rc.trace_id);
  InflightGauge gauge(inflight_requests_, config_.telemetry);

  result.admission = AdmissionOutcome::RejectedOverload;
  result.rung = ServeRung::TrivialFloor;
  result.plan = FusionPlan(n);
  result.cost_s = result.baseline_cost_s;
  finish(result, &ctx, start, rc);
  return result;
}

ServeResult PlanServer::serve(const Program& program, const DeviceSpec& device,
                              const ServeRequest& request) {
  KF_REQUIRE(program.num_kernels() > 0, "PlanServer: empty program");

  // Engine-submitted requests carry their enqueue timestamp: the latency
  // and deadline clocks start when the request entered the system, not
  // when a worker picked it up, so time spent queued counts against the
  // deadline exactly like time spent searching.
  const double dequeue_s = config_.clock();
  const double start = request.enqueue_s >= 0.0
                           ? std::min(request.enqueue_s, dequeue_s)
                           : dequeue_s;
  ServeResult result;
  result.worker_id = request.worker_id;
  result.deadline_s =
      request.deadline_s > 0.0 ? request.deadline_s : config_.default_deadline_s;

  // The context (and its baseline) is needed on every path — even a
  // rejected request answers with a costed identity plan.
  Context& ctx = context(program, device);
  const int n = ctx.expansion.program.num_kernels();
  result.num_kernels = n;
  result.baseline_cost_s = ctx.objective.baseline_cost();

  // Request identity, created at admission: a deterministic trace id,
  // installed thread-locally so every sink reached below this frame
  // (spans, decisions, trace events, store journal, histogram exemplars)
  // stamps it without any parameter threading. TraceScope costs a 16-byte
  // TLS swap — nothing when telemetry is off.
  RequestContext rc;
  rc.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  rc.deadline_s = result.deadline_s;
  rc.trace_id = TraceId::derive(static_cast<std::uint64_t>(rc.seq),
                                ctx.key.program_fp, ctx.key.device_fp,
                                config_.trace_salt);
  TraceScope trace_scope(rc.trace_id);
  SpanTracer::Scope request_span =
      scoped_span(config_.telemetry, "serve.request", "serve");
  InflightGauge gauge(inflight_requests_, config_.telemetry);
  // Publishes this request into the flight recorder's in-flight table so a
  // fatal signal or a watchdog stall scan can name it while it runs.
  InflightMark inflight_mark(
      config_.telemetry != nullptr ? config_.telemetry->recorder : nullptr,
      request, rc, result.deadline_s, start);
  if (const Telemetry* t = config_.telemetry; t != nullptr && t->wants_trace()) {
    // Admission-side marker: `kfc top` pairs these with "serve_request"
    // completions (same trace id) to count in-flight requests.
    t->trace->emit("serve_start", [&](TraceEvent& e) {
      e.num("seq", rc.seq).num("deadline_s", result.deadline_s);
    });
  }

  // ---- engine queue wait (already spent before this frame) ----
  if (request.enqueue_s >= 0.0 && dequeue_s > request.enqueue_s) {
    const double waited = dequeue_s - request.enqueue_s;
    result.queue_wait_s += waited;
    rc.charge(RequestContext::kQueueWait, waited);
    if (const Telemetry* t = config_.telemetry;
        t != nullptr && t->metrics != nullptr)
      t->metrics->observe("serve.queue_wait_seconds", waited);
  }

  // ---- admission ----
  double mark = config_.clock();
  TokenBucket::Decision decision;
  {
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.admission", "serve");
    {
      // The token bucket is cheap arithmetic but not thread-safe itself.
      std::lock_guard<std::mutex> bucket_lock(bucket_mu_);
      decision = bucket_.admit(mark, config_.max_queue_depth);
    }
    // A queued request whose wait alone would blow the (remaining) deadline
    // is shed up front — honest rejection beats a guaranteed miss.
    const double remaining = result.deadline_s - (config_.clock() - start);
    if (decision.admitted && decision.wait_s >= remaining)
      decision.admitted = false;
  }
  rc.charge(RequestContext::kAdmission, config_.clock() - mark);
  inflight_mark.update(rc);
  if (!decision.admitted) {
    result.admission = AdmissionOutcome::Rejected;
    result.rung = ServeRung::TrivialFloor;
    result.plan = FusionPlan(n);
    result.cost_s = result.baseline_cost_s;
    finish(result, &ctx, start, rc);
    return result;
  }
  if (decision.wait_s > 0.0) {
    result.admission = AdmissionOutcome::Queued;
    result.queue_wait_s += decision.wait_s;
    mark = config_.clock();
    {
      SpanTracer::Scope span =
          scoped_span(config_.telemetry, "serve.queue_wait", "serve");
      config_.sleep(decision.wait_s);
    }
    rc.charge(RequestContext::kQueueWait, config_.clock() - mark);
  }

  // ---- rung 1: exact store hit ----
  {
    mark = config_.clock();
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.store_get", "serve");
    const bool hit = probe_store(ctx, result);
    span.end();
    rc.charge(RequestContext::kStoreGet, config_.clock() - mark);
    if (hit) {
      finish(result, &ctx, start, rc);
      return result;
    }
    inflight_mark.update(rc);
  }

  // ---- coalescing: concurrent misses on one key collapse to one search ----
  const ContextKey flight_key{ctx.key.program_fp, ctx.key.device_fp};
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    std::shared_ptr<InFlight>& entry = inflight_[flight_key];
    if (!entry) {
      entry = std::make_shared<InFlight>();
      leader = true;
    }
    flight = entry;
  }

  if (!leader) {
    // Follower: park until the leader publishes, bounded by this request's
    // own remaining deadline (real-time wait — coalescing only happens
    // under real concurrency, never under the tests' fake clocks).
    mark = config_.clock();
    SpanTracer::Scope span =
        scoped_span(config_.telemetry, "serve.coalesce_wait", "serve");
    const double remaining =
        std::max(0.0, result.deadline_s - (config_.clock() - start));
    bool published = false;
    {
      std::unique_lock<std::mutex> fl(flight->mu);
      coalesce_waiting_.fetch_add(1, std::memory_order_relaxed);
      published = flight->cv.wait_for(
          fl, std::chrono::duration<double>(remaining),
          [&] { return flight->done; });
      coalesce_waiting_.fetch_sub(1, std::memory_order_relaxed);
      if (published) {
        result.coalesced = true;
        result.rung = flight->rung;
        result.plan = flight->plan;
        result.cost_s = flight->cost_s;
        result.retries = flight->retries;
      }
    }
    span.end();
    rc.charge(RequestContext::kCoalesceWait, config_.clock() - mark);
    inflight_mark.update(rc);
    if (!published) {
      // The leader could not publish inside OUR deadline: honest floor.
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.coalesce_timeouts;
      }
      if (const Telemetry* t = config_.telemetry;
          t != nullptr && t->recorder != nullptr)
        t->recorder->state().coalesce_timeout_total.fetch_add(
            1, std::memory_order_relaxed);
      result.rung = ServeRung::TrivialFloor;
      result.plan = FusionPlan(n);
      result.cost_s = result.baseline_cost_s;
    }
    finish(result, &ctx, start, rc);
    return result;
  }

  // Leader. Between our store miss and winning the flight, a previous
  // leader may have published and written back — re-probe once so that
  // race serves a StoreHit instead of re-searching.
  if (probe_store(ctx, result)) {
    publish_flight(flight, flight_key, result);
    finish(result, &ctx, start, rc);
    return result;
  }
  if (config_.test_coalesce_hold) config_.test_coalesce_hold();

  try {
    miss_ladder(ctx, request, start, result, rc);
    inflight_mark.update(rc);
    if (result.rung == ServeRung::PolishedStored ||
        result.rung == ServeRung::FullSearch)
      write_back(ctx, result, rc);
  } catch (...) {
    // The ladder is no-throw by design; if that ever breaks, waiters still
    // get the always-legal floor instead of hanging to their deadlines.
    ServeResult floor;
    floor.rung = ServeRung::TrivialFloor;
    floor.plan = FusionPlan(n);
    floor.cost_s = result.baseline_cost_s;
    publish_flight(flight, flight_key, floor);
    throw;
  }
  publish_flight(flight, flight_key, result);
  finish(result, &ctx, start, rc);
  return result;
}

PlanServer::Stats PlanServer::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.coalesce_waiting = coalesce_waiting_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace kf
