// Harness of the repository benchmark (perfbench/METRICS.md).
//
// Drives the simulator only through its public API — the sweep builders and
// Runner for the sweep workloads, ShardedFleet for the fleet — and prints
// one JSON object with raw host timings, the counters each layer already
// exposes, the simulated outputs, and (traced repetitions only) spans taken
// around the calls into each layer. It does no statistics: perfbench/run.py
// runs it, and perfbench/metrics.py turns its records into metrics.
//
//   perfbench_harness rep --workload NAME --seed N [--traced]
//                         [--shards K --config cfs|vsched]   (fleet_dc only)
//   perfbench_harness kernels --pending D --armed A --rq-depth Q
//   perfbench_harness calibrate
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/perf_counters.h"
#include "src/base/time.h"
#include "src/cluster/fleet_spec.h"
#include "src/cluster/sharded_fleet.h"
#include "src/guest/runqueue.h"
#include "src/guest/task.h"
#include "src/metrics/experiment.h"
#include "src/runner/result_sink.h"
#include "src/runner/runner.h"
#include "src/runner/spec.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/timer_wheel.h"
#include "src/workloads/catalog.h"

namespace vsched {
namespace {

using Clock = std::chrono::steady_clock;

// Worker threads of every workload: Runner jobs for the sweeps, ShardedFleet
// shards for the fleet — never both above one. One fewer than the 4 cores
// this benchmark is sized for: the fleet's barrier every simulated
// millisecond waits for its slowest shard, so one busy process from outside
// slowed fleet_dc by 40% at 4 shards and not at all at 3.
constexpr int kThreads = 3;
// Extra sweep constructions timed per repetition so setup_s is a median of
// many samples of a sub-millisecond step.
constexpr int kSetupSamples = 41;
// The fleet's set-up (two ShardedFleet constructors) costs milliseconds.
constexpr int kFleetSetupSamples = 19;
// Long enough for every dc VM to arrive (1 s Poisson window) and be placed,
// and for consolidation to migrate.
constexpr TimeNs kFleetHorizon = MsToNs(1150);
// Fig 2 windows: 2 s warm-up as in the protocol, 30 s measured so each
// series' p95 is steady.
constexpr TimeNs kFig02Warmup = SecToNs(2);
constexpr TimeNs kFig02Measure = SecToNs(30);

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// A host-time interval around one call into a layer. `parent` indexes the
// enclosing span (-1 for a root); `lane` -1 leaves the Chrome-trace row to
// metrics.py (per-run spans, whose worker thread the Runner does not expose).
struct Span {
  std::string name;
  std::string cat;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int lane = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int Open(const std::string& name, const std::string& cat, int parent) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back(Span{name, cat, NowNs(), 0, parent, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int index) {
    if (index >= 0) {
      spans_[static_cast<size_t>(index)].end_ns = NowNs();
    }
  }
  void Add(Span span) {
    if (enabled_) {
      spans_.push_back(std::move(span));
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Minimal JSON object writer; keys are emitted in call order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) { return Raw(key, JsonNumber(v)); }
  JsonObject& Int(const std::string& key, int64_t v) { return Raw(key, std::to_string(v)); }
  JsonObject& UInt(const std::string& key, uint64_t v) { return Raw(key, std::to_string(v)); }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + JsonEscape(v) + "\"");
  }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + JsonEscape(key) + "\":") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

std::string CountersJson(const PerfCounters& c) {
  return JsonObject()
      .UInt("events_scheduled", c.events_scheduled)
      .UInt("events_executed", c.events_executed)
      .UInt("events_cancelled", c.events_cancelled)
      .UInt("callback_heap_allocs", c.callback_heap_allocs)
      .UInt("event_slab_allocs", c.event_slab_allocs)
      .UInt("rq_enqueues", c.rq_enqueues)
      .UInt("rq_dequeues", c.rq_dequeues)
      .UInt("rq_picks", c.rq_picks)
      .UInt("timer_arms", c.timer_arms)
      .UInt("timer_fires", c.timer_fires)
      .UInt("timer_cancels", c.timer_cancels)
      .UInt("timer_cascades", c.timer_cascades)
      .UInt("ticks_elided", c.ticks_elided)
      .str();
}

std::string SpansJson(const SpanLog& log) {
  std::vector<std::string> items;
  for (const Span& s : log.spans()) {
    items.push_back(JsonObject()
                        .Str("name", s.name)
                        .Str("cat", s.cat)
                        .Int("start_ns", s.start_ns)
                        .Int("end_ns", s.end_ns)
                        .Int("parent", s.parent)
                        .Int("lane", s.lane)
                        .str());
  }
  return JsonArray(items);
}

int64_t MedianOf(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---------------------------------------------------------------------------
// Sweep workloads: paper_sweep and fig02_tickless through Runner.
// ---------------------------------------------------------------------------

ExperimentSpec BuildSweep(const std::string& workload, uint64_t seed) {
  ExperimentSpec sweep;
  sweep.name = workload;
  if (workload == "paper_sweep") {
    for (ExperimentFamily family : {ExperimentFamily::kOverallRcvm, ExperimentFamily::kOverallHpvm}) {
      ExperimentSpec part = OverallSweep(family, seed);
      sweep.runs.insert(sweep.runs.end(), part.runs.begin(), part.runs.end());
    }
  } else {
    sweep = VcpuLatencySweep(seed, kFig02Warmup, kFig02Measure);
    sweep.name = workload;
    for (RunSpec& run : sweep.runs) {
      run.tickless = true;
    }
  }
  return sweep;
}

std::string RunRowJson(const RunResult& r, int64_t done_ns) {
  const RunMetrics& m = r.metrics;
  return JsonObject()
      .Str("id", r.spec.Id())
      .Str("family", FamilyName(r.spec.family))
      .Str("workload", r.spec.workload)
      .Str("config", r.spec.config)
      .Str("kind", MetricFor(r.spec.workload) == MetricKind::kP95Latency ? "p95" : "tput")
      .Num("vcpu_latency_ms", NsToMs(r.spec.vcpu_latency))
      .Bool("best_effort", r.spec.best_effort)
      .Str("status", RunStatusName(r.status))
      .Int("attempts", r.attempts)
      .Int("wall_ns", r.wall_ns)
      .Int("done_ns", done_ns)
      .Num("perf", m.Get("perf"))
      .Num("p95_ns", m.Get("p95_ns"))
      .Num("completed", m.Get("completed"))
      .Num("migrations", m.Get("migrations"))
      .Raw("counters", CountersJson(r.counters))
      .str();
}

// vCPUs of the deployment a sweep family builds (runqueues per run).
int VcpusOf(ExperimentFamily family) {
  switch (family) {
    case ExperimentFamily::kOverallRcvm:
      return static_cast<int>(MakeRcvmSpec().vcpus.size());
    case ExperimentFamily::kOverallHpvm:
      return static_cast<int>(MakeHpvmSpec().vcpus.size());
    default:
      return 32;  // the Fig 2 protocol's flat 32-vCPU VM
  }
}

std::string RunSweepRep(const std::string& workload, uint64_t seed, bool traced) {
  SpanLog log(traced);
  std::vector<int64_t> setup_ns;
  // Untimed-by-wall setup samples: the same construction the workload does.
  for (int i = 0; i < kSetupSamples; ++i) {
    int64_t t = NowNs();
    ExperimentSpec probe = BuildSweep(workload, seed);
    setup_ns.push_back(NowNs() - t);
  }

  int64_t start = NowNs();
  int root = log.Open("workload:" + workload, "workload", -1);
  int setup_span = log.Open("setup:sweep_build", "runner", root);
  int64_t t = NowNs();
  ExperimentSpec sweep = BuildSweep(workload, seed);
  setup_ns.push_back(NowNs() - t);
  log.Close(setup_span);

  std::vector<int64_t> done_ns(sweep.runs.size(), 0);
  RunnerOptions options;
  // fig02_tickless runs serially: its 24 runs differ up to 8x in length, and
  // on 3 workers the order they finish in moved its wall time by 20% across
  // seeds.
  options.jobs = workload == "paper_sweep" ? kThreads : 1;
  if (traced) {
    // Invoked under the Runner's progress lock, so the writes never race.
    options.on_run_done = [&done_ns](const RunResult& r) {
      done_ns[static_cast<size_t>(r.index)] = NowNs();
    };
  }
  Runner runner(options);
  int run_span = log.Open("runner.Run", "runner", root);
  std::vector<RunResult> results = runner.Run(sweep);
  log.Close(run_span);

  std::ostringstream sink_out;
  ResultSink sink(&sink_out);
  int sink_span = log.Open("result_sink.Write", "runner", root);
  for (const RunResult& r : results) {
    sink.Write(r);
  }
  log.Close(sink_span);
  log.Close(root);
  int64_t wall = NowNs() - start;

  std::vector<std::string> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    rows.push_back(RunRowJson(results[i], done_ns[i]));
    if (traced) {
      // Reconstructed from outside: the run ended when on_run_done fired and
      // lasted its own RunResult::wall_ns.
      log.Add(Span{"run:" + results[i].spec.Id(), "run", done_ns[i] - results[i].wall_ns,
                   done_ns[i], run_span, -1});
    }
  }

  // Per-run deployment set-up cost: the same specs with zero windows, run
  // serially. Their counters show the deployment right after set-up: the
  // periodic timers armed and the events pending when a run starts.
  std::vector<std::string> zero_runs;
  if (traced) {
    int probe_span = log.Open("ExecuteRun(zero windows)", "runner", -1);
    for (const RunSpec& spec : sweep.runs) {
      RunSpec zero = spec;
      zero.warmup = 0;
      zero.measure = 0;
      PerfCounters counters;
      int64_t t0 = NowNs();
      {
        PerfCounters::Scope scope(&counters);
        ExecuteRun(zero);
      }
      zero_runs.push_back(JsonObject()
                              .Str("family", FamilyName(spec.family))
                              .Str("config", spec.config)
                              .Int("vcpus", VcpusOf(spec.family))
                              .Int("ns", NowNs() - t0)
                              .Raw("counters", CountersJson(counters))
                              .str());
    }
    log.Close(probe_span);
  }

  std::vector<std::string> setup_items;
  for (int64_t s : setup_ns) {
    setup_items.push_back(std::to_string(s));
  }
  return JsonObject()
      .Str("workload", workload)
      .UInt("seed", seed)
      .Bool("traced", traced)
      .Int("jobs", options.jobs)
      .Int("shards", 1)
      .Int("wall_ns", wall)
      .Raw("setup_ns", JsonArray(setup_items))
      .Raw("runs", JsonArray(rows))
      .Raw("zero_window_runs", JsonArray(zero_runs))
      .Raw("fleets", "[]")
      .Str("sink_text", sink_out.str())
      .Raw("spans", SpansJson(log))
      .str();
}

// ---------------------------------------------------------------------------
// fleet_dc: the dc preset under {cfs, vsched} guests on ShardedFleet.
// ---------------------------------------------------------------------------

std::string TotalsJson(const std::string& config, const FleetTotals& t) {
  return JsonObject()
      .Str("config", config)
      .UInt("requests", t.requests)
      .UInt("slo_violations", t.slo_violations)
      .Num("fleet_p50_ns", t.fleet_p50_ns)
      .Num("fleet_p95_ns", t.fleet_p95_ns)
      .Num("fleet_p99_ns", t.fleet_p99_ns)
      .Num("fleet_mean_ns", t.fleet_mean_ns)
      .Num("tenant_p99_p50_ns", t.tenant_p99_p50_ns)
      .Num("tenant_p99_p95_ns", t.tenant_p99_p95_ns)
      .Num("tenant_p99_max_ns", t.tenant_p99_max_ns)
      .Int("vms_placed", t.vms_placed)
      .Int("vms_rejected", t.vms_rejected)
      .Int("vms_departed", t.vms_departed)
      .UInt("batch_chunks", t.batch_chunks)
      .UInt("migrations", t.migrations)
      .Int("hosts_booted", t.hosts_booted)
      .Int("hosts_shutdown", t.hosts_shutdown)
      .Int("hosts_on_at_end", t.hosts_on_at_end)
      .Num("host_util_mean", t.host_util_mean)
      .Num("energy_j", t.energy_j)
      .UInt("fault_applied", t.fault_applied)
      .UInt("adversary_activations", t.adversary_activations)
      .Int("degraded_tenants", t.degraded_tenants)
      .UInt("pessimistic_publishes", t.pessimistic_publishes)
      .UInt("quarantine_events", t.quarantine_events)
      .str();
}

// `only_config` (when non-empty) keeps one guest config of the sweep.
std::string RunFleetRep(uint64_t seed, bool traced, int shards, const std::string& only_config) {
  SpanLog log(traced);
  // Untimed-by-wall setup samples: the preset lookup, sweep build and both
  // constructors the workload runs, without running the fleets.
  std::vector<int64_t> setup_ns;
  for (int i = 0; i < kFleetSetupSamples; ++i) {
    int64_t t0 = NowNs();
    FleetSpec probe_spec;
    LookupFleetSpec("dc", &probe_spec);
    ExperimentSpec probe_sweep = FleetSweep("dc", seed, 0, kFleetHorizon);
    int64_t total = NowNs() - t0;
    for (const RunSpec& run : probe_sweep.runs) {
      int64_t c0 = NowNs();
      ShardedFleet probe(probe_spec, run.seed, OptionsForConfig(run.config), shards);
      total += NowNs() - c0;  // the destructor is not set-up
    }
    setup_ns.push_back(total);
  }

  int64_t start = NowNs();
  int root = log.Open("workload:fleet_dc", "workload", -1);
  int lookup_span = log.Open("setup:preset_lookup", "cluster", root);
  int64_t t = NowNs();
  FleetSpec spec;
  if (!LookupFleetSpec("dc", &spec)) {
    std::fprintf(stderr, "perfbench_harness: fleet preset 'dc' not found\n");
    std::exit(1);
  }
  ExperimentSpec sweep = FleetSweep("dc", seed, 0, kFleetHorizon);
  if (!only_config.empty()) {
    sweep.Filter("/" + only_config);
  }
  int64_t setup = NowNs() - t;
  log.Close(lookup_span);

  std::vector<std::string> fleets;
  std::string sink_text;
  for (const RunSpec& run : sweep.runs) {
    int config_span = log.Open("fleet:" + run.config, "cluster", root);
    PerfCounters counters;
    int64_t ctor_start = NowNs();
    int ctor_span = log.Open("ShardedFleet::ShardedFleet", "cluster", config_span);
    PerfCounters::Scope scope(&counters);
    auto fleet = std::make_unique<ShardedFleet>(spec, run.seed, OptionsForConfig(run.config),
                                                shards);
    log.Close(ctor_span);
    int64_t ctor_ns = NowNs() - ctor_start;
    setup += ctor_ns;

    // Queue depths of each cell's Simulation right after set-up, read
    // through the hosts' public machine handles (one Simulation per cell).
    std::vector<int64_t> pending, armed;
    for (int h = 0; h < spec.hosts; h += spec.cell_hosts) {
      Simulation* sim = fleet->host(h).machine->sim();
      pending.push_back(static_cast<int64_t>(sim->queue().PendingCount()));
      armed.push_back(static_cast<int64_t>(sim->wheel().ArmedCount()));
    }

    TimeNs horizon = run.warmup + run.measure;
    int64_t cpu_start = ProcessCpuNs();
    int64_t run_start = NowNs();
    int run_span = log.Open("ShardedFleet::Run", "cluster", config_span);
    fleet->Run(horizon);
    log.Close(run_span);
    int64_t run_ns = NowNs() - run_start;
    int64_t cpu_ns = ProcessCpuNs() - cpu_start;

    std::string totals = TotalsJson(run.config, fleet->totals());
    sink_text += totals + "\n";
    fleets.push_back(JsonObject()
                         .Str("config", run.config)
                         .Int("ctor_ns", ctor_ns)
                         .Int("run_ns", run_ns)
                         .Int("cpu_ns", cpu_ns)
                         .Int("horizon_ns", horizon)
                         .Int("window_ns", fleet->window())
                         .Int("cells", fleet->num_cells())
                         .UInt("events", fleet->events_dispatched())
                         .Int("vms", spec.vms)
                         .Int("vcpus_per_vm", spec.vcpus_per_vm)
                         .Int("pending_per_cell", MedianOf(pending))
                         .Int("armed_per_cell", MedianOf(armed))
                         .Raw("totals", totals)
                         .Raw("counters", CountersJson(counters))
                         .str());
    int teardown_span = log.Open("ShardedFleet::~ShardedFleet", "cluster", config_span);
    fleet.reset();
    log.Close(teardown_span);
    log.Close(config_span);
  }
  log.Close(root);
  int64_t wall = NowNs() - start;

  setup_ns.push_back(setup);
  std::vector<std::string> setup_items;
  for (int64_t v : setup_ns) {
    setup_items.push_back(std::to_string(v));
  }
  return JsonObject()
      .Str("workload", "fleet_dc")
      .UInt("seed", seed)
      .Bool("traced", traced)
      .Int("jobs", 1)
      .Int("shards", shards)
      .Int("wall_ns", wall)
      .Raw("setup_ns", JsonArray(setup_items))
      .Raw("runs", "[]")
      .Raw("zero_window_runs", "[]")
      .Raw("fleets", JsonArray(fleets))
      .Str("sink_text", sink_text)
      .Raw("spans", SpansJson(log))
      .str();
}

// ---------------------------------------------------------------------------
// Layer-cost kernels: the public EventQueue / TimerWheel / Runqueue
// operations at the depths a traced run observed.
// ---------------------------------------------------------------------------

constexpr int kKernelTrials = 5;

// Every dispatched event schedules its successor a random 1..1000 ns ahead,
// so `depth` events stay pending throughout.
double EventQueueNsPerEvent(size_t depth, uint64_t events) {
  std::vector<int64_t> trial_ns;
  for (int trial = 0; trial < kKernelTrials; ++trial) {
    EventQueue q;
    Rng rng(0xE0E0u + static_cast<uint64_t>(trial));
    uint64_t scheduled = 0;
    struct Ctx {
      EventQueue* q;
      Rng* rng;
      uint64_t* scheduled;
      uint64_t limit;
    } ctx{&q, &rng, &scheduled, events};
    struct Fire {
      Ctx* c;
      void operator()() const {
        if (*c->scheduled < c->limit) {
          ++*c->scheduled;
          c->q->ScheduleAfter(1 + static_cast<TimeNs>(c->rng->NextU64() % 1000), Fire{c});
        }
      }
    };
    for (size_t i = 0; i < depth; ++i) {
      ++scheduled;
      q.ScheduleAfter(1 + static_cast<TimeNs>(rng.NextU64() % 1000), Fire{&ctx});
    }
    int64_t start = NowNs();
    while (q.RunOne()) {
    }
    trial_ns.push_back(NowNs() - start);
  }
  return static_cast<double>(MedianOf(trial_ns)) / static_cast<double>(events);
}

// `armed` periodic timers with periods spread over 1..20 ms (guest ticks to
// host bandwidth periods); every firing re-arms its own timer.
double TimerWheelNsPerFire(size_t armed, uint64_t fires) {
  std::vector<int64_t> trial_ns;
  for (int trial = 0; trial < kKernelTrials; ++trial) {
    TimerWheel wheel;
    Rng rng(0x7177u + static_cast<uint64_t>(trial));
    std::vector<TimerId> ids(armed);
    std::vector<TimeNs> deadline(armed), period(armed);
    uint64_t fired = 0;
    for (size_t i = 0; i < armed; ++i) {
      period[i] = MsToNs(1) + static_cast<TimeNs>(rng.NextU64() % static_cast<uint64_t>(MsToNs(19)));
      ids[i] = wheel.Register([&, i] {
        ++fired;
        deadline[i] += period[i];
        wheel.Arm(ids[i], deadline[i]);
      });
    }
    int64_t start = NowNs();
    for (size_t i = 0; i < armed; ++i) {
      deadline[i] = period[i];
      wheel.Arm(ids[i], deadline[i]);
    }
    while (fired < fires) {
      wheel.RunOne(wheel.NextDeadlineAtMost(kTimeInfinity - 1));
    }
    trial_ns.push_back(NowNs() - start);
  }
  return static_cast<double>(MedianOf(trial_ns)) / static_cast<double>(fires);
}

struct IdleBehavior : TaskBehavior {
  TaskAction Next(TaskContext&, RunReason) override { return TaskAction::Exit(); }
};

// Pick / dequeue / advance vruntime / re-enqueue over `depth` queued tasks —
// the guest kernel's per-dispatch sequence. Reports ns per runqueue call.
double RunqueueNsPerOp(size_t depth, uint64_t cycles) {
  std::vector<int64_t> trial_ns;
  for (int trial = 0; trial < kKernelTrials; ++trial) {
    IdleBehavior behavior;
    Rng rng(0x5EEDu + static_cast<uint64_t>(trial));
    std::vector<std::unique_ptr<Task>> tasks;
    Runqueue rq;
    for (size_t i = 0; i < depth; ++i) {
      tasks.push_back(std::make_unique<Task>(i + 1, "t" + std::to_string(i), TaskPolicy::kNormal,
                                             &behavior, CpuMask::FirstN(1)));
      TaskAccess::SetVruntime(tasks.back().get(), rng.Uniform(0, 1e6));
      rq.Enqueue(tasks.back().get());
    }
    int64_t start = NowNs();
    for (uint64_t op = 0; op < cycles; ++op) {
      Task* task = rq.Pick();
      rq.Dequeue(task);
      TaskAccess::SetVruntime(task, task->vruntime() + rng.Uniform(1e3, 1e5));
      rq.RaiseMinVruntime(task->vruntime());
      rq.Enqueue(task);
    }
    trial_ns.push_back(NowNs() - start);
  }
  // Three runqueue calls (pick, dequeue, enqueue) per cycle.
  return static_cast<double>(MedianOf(trial_ns)) / static_cast<double>(3 * cycles);
}

std::string RunKernels(size_t pending, size_t armed, size_t rq_depth) {
  SpanLog log(true);
  int root = log.Open("layer_kernels", "kernel", -1);
  int s = log.Open("EventQueue", "sim", root);
  double ns_event = EventQueueNsPerEvent(std::max<size_t>(pending, 1), 2'000'000);
  log.Close(s);
  s = log.Open("TimerWheel", "sim", root);
  double ns_fire = TimerWheelNsPerFire(std::max<size_t>(armed, 1), 2'000'000);
  log.Close(s);
  s = log.Open("Runqueue", "guest", root);
  double ns_rq = RunqueueNsPerOp(std::max<size_t>(rq_depth, 1), 1'000'000);
  log.Close(s);
  log.Close(root);
  return JsonObject()
      .UInt("pending", pending)
      .UInt("armed", armed)
      .UInt("rq_depth", rq_depth)
      .Num("ns_per_event", ns_event)
      .Num("ns_per_timer_fire", ns_fire)
      .Num("ns_per_rq_op", ns_rq)
      .Raw("spans", SpansJson(log))
      .str();
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

// Fixed integer work, recorded beside the metrics as a machine fingerprint
// and never used to scale them.
std::string RunCalibrate() {
  std::vector<int64_t> trial_ns;
  uint64_t sink = 0;
  for (int trial = 0; trial < 3; ++trial) {
    uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(trial);
    int64_t start = NowNs();
    for (int i = 0; i < 100'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sink += x;
    }
    trial_ns.push_back(NowNs() - start);
  }
  return JsonObject()
      .Num("calibration_ms", static_cast<double>(MedianOf(trial_ns)) / 1e6)
      .Str("compiler", kCompiler)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .UInt("checksum", sink)
      .str();
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness rep --workload paper_sweep|fleet_dc|fig02_tickless "
               "--seed N [--traced] [--shards K --config cfs|vsched]\n"
               "       perfbench_harness kernels --pending D --armed A --rq-depth Q\n"
               "       perfbench_harness calibrate\n");
  std::exit(2);
}

uint64_t ParseU64(const char* s) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    Usage();
  }
  return static_cast<uint64_t>(v);
}

}  // namespace
}  // namespace vsched

int main(int argc, char** argv) {
  using namespace vsched;
  if (argc < 2) {
    Usage();
  }
  std::string mode = argv[1];
  std::string workload;
  std::string only_config;
  uint64_t seed = 0, pending = 0, armed = 0, rq_depth = 0, shards = kThreads;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      traced = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = ParseU64(argv[++i]);
    } else if (arg == "--shards" && has_value) {
      shards = ParseU64(argv[++i]);
    } else if (arg == "--config" && has_value) {
      only_config = argv[++i];
    } else if (arg == "--pending" && has_value) {
      pending = ParseU64(argv[++i]);
    } else if (arg == "--armed" && has_value) {
      armed = ParseU64(argv[++i]);
    } else if (arg == "--rq-depth" && has_value) {
      rq_depth = ParseU64(argv[++i]);
    } else {
      Usage();
    }
  }
  NowNs();  // pins the span epoch at process start
  std::string out;
  if (mode == "rep") {
    if (workload == "paper_sweep" || workload == "fig02_tickless") {
      out = RunSweepRep(workload, seed, traced);
    } else if (workload == "fleet_dc") {
      if (shards < 1 || shards > kThreads) {
        Usage();
      }
      out = RunFleetRep(seed, traced, static_cast<int>(shards), only_config);
    } else {
      Usage();
    }
  } else if (mode == "kernels") {
    out = RunKernels(pending, armed, rq_depth);
  } else if (mode == "calibrate") {
    out = RunCalibrate();
  } else {
    Usage();
  }
  std::printf("%s\n", out.c_str());
  return 0;
}
