"""Arithmetic of the repository benchmark: statistics, fidelity against the
paper, span self time, and the per-layer metrics (see METRICS.md).

Everything here is a pure function of the records perfbench_harness prints,
so test_metrics.py can check it without building the simulator.
"""

import hashlib
import math
import re
import statistics

WORKLOADS = ("paper_sweep", "fleet_dc", "fig02_tickless")

# Paper targets (EuroSys'25, Figs 18/19 summary and Fig 2).
PAPER = {
    "fig18.tput_gain": 1.69,
    "fig18.p95_gain": 1.6,
    "fig19.tput_gain": 1.18,
    "fig19.p95_gain": 2.3,
    "fig02.p95_blowup": 20.0,
}

# Metrics printed with --trace 0, in order, with their units.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Metrics printed with --trace 1, in order, with their units. Every workload
# prints every name; a layer a workload does not exercise reads 0.
PER_LAYER = (
    ("runner.run_wall_p50_ms", "ms"),
    ("runner.run_wall_p90_ms", "ms"),
    ("runner.run_wall_tail_ms", "ms"),
    ("runner.run_wall_tail_pct", "%"),
    ("runner.run_wall_max_ms", "ms"),
    ("runner.run_wall_samples", "count"),
    ("runner.pool_util", "ratio"),
    ("runner.tail_s", "s"),
    ("runner.setup_ms_per_run.rcvm", "ms"),
    ("runner.setup_ms_per_run.hpvm", "ms"),
    ("runner.setup_ms_per_run.fig02", "ms"),
    ("runner.sink_ms", "ms"),
    ("runner.retries", "count"),
    ("runner.runs_failed_frac", "ratio"),
    ("sim.events", "count"),
    ("sim.events_cancelled", "count"),
    ("sim.timer_arms", "count"),
    ("sim.timer_fires", "count"),
    ("sim.timer_fires.cfs", "count"),
    ("sim.timer_fires.enhanced", "count"),
    ("sim.timer_fires.vsched", "count"),
    ("sim.timer_cancels", "count"),
    ("sim.timer_cascades", "count"),
    ("sim.ticks_elided", "count"),
    ("sim.callback_heap_allocs", "count"),
    ("sim.slab_allocs", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.pending_depth", "count"),
    ("sim.armed_timers", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.ns_per_timer_fire", "ns"),
    ("sim.timer_share", "ratio"),
    ("guest.rq_picks", "count"),
    ("guest.rq_enqueues", "count"),
    ("guest.rq_dequeues", "count"),
    ("guest.migrations", "count"),
    ("guest.rq_depth", "count"),
    ("guest.ns_per_rq_op", "ns"),
    ("guest.rq_share", "ratio"),
    ("probe.enhanced_wall_ratio.rcvm", "ratio"),
    ("probe.enhanced_wall_ratio.hpvm", "ratio"),
    ("probe.extra_timer_fires", "count"),
    ("core.vsched_wall_ratio.rcvm", "ratio"),
    ("core.vsched_wall_ratio.hpvm", "ratio"),
    ("workloads.completed", "count"),
    ("workloads.host_us_per_request", "us"),
    ("cluster.setup_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.sim_ms_per_s", "sim_ms/s"),
    ("cluster.cells", "count"),
    ("cluster.barriers", "count"),
    ("cluster.events", "count"),
    ("cluster.cpu_util", "ratio"),
    ("cluster.shard_speedup", "ratio"),
    ("cluster.vms_placed", "count"),
    ("cluster.migrations", "count"),
    ("cluster.hosts_booted", "count"),
    ("fig18.tput_gain", "ratio"),
    ("fig18.p95_gain", "ratio"),
    ("fig19.tput_gain", "ratio"),
    ("fig19.p95_gain", "ratio"),
    ("fig02.p95_blowup", "ratio"),
    ("fidelity.rcvm_err", "ratio"),
    ("fidelity.hpvm_err", "ratio"),
    ("fidelity.fig02_err", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("machine.calibration_ms", "ms"),
)

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name):
    return bool(_NAME_RE.match(name))


def valid_unit(unit):
    return bool(_UNIT_RE.match(unit))


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, min_beyond=10):
    """The highest percentile with at least `min_beyond` samples beyond it,
    as (pct, value); (0, 0) when there are too few samples for any."""
    n = len(values)
    if n <= min_beyond:
        return 0.0, 0.0
    pct = 100.0 * (n - min_beyond) / n
    return pct, percentile(values, pct)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def log_err(measured, paper):
    """|ln(measured / paper)|: symmetric relative error, 0 when equal."""
    return abs(math.log(measured / paper))


# --------------------------------------------------------------------------
# Fidelity against the paper
# --------------------------------------------------------------------------

def overall_gains(runs, family):
    """(throughput gain, p95 gain) of vSched over CFS for one Fig 18/19
    family: geomeans of vsched/cfs "perf" over the throughput and the
    latency-sensitive workloads (perf is 1/p95 for the latter). Workloads
    missing any of the three configs are skipped, as the repo's report does.
    """
    perf = {}
    kind = {}
    for run in runs:
        if run["family"] != family or run["status"] != "ok":
            continue
        perf.setdefault(run["workload"], {})[run["config"]] = run["perf"]
        kind[run["workload"]] = run["kind"]
    tput, lat = [], []
    for workload, by_config in perf.items():
        cfs = by_config.get("cfs", 0)
        enhanced = by_config.get("enhanced", 0)
        full = by_config.get("vsched", 0)
        if cfs > 0 and enhanced > 0 and full > 0:
            (lat if kind[workload] == "p95" else tput).append(full / cfs)
    return (geomean(tput) if tput else 0.0), (geomean(lat) if lat else 0.0)


def fig02_blowup(runs):
    """Largest p95(16 ms) / p95(2 ms) over the app x best-effort series."""
    series = {}
    for run in runs:
        if run["family"] != "fig02" or run["status"] != "ok":
            continue
        key = (run["workload"], run["best_effort"])
        series.setdefault(key, {})[run["vcpu_latency_ms"]] = run["p95_ns"]
    ratios = [s[16] / s[2] for s in series.values() if s.get(2, 0) > 0 and 16 in s]
    return max(ratios) if ratios else 0.0


def fidelity(runs):
    """Figure gains and their log errors against the paper; zeros for the
    figures this workload does not run."""
    out = {}
    for fig, family in (("fig18", "fig18_rcvm"), ("fig19", "fig19_hpvm")):
        tput, p95 = overall_gains(runs, family)
        out[fig + ".tput_gain"] = tput
        out[fig + ".p95_gain"] = p95
    out["fig02.p95_blowup"] = fig02_blowup(runs)
    for name, (a, b) in (("fidelity.rcvm_err", ("fig18.tput_gain", "fig18.p95_gain")),
                         ("fidelity.hpvm_err", ("fig19.tput_gain", "fig19.p95_gain"))):
        ok = out[a] > 0 and out[b] > 0
        out[name] = (log_err(out[a], PAPER[a]) + log_err(out[b], PAPER[b])) / 2 if ok else 0.0
    blowup = out["fig02.p95_blowup"]
    out["fidelity.fig02_err"] = log_err(blowup, PAPER["fig02.p95_blowup"]) if blowup > 0 else 0.0
    return out


# --------------------------------------------------------------------------
# Correctness
# --------------------------------------------------------------------------

def digest(rep):
    """SHA-256 of a repetition's simulated outputs: the JSONL rows the
    ResultSink wrote (no wall fields) or the fleets' FleetTotals."""
    return hashlib.sha256(rep["sink_text"].encode()).hexdigest()


def run_statuses(rep):
    """Status of every simulation run in a repetition."""
    return [r["status"] for r in rep["runs"]] + ["ok" for _ in rep["fleets"]]


def correctness_errors(workload, reps, single=None):
    """Every reason the repetitions' outputs are wrong; empty when correct.
    `single` is fleet_dc's 1-shard pass of the cfs fleet, whose totals must
    equal the sharded run's: the engine's output is the same at any shard
    count."""
    errors = []
    for rep in reps + ([single] if single else []):
        bad = [r["id"] for r in rep["runs"] if r["status"] != "ok"]
        if bad:
            errors.append("runs not ok: " + ", ".join(bad[:5]))
        for fleet in rep["fleets"]:
            totals = fleet["totals"]
            if totals["vms_placed"] < fleet["vms"]:
                errors.append("fleet %s placed %d of %d VMs"
                              % (fleet["config"], totals["vms_placed"], fleet["vms"]))
            if totals["migrations"] == 0:
                errors.append("fleet %s made zero migrations" % fleet["config"])
    digests = {digest(rep) for rep in reps}
    if len(digests) != 1:
        errors.append("simulated outputs differ across repetitions (%d digests)" % len(digests))
    if single and single["sink_text"] != reps[0]["sink_text"].splitlines(True)[0]:
        errors.append("1-shard fleet totals differ from the sharded run's")
    if not errors:
        fid = fidelity(reps[0]["runs"])
        # The paper's figure shapes: vSched beats CFS on rcvm in throughput
        # and tail latency, and p95 grows with vCPU latency.
        if workload == "paper_sweep" and not (fid["fig18.tput_gain"] > 1 and
                                              fid["fig18.p95_gain"] > 1):
            errors.append("vSched does not beat CFS on rcvm: %r" % fid)
        if workload == "fig02_tickless" and not fid["fig02.p95_blowup"] > 1:
            errors.append("p95 does not grow with vCPU latency: %r" % fid)
    return errors


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------

def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: duration minus the part of it its children cover."""
    children = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(span)
    out = []
    for i, span in enumerate(spans):
        clipped = [(max(c["start_ns"], span["start_ns"]), min(c["end_ns"], span["end_ns"]))
                   for c in children.get(i, [])]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append(span["end_ns"] - span["start_ns"] - covered(clipped))
    return out


def assign_lanes(spans, first_lane=1):
    """Gives every span with lane -1 the lowest lane free at its start, so
    concurrent runs land on separate rows (one per busy worker)."""
    lane_free_at = []
    order = sorted((s["start_ns"], i) for i, s in enumerate(spans) if s["lane"] < 0)
    for _, i in order:
        span = spans[i]
        for lane, free_at in enumerate(lane_free_at):
            if free_at <= span["start_ns"]:
                lane_free_at[lane] = span["end_ns"]
                span["lane"] = first_lane + lane
                break
        else:
            lane_free_at.append(span["end_ns"])
            span["lane"] = first_lane + len(lane_free_at) - 1
    return spans


def concat_spans(groups):
    """Joins span lists recorded by separate processes (each with its own
    clock epoch): each group is shifted to start after the previous one
    ends and its parent indices are rebased."""
    out = []
    offset = 0
    for group in groups:
        if not group:
            continue
        base = len(out)
        shift = offset - min(s["start_ns"] for s in group)
        for s in group:
            s = dict(s, start_ns=s["start_ns"] + shift, end_ns=s["end_ns"] + shift)
            if s["parent"] >= 0:
                s["parent"] += base
            out.append(s)
        offset = max(s["end_ns"] for s in out)
    return out


def idle_tail_ns(run_spans, end_ns):
    """Time from the first worker going idle for good to `end_ns`. After
    the last run starts no new work exists, so the first run to finish at
    or after that moment frees a worker that stays idle."""
    if not run_spans:
        return 0
    last_start = max(s["start_ns"] for s in run_spans)
    first_idle = min(s["end_ns"] for s in run_spans if s["end_ns"] >= last_start)
    return max(0, end_ns - first_idle)


def chrome_trace(spans, metadata):
    """Chrome trace-event JSON (opens in Perfetto): one complete event per
    span, times in microseconds, self time and parent in args."""
    selfs = self_times(spans)
    events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "benchmark"}}]
    for lane in sorted({s["lane"] for s in spans if s["lane"] > 0}):
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                       "args": {"name": "runner worker slot %d" % lane}})
    for i, span in enumerate(spans):
        parent = span["parent"]
        events.append({
            "name": span["name"], "cat": span["cat"], "ph": "X", "pid": 1,
            "tid": span["lane"], "ts": span["start_ns"] / 1e3,
            "dur": (span["end_ns"] - span["start_ns"]) / 1e3,
            "args": {"span": i, "parent": parent,
                     "parent_name": spans[parent]["name"] if parent >= 0 else None,
                     "self_us": selfs[i] / 1e3},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}


def span_named(spans, name):
    for span in spans:
        if span["name"] == name:
            return span
    return None


def span_ns(spans, name):
    span = span_named(spans, name)
    return span["end_ns"] - span["start_ns"] if span else 0


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def end_to_end(reps, rss_kib):
    """wall_s, setup_s and peak_rss_mb of the untraced repetitions: medians
    over repetitions (setup_s over every set-up sample of every one)."""
    setups = [ns for rep in reps for ns in rep["setup_ns"]]
    return {
        "wall_s": median([rep["wall_ns"] for rep in reps]) / 1e9,
        "setup_s": median(setups) / 1e9,
        "peak_rss_mb": median(rss_kib) / 1024.0,
    }


def sum_counters(items):
    total = {}
    for item in items:
        for key, value in item["counters"].items():
            total[key] = total.get(key, 0) + value
    return total


def kernel_depths(traced):
    """(pending events, armed timers, queued tasks per runqueue) that the
    traced run observed, for the layer-cost kernels.

    Sweeps: from the zero-window set-up probe. Tearing a deployment down
    right after set-up disarms every timer it armed (timer_cancels) and
    leaves its pending events (scheduled - executed). Tasks queued per
    runqueue are enqueues - dequeues over the deployment's vCPUs.
    Fleet: the cell Simulations' own pending and armed counts right after
    the constructor, and queued tasks at the horizon over the live tenants'
    vCPUs."""
    zero = traced["zero_window_runs"]
    if zero:
        pending = median([z["counters"]["events_scheduled"] - z["counters"]["events_executed"]
                          for z in zero])
        armed = median([z["counters"]["timer_cancels"] for z in zero])
        rq = median([(z["counters"]["rq_enqueues"] - z["counters"]["rq_dequeues"]) / z["vcpus"]
                     for z in zero])
    else:
        fleets = traced["fleets"]
        pending = median([f["pending_per_cell"] for f in fleets])
        armed = median([f["armed_per_cell"] for f in fleets])
        rq = median([(f["counters"]["rq_enqueues"] - f["counters"]["rq_dequeues"]) /
                     max(1, (f["totals"]["vms_placed"] - f["totals"]["vms_departed"]) *
                         f["vcpus_per_vm"]) for f in fleets])
    return pending, armed, rq


def per_layer(reps, traced, kernels, single, calibration_ms, attempted, failed):
    """Every PER_LAYER metric from the untraced repetitions, the traced
    one, the layer kernels and (fleet_dc) the 1-shard pass."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    spans = traced["spans"]
    runs = traced["runs"]
    fleets = traced["fleets"]

    # runner
    if runs:
        walls_ms = [r["wall_ns"] / 1e6 for r in runs]
        tail_pct, tail_ms = tail_percentile(walls_ms)
        m["runner.run_wall_p50_ms"] = percentile(walls_ms, 50)
        m["runner.run_wall_p90_ms"] = percentile(walls_ms, 90)
        m["runner.run_wall_tail_ms"] = tail_ms
        m["runner.run_wall_tail_pct"] = tail_pct
        m["runner.run_wall_max_ms"] = max(walls_ms)
        m["runner.run_wall_samples"] = len(walls_ms)
        m["runner.pool_util"] = (sum(r["wall_ns"] for r in runs) /
                                 (traced["wall_ns"] * traced["jobs"]))
        run_spans = [s for s in spans if s["cat"] == "run"]
        m["runner.tail_s"] = idle_tail_ns(run_spans, span_named(spans, "runner.Run")["end_ns"]) / 1e9
        for family, name in (("fig18_rcvm", "rcvm"), ("fig19_hpvm", "hpvm"), ("fig02", "fig02")):
            ns = [z["ns"] for z in traced["zero_window_runs"] if z["family"] == family]
            if ns:
                m["runner.setup_ms_per_run." + name] = median(ns) / 1e6
        m["runner.sink_ms"] = span_ns(spans, "result_sink.Write") / 1e6
        m["runner.retries"] = sum(r["attempts"] - 1 for r in runs)
    m["runner.runs_failed_frac"] = failed / attempted

    # sim / guest: counters of the traced run's simulations
    items = runs or fleets
    c = sum_counters(items)
    # Host time the simulations took: summed per-run wall for the sweeps,
    # process CPU time inside ShardedFleet::Run for the fleet.
    busy_ns = (sum(r["wall_ns"] for r in runs) if runs else sum(f["cpu_ns"] for f in fleets))
    m["sim.events"] = c["events_executed"]
    m["sim.events_cancelled"] = c["events_cancelled"]
    m["sim.timer_arms"] = c["timer_arms"]
    m["sim.timer_fires"] = c["timer_fires"]
    for config in ("cfs", "enhanced", "vsched"):
        m["sim.timer_fires." + config] = sum(i["counters"]["timer_fires"] for i in items
                                             if i["config"] == config)
    m["sim.timer_cancels"] = c["timer_cancels"]
    m["sim.timer_cascades"] = c["timer_cascades"]
    m["sim.ticks_elided"] = c["ticks_elided"]
    m["sim.callback_heap_allocs"] = c["callback_heap_allocs"]
    m["sim.slab_allocs"] = c["event_slab_allocs"]
    m["sim.host_ns_per_event"] = busy_ns / max(1, c["events_executed"] + c["timer_fires"])
    m["sim.pending_depth"] = kernels["pending"]
    m["sim.armed_timers"] = kernels["armed"]
    m["sim.ns_per_event"] = kernels["ns_per_event"]
    m["sim.ns_per_timer_fire"] = kernels["ns_per_timer_fire"]
    m["sim.timer_share"] = c["timer_fires"] * kernels["ns_per_timer_fire"] / busy_ns
    m["guest.rq_picks"] = c["rq_picks"]
    m["guest.rq_enqueues"] = c["rq_enqueues"]
    m["guest.rq_dequeues"] = c["rq_dequeues"]
    m["guest.migrations"] = sum(r["migrations"] for r in runs)
    m["guest.rq_depth"] = kernels["rq_depth"]
    m["guest.ns_per_rq_op"] = kernels["ns_per_rq_op"]
    rq_ops = c["rq_picks"] + c["rq_enqueues"] + c["rq_dequeues"]
    m["guest.rq_share"] = rq_ops * kernels["ns_per_rq_op"] / busy_ns

    # probe / core: wall of enhanced and vsched rows against cfs rows
    for family, name in (("fig18_rcvm", "rcvm"), ("fig19_hpvm", "hpvm")):
        wall = {}
        for r in runs:
            if r["family"] == family:
                wall[r["config"]] = wall.get(r["config"], 0) + r["wall_ns"]
        if wall.get("cfs"):
            m["probe.enhanced_wall_ratio." + name] = wall.get("enhanced", 0) / wall["cfs"]
            m["core.vsched_wall_ratio." + name] = wall.get("vsched", 0) / wall["cfs"]
    if any(r["config"] == "enhanced" for r in runs):
        m["probe.extra_timer_fires"] = m["sim.timer_fires.enhanced"] - m["sim.timer_fires.cfs"]

    # workloads
    completed = (sum(r["completed"] for r in runs) if runs else
                 sum(f["totals"]["requests"] for f in fleets))
    m["workloads.completed"] = completed
    m["workloads.host_us_per_request"] = busy_ns / 1e3 / completed if completed else 0.0

    # cluster
    if fleets:
        run_ns = sum(f["run_ns"] for f in fleets)
        m["cluster.setup_s"] = sum(f["ctor_ns"] for f in fleets) / 1e9
        m["cluster.run_s"] = run_ns / 1e9
        m["cluster.sim_ms_per_s"] = sum(f["horizon_ns"] for f in fleets) / 1e6 / (run_ns / 1e9)
        m["cluster.cells"] = fleets[0]["cells"]
        m["cluster.barriers"] = sum(f["horizon_ns"] // f["window_ns"] for f in fleets)
        m["cluster.events"] = sum(f["events"] for f in fleets)
        m["cluster.cpu_util"] = sum(f["cpu_ns"] for f in fleets) / (run_ns * traced["shards"])
        if single:
            # cfs fleet: Run at 1 shard over Run at the workload's shards.
            sharded = [f["run_ns"] for f in fleets if f["config"] == single["fleets"][0]["config"]]
            m["cluster.shard_speedup"] = single["fleets"][0]["run_ns"] / sharded[0]
        m["cluster.vms_placed"] = sum(f["totals"]["vms_placed"] for f in fleets)
        m["cluster.migrations"] = sum(f["totals"]["migrations"] for f in fleets)
        m["cluster.hosts_booted"] = sum(f["totals"]["hosts_booted"] for f in fleets)

    m.update(fidelity(runs))
    m["trace.overhead_frac"] = traced["wall_ns"] / median([r["wall_ns"] for r in reps]) - 1
    m["machine.calibration_ms"] = calibration_ms
    return m
