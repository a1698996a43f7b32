"""Arithmetic of the perfbench benchmark.

Turns one raw result file written by the perfbench binary into the
benchmark's named metrics. Everything here is a pure function of its
inputs, so test_stats.py checks it on synthetic data.
"""

import math
import statistics

# Percentile rule: a percentile is reported only when at least this
# many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return xs[rank - 1]


def highest_supported(values, wanted=(99, 95, 90, 75, 50)):
    """(q, value) for the first percentile in `wanted` the sample
    supports; (100, max) when none is."""
    for q in wanted:
        v = percentile(values, q)
        if v is not None:
            return q, v
    return 100, max(values) if values else 0.0


def fail_share(attempted, failed):
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def parallel_efficiency(busy_ms, wall_ms, width):
    """Sum of busy time over the capacity the pool had (wall x width)."""
    if wall_ms <= 0 or width < 1:
        raise ValueError("wall and width must be positive")
    return busy_ms / (wall_ms * width)


def self_times(spans):
    """Per span name: count, total and self time in ms.

    `spans` is a list of dicts with id, parent, name, start_ns, end_ns.
    A span's self time is its duration minus the part of its interval
    that the union of its children's intervals covers.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], start), min(c["end_ns"], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        row = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0,
                                         "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (end - start) / 1e6
        row["self_ms"] += (end - start - covered) / 1e6
    return out


def spans_from_columns(cols):
    """The raw file's columnar span table as a list of dicts."""
    keys = ("name", "id", "parent", "key", "start_ns", "end_ns")
    return [dict(zip(keys, row)) for row in zip(*(cols[k] for k in keys))]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


# ---------------------------------------------------------------------
# Serving phases

OK = 0  # status code of a verified reply (perfbench serve.cc)


def phase_latencies(phase):
    """Latencies in ms with every failed request counted as infinite,
    so a failure misses any latency limit."""
    return [lat if st == OK and lat is not None else math.inf
            for lat, st in zip(phase["latency_ms"], phase["status"])]


def goodput(phase):
    """Verified replies per second over the phase's span (its schedule,
    or until the last reply if that came later)."""
    rate = phase["rate"]
    ok = 0
    end = phase["duration_s"]
    for i, (lat, st) in enumerate(zip(phase["latency_ms"], phase["status"])):
        if st == OK and lat is not None:
            ok += 1
            end = max(end, i / rate + lat / 1e3)
    return ok / end


def backlog_grows(phase, limit_ms):
    """True when the last quarter's median latency is more than twice
    the first quarter's plus a tenth of the limit: the queue is
    building faster than it drains."""
    lat = phase_latencies(phase)
    q = max(1, len(lat) // 4)
    return statistics.median(lat[-q:]) > (
        2 * statistics.median(lat[:q]) + 0.1 * limit_ms)


def meets_slo(phase, tail_pct, limit_ms):
    lat = phase_latencies(phase)
    tail = percentile(lat, tail_pct)
    if tail is None:
        _, tail = highest_supported(lat)
    return tail <= limit_ms and not backlog_grows(phase, limit_ms)


def max_rps_slo(ladder, tail_pct, limit_ms):
    """Highest rung, climbing, that meets the limit without a growing
    backlog; 0 when the first rung already fails."""
    best = 0.0
    for phase in ladder:
        if not meets_slo(phase, tail_pct, limit_ms):
            break
        best = phase["rate"]
    return best


def loader_report(phase, limit_ms):
    """How far behind schedule the loader sent, for the result log."""
    late = [x for x in phase["lateness_ms"] if x is not None]
    q, tail = highest_supported(late)
    return {"lateness_ms_p50": statistics.median(late) if late else None,
            "lateness_ms_p%d" % q: tail,
            "loader_saturated": loader_saturated(phase, limit_ms)}


def loader_saturated(phase, limit_ms):
    """The loader fell behind its own schedule: median send lateness
    above a tenth of the limit, or its p99 (or highest supported
    percentile) above the limit."""
    late = [x for x in phase["lateness_ms"] if x is not None]
    if not late:
        return True
    _, tail = highest_supported(late)
    return statistics.median(late) > 0.1 * limit_ms or tail > limit_ms


# Stand-in for an infinite tail (every sample beyond it failed).
BEYOND_MS = 1e9


def _finite(v):
    return BEYOND_MS if math.isinf(v) else v


# ---------------------------------------------------------------------
# Metrics

def metric_mismatches(metrics, declared, exact):
    """name -> (declared unit, printed unit) for every metric of
    `declared` (BENCHMARK.json entries) not printed with its unit, and,
    when `exact`, for every printed metric it does not declare."""
    want = {d["name"]: d["unit"] for d in declared}
    got = {k: u for k, (_, u) in metrics.items()}
    bad = {k: (u, got.get(k)) for k, u in want.items() if got.get(k) != u}
    if exact:
        bad.update({k: (None, u) for k, u in got.items() if k not in want})
    return bad


def end_to_end(raw):
    """The end-to-end metrics of an untraced run: name -> (value, unit)."""
    m = {"setup_s": (_median(raw["setup_s"]), "s")}
    if raw["family"] == "sim":
        rates = [raw["sweep_cells"] / w for w in raw["sweep_wall_s"]]
        m["rate_per_s"] = (_median(rates), "1/s")
    else:
        high = next(p for p in raw["phases"] if p["name"] == "high")
        m["rate_per_s"] = (goodput(high), "1/s")
    m["error_pct"] = (_mean(raw["depburst_err_pct"]), "%")
    m["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")
    m["ok_pct"] = (100.0 * (1.0 - fail_share(raw["attempted"],
                                             raw["failed"])), "%")
    return m


def latency(raw):
    """Latency percentiles of an untraced run, for the result log: a
    sim cell's time from its sweep's start to its result, or a served
    request's time from its due time to its reply (failures infinite).
    Each is given only when the sample supports it."""
    if raw["family"] == "sim":
        xs = raw["cell_done_ms"]
    else:
        high = next(p for p in raw["phases"] if p["name"] == "high")
        xs = phase_latencies(high)
    out = {"samples": len(xs)}
    for q in (50, 75, 90, 99):
        v = percentile(xs, q)
        if v is not None:
            out["p%d_ms" % q] = _finite(v)
    return out

def per_layer(raw, spans):
    """The per-layer metrics of a traced run: name -> (value, unit)."""
    c = raw["counts"]
    u = raw["unit_costs"]
    tp = raw["trace_phase"]
    st = self_times(spans)
    m = {}

    # Simulation layers: the workload's own cells (the measured sweeps
    # for sim-*, the trace-recording cells for serve-*).
    if raw["family"] == "sim":
        untraced = [i for i, t in enumerate(raw["sweep_traced"])
                    if not t and i > 0] or [0]
        traced = [i for i, t in enumerate(raw["sweep_traced"]) if t]
        busy_ms = _median([raw["sweep_busy_ms"][i] for i in untraced])
        # The simulator counts come from the fixed cells only, so the
        # ratios over them use those cells' host time.
        count_busy_ms = _median([raw["sweep_fixed_busy_ms"][i]
                                 for i in untraced])
        wall_s = _median([raw["sweep_wall_s"][i] for i in untraced])
        cells_ms = raw["cell_ms"]
        width = raw["width"]
        if traced:
            overhead = 100.0 * (_median([raw["sweep_wall_s"][i]
                                         for i in traced]) / wall_s - 1.0)
        else:
            overhead = 0.0
    else:
        rec = [s for s in spans if s["name"] == "runFixed"]
        sweep = [s for s in spans if s["name"] == "sweepMap"]
        busy_ms = sum((s["end_ns"] - s["start_ns"]) / 1e6 for s in rec)
        count_busy_ms = busy_ms  # every recording cell is a fixed cell
        wall_s = sum((s["end_ns"] - s["start_ns"]) / 1e9 for s in sweep)
        cells_ms = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in rec]
        width = raw["width"]
        phases = {p["name"]: p for p in raw["phases"]}
        overhead = 100.0 * (
            statistics.median(phase_latencies(phases["high_traced"])) /
            statistics.median(phase_latencies(phases["high"])) - 1.0)

    busy_ns = count_busy_ms * 1e6
    loads = c["l1_hits"] + c["l2_hits"] + c["l3_hits"] + c["dram_loads"]
    explained = (c["events"] * u["sim.event_ns"] +
                 loads * u["uarch.cache_load_ns"] +
                 c["dram_loads"] * u["uarch.dram_access_ns"])
    m["sim.events"] = (c["events"], "count")
    m["sim.ns_per_event"] = (busy_ns / c["events"], "ns")
    m["sim.event_ns"] = (u["sim.event_ns"], "ns")
    # Per busy pool thread: the pool's own efficiency is sweep.*.
    m["sim.mips"] = (c["instructions"] / (busy_ns / 1e9) / 1e6, "MIPS")
    m["uarch.instructions"] = (c["instructions"], "count")
    m["uarch.l2_hits"] = (c["l2_hits"], "count")
    m["uarch.l3_hits"] = (c["l3_hits"], "count")
    m["uarch.dram_loads"] = (c["dram_loads"], "count")
    m["uarch.store_bursts"] = (c["store_bursts"], "count")
    m["uarch.ns_per_kinstr"] = (busy_ns / (c["instructions"] / 1e3), "ns")
    m["uarch.cache_load_ns"] = (u["uarch.cache_load_ns"], "ns")
    m["uarch.dram_access_ns"] = (u["uarch.dram_access_ns"], "ns")
    m["model.unexplained_pct"] = (100.0 * (1.0 - explained / busy_ns), "%")
    build = st.get("buildBenchmark")
    m["wl.build_ms"] = (build["total_ms"] / build["count"] if build else 0.0,
                        "ms")
    m["exp.cell_ms.p50"] = (_median(cells_ms), "ms")
    m["exp.cell_ms.max"] = (max(cells_ms), "ms")
    m["os.epochs"] = (c["epochs"], "count")
    m["rt.collections"] = (c["collections"], "count")
    m["rt.gc_share"] = (c["gc_ticks"] / c["sim_ticks"], "ratio")
    m["mgr.decisions"] = (c.get("decisions", 0), "count")
    m["mgr.transitions"] = (c.get("transitions", 0), "count")
    detail, ff = c.get("detail_ticks", 0), c.get("ff_ticks", 0)
    m["sampling.coverage"] = (detail / (detail + ff) if detail + ff else 1.0,
                              "ratio")
    m["sampling.detail_actions"] = (c.get("detail_actions", 0), "count")
    m["sampling.ff_actions"] = (c.get("ff_actions", 0), "count")
    ffa = c.get("ff_actions", 0)
    m["sampling.ff_fallback_ratio"] = (
        c.get("ff_fallbacks", 0) / ffa if ffa else 0.0, "ratio")
    m["sampling.forced_windows"] = (c.get("forced_windows", 0), "count")
    m["sampling.err_pct"] = (_mean(raw.get("sampling_err_pct", [])), "%")
    m["sweep.parallel_eff"] = (
        parallel_efficiency(busy_ms, wall_s * 1e3, width), "ratio")
    m["sweep.idle_ms"] = (wall_s * 1e3 * width - busy_ms, "ms")

    # Trace and predictor layers.
    mb = tp["image_bytes"] / 1e6
    m["trace.image_mb"] = (mb, "MB")
    m["trace.encode_mb_s"] = (mb / tp["encode_s"] if tp["encode_s"] else 0.0,
                              "MB/s")
    m["trace.decode_mb_s"] = (mb / tp["decode_s"] if tp["decode_s"] else 0.0,
                              "MB/s")
    m["pred.predict_us"] = (u["pred.predict_us"], "us")
    m["pred.replay_us_per_cell"] = (
        1e6 * tp["replay_s"] / tp["replay_cells"] if tp["replay_cells"]
        else 0.0, "us")

    # Request handling: the daemon's own frames on serve-*, serve-small's
    # mix over the run's base traces, in process, on sim-*.
    if raw["family"] == "serve":
        rp, srv = raw["replay"], raw["server"]
    else:
        rp, srv = raw["serve_inproc"]["replay"], raw["serve_inproc"]
    lookups = srv["cache_hits"] + srv["cache_misses"]
    m["serve.cache_hit_ratio"] = (srv["cache_hits"] / lookups
                                  if lookups else 1.0, "ratio")
    for k, name in enumerate(KIND_NAMES):
        xs = [h for h, kind in zip(rp["handle_us"], rp["kind"]) if kind == k]
        m["serve.handle_us." + name] = (_median(xs), "us")
    m["net.encode_us"] = (_median(rp["encode_us"]), "us")
    m["net.decode_us"] = (_median(rp["decode_us"]), "us")

    # The socket loop and the loader (SERVE_ONLY_UNITS): serve-* only.
    if raw["family"] == "serve":
        phases = {p["name"]: p for p in raw["phases"]}
        low_lat = phase_latencies(phases["low"])
        low_p50 = statistics.median(low_lat)
        high = phases["high"]
        late = [x for x in high["lateness_ms"] if x is not None]
        m["serve.evictions"] = (srv["evictions"], "count")
        m["serve.transport_us"] = (1e3 * low_p50 - _median(rp["handle_us"]),
                                   "us")
        m["serve.mean_batch"] = (srv["requests"] / srv["batches"]
                                 if srv["batches"] else 0.0, "count")
        m["serve.max_batch"] = (srv["max_batch"], "count")
        m["serve.shed"] = (srv["shed"], "count")
        m["load.lateness_ms.p99"] = (highest_supported(late)[1], "ms")
        m["load.p99_high_ms"] = (_finite(highest_supported(
            phase_latencies(high))[1]), "ms")
        m["load.p50_low_ms"] = (low_p50, "ms")
        m["load.p99_low_ms"] = (_finite(highest_supported(low_lat)[1]), "ms")
        m["load.max_rps_slo"] = (max_rps_slo(raw["ladder"], 99,
                                             raw["limit_ms"]), "1/s")
        m["load.saturated"] = (1.0 if loader_saturated(high, raw["limit_ms"])
                               else 0.0, "flag")
    m["tracing.overhead_pct"] = (overhead, "%")
    m["tracing.spans"] = (len(spans), "count")
    return m


KIND_NAMES = ("predict", "whatif", "optimal", "upload", "stats")

# Per-layer metrics of the socket loop and the loader, which only the
# serve-* workloads (not listed in BENCHMARK.json) exercise.
SERVE_ONLY_UNITS = {
    "serve.evictions": "count", "serve.transport_us": "us",
    "serve.mean_batch": "count", "serve.max_batch": "count",
    "serve.shed": "count",
    "load.lateness_ms.p99": "ms", "load.p99_high_ms": "ms",
    "load.p50_low_ms": "ms", "load.p99_low_ms": "ms",
    "load.max_rps_slo": "1/s", "load.saturated": "flag",
}
