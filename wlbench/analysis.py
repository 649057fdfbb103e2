"""Benchmark arithmetic: turns the harness's raw result into named metrics.

The C++ harness (wlbench/harness) only measures: wall times, exact work
counters, rollup digests, cohort counts, and, on a traced run, a span
log. Everything derived from those lives here, so it can be tested on
synthetic inputs (wlbench/test_analysis.py).
"""

import math
import statistics

# The percentiles a timing may report as its tail. The benchmark stops
# at p99 so the tail a workload reports does not change with host speed
# (p99.9 would need 10,000 samples).
TAIL_CANDIDATES = (99.0, 90.0, 50.0)
MIN_BEYOND_TAIL = 10


# --------------------------------------------------------------------
# Distributions.

def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples rank above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile with at least ten samples beyond
    it, or None when even the lowest has fewer."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= MIN_BEYOND_TAIL:
            return p
    return None


def tail_of(samples_n, quantiles):
    """(percentile, value) of the tail a timing reports: `quantiles`
    maps each candidate percentile to its value."""
    p = tail_percentile(samples_n)
    if p is None or p == 50.0:
        raise ValueError(f"{samples_n} samples are too few for a tail percentile")
    return p, quantiles[p]


# --------------------------------------------------------------------
# Fleet outcomes.

def unlock_rate(rows):
    """Genuine unlocks over genuine attempts, unattacked rows only.

    A row is a cohort (or a single record) with `attacked`, `genuine`
    and `genuine_unlocked`. Impostor and attacked attempts answer other
    questions (false-accept rate, attack success) and are left out.
    """
    genuine = sum(r["genuine"] for r in rows if not r["attacked"])
    unlocked = sum(r["genuine_unlocked"] for r in rows if not r["attacked"])
    if genuine == 0:
        raise ValueError("unlock_rate: no genuine unattacked attempts")
    return unlocked / genuine


def attempts(rows):
    """User-facing attempts: one per record plus its retries."""
    return sum(r["sessions"] + r["retries"] for r in rows)


# --------------------------------------------------------------------
# Spans.

def children_of(spans):
    """Child indices per span index."""
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            kids[s["parent"]].append(i)
    return kids


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: its duration minus the part its children cover."""
    kids = children_of(spans)
    out = []
    for i, s in enumerate(spans):
        child = [(spans[k]["start_ms"], spans[k]["end_ms"]) for k in kids[i]]
        duration = s["end_ms"] - s["start_ms"]
        out.append(duration - covered(child, s["start_ms"], s["end_ms"]))
    return out


def self_by_name(spans):
    """{name: (total self ms, calls)}."""
    totals = {}
    for s, own in zip(spans, self_times(spans)):
        total, calls = totals.get(s["name"], (0.0, 0))
        totals[s["name"]] = (total + own, calls + 1)
    return totals


def per_call(totals, name, scale=1.0):
    """Mean self time per call of `name`, 0 when it never ran."""
    total, calls = totals.get(name, (0.0, 0))
    return scale * total / calls if calls else 0.0


def executor_stats(spans, threads):
    """Busy fraction and mean shard wait over every executor map.

    A map span's direct "sim.shard" children are its tasks: busy is their
    summed duration over threads x the map's duration; a shard's wait is
    how long after the map opened a worker started it.
    """
    kids = children_of(spans)
    busy = capacity = 0.0
    waits = []
    for i, s in enumerate(spans):
        if s["name"] != "sim.executor.map":
            continue
        capacity += threads * (s["end_ms"] - s["start_ms"])
        for k in kids[i]:
            shard = spans[k]
            if shard["name"] != "sim.shard":
                continue
            busy += shard["end_ms"] - shard["start_ms"]
            waits.append(shard["start_ms"] - s["start_ms"])
    if capacity <= 0 or not waits:
        return 0.0, 0.0
    return busy / capacity, statistics.mean(waits)


def subtree_accounting(spans, name):
    """(summed duration of every `name` span, summed self time of those
    spans and all their descendants). Equal when children nest inside
    their parents without overlapping: the self times account for it."""
    kids = children_of(spans)
    own = self_times(spans)
    duration = accounted = 0.0
    for i, s in enumerate(spans):
        if s["name"] != name:
            continue
        duration += s["end_ms"] - s["start_ms"]
        stack = [i]
        while stack:
            j = stack.pop()
            accounted += own[j]
            stack.extend(kids[j])
    return duration, accounted


# --------------------------------------------------------------------
# Whole-run results.

def _rates(runs, work_key):
    return [r[work_key] / r["wall_s"] for r in runs if r["wall_s"] > 0]


def counters_of(run, skip=()):
    c = {k: v for k, v in run["counters"].items() if k not in skip}
    for key in ("queue_events", "samples", "frames_found"):
        if key in run:
            c[key] = run[key]
    return c


def counters_repeat(runs, skip=()):
    """Whether every run's exact work counters, less those in `skip`,
    equal the first run's."""
    first = counters_of(runs[0], skip)
    return all(counters_of(r, skip) == first for r in runs[1:])


def fleet_failures(raw):
    """(attempted, failed, notes) for a fleet run.

    Failed operations: sessions of a repeat whose rollup bytes differ
    from the first repeat's, or that threw; sessions of a traced repeat
    whose rollup differs from RunCampaign's; sessions that ended without
    a record; and every false accept.
    """
    planned = raw["planned_sessions"]
    runs = list(raw["repeats"])
    traced = raw.get("traced", [])
    reference = runs[0]["digest"]
    attempted = failed = 0
    notes = []
    for i, run in enumerate(runs + [t["run"] for t in traced]):
        attempted += planned
        kind = "repeat" if i < len(runs) else "traced repeat"
        if run["error"]:
            failed += planned
            notes.append(f"{kind} {i} threw: {run['error']}")
        elif run["digest"] != reference:
            failed += planned
            notes.append(f"{kind} {i} rollup {run['digest']} != {reference}")
    for t in traced:
        if t["missing_records"]:
            failed += t["missing_records"]
            notes.append(f"{t['missing_records']} traced sessions without a record")
    rows = raw["cohorts"]
    records_unattacked = sum(r["sessions"] for r in rows if not r["attacked"])
    records_attacked = sum(r["sessions"] for r in rows if r["attacked"])
    planned_attacked = raw["planned_attacked"]
    missing = max(0, planned - planned_attacked - records_unattacked)
    missing += max(0, planned_attacked - records_attacked)
    false_accepts = sum(r["false_accepts"] for r in rows)
    if missing or false_accepts:
        failed += (missing + false_accepts) * (len(runs) + len(traced))
        accepted = [r["key"] for r in rows if r["false_accepts"]]
        notes.append(f"{missing} sessions without a record, "
                     f"{false_accepts} false accepts per repeat in {accepted}")
    return attempted, failed, notes


def sweep_failures(raw):
    """(attempted, failed, notes): frames of a repeat whose BER table
    differs from the first repeat's, or that threw."""
    runs = list(raw["repeats"]) + list(raw.get("traced", []))
    reference = runs[0]["bit_errors"]
    attempted = failed = 0
    notes = []
    for i, run in enumerate(runs):
        attempted += run["frames"]
        if run["error"]:
            failed += run["frames"]
            notes.append(f"sweep {i} threw: {run['error']}")
        elif run["bit_errors"] != reference:
            failed += run["frames"]
            notes.append(f"sweep {i} BER table differs from sweep 0")
    return attempted, failed, notes


def timing(samples):
    """(p50, tail percentile, tail value) of one sample of timings."""
    p, tail = tail_of(len(samples), {q: percentile(samples, q)
                                     for q in TAIL_CANDIDATES})
    return percentile(samples, 50), p, tail


def fleet_metrics(raw):
    """End-to-end metrics of an untraced fleet run, and the tail used.

    Latency is Fig. 12's modeled total unlock delay of every unattacked
    record (exact, a pure function of the seed); success is the genuine
    unlock rate."""
    p50, p, tail = timing(raw["unlock_ms"])
    return {
        "throughput_per_s": (statistics.median(_rates(raw["repeats"], "sessions")), "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_tail": (tail, "ms"),
        "success_rate": (unlock_rate(raw["cohorts"]), "fraction"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }, (p, len(raw["unlock_ms"]))


def sweep_metrics(raw):
    """End-to-end metrics of an untraced sweep run, and the tail used.

    Latency is host time per modulate -> transmit -> demodulate frame:
    p50 and tail of each repeat's frames, median over the repeats.
    Success is the share of bits decoded correctly (1 - mean BER)."""
    per_repeat = [timing(r["frame_ms"]) for r in raw["repeats"]]
    return {
        "throughput_per_s": (statistics.median(_rates(raw["repeats"], "frames")), "1/s"),
        "latency_ms_p50": (statistics.median(t[0] for t in per_repeat), "ms"),
        "latency_ms_tail": (statistics.median(t[2] for t in per_repeat), "ms"),
        "success_rate": (1.0 - statistics.mean(raw["ber"]), "fraction"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }, (per_repeat[0][1], len(raw["repeats"][0]["frame_ms"]))


def _overhead(untraced, traced, work_key):
    """Tracing overhead: the share of untraced throughput the traced
    runner loses (negative when the traced repeats ran faster)."""
    plain = statistics.median(_rates(untraced, work_key))
    with_spans = statistics.median(_rates(traced, work_key))
    return 1.0 - with_spans / plain


SPAN_TIMES = (
    # metric, span name, scale (per-call self ms -> unit), unit
    ("audio.scene_transmit_ms", "audio.scene_transmit", 1.0, "ms"),
    ("audio.scene_ambient_ms", "audio.scene_ambient", 1.0, "ms"),
    ("audio.channel_transmit_ms", "audio.channel_transmit", 1.0, "ms"),
    ("modem.setup_ms", "modem.setup", 1.0, "ms"),
    ("modem.modulate_ms", "modem.modulate", 1.0, "ms"),
    ("modem.demod_ms", "modem.demod", 1.0, "ms"),
    ("modem.sync_ms", "modem.sync", 1.0, "ms"),
    ("modem.probe_ms", "modem.probe", 1.0, "ms"),
    ("modem.demod_soft_ms", "modem.demod_soft", 1.0, "ms"),
    ("protocol.plan_ms", "protocol.plan", 1.0, "ms"),
    ("protocol.session_build_ms", "protocol.session_build", 1.0, "ms"),
    ("protocol.attack_ms", "protocol.attack", 1.0, "ms"),
    ("obs.ingest_us", "obs.ingest", 1000.0, "us"),
    ("obs.merge_ms", "obs.merge", 1.0, "ms"),
    ("obs.write_ms", "obs.write", 1.0, "ms"),
)


def layer_metrics(raw, spans, workload):
    """Per-layer metrics of a traced run.

    Times are mean self time per call over every span of that name,
    replays included. Every metric describes the workload itself: a
    layer it never calls reads 0 (the sweep's protocol, sim, obs and
    scene metrics; attack and soft-demod time where none ran)."""
    totals = self_by_name(spans)
    first = raw["repeats"][0]
    m = {name: (per_call(totals, span_name, scale), unit)
         for name, span_name, scale, unit in SPAN_TIMES}
    m.update({
        "dsp.plan_cache.hits": (first["counters"]["plan_hits"], "count"),
        "dsp.plan_cache.misses": (first["counters"]["plan_misses"], "count"),
        "dsp.workspace.growths": (first["counters"]["growths"], "count"),
    })
    # Drain time per plain session; the sweep has no drain spans.
    drain_total = sum(s["end_ms"] - s["start_ms"] for s in spans
                      if s["name"] == "protocol.drain")
    drain_self = totals.get("protocol.drain", (0.0, 0))[0]
    built = totals.get("protocol.session_build", (0.0, 0))[1]
    m["protocol.drain_ms"] = (drain_total / built if built else 0.0, "ms")
    m["protocol.drain_other_ms"] = (drain_self / built if built else 0.0, "ms")
    busy, wait = executor_stats(spans, raw.get("threads", 1))
    m["sim.executor_busy_frac"] = (busy, "fraction")
    m["sim.shard_wait_ms"] = (wait, "ms")

    if workload == "modem_sweep":
        m["audio.samples_rendered"] = (first["samples"], "count")
        m["modem.frame_detect_frac"] = (first["frames_found"] / first["frames"], "fraction")
        m["protocol.attempts_per_session"] = (0.0, "count")
        m["protocol.useful_frac"] = (0.0, "fraction")
        m["sim.queue_events_per_session"] = (0.0, "count")
        m["obs.rollup_bytes"] = (0, "bytes")
        m["trace.overhead_frac"] = (_overhead(raw["repeats"], raw["traced"], "frames"), "fraction")
        return m

    traced = raw["traced"]
    planned = raw["planned_sessions"]
    rows = raw["cohorts"]
    tries = attempts(rows)
    unlocked = sum(r["genuine_unlocked"] for r in rows if not r["attacked"])
    calls = sum(t["demod_calls"] for t in traced)
    found = sum(t["demod_found"] for t in traced)
    m.update({
        "audio.samples_rendered": (raw["samples_rendered"], "count"),
        "modem.frame_detect_frac": (found / calls if calls else 0.0, "fraction"),
        "protocol.attempts_per_session": (tries / planned, "count"),
        "protocol.useful_frac": (unlocked / tries if tries else 0.0, "fraction"),
        "sim.queue_events_per_session": (first["queue_events"] / planned, "count"),
        "obs.rollup_bytes": (first["rollup_bytes"], "bytes"),
        "trace.overhead_frac": (_overhead(raw["repeats"], [t["run"] for t in traced], "sessions"), "fraction"),
    })
    return m
