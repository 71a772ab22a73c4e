"""The benchmark's arithmetic: percentiles, span self time, per-layer metrics.

Pure functions over the raw numbers a worker run leaves behind
(result.json, spans.tsv, the Ch_obs reports and the daemon's JSONL), kept
apart from process handling so test_perfbench.py can check them alone.
"""

import math
import statistics

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of values.

    Refuses (TooFewSamples) when fewer than MIN_BEYOND samples lie beyond
    the quantile, e.g. p90 of fewer than 100 values.
    """
    n = len(values)
    if n * (1 - q) < MIN_BEYOND - 1e-9:
        need = math.ceil(MIN_BEYOND / (1 - q))
        raise TooFewSamples("p%g needs %d samples, got %d" % (q * 100, need, n))
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


# The speed kernel's time at the reference speed.  A figure "at reference
# speed" is the measured one scaled by REF_NS over the kernel's time beside
# it: what the figure would read on a host running the kernel in REF_NS.
REF_NS = 1_300_000
# Each group's factor uses the median kernel time over this many
# boundaries on either side of it, which damps the kernel's own jitter.
SPEED_WINDOW = 4


def at_reference_speed(seconds, ref_ns):
    return seconds * REF_NS / ref_ns


def group_factors(ref_ns):
    """Scale factor per op group (group g runs between kernel timings g
    and g+1), from the median kernel time around it."""
    return [REF_NS / statistics.median(
                ref_ns[max(0, g - SPEED_WINDOW):g + SPEED_WINDOW + 2])
            for g in range(len(ref_ns) - 1)]


def at_reference(result):
    """Per-op latencies (us) and the timed wall (s) at reference speed."""
    f = group_factors(result["speed_ref_ns"])
    lat = [v * f[g] for v, g in zip(result["lat_us"], result["op_group"])]
    wall = sum(w * f[g] for g, w in enumerate(result["group_wall_s"]))
    return lat, wall


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
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
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span itself.

    spans: dicts with id, parent, name, t0, t1.  Returns {id: self}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                   for c in children.get(s["id"], [])]
        covered = union_length([iv for iv in clipped if iv[1] > iv[0]])
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, op, name, t0, t1 = line.rstrip("\n").split("\t")
            spans.append({"id": int(sid), "parent": int(parent), "op": int(op),
                          "name": name, "t0": int(t0), "t1": int(t1)})
    return spans


def span_stats(spans):
    """{name: (calls, total self ns)} over the benchmark's own spans."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        calls, ns = out.get(s["name"], (0, 0))
        out[s["name"]] = (calls + 1, ns + selfs[s["id"]])
    return out


def obs_self_ns(report):
    """{name: total self ns} over a Ch_obs span tree (report_json form).
    Children of one path never overlap, so self = total - sum(children)."""
    out = {}

    def walk(node):
        kids = node.get("children", [])
        self_ns = node["total_ns"] - sum(k["total_ns"] for k in kids)
        out[node["name"]] = out.get(node["name"], 0) + max(0, self_ns)
        for k in kids:
            walk(k)

    for root in report.get("spans", []):
        walk(root)
    return out


def obs_counters(report):
    return {c["name"]: c["value"] for c in report.get("counters", [])}


def counter_sum(counters, prefix, suffix):
    return sum(v for k, v in counters.items()
               if k.startswith(prefix) and k.endswith(suffix))


def diff(after, before):
    """after - before, keywise (missing keys count as 0)."""
    return {k: v - before.get(k, 0) for k, v in after.items()}


def ratio(num, den):
    return num / den if den else 0.0


# Every per-layer metric, with its unit.  A traced run prints all of them;
# a layer the workload never enters did no work and reads 0.
PER_LAYER = [
    ("framework.prepare_ms", "ms"),
    ("framework.pverdict_us", "us"),
    ("framework.pairgen_us", "us"),
    ("cache.lookup_self_ms", "ms"),
    ("cache.build_self_ms", "ms"),
    ("cache.builds", "count"),
    ("cache.queries_per_pair", "count"),
    ("cache.hit_ratio", "ratio"),
    ("solver.nodes_per_pair", "count"),
    ("solver.pruned_ratio", "ratio"),
    ("framework.build_us", "us"),
    ("solver.predicate_us", "us"),
    ("store.write_block_ms", "ms"),
    ("store.read_block_ms", "ms"),
    ("store.bytes_per_pair", "bytes"),
    ("simulate.lockstep_us_per_round", "us"),
    ("simulate.reference_us_per_round", "us"),
    ("reduction.root_solver_us", "us"),
    ("network.rounds_per_pair", "count"),
    ("network.cut_bits_per_pair", "bits"),
    ("serve.overhead_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("wire.bytes_per_request", "bytes"),
    ("warm.hit_ratio", "ratio"),
    ("store.bytes_written", "bytes"),
    ("daemon.start_s", "s"),
    ("daemon.cold_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
]

# Per-layer metrics that are pure counts of deterministic work: two traced
# runs of one seed must print them identically.
DETERMINISTIC = [
    "cache.builds", "cache.queries_per_pair", "cache.hit_ratio",
    "solver.nodes_per_pair", "solver.pruned_ratio", "store.bytes_per_pair",
    "network.rounds_per_pair", "network.cut_bits_per_pair",
    "wire.bytes_per_request", "warm.hit_ratio",
]


def pairs_per_s(result):
    return result["pairs"] / at_reference(result)[1]


def end_to_end(result):
    """The end-to-end metrics of one untraced run, at reference speed."""
    lat_ms = [v / 1e3 for v in at_reference(result)[0]]
    return {
        "pairs_per_s": pairs_per_s(result),
        "latency_p50_ms": percentile(lat_ms, 0.5),
        "latency_p90_ms": percentile(lat_ms, 0.9),
        "setup_s": statistics.median(
            at_reference_speed(s, ref_ns) for s, ref_ns in result["setups"]),
        "peak_rss_mb": result["rss_mb"],
    }


def as_measured(result):
    """The timed figures before scaling to reference speed, for the run
    manifest."""
    lat_ms = [v / 1e3 for v in result["lat_us"]]
    return {
        "pairs_per_s": result["pairs"] / sum(result["group_wall_s"]),
        "latency_p50_ms": percentile(lat_ms, 0.5),
        "latency_p90_ms": percentile(lat_ms, 0.9),
        "setup_s": statistics.median(s for s, _ in result["setups"]),
    }


def mean_us(st, name):
    """Mean self time per call of the spans called name, in us."""
    calls, ns = st.get(name, (0, 0))
    return ratio(ns / 1e3, calls)


def per_layer(result, spans, obs_setup, obs_end, daemon_events, untraced_pps):
    """Every PER_LAYER metric of one traced run.

    result: the worker's result.json; spans: its spans.tsv; obs_setup /
    obs_end: the worker's Ch_obs reports at READY and at exit;
    daemon_events: the daemon's serve_request events for timed requests
    (serve-closed only); untraced_pps: pairs_per_s of the untraced run of
    the same seed.
    """
    m = {name: 0.0 for name, _ in PER_LAYER}
    st = span_stats(spans)
    ops = result["ops"]
    pairs = result["pairs"]
    # pairs a solver actually decided (resumed sweep shards excluded)
    decided = result.get("store.fresh_pairs", pairs)

    m["framework.prepare_ms"] = mean_us(st, "framework.prepare") / 1e3
    m["framework.pverdict_us"] = mean_us(st, "framework.pverdict")
    m["framework.pairgen_us"] = mean_us(st, "framework.pairgen")
    m["framework.build_us"] = mean_us(st, "framework.build")
    m["solver.predicate_us"] = mean_us(st, "solver.predicate")
    m["store.write_block_ms"] = mean_us(st, "store.write_block") / 1e3
    m["store.read_block_ms"] = mean_us(st, "store.read_block") / 1e3
    m["reduction.root_solver_us"] = mean_us(st, "reduction.root_solver")
    m["protocol.encode_us"] = mean_us(st, "protocol.encode")
    m["protocol.decode_us"] = mean_us(st, "protocol.decode")

    hits = result.get("cache.pstats_hits", 0)
    m["cache.hit_ratio"] = ratio(hits, hits + result.get("cache.pstats_misses", 0))

    c_setup, c_end = obs_counters(obs_setup), obs_counters(obs_end)
    c_timed = diff(c_end, c_setup)
    self_setup = obs_self_ns(obs_setup)
    self_timed = diff(obs_self_ns(obs_end), self_setup)
    m["cache.lookup_self_ms"] = ratio(self_timed.get("cache_lookup", 0) / 1e6, ops)
    m["cache.build_self_ms"] = self_setup.get("cache_build", 0) / 1e6
    m["cache.builds"] = counter_sum(c_end, "cache.", ".builds")
    m["cache.queries_per_pair"] = ratio(
        counter_sum(c_timed, "cache.", ".queries"), decided)
    nodes = counter_sum(c_timed, "solver.", ".nodes")
    m["solver.nodes_per_pair"] = ratio(nodes, decided)
    m["solver.pruned_ratio"] = ratio(
        counter_sum(c_timed, "solver.", ".pruned"), nodes)

    if "store.bytes" in result:
        m["store.bytes_per_pair"] = ratio(result["store.bytes"], decided)

    if "network.rounds" in result:
        rounds = result["network.rounds"]
        m["network.rounds_per_pair"] = ratio(rounds, ops)
        m["network.cut_bits_per_pair"] = ratio(result["network.cut_bits"], ops)
        for layer in ("lockstep", "reference"):
            ns = st.get("simulate." + layer, (0, 0))[1]
            m["simulate.%s_us_per_round" % layer] = ratio(ns / 1e3, rounds)

    if "serve.micros" in result:
        lat_ms = [v / 1e3 for v in result["lat_us"]]
        micros = result["serve.micros"]
        warm = result["serve.warm"]
        m["serve.overhead_ms"] = percentile(
            [t - u / 1e3 for t, u in zip(lat_ms, micros)], 0.5)
        m["serve.service_ms"] = percentile(
            [u / 1e3 for u, w in zip(micros, warm) if not w], 0.5)
        m["serve.queue_wait_ms"] = percentile(
            [e["queue_us"] / 1e3 for e in daemon_events], 0.5)
        m["serve.exec_ms"] = percentile(
            [e["exec_us"] / 1e3 for e in daemon_events], 0.5)
        m["wire.bytes_per_request"] = ratio(result["wire.request_bytes"], ops)
        m["warm.hit_ratio"] = ratio(sum(1 for w in warm if w), len(warm))
        m["store.bytes_written"] = result.get("store.bytes_written", 0)
        m["daemon.start_s"] = result["daemon.start_s"]
        cold = result["daemon.cold_ms"]
        m["daemon.cold_ms"] = ratio(sum(cold), len(cold))

    m["obs.overhead_ratio"] = 1 - ratio(pairs_per_s(result), untraced_pps)
    return m
