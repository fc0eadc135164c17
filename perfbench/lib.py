"""Pure helpers of the benchmark: percentiles, span self times, the stepped
max-rate search, the per-layer ledger and the result line.

run.py does the I/O (processes, sockets, /proc, /metrics); everything here
is arithmetic that test_perfbench.py checks on known inputs.
"""

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. `values` need not be sorted; empty gives None."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values, ps=(50, 99)):
    """{'n': count, 'p50': ..., 'p99': ...} for the given percentiles."""
    ordered = sorted(values)
    out = {"n": len(ordered)}
    for p in ps:
        out["p%g" % p] = percentile(ordered, p)
    return out


def median(values):
    return percentile(values, 50)


def windowed(values, p, windows, failures=0, q=10):
    """The q-th percentile, over `windows` equal consecutive slices of
    `values` (samples in the order they were taken), of each slice's p-th
    percentile.

    Noise from outside the program (another tenant's vCPU steal) only
    ever adds latency, and it comes and goes within a run, so it spoils
    some slices and not others; a low q reads the slices the host left
    alone. A slowdown of the program itself raises every slice.
    `failures` requests that produced no sample count as infinitely late,
    spread evenly over the slices.
    """
    n = len(values)
    windows = max(1, min(windows, n))
    per_window = []
    for w in range(windows):
        chunk = list(values[w * n // windows:(w + 1) * n // windows])
        lost = failures * (w + 1) // windows - failures * w // windows
        per_window.append(percentile(chunk + [math.inf] * lost, p))
    return percentile(per_window, q)


def _covered(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of `intervals`."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Reduces spans to per-name self time.

    `spans` is a list of (name, start, end, parent, req) with `parent` the
    index of the parent span in the list or -1. A span's self time is its
    duration minus the part of it its children cover. Returns
    {name: {'count': n, 'self_ns': total self time}}.
    """
    children = {}
    for i, span in enumerate(spans):
        parent = span[3]
        if parent >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = {}
    for i, (name, start, end, _parent, _req) in enumerate(spans):
        own = (end - start) - _covered(children.get(i, ()), start, end)
        entry = out.setdefault(name, {"count": 0, "self_ns": 0})
        entry["count"] += 1
        entry["self_ns"] += own
    return out


def read_spans(path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            name, start, end, parent, req = line.rstrip("\n").split(",")
            spans.append((name, int(start), int(end), int(parent), int(req)))
    return spans


def queue_waits_us(spans, enqueue="defense.enqueue", release="defense.next"):
    """Per request, the time from the end of its enqueue span to the end of
    the span that released it, in microseconds."""
    enqueued = {}
    waits = []
    for name, _start, end, _parent, req in spans:
        if req < 0:
            continue
        if name == enqueue:
            enqueued[req] = end
        elif name == release and req in enqueued:
            waits.append((end - enqueued.pop(req)) / 1e3)
    return waits


def step_passes(step, limits):
    """True when a ramp step met every limit: legit p99 latency, legit
    failure ratio, and generator lateness (no growing backlog)."""
    return (step["p99_us"] is not None and step["p99_us"] <= limits["p99_us"]
            and step["fail_ratio"] <= limits["fail_ratio"]
            and step["late_p90_us"] <= limits["late_p90_us"])


def stepped_max(start, trial, coarse=1.25, refine=3, max_steps=12):
    """Highest offered rate of a stepped ramp at which `trial(rate)` holds.

    Climbs from `start` by `coarse` until a step fails (descending by
    `coarse` instead if `start` fails), then bisects the last passing and
    the first failing rate geometrically `refine` times. Returns
    (max_rate, [(rate, passed), ...]); max_rate is 0.0 if nothing passed.
    """
    steps = []

    def run(rate):
        ok = bool(trial(rate))
        steps.append((rate, ok))
        return ok

    best, failed_at, rate = 0.0, None, start
    if run(rate):
        best = rate
        while len(steps) < max_steps:
            rate = best * coarse
            if not run(rate):
                failed_at = rate
                break
            best = rate
    else:
        failed_at = rate
        while len(steps) < max_steps and rate > 1.0:
            rate /= coarse
            if run(rate):
                best = rate
                break
            failed_at = rate
    for _ in range(refine):
        if best <= 0 or failed_at is None or len(steps) >= max_steps:
            break
        rate = math.sqrt(best * failed_at)
        if run(rate):
            best = rate
        else:
            failed_at = rate
    return best, steps


def ledger(self_ns_per_query, server_cpu_ns_per_query):
    """1 - (sum of per-layer self ns per query) / server CPU ns per query:
    the share of the server's measured CPU the traced layers leave
    unexplained (negative when the layers sum to more)."""
    if not server_cpu_ns_per_query:
        return None
    return 1.0 - sum(self_ns_per_query.values()) / server_cpu_ns_per_query


def load_spec(path=SPEC_PATH):
    with open(path) as f:
        return json.load(f)


def result_line(spec, trace, correct, attempted, failed, values):
    """The final stdout line. `values` maps metric name to value; the unit
    comes from the spec. Names the spec lists for this mode but `values`
    lacks raise KeyError, so a run never prints a partial result."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in group:
        value = values[m["name"]]
        if value is None or not math.isfinite(value):
            raise ValueError("metric %s has no value" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
