#!/usr/bin/env python3
"""Benchmark of akadns-serve over real loopback UDP.

    python3 perfbench/run.py --workload hot_cached --seed 1 --seconds 16 --trace 0

Run from the repository root. The first run configures and builds the
server and the two benchmark programs (perfbench/CMakeLists.txt) under
$CARGO_TARGET_DIR (default .bench_build); later runs reuse the build.

One run:
  1. perfbench-gen builds the workload's zones, corpus and expected answers
     from --seed, and writes the churn-zone files the server loads.
  2. akadns-serve --workers 2 is launched (three times with --trace 0;
     setup_s is the median time from launch to its JSON ready line). The
     last one serves.
  3. Flow placement: candidate client sockets are probed one at a time and
     the server's per-worker udp_packets counters (/metrics) show which
     worker each reaches; two sockets per worker are kept.
  4. Open-loop phases (perfbench-gen): a warm-up, the fixed-rate phase
     (latency, server CPU per answered query, counters), with --trace 0,
     unless the workload updates zones all along, a tail of zone updates
     for publish visibility, and the stepped ramp for max_qps.
  5. With --trace 1, perfbench-trace (the in-process traced replay) gives
     the per-layer metrics; its spans are written to <out>/spans.csv.
See perfbench/README.md for every metric.

Every answer is checked byte for byte; the last stdout line is the JSON
result. Logs go to stderr.
"""

import argparse
import array
import ctypes
import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import lib  # noqa: E402

WORKERS = 2
SOCKETS_PER_WORKER = 2
SETUP_LAUNCHES = 3

WARMUP_S = 0.5
# The ramp: 1 s steps from RAMP_START, at most RAMP_STEPS of them.
RAMP_START = 120000
RAMP_STEP_S = 1.0
RAMP_STEPS = 7
# Zone updates: one every UPDATE_MS, round-robin over the churn zones.
# Neither spacing divides the server's 50 ms reload poll, so the updates
# sample its phase evenly. zone_churn's stream is UPDATE_MS; the shorter
# publish-visibility tail of the other workloads uses TAIL_UPDATE_MS to
# gather as many samples.
UPDATE_MS = 37
TAIL_UPDATE_MS = 13

# Offered rates were calibrated once on a 4-vCPU loopback host: each fixed
# rate is a fifth of the rate at which the workload's p99 crosses 1 ms on
# a quiet host, so the fixed phase measures the server unsaturated.
WORKLOADS = {
    # Legit-only corpus of 4096 entries over 500 zones: about 1.1k
    # distinct cache keys, all resident in the 4096-entry answer cache, so
    # nearly every query is the per-packet floor (recvmmsg/sendmmsg,
    # decode_query_view, a cache hit).
    "hot_cached": dict(zones=500, corpus=4096, attack=0.0, defense=False,
                       rate=40000, update_ms=0),
    # 2^17-entry corpus with a 30% random-subdomain attack over 4096 zones,
    # defense on with a discarding NXDOMAIN penalty and no compute meter:
    # about half the answers miss the cache, so compiled lookup and encode,
    # NXDOMAIN synthesis and defense scoring and queueing do most of the
    # work; the 4096-zone build puts the apex-index cost in setup_s.
    "cold_flood": dict(zones=4096, corpus=131072, attack=0.3, defense=True,
                       rate=30000, update_ms=0),
    # hot_cached's read mix over 4096 zones plus a stream of updates to
    # popular zones through --zone files and SIGHUP: every update is a
    # publish, compile and apex-index rebuild in the publisher and in each
    # worker replica, and clears every worker's answer cache.
    "zone_churn": dict(zones=4096, corpus=4096, attack=0.0, defense=False,
                       rate=40000, update_ms=UPDATE_MS),
}
NXDOMAIN_PENALTY = 200   # >= 200 discards armed random-subdomain probes
NXDOMAIN_THRESHOLD = 200

TRACE_PACKETS = 16384
# Latency and lateness percentiles are the 10th percentile, over this many
# equal slices of a phase, of each slice's percentile (lib.windowed): host
# steal comes and goes within a run and only ever adds latency.
WINDOWS = 32

# Gates every end-to-end run must pass.
MAX_IMBALANCE = 1.10      # max / mean of per-worker udp packets
# The generator lagged when its p90 lateness passed this. Host steal
# stalls its thread for milliseconds a few times a second, which moves
# the p99 (reported as gen.late_p99_us) but not the p90; a generator that
# cannot keep up is late at every percentile.
MAX_LATE_P90_US = 250.0
# A ramp step passes when legit p99 <= 1 ms, legit failures <= 0.1% and
# the generator kept to its schedule.
STEP_LIMITS = {"p99_us": 1000.0, "fail_ratio": 0.001, "late_p90_us": MAX_LATE_P90_US}
RUN_DEADLINE_S = 170      # after the build; the contract allows 180


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    if not os.path.exists(os.path.join(REPO, "src", "net", "akadns_serve_main.cpp")):
        raise BenchError("no akadns sources beside perfbench/ (expected src/net)")
    bdir = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4", "--target", "akadns-serve",
                    "perfbench-gen", "perfbench-trace"], check=True, stdout=sys.stderr)
    return {
        "serve": os.path.join(bdir, "akadns", "net", "akadns-serve"),
        "gen": os.path.join(bdir, "perfbench-gen"),
        "trace": os.path.join(bdir, "perfbench-trace"),
    }


# ------------------------------------------------------------ processes

def die_with_parent():
    """Runs in each child before exec: SIGTERM it if run.py dies first."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


class Generator:
    def __init__(self, binary, w, seed, zone_dir):
        self.proc = subprocess.Popen(
            [binary, "--zones", str(w["zones"]), "--seed", str(seed), "--corpus",
             str(w["corpus"]), "--attack", str(w["attack"]), "--zone-dir", zone_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=die_with_parent)
        self.ready = self._reply()

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("perfbench-gen exited early")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError("perfbench-gen: " + reply["error"])
        return reply

    def cmd(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class Server:
    def __init__(self, binary, w, seed, zone_files, log_path):
        args = [binary, "--synthetic", str(w["zones"]), "--seed", str(seed), "--port", "0",
                "--workers", str(WORKERS), "--stats-port", "0",
                "--defense", "on" if w["defense"] else "off"]
        if w["defense"]:
            args += ["--nxdomain-penalty", str(NXDOMAIN_PENALTY),
                     "--nxdomain-threshold", str(NXDOMAIN_THRESHOLD)]
        for path in zone_files:
            args += ["--zone", path]
        self.log = open(log_path, "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=self.log, text=True,
                                     preexec_fn=die_with_parent)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not line:
            self.close()
            raise BenchError("akadns-serve exited before its ready line")
        self.ready = json.loads(line)["akadns_serve_ready"]
        self.pid = self.ready["pid"]

    def metrics(self):
        url = "http://127.0.0.1:%d/metrics" % self.ready["stats_port"]
        out = {}
        with urllib.request.urlopen(url, timeout=5) as resp:
            for line in resp.read().decode().splitlines():
                if line and not line.startswith("#"):
                    key, value = line.rsplit(" ", 1)
                    out[key] = float(value)
        return out

    def cpu_s(self):
        """utime + stime of the whole process, from /proc/<pid>/stat."""
        with open("/proc/%d/stat" % self.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def thread_cpu_s(self):
        out = {}
        task_dir = "/proc/%d/task" % self.pid
        for tid in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, tid, "stat")) as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            out[tid] = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        return out

    def rss_hwm_mib(self):
        with open("/proc/%d/status" % self.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.log.close()


def worker_series(m, event, family="akadns_frontend_total"):
    return [m.get('%s{event="%s",worker="%d"}' % (family, event, w), 0.0)
            for w in range(WORKERS)]


def delta(after, before, event, family="akadns_frontend_total"):
    a = worker_series(after, event, family)
    b = worker_series(before, event, family)
    return [x - y for x, y in zip(a, b)]


def publisher_count(m, event):
    return m.get('akadns_zone_publish_total{event="%s",subsystem="publisher"}' % event, 0.0)


# ------------------------------------------------------- flow placement

def placement_query():
    # A query for a name no zone holds: answered REFUSED, counted as one
    # udp packet by whichever worker the flow hashes to.
    header = bytes([0x12, 0x34, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0])
    qname = b"\x09placement\x07invalid\x00"
    return header + qname + b"\x00\x01\x00\x01"


def place_flows(server):
    """Source ports whose flows give every worker the same number of
    sockets, found by probing and reading per-worker udp_packets."""
    query = placement_query()
    chosen = {w: [] for w in range(WORKERS)}
    probes = []
    try:
        for _ in range(64):
            if all(len(v) >= SOCKETS_PER_WORKER for v in chosen.values()):
                break
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            probes.append(sock)
            sock.bind(("127.0.0.1", 0))
            sock.connect(("127.0.0.1", server.ready["udp_port"]))
            sock.settimeout(2.0)
            before = server.metrics()
            for _ in range(8):
                sock.send(query)
            for _ in range(8):
                sock.recv(4096)
            moved = delta(server.metrics(), before, "udp_packets")
            hit = [w for w in range(WORKERS) if moved[w] >= 8]
            if len(hit) == 1 and len(chosen[hit[0]]) < SOCKETS_PER_WORKER:
                chosen[hit[0]].append(sock.getsockname()[1])
    finally:
        for sock in probes:
            sock.close()
    if not all(len(v) >= SOCKETS_PER_WORKER for v in chosen.values()):
        raise BenchError("flow placement found no balanced socket set: %s" % chosen)
    return chosen


# --------------------------------------------------------------- phases

def read_doubles(path):
    samples = array.array("d")
    with open(path, "rb") as f:
        samples.frombytes(f.read())
    return samples.tolist()


class Phases:
    def __init__(self, gen, out_dir):
        self.gen = gen
        self.out_dir = out_dir
        self.count = 0

    def run(self, rate, seconds, update_ms):
        self.count += 1
        lat = os.path.join(self.out_dir, "phase%d.lat" % self.count)
        late = os.path.join(self.out_dir, "phase%d.late" % self.count)
        res = self.gen.cmd("run %.3f %.3f %.3f %s %s" % (rate, seconds, update_ms, lat, late))
        legit = res["legit"]
        res["rate"] = rate
        res["fail"] = legit["timed_out"] + legit["mismatched"]
        res["fail_ratio"] = res["fail"] / max(1, legit["sent"])
        # Percentiles over WINDOWS slices of the phase (lib.windowed); a
        # query that failed missed every latency limit.
        latencies = read_doubles(lat)
        lateness = read_doubles(late)
        raw = lib.summarize(latencies + [math.inf] * res["fail"])
        res["latency"] = {"n": len(latencies), "windows": WINDOWS,
                          "p50": lib.windowed(latencies, 50, WINDOWS, res["fail"]),
                          "p99": lib.windowed(latencies, 99, WINDOWS, res["fail"]),
                          "whole_phase_p50": raw["p50"], "whole_phase_p99": raw["p99"]}
        res["p99_us"] = res["latency"]["p99"]
        res["late"] = {"n": len(lateness), "p90": lib.windowed(lateness, 90, WINDOWS),
                       "p99": lib.windowed(lateness, 99, WINDOWS)}
        res["late_p90_us"] = res["late"]["p90"] or 0.0
        res["late_p99_us"] = res["late"]["p99"] or 0.0
        res["mismatches"] = (legit["mismatched"] + res["attack"]["mismatched"]
                             + res["probe_mismatched"])
        return res


def measured_phase(server, phases, rate, seconds, update_ms):
    """A phase with the server's counters and CPU read around it."""
    m0, threads0, cpu0 = server.metrics(), server.thread_cpu_s(), server.cpu_s()
    t0 = time.perf_counter()
    res = phases.run(rate, seconds, update_ms)
    wall = time.perf_counter() - t0
    cpu1, threads1, m1 = server.cpu_s(), server.thread_cpu_s(), server.metrics()
    packets = delta(m1, m0, "udp_packets")
    answered = sum(delta(m1, m0, "udp_responses"))
    batches = sum(delta(m1, m0, "udp_batches"))
    hits = sum(delta(m1, m0, "hit", "akadns_answer_cache_total"))
    misses = sum(delta(m1, m0, "miss", "akadns_answer_cache_total"))
    busiest = sorted((threads1[t] - threads0.get(t, 0.0) for t in threads1), reverse=True)
    published = publisher_count(m1, "published") - publisher_count(m0, "published")
    incremental = publisher_count(m1, "incremental") - publisher_count(m0, "incremental")
    res["server"] = {
        "cpu_ns_per_query": (cpu1 - cpu0) * 1e9 / max(1.0, answered),
        "answered": answered,
        "per_worker_packets": packets,
        "imbalance": max(packets) / max(1e-9, sum(packets) / len(packets)),
        "batch_fill": sum(packets) / max(1.0, batches),
        "busy_ratio": max(busiest[:WORKERS]) / max(1e-9, res["send_s"] or wall),
        "cache_hit_ratio": hits / max(1.0, hits + misses),
        "invalidations_per_s": sum(delta(m1, m0, "invalidation", "akadns_answer_cache_total"))
                               / max(1e-9, seconds),
        "incremental_ratio": incremental / published if published else 0.0,
    }
    return res


def gate(res, problems):
    s = res["server"]
    if s["imbalance"] > MAX_IMBALANCE:
        problems.append("worker imbalance %.3f > %.2f" % (s["imbalance"], MAX_IMBALANCE))
    if res["late_p90_us"] > MAX_LATE_P90_US:
        problems.append("generator lagged: late p90 %.1f us > %.0f" %
                        (res["late_p90_us"], MAX_LATE_P90_US))


# ----------------------------------------------------------- trace mode

WORKER_PATH_EXCLUDED = {"worker.batch", "zone.lookup", "zone.publish"}


def traced_layers(binaries, w, seed, batch_fill, out_dir, server_cpu_ns):
    spans_path = os.path.join(out_dir, "spans.csv")
    update_every = int(w["rate"] * w["update_ms"] / 1000.0) if w["update_ms"] else 0
    args = [binaries["trace"], "--zones", str(w["zones"]), "--seed", str(seed),
            "--corpus", str(w["corpus"]), "--attack", str(w["attack"]),
            "--defense", "1" if w["defense"] else "0",
            "--penalty", str(NXDOMAIN_PENALTY), "--threshold", str(NXDOMAIN_THRESHOLD),
            "--workers", str(WORKERS), "--batch", str(max(1, round(batch_fill))),
            "--packets", str(TRACE_PACKETS), "--update-every", str(update_every),
            "--spans", spans_path]
    done = subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True,
                          preexec_fn=die_with_parent)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    spans = lib.read_spans(spans_path)
    selfs = lib.self_times(spans)

    def total(name):
        return selfs.get(name, {}).get("self_ns", 0)

    def count(name):
        return selfs.get(name, {}).get("count", 0)

    def mean(name):
        return total(name) / count(name) if count(name) else 0.0

    packets = TRACE_PACKETS
    responds = count("server.respond_hit") + count("server.respond_miss")
    release = sum(total(n) for n in ("defense.begin_phase", "defense.next",
                                     "defense.observe", "defense.end_phase"))
    per_query = {name: v["self_ns"] / packets for name, v in selfs.items()
                 if name not in WORKER_PATH_EXCLUDED}
    waits = lib.queue_waits_us(spans)
    traced_pps = lib.median(summary["traced_pps"])
    untraced_pps = lib.median(summary["untraced_pps"])
    layers = {
        "net.recv_ns_per_pkt": total("net.recv") / packets,
        "net.send_ns_per_pkt": total("net.send") / max(1, responds),
        "dns.decode_ns": mean("dns.decode"),
        "server.respond_hit_ns": mean("server.respond_hit"),
        "server.respond_miss_ns": mean("server.respond_miss"),
        "server.allocs_per_query": summary["respond_allocs"] / max(1, summary["respond_calls"]),
        "zone.lookup_ns": mean("zone.lookup"),
        "zone.publish_ns": mean("zone.publish"),
        "defense.score_ns": mean("defense.score"),
        "defense.enqueue_ns": mean("defense.enqueue"),
        "defense.release_ns": release / responds if count("defense.next") and responds else 0.0,
        "defense.queue_wait_us": lib.percentile(waits, 99) if waits else 0.0,
        "propagation.publish_ns": mean("propagation.publish"),
        "propagation.adopt_ns": mean("propagation.adopt"),
        "trace.overhead_ratio": 1.0 - traced_pps / untraced_pps,
        "ledger.unexplained_ratio": lib.ledger(per_query, server_cpu_ns),
    }
    detail = {"summary": summary, "self_ns_per_query": per_query,
              "self_times": selfs, "queue_wait_samples": len(waits), "spans": spans_path}
    return layers, detail, summary["mismatched"] + summary["lost"]


# ------------------------------------------------------------------ run

def ramp(phases):
    """max_qps: the stepped ramp (lib.stepped_max) over read-only steps.

    The ramp offers the read mix alone. Under zone_churn's update stream
    the adoption stalls hold p99 above 1 ms at every rate, so a ramp with
    updates finds no passing step; the write tax shows in that workload's
    fixed-phase metrics instead.
    """
    steps = []

    def trial(rate):
        step = phases.run(rate, RAMP_STEP_S, 0)
        steps.append({k: step[k] for k in ("rate", "p99_us", "fail_ratio",
                                           "late_p90_us", "mismatches")})
        ok = lib.step_passes(step, STEP_LIMITS)
        if not ok:
            time.sleep(0.2)  # let the overloaded step drain
        return ok

    max_qps, _ = lib.stepped_max(RAMP_START, trial, max_steps=RAMP_STEPS)
    return max_qps, steps


def run(args, binaries):
    w = WORKLOADS[args.workload]
    out_dir = os.path.join(build_dir(), "out", "%s-seed%d-trace%d" %
                           (args.workload, args.seed, args.trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "zones"))
    seconds = float(args.seconds)
    problems = []
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    # The ramp takes at most RAMP_STEPS steps; the rest of the run is the
    # fixed phase and, when the workload does not update zones all along,
    # a tail of updates for publish visibility.
    rest = max(2.0, seconds - RAMP_STEPS * RAMP_STEP_S)
    fixed_s = rest if w["update_ms"] else rest * 0.6
    tail_s = 0.0 if w["update_ms"] else rest * 0.4

    gen = Generator(binaries["gen"], w, args.seed, os.path.join(out_dir, "zones"))
    servers = []
    try:
        for _ in range(1 if args.trace else SETUP_LAUNCHES):
            if servers:
                servers.pop().close()
            servers.append(Server(binaries["serve"], w, args.seed,
                                  gen.ready["zone_files"], os.path.join(out_dir, "serve.log")))
            report.setdefault("setup_s", []).append(servers[-1].setup_s)
        server = servers[-1]
        if server.ready["zones"] != w["zones"]:
            raise BenchError("server holds %s zones, expected %d"
                             % (server.ready["zones"], w["zones"]))
        chosen = place_flows(server)
        report["placement"] = chosen
        gen.cmd("target %d %d" % (server.ready["udp_port"], server.pid))
        gen.cmd("sockets " + " ".join("%d:%d" % (port, wk) for wk in chosen
                                      for port in chosen[wk]))
        phases = Phases(gen, out_dir)

        warm = phases.run(w["rate"], WARMUP_S, w["update_ms"])
        fixed = measured_phase(server, phases, w["rate"], fixed_s, w["update_ms"])
        gate(fixed, problems)
        report["fixed"] = {k: v for k, v in fixed.items() if k != "visible_ms"}
        mismatches = warm["mismatches"] + fixed["mismatches"]
        attempted = fixed["legit"]["sent"] + fixed["updates"]
        failed = fixed["fail"] + fixed["updates_failed"]
        visible = list(fixed["visible_ms"])
        # The tail runs ahead of the ramp, so the ramp's overloaded steps
        # leave no backlog in the server it measures.
        if tail_s > 0 and not args.trace:
            tail = phases.run(w["rate"], tail_s, TAIL_UPDATE_MS)
            mismatches += tail["mismatches"]
            attempted += tail["legit"]["sent"] + tail["updates"]
            failed += tail["fail"] + tail["updates_failed"]
            visible += tail["visible_ms"]
        max_qps, report["ramp"] = ramp(phases)
        mismatches += sum(step["mismatches"] for step in report["ramp"])
        report["rss_mib"] = server.rss_hwm_mib()
    finally:
        for srv in servers:
            srv.close()
        gen.close()

    s = fixed["server"]

    def shed(cls):
        return fixed[cls]["timed_out"] / max(1, fixed[cls]["sent"]) if w["defense"] else 0.0

    values = {
        "p50_us": fixed["latency"]["p50"],
        "p99_us": fixed["latency"]["p99"],
        "max_qps": max_qps,
    }
    if args.trace:
        layers, report["trace"], trace_bad = traced_layers(
            binaries, w, args.seed, s["batch_fill"], out_dir, s["cpu_ns_per_query"])
        mismatches += trace_bad
        values.update(layers)
        values.update({
            "net.batch_fill": s["batch_fill"],
            "net.worker_imbalance": s["imbalance"],
            "net.worker_busy_ratio": s["busy_ratio"],
            "server.cache_hit_ratio": s["cache_hit_ratio"],
            "server.cache_invalidations_per_s": s["invalidations_per_s"],
            "defense.legit_shed_ratio": shed("legit"),
            "defense.attack_shed_ratio": shed("attack"),
            "propagation.incremental_ratio": s["incremental_ratio"],
            "gen.late_p99_us": fixed["late_p99_us"],
            "fail_ratio": fixed["fail_ratio"],
        })
    else:
        vis = lib.summarize(visible)
        report["publish_visible_ms"] = vis
        values.update({
            "setup_s": lib.median(report["setup_s"]),
            "server_cpu_ns_per_query": s["cpu_ns_per_query"],
            "server_rss_mib": report["rss_mib"],
            "publish_visible_p50_ms": vis["p50"],
            "publish_visible_p99_ms": vis["p99"],
        })

    if mismatches:
        problems.append("%d answers did not match the expected bytes" % mismatches)
    report["values"] = values
    report["problems"] = problems
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=1, default=str)
    for problem in problems:
        log("FAIL:", problem)
    # Sample counts behind the result's timings, printed one line ahead of it.
    samples = json.dumps({"samples": {
        "setup_s": len(report["setup_s"]),
        "p50_us": fixed["latency"]["n"], "p99_us": fixed["latency"]["n"],
        "server_cpu_ns_per_query": int(s["answered"]),
        "max_qps": len(report["ramp"]),
        "publish_visible_ms": len(visible),
    }})
    result = lib.result_line(lib.load_spec(), args.trace, not problems, attempted, failed, values)
    return samples + "\n" + result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binaries = build()

        def stop(signum, _frame):
            raise BenchError("stopped by signal %d (deadline %d s)" % (signum, RUN_DEADLINE_S))

        # Turned into an exception, so every child is stopped on the way out.
        signal.signal(signal.SIGALRM, stop)
        signal.signal(signal.SIGTERM, stop)
        signal.alarm(RUN_DEADLINE_S)
        lines = run(args, binaries)
        signal.alarm(0)
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError, KeyError) as err:
        log("perfbench: %s" % err)
        return 1
    print(lines, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
