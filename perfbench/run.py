#!/usr/bin/env python3
"""The repo's benchmark: three workloads over the survey engine and the
campaign process pool, timed from outside the program and checked on
every run.

    python3 perfbench/run.py --workload survey_dense --seed 1 \\
        --seconds 38 --trace 0

Run it from the repository root. The first call configures and builds
the simulator and the harness (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR or .bench_build; later calls rebuild incrementally.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes a Chrome trace. perfbench/README.md defines every metric and
workload; perfbench/selftest.py checks this script at smoke size.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pool width of the pool workloads: 4 processes, never more than nproc.
PROCS = min(4, os.cpu_count() or 1)

# survey_* compose CityPlan -> Simulation -> WardriveCampaign::run in the
# harness over one fixed city (seed SURVEY_CITY), with --seed seeding the
# simulation; campaign_burst drives `pw_run --campaign` as a pool.
SURVEY_CITY = 1
WORKLOADS = {
    "survey_dense": {
        "kind": "survey",
        "params": {"scale": 0.04, "fading_rho": 0.0,
                   "fading_sigma_db": 2.0, "fading_coherence_us": 1000.0},
    },
    "survey_faded": {
        "kind": "survey",
        "params": {"scale": 0.01, "fading_rho": 0.9,
                   "fading_sigma_db": 2.0, "fading_coherence_us": 1000.0},
    },
    "campaign_burst": {
        "kind": "campaign",
        # Smoke-size jobs, round-robin so each pool wave mixes them.
        "experiments": ["quickstart", "wipeep_localization", "defending",
                        "battery_drain"],
        "jobs": 160,
        "timeout_ms": 30000,
    },
}

# Set-up-only samples (cold, one fresh process each) after every timed
# iteration. With the timed surveys' own set-ups, their interquartile
# mean is setup_s.
SETUP_SAMPLES = 3
# Every run times at least this many iterations, so every document
# repeats and its digest is compared.
MIN_ITERATIONS = 3

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("scenario.plan_s", "s"),
    ("scenario.devices", "count"),
    ("core.build_s", "s"),
    ("core.drive_s", "s"),
    ("core.ack_yield", "ratio"),
    ("core.response_rate", "ratio"),
    ("sim.scheduler.events_executed", "count"),
    ("sim.scheduler.events_cancelled", "count"),
    ("sim.scheduler.pool_slots_peak", "count"),
    ("sim.scheduler.host_ns_per_event", "ns"),
    ("sim.medium.transmissions", "count"),
    ("sim.medium.candidates_per_tx", "count"),
    ("sim.medium.receptions_per_tx", "count"),
    ("sim.medium.link_cache_hit_rate", "ratio"),
    ("sim.medium.link_cache_evictions", "count"),
    ("sim.medium.fer_cache_hit_rate", "ratio"),
    ("sim.medium.fading_advances_per_tx", "count"),
    ("sim.medium.fading_cache_hits", "count"),
    ("phy.fer_draws_per_tx", "count"),
    ("sim.medium.fading_links_peak", "count"),
    ("mac.acks_sent", "count"),
    ("mac.retries_per_tx", "count"),
    ("sim.radio.state_transitions", "count"),
    ("sim.ppdu_pool.reuse_rate", "ratio"),
    ("sim.medium.ppdu_bytes_copied_per_tx", "octets"),
    ("runtime.driver_s", "s"),
    ("runtime.driver_cpu_s", "s"),
    ("runtime.child_cpu_s", "s"),
    ("runtime.pool_utilization", "ratio"),
    ("runtime.campaign.jobs_completed", "count"),
    ("runtime.campaign.jobs_retried", "count"),
    ("runtime.campaign.jobs_quarantined", "count"),
    ("runtime.campaign.queue_depth_peak", "count"),
    ("runtime.campaign.journal_bytes", "bytes"),
    ("obs.trace_overhead", "ratio"),
]

CHILD_ENV = dict(os.environ, PW_THREADS="1")
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failed)."""


class Interrupted(Exception):
    """The run overran its time limit or was told to stop."""


def interrupt(*_):
    raise Interrupted()


# --------------------------------------------------------------- build

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds pw_run and the harness."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources under %s/src; run from the "
                         "repository root" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j", str(PROCS)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed; see %s" % log_path)
    return {"harness": os.path.join(out, "pw_bench_harness"),
            "pw_run": os.path.join(out, "pw", "runtime", "pw_run")}


def fingerprint(bins, seed):
    p = spawn([bins["harness"], "fingerprint"],
              os.path.join(build_dir(), "fingerprint.out"))
    fp = (last_json(p.out) if p.code == 0 else None) or {}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "none (not a git checkout)"
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            with open(os.path.join(base, name), "rb") as f:
                digest.update(name.encode() + f.read())
    return {
        "compiler": fp.get("compiler"),
        "build_type": fp.get("build_type"),
        "pw_metrics": "ON" if fp.get("pw_metrics") else "OFF",
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "load": {"harness_processes": 1, "PW_THREADS": 1,
                 "pool_width": PROCS},
    }


# ----------------------------------------------------------- processes

class Proc:
    """One finished child: exit code, stdout text, host times, peak RSS."""

    def __init__(self, pid, code, out, wall_s, start_ns, cpu_s,
                 child_cpu_s, rss_mb):
        self.pid = pid
        self.code = code
        self.out = out
        self.wall_s = wall_s
        self.start_ns = start_ns
        self.cpu_s = cpu_s              # the process's own CPU
        self.child_cpu_s = child_cpu_s  # CPU of the children it reaped
        self.rss_mb = rss_mb            # max over it and its descendants


# Children not yet reaped. Each leads its own process group, so stop_all
# also reaches the children a pw_run driver started.
LIVE = set()


def start(cmd, stdout, stderr=subprocess.DEVNULL):
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr,
                            env=CHILD_ENV, cwd=ROOT, start_new_session=True)
    LIVE.add(proc)
    return proc


def stop_all():
    """Kills every live child's process group and waits for each."""
    for proc in list(LIVE):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        LIVE.discard(proc)


def spawn(cmd, out_path):
    """Runs cmd to exit. stdout goes to out_path. Reads the zombie's
    /proc stat before reaping it, so own CPU and its children's CPU are
    separate; wait4's rusage gives the peak RSS of the process tree."""
    start_ns = time.monotonic_ns()
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        proc = start(cmd, out, err)
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = (time.monotonic_ns() - start_ns) / 1e9
        with open("/proc/%d/stat" % proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        LIVE.discard(proc)
    with open(out_path, "rb") as f:
        text = f.read().decode("utf-8", "replace")
    return Proc(proc.pid, proc.returncode, text, wall, start_ns,
                (int(fields[11]) + int(fields[12])) / CLK_TCK,
                (int(fields[13]) + int(fields[14])) / CLK_TCK,
                usage.ru_maxrss / 1024.0)


def read_file(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return b""


def read_document(raw):
    """A result document parsed from its bytes; None if it is not JSON."""
    try:
        return json.loads(raw)
    except ValueError:
        return None


def last_json(text):
    """The JSON object on the last line of a child's stdout, or None."""
    lines = text.strip().splitlines()
    return read_document(lines[-1]) if lines else None


# -------------------------------------------------------------- checks
#
# Each check takes the parsed result document and returns (ok, reason).
# A document that fails counts every operation it covers as failed.

def check_survey(doc, every_device_answers=True):
    """Table 2's claim: every discovered device answered. Under fading a
    device heard once in a fade-up can exhaust its injection attempts in
    fade-downs, so the faded survey only requires 0 < responded <=
    discovered."""
    if not isinstance(doc, dict):
        return False, "no document"
    if doc.get("failed") is not False:
        return False, "document marked failed"
    res = doc.get("results") or {}
    discovered, responded = res.get("discovered"), res.get("responded")
    if not isinstance(discovered, int) or discovered <= 0:
        return False, "nothing discovered"
    if not isinstance(responded, int) or responded <= 0 or \
            responded > discovered or \
            (every_device_answers and responded != discovered):
        return False, "responded %r of %r discovered" % (responded,
                                                        discovered)
    return True, ""


def check_campaign(doc, jobs, state):
    if not isinstance(doc, dict) or doc.get("failed") is not False:
        return False, "no document or document marked failed"
    if len(doc.get("jobs") or []) != jobs or \
            (doc.get("summary") or {}).get("jobs") != jobs:
        return False, "not every job completed"
    statuses = [j.get("status") for j in (state or {}).get("jobs",
                                                           {}).values()]
    if len(statuses) != jobs or any(s != "completed" for s in statuses):
        return False, "a job is quarantined or pending"
    return True, ""


# ------------------------------------------------------------ workloads

class Run:
    """Accumulates one benchmark run: operations, digests, spans."""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.digests = {}
        self.spans = []
        self.counter = 0

    def path(self, stem):
        self.counter += 1
        return os.path.join(self.work, "%s.%d" % (stem, self.counter))

    def ops(self, n, ok, reason=""):
        self.attempted += n
        if not ok:
            self.mark_failed(n, reason)

    def mark_failed(self, n, reason):
        """Fails n operations already counted as attempted."""
        self.failed += n
        self.reasons.append(reason)

    def digest(self, value, key=None):
        """Every operation on one input must produce the same document."""
        return self.digests.setdefault(key, value) == value

    def span(self, name, start_ns, end_ns, pid, parent=None, args=None):
        self.spans.append({"name": name, "start_ns": start_ns,
                           "end_ns": end_ns, "pid": pid, "parent": parent,
                           "args": args or {}})

    def harness_spans(self, pid, spans):
        for s in spans:
            parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else None
            self.span(s["name"], s["start_ns"], s["end_ns"], pid, parent)


def survey_cmd(bins, cfg, seed, *extra):
    cmd = [bins["harness"], "survey", "--seed=%d" % seed,
           "--city-seed=%d" % SURVEY_CITY]
    cmd += ["--%s=%r" % (k, v) for k, v in sorted(cfg["params"].items())]
    return cmd + list(extra)


def survey_iteration(run, bins, cfg, seed, trace=False):
    """One survey in a fresh process. A traced survey whose simulation
    seed is the city's also carries the run_experiment reference, which
    must equal it."""
    p = spawn(survey_cmd(bins, cfg, seed, *(["--trace"] if trace else [])),
              run.path("survey"))
    out = last_json(p.out) if p.code == 0 else None
    ok, reason = check_survey(out and out.get("document"),
                              cfg["params"]["fading_rho"] == 0.0)
    if ok and not run.digest(out["digest"], seed):
        ok, reason = False, "digest differs between runs of one seed"
    if ok and trace and seed == SURVEY_CITY and \
            out.get("reference_equal") is not True:
        ok, reason = False, "composed results differ from run_experiment"
    run.ops(1, ok, reason)
    if out is None:
        return None, p
    run.harness_spans(p.pid, out["spans"])
    return out, p


def survey_setup_sample(run, bins, cfg, seed):
    p = spawn(survey_cmd(bins, cfg, seed, "--setup-only"),
              run.path("setup"))
    out = last_json(p.out) if p.code == 0 else None
    if out is None:
        run.ops(1, False, "set-up process failed")
        return None, p
    return out["setup_ns"] / 1e9, p


def write_manifest(run, cfg):
    """The campaign_burst manifest, canonical like pw_campaign.py's."""
    exps = cfg["experiments"]
    jobs = [{"experiment": exps[i % len(exps)],
             "id": "j%03d-%s" % (i, exps[i % len(exps)].replace("_", "-")),
             "params": {}, "smoke": True} for i in range(cfg["jobs"])]
    manifest = {"base_seed": run.seed, "campaign": "perfbench-burst",
                "jobs": jobs, "suite_version": "perfbench",
                "policy": {"backoff_ms": 100, "max_attempts": 3,
                           "timeout_ms": cfg["timeout_ms"]}}
    return dump_manifest(run, manifest)


def dump_manifest(run, manifest):
    path = os.path.join(run.work, manifest["campaign"] + ".json")
    with open(path, "w") as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path, len(manifest["jobs"])


def pool_iteration(run, bins, manifest, units):
    """One pool run: spawn the driver, read and check its document."""
    doc_path = run.path("pool") + ".json"
    p = spawn([bins["pw_run"], "--campaign=" + manifest,
               "--campaign-dir=" + doc_path + ".campaign",
               "--procs=%d" % PROCS, "--json=" + doc_path],
              doc_path + ".out")
    raw = read_file(doc_path)
    doc = read_document(raw)
    state = read_document(read_file(doc_path + ".campaign/state.json"))
    if p.code != 0:
        ok, reason = False, "driver exited %d" % p.code
    else:
        ok, reason = check_campaign(doc, units, state)
    if ok and not run.digest(zlib.crc32(raw)):
        ok, reason = False, "digest differs between runs of one seed"
    run.ops(units, ok, reason)
    wall = (time.monotonic_ns() - p.start_ns) / 1e9
    run.span("runtime.driver", p.start_ns, p.start_ns + int(p.wall_s * 1e9),
             os.getpid(), "pool", {"exit": p.code})
    run.span("pool", p.start_ns, time.monotonic_ns(), os.getpid())
    return wall, p, doc, state, doc_path


def pool_setup_sample(run, bins, manifest):
    p = spawn([bins["harness"], "campaign-setup", "--manifest=" + manifest,
               "--dir=" + run.path("setup") + ".campaign"],
              run.path("setup") + ".out")
    out = last_json(p.out) if p.code == 0 else None
    if out is None:
        run.ops(1, False, "set-up process failed")
        return None, p
    run.harness_spans(p.pid, out["spans"])
    return out["setup_ns"] / 1e9, p


def units_pass(run, bins, manifest, units, trace):
    """The manifest's jobs run in-process by up to PROCS harness
    processes at once (shard K of P each). With trace, each returns its
    merged obs/ block; the blocks merge here the way the driver merges its
    children's (counters add, gauges max). Returns (wall_s, merged block
    or None)."""
    start_ns = time.monotonic_ns()
    procs = []
    shards = min(PROCS, units)
    for k in range(shards):
        path = run.path("units")
        cmd = [bins["harness"], "units", "--manifest=" + manifest,
               "--shard=%d" % k, "--of=%d" % shards]
        if trace:
            cmd.append("--trace")
        f = open(path, "wb")
        procs.append((start(cmd, f), f, path))
    outs = []
    for proc, f, path in procs:
        proc.wait()
        LIVE.discard(proc)
        f.close()
        with open(path) as g:
            outs.append(last_json(g.read()) if proc.returncode == 0
                        else None)
    wall = (time.monotonic_ns() - start_ns) / 1e9
    if any(o is None for o in outs) or sum(o["failed"] for o in outs):
        run.ops(units, False, "an in-process unit failed")
        return wall, None
    run.ops(units, True)
    merged = None
    if trace:
        merged = {"counters": {}, "gauges": {}}
        for o in outs:
            for k, v in o["counters"]["counters"].items():
                merged["counters"][k] = merged["counters"].get(k, 0) + v
            for k, v in o["counters"]["gauges"].items():
                merged["gauges"][k] = max(merged["gauges"].get(k, 0), v)
    for o, (proc, _, _) in zip(outs, procs):
        run.harness_spans(proc.pid, o["spans"])
    return wall, merged


# ------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def interquartile_mean(values):
    """Mean of the middle half. Cold set-up samples fall in two modes; a
    median jumps between them as their mix shifts, this moves smoothly."""
    if len(values) < 4:
        return median(values)
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


def layer_metrics(counters, gauges):
    """Per-layer ratios from one obs/ block (counters, gauges)."""
    c = lambda k: counters.get(k, 0)  # noqa: E731
    div = lambda a, b: a / b if b else 0.0  # noqa: E731
    tx = c("sim.medium.transmissions")
    return {
        "sim.scheduler.events_executed": c("sim.scheduler.events_executed"),
        "sim.scheduler.events_cancelled":
            c("sim.scheduler.events_cancelled"),
        "sim.scheduler.pool_slots_peak":
            gauges.get("sim.scheduler.pool_slots_peak", 0),
        "sim.medium.transmissions": tx,
        "sim.medium.candidates_per_tx":
            div(c("sim.medium.fanout_candidates"), tx),
        "sim.medium.receptions_per_tx": div(c("sim.medium.receptions"), tx),
        "sim.medium.link_cache_hit_rate": div(
            c("sim.medium.link_cache_hits"),
            c("sim.medium.link_cache_hits") +
            c("sim.medium.link_cache_misses")),
        "sim.medium.link_cache_evictions":
            c("sim.medium.link_cache_evictions"),
        "sim.medium.fer_cache_hit_rate": div(
            c("sim.medium.fer_cache_hits"),
            c("sim.medium.fer_cache_hits") +
            c("sim.medium.fer_cache_misses")),
        "sim.medium.fading_advances_per_tx":
            div(c("sim.medium.fading_advances"), tx),
        "sim.medium.fading_cache_hits": c("sim.medium.fading_cache_hits"),
        "phy.fer_draws_per_tx": div(c("phy.fer_draws"), tx),
        "sim.medium.fading_links_peak":
            gauges.get("sim.medium.fading_links_peak", 0),
        "mac.acks_sent": c("mac.acks_sent"),
        "mac.retries_per_tx": div(c("mac.retries"), tx),
        "sim.radio.state_transitions": c("sim.radio.state_transitions"),
        "sim.ppdu_pool.reuse_rate": div(
            c("sim.ppdu_pool.reuses"),
            c("sim.ppdu_pool.reuses") + c("sim.ppdu_pool.allocations")),
        "sim.medium.ppdu_bytes_copied_per_tx":
            div(c("sim.medium.ppdu_bytes_copied"), tx),
    }


def survey_outcome(results):
    fakes = results.get("fake_frames_sent", 0)
    return {"core.ack_yield":
            results.get("acks_observed", 0) / fakes if fakes else 0.0,
            "core.response_rate": results.get("response_rate", 0.0)}


def measure_survey(run, bins, cfg, seconds, trace):
    """Timed surveys of the run's seed, one fresh process each and each
    followed by SETUP_SAMPLES set-up-only processes, until another would
    overrun --seconds (at least MIN_ITERATIONS, so the document repeats).
    Every time metric is the median over the run's samples, except
    setup_s (interquartile_mean)."""
    deadline = time.monotonic() + seconds
    if trace:
        return trace_survey(run, bins, cfg, deadline)
    got = {"wall_s": [], "setup_s": [], "events_per_s": [], "jobs_per_s": []}
    rss, iterations = [], []
    while len(iterations) < MIN_ITERATIONS or \
            time.monotonic() + median(iterations) <= deadline:
        start = time.monotonic()
        out, p = survey_iteration(run, bins, cfg, run.seed)
        rss.append(p.rss_mb)
        if out is not None:
            wall = out["wall_ns"] / 1e9
            setup = out["setup_ns"] / 1e9
            got["wall_s"].append(wall)
            got["setup_s"].append(setup)
            # The run phase of this same process: wall minus set-up.
            got["events_per_s"].append(out["events"] / (wall - setup))
            got["jobs_per_s"].append(1.0 / p.wall_s)
        for _ in range(SETUP_SAMPLES):
            s, sp = survey_setup_sample(run, bins, cfg, run.seed)
            rss.append(sp.rss_mb)
            if s is not None:
                got["setup_s"].append(s)
        iterations.append(time.monotonic() - start)
    if not got["wall_s"]:
        return {}
    values = {k: median(v) for k, v in got.items()}
    values["setup_s"] = interquartile_mean(got["setup_s"])
    values["peak_rss_mb"] = max(rss)
    return values


def trace_survey(run, bins, cfg, deadline):
    """Alternates untraced and traced surveys of the run's seed; the
    traced ones give the per-layer numbers, and their counters must
    repeat exactly. A traced survey seeded like the city itself checks
    the composed calls against run_experiment."""
    if run.seed != SURVEY_CITY:
        survey_iteration(run, bins, cfg, SURVEY_CITY, trace=True)
    plain, traced, first = [], [], None
    while True:
        out, _ = survey_iteration(run, bins, cfg, run.seed)
        if out is not None:
            plain.append(out["wall_ns"] / 1e9)
        tout, _ = survey_iteration(run, bins, cfg, run.seed, trace=True)
        if tout is not None:
            traced.append(tout)
            if first is None:
                first = tout
            elif tout["counters"] != first["counters"]:
                run.mark_failed(1, "traced counters differ between runs")
        if not first or not plain or \
                time.monotonic() + 2 * median(plain) > deadline:
            break
    if first is None or not plain:
        return {}
    m = layer_metrics(first["counters"]["counters"],
                      first["counters"]["gauges"])
    drive = median([t["drive_ns"] for t in traced]) / 1e9
    m.update(survey_outcome(first["document"]["results"]))
    m.update({
        "scenario.plan_s": median([t["plan_ns"] for t in traced]) / 1e9,
        "scenario.devices": first["devices"],
        "core.build_s": median([t["build_ns"] for t in traced]) / 1e9,
        "core.drive_s": drive,
        "sim.scheduler.host_ns_per_event":
            drive * 1e9 / max(1, m["sim.scheduler.events_executed"]),
        "obs.trace_overhead": median([t["wall_ns"] for t in traced]) /
        1e9 / median(plain) - 1.0,
    })
    return m


def measure_pool(run, bins, cfg, seconds, trace):
    manifest, units = write_manifest(run, cfg)
    # Event counts are deterministic per seed; the untimed counting pass
    # runs the same jobs in-process with obs/ on.
    _, counted = units_pass(run, bins, manifest, units, trace=True)
    if counted is None:
        return {}
    events = counted["counters"]["sim.scheduler.events_executed"]
    deadline = time.monotonic() + seconds
    if trace:
        return trace_pool(run, bins, manifest, units, counted, deadline)
    walls, setups, rss, iterations = [], [], [], []
    # At least MIN_ITERATIONS; another one only if it fits the deadline.
    while len(iterations) < MIN_ITERATIONS or \
            time.monotonic() + median(iterations) <= deadline:
        start = time.monotonic()
        wall, p, _, _, _ = pool_iteration(run, bins, manifest, units)
        walls.append(wall)
        rss.append(p.rss_mb)
        for _ in range(SETUP_SAMPLES):
            s, sp = pool_setup_sample(run, bins, manifest)
            rss.append(sp.rss_mb)
            if s is not None:
                setups.append(s)
        iterations.append(time.monotonic() - start)
    return {"wall_s": median(walls), "setup_s": interquartile_mean(setups),
            "events_per_s": median([events / w for w in walls]),
            "jobs_per_s": median([units / w for w in walls]),
            "peak_rss_mb": max(rss)}


def trace_pool(run, bins, manifest, units, counted, deadline):
    """Driver-level numbers from untraced pool runs (host CPU read from
    /proc), the driver's set-up parts as spans, obs/ counters from the
    traced units pass, and the tracing overhead from traced vs untraced
    units passes."""
    driver, plain, traced = [], [], []
    first = counted
    while True:
        wall, p, doc, state, doc_path = pool_iteration(run, bins, manifest,
                                                       units)
        driver.append((wall, p, doc, state, doc_path))
        pool_setup_sample(run, bins, manifest)
        plain.append(units_pass(run, bins, manifest, units,
                                trace=False)[0])
        w, merged = units_pass(run, bins, manifest, units, trace=True)
        traced.append(w)
        if merged is not None and merged != first:
            run.mark_failed(units, "traced counters differ between runs")
        if time.monotonic() + 2 * (w + wall) > deadline:
            break
    wall, p, doc, state, doc_path = driver[0]
    m = layer_metrics(first["counters"], first["gauges"])
    child_cpu = median([d[1].child_cpu_s for d in driver])
    m.update({
        "runtime.driver_s": median([d[1].wall_s for d in driver]),
        "runtime.driver_cpu_s": median([d[1].cpu_s for d in driver]),
        "runtime.child_cpu_s": child_cpu,
        "runtime.pool_utilization": median(
            [d[1].child_cpu_s / (PROCS * d[0]) for d in driver]),
        "sim.scheduler.host_ns_per_event":
            child_cpu * 1e9 / max(1, m["sim.scheduler.events_executed"]),
        "obs.trace_overhead": median(traced) / median(plain) - 1.0,
    })
    if state is not None:
        attempts = [j.get("attempts", 0) for j in state["jobs"].values()]
        statuses = [j.get("status") for j in state["jobs"].values()]
        camp = doc_path + ".campaign"
        journal = os.path.getsize(os.path.join(camp, "results.jsonl"))
        snapshot = os.path.getsize(os.path.join(camp, "state.json"))
        m.update({
            "runtime.campaign.jobs_completed": statuses.count("completed"),
            "runtime.campaign.jobs_retried": sum(attempts) - len(attempts),
            "runtime.campaign.jobs_quarantined":
                statuses.count("quarantined"),
            "runtime.campaign.queue_depth_peak": units,
            # Computed, not counted: the journal plus one state.json
            # rewrite per claim and per outcome, each taken at its final
            # size (an upper bound; early snapshots are smaller).
            "runtime.campaign.journal_bytes":
                journal + snapshot * (1 + 2 * sum(attempts)),
        })
    return m


# ---------------------------------------------------------------- main

def write_trace(run, fp, path):
    """Chrome trace-event JSON of every span this run recorded."""
    events = [{"name": s["name"], "ph": "X", "ts": s["start_ns"] / 1e3,
               "dur": (s["end_ns"] - s["start_ns"]) / 1e3, "pid": s["pid"],
               "tid": 0, "args": dict(s["args"], parent=s["parent"])}
              for s in run.spans]
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events,
                   "otherData": fp}, f)


def measure(name, cfg, seed, seconds, trace, bins):
    """One benchmark run; returns the result object."""
    work = os.path.join(build_dir(), "work", "%s-%d-%d" % (name, seed,
                                                           os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(seed, work)
    try:
        if cfg["kind"] == "survey":
            values = measure_survey(run, bins, cfg, seconds, trace)
        else:
            values = measure_pool(run, bins, cfg, seconds, trace)
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)
    names = PER_LAYER if trace else END_TO_END
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u}
               for n, u in names}
    attempted = max(1, run.attempted)
    # A run that measured nothing failed every operation it tried.
    failed = run.failed if values else attempted
    return run, {"correct": failed == 0, "attempted": attempted,
                 "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        bins = build()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    # A hung child must not hang the benchmark: the measurement gets
    # --seconds plus two minutes, then every child is killed.
    signal.signal(signal.SIGALRM, interrupt)
    signal.signal(signal.SIGTERM, interrupt)
    signal.alarm(int(args.seconds) + 120)
    try:
        fp = fingerprint(bins, args.seed)
        run, result = measure(args.workload, WORKLOADS[args.workload],
                              args.seed, args.seconds, args.trace, bins)
    except Interrupted:
        print("perfbench: out of time or stopped; children killed",
              file=sys.stderr)
        return 1
    signal.alarm(0)
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    failed_share = result["failed"] / result["attempted"]
    with open(stem + ".json", "w") as f:
        json.dump({"fingerprint": fp, "workload": args.workload,
                   "failed_share": failed_share, "reasons": run.reasons,
                   "result": result}, f, indent=2, sort_keys=True)
    if args.trace:
        write_trace(run, fp, stem + ".trace.json")
    print(json.dumps({"fingerprint": fp, "failed_share": failed_share,
                      "reasons": run.reasons[:5]}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
