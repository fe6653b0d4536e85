#!/usr/bin/env python3
"""The qramsim benchmark.

    python3 qrambench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qrambench/run.py steady --workload NAME [--runs K]

Run from the root of a checkout. The first call builds libqramsim, the
four shipped CLIs and the in-process helper (qrambench/qrambench.cc) in
Release under $CARGO_TARGET_DIR (default .bench_build); later calls
reuse that build. Every input is generated from --seed. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when --trace 0 and the
per-layer metrics when --trace 1. Everything else (the host and build
stamp, operation counts, check outcomes and, when tracing, the layer
table, residual and tracing overhead) goes to standard error. A run
whose output check fails prints correct: false and exits 1; a run that
cannot build or start prints no result and exits 1.

`steady` runs one workload K times with seeds 1..K, for BENCHMARK.json's
run_seconds, and prints each end-to-end metric's median and quartile
spread next to its bound.
See qrambench/README.md for the workloads, metrics and reference
figures.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = os.cpu_count() or 1

# --- Workload definitions -------------------------------------------------
#
# depol_replay: the canonical workload (bucket-brigade m=8, weighted gate
# depolarizing 1e-3), one fixed-budget Replay estimate per round at 1 and
# at nproc/2 threads, in-process. The nproc-thread rate of the default
# (pipelined) executor spread 18% between runs on the 4-vCPU reference
# host against 10% at nproc/2 (README), so the timed loop runs nproc/2;
# the traced run still reports the nproc speedup.
DEPOL = {"arch": "bb", "m": 8, "k": 0, "noise": "gate-depol",
         "eps": "1e-3", "shots": 2048, "threads": max(1, NPROC // 2)}

# zbias_sweep: virtual QRAM (m=6 tree, k=2 paged bits: address width 8)
# under pure gate-Z noise, a 5-point eps_r sweep (eps_r = 8..0.5, i.e.
# rate factors 1/eps_r) with common random numbers, one qramsim_drive
# job at a time: two shards per worker over nproc/2 single-thread shard
# processes. A job waits for its slowest shard, so the more vCPUs its
# workers hold, the more any other runnable process (the drive, this
# script, another tenant of the host) stretches it: with a worker on
# every vCPU one busy process cost 15-25% of throughput, and nproc-1
# workers still spread 21..32% between runs on a busy host (README).
# The job directories are thrown away, so their writes skip fsync (the
# program's QRAMSIM_FSYNC knob); atomicfile.commit_us still times one.
ZBIAS_WORKERS = max(1, NPROC // 2)
ZBIAS_ENV = {"QRAMSIM_FSYNC": "0"}
ZBIAS = {"arch": "virtual", "m": 6, "k": 2, "noise": "gate-z",
         "eps": "1e-3", "shots": 4096,
         "factors": "0.125,0.25,0.5,1,2", "shards": 2 * ZBIAS_WORKERS}

# service_jobs: small brokered jobs (m=6, 4 shards) alternating two
# architectures; every 4th job of a client re-submits that client's
# previous fresh workload. Fresh jobs take 512..3584 shots (a multiple
# of 256 drawn from the seed): with one job size every latency would
# sit on the same multiple of the drive's 50 ms poll interval, and the
# median would jump a whole interval when the job crosses it.
#
# The broker slows down partway through each run: once its journal
# passes the 4 MB rotation size (about 12 s into the loop here) every
# append rewrites the whole journal (CHANGES.md has the FOUND line).
# The later, slower jobs are about a fifth of a run's jobs, so they
# show in jobs_per_s and in the stderr p90, not in the median.
SERVICE = {"archs": ["bb", "fanout"], "m": 6, "noise": "gate-depol",
           "eps": "1e-3", "shots_unit": 256, "shots_units": (2, 13),
           "shards": 4, "clients": 2, "servers": 2, "repeat_every": 4,
           "rss_jobs": 120}

SETUP_REPS = 31        # fresh set-ups per run; setup_s is their median
SERVICE_SETUP_REPS = 21
VERIFY_SAMPLE = 8      # shots per checked run re-evaluated by reference


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class CheckFailed(Exception):
    """An output check failed: the run reports correct: false."""


# --- Build ---------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "qrambench")


def build():
    """Configure (once) and build in Release; returns the binary dir."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           stderr=sys.stderr)
        subprocess.run(["cmake", "--build", bdir, "-j", str(NPROC),
                        "--target", "qrambench"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    return bdir


# --- Tracing -------------------------------------------------------------

class Tracer:
    """In-memory spans (name, start, end, parent, job id) recorded
    around the benchmark's own calls; written out when the run ends."""

    def __init__(self, on):
        self.on = on
        self.spans = []
        self.lock = threading.Lock()
        self.local = threading.local()

    def pause(self, paused):
        """Stop (or resume) recording on the calling thread only, so
        that each closed-loop client can interleave traced and
        untraced jobs."""
        self.local.paused = paused

    def open(self, name, ident, parent=-1):
        if not self.on or getattr(self.local, "paused", False):
            return -1
        with self.lock:
            self.spans.append({"name": name, "id": ident,
                               "parent": parent, "start": time.monotonic(),
                               "end": None})
            return len(self.spans) - 1

    def close(self, idx):
        if idx >= 0:
            self.spans[idx]["end"] = time.monotonic()

    def adopt(self, spans, parent):
        """Attach spans a helper process recorded (same clock)."""
        if not self.on:
            return
        with self.lock:
            base = len(self.spans)
            for s in spans:
                s = dict(s)
                s["parent"] = parent if s["parent"] < 0 else \
                    base + s["parent"]
                self.spans.append(s)

    def self_times(self):
        """Each span name's total self time: duration minus the part
        of it that its children cover."""
        children = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s["parent"], []).append(i)
        out = {}
        for i, s in enumerate(self.spans):
            if s["end"] is None:
                continue
            covered, last = 0.0, s["start"]
            for c in sorted(children.get(i, []),
                            key=lambda c: self.spans[c]["start"]):
                cs = self.spans[c]
                if cs["end"] is None:
                    continue
                lo, hi = max(cs["start"], last), min(cs["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    last = hi
            name = s["name"]
            tot = out.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += s["end"] - s["start"]
            tot[2] += s["end"] - s["start"] - covered
        return out


# --- Processes -----------------------------------------------------------

class Children:
    """Every process the run starts, each in its own process group, so
    that a failing run can still stop all of them (drives included
    with the shard processes they fork)."""

    def __init__(self):
        self.live = {}
        self.closed = False
        self.lock = threading.Lock()

    def spawn(self, argv, out_path, err_path, stdout_pipe=False,
              env=None):
        if self.closed:
            raise CheckFailed("run is shutting down")
        out = subprocess.PIPE if stdout_pipe else open(out_path, "wb")
        err = open(err_path, "wb")
        try:
            p = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err,
                                 stdin=subprocess.DEVNULL,
                                 env=dict(os.environ, **env) if env
                                 else None,
                                 start_new_session=True)
        finally:
            if not stdout_pipe:
                out.close()
            err.close()
        with self.lock:
            self.live[p.pid] = p
        return p

    def reap(self, p):
        """Wait for @p; returns (exit status, peak RSS in MB of the
        process and every descendant it waited for)."""
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        with self.lock:
            self.live.pop(p.pid, None)
        return p.returncode, ru.ru_maxrss / 1024.0

    def stop(self, p, sig=signal.SIGTERM):
        try:
            os.killpg(p.pid, sig)
        except ProcessLookupError:
            pass

    def kill_all(self):
        with self.lock:
            self.closed = True
            procs = list(self.live.values())
        for p in procs:
            self.stop(p, signal.SIGKILL)
        for p in procs:
            try:
                self.reap(p)
            except ChildProcessError:
                pass


class Run:
    """One benchmark run: binaries, a private directory, children."""

    def __init__(self, bdir, workload, seed, trace):
        self.bdir = bdir
        self.helper = os.path.join(bdir, "qrambench")
        self.tool = lambda name: os.path.join(bdir, "qramsim", name)
        self.seed = seed
        self.children = Children()
        self.tracer = Tracer(trace)
        # Relative to ROOT (the children's cwd), keeping socket paths
        # short whatever the checkout's absolute path is.
        self.dir = os.path.relpath(
            os.path.join(bdir, "runs", "%s-%d-%d" % (workload, seed,
                                                    os.getpid())), ROOT)
        shutil.rmtree(os.path.join(ROOT, self.dir), ignore_errors=True)
        os.makedirs(os.path.join(ROOT, self.dir))
        self.counter = 0
        self.counter_lock = threading.Lock()

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def fresh(self, stem):
        with self.counter_lock:
            self.counter += 1
            return self.path("%s-%d" % (stem, self.counter))

    def close(self):
        self.children.kill_all()
        shutil.rmtree(os.path.join(ROOT, self.dir), ignore_errors=True)

    def call(self, argv, span=None, parent=-1, ident=0, check=True,
             env=None):
        """Run a child to completion. Returns (exit code, stdout text,
        stderr text, peak RSS MB, wall seconds, span index)."""
        stem = self.fresh("call")
        sp = self.tracer.open(span, ident, parent) if span else -1
        t0 = time.monotonic()
        p = self.children.spawn(argv, stem + ".out", stem + ".err",
                                env=env)
        rc, rss = self.children.reap(p)
        wall = time.monotonic() - t0
        self.tracer.close(sp)
        with open(os.path.join(ROOT, stem + ".out")) as f:
            out = f.read()
        with open(os.path.join(ROOT, stem + ".err")) as f:
            err = f.read()
        os.remove(os.path.join(ROOT, stem + ".out"))
        os.remove(os.path.join(ROOT, stem + ".err"))
        if check and rc != 0:
            raise CheckFailed("%s exited %d: %s" % (
                os.path.basename(argv[0]), rc, err.strip()[-2000:]))
        return rc, out, err, rss, wall, sp

    def helper_json(self, sub, args, span=None, parent=-1, ident=0):
        _, out, _, rss, wall, sp = self.call(
            [self.helper, sub] + args, span, parent, ident)
        res = json.loads(out.strip().splitlines()[-1])
        if "spans" in res:
            self.tracer.adopt(res.pop("spans"), sp)
        return res, rss, wall


def workload_flags(arch, m, k, mem_seed, noise, eps, shots, seed,
                   factors=None):
    flags = ["--arch", arch, "--m", str(m), "--k", str(k),
             "--mem-seed", str(mem_seed), "--noise", noise, "--eps", eps,
             "--shots", str(shots), "--seed", str(seed)]
    if factors:
        flags += ["--factors", factors]
    return flags


def _mix64(z):
    """The splitmix64 finalizer."""
    m = 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31)


def derive(seed, *salt):
    """A 48-bit input seed derived from the benchmark seed and a salt
    naming the input."""
    h = _mix64(seed & 0xFFFFFFFFFFFFFFFF)
    for s in salt:
        h = _mix64(h ^ _mix64(s + 0x9E3779B97F4A7C15))
    return h & 0xFFFFFFFFFFFF


def median(v):
    return statistics.median(v) if v else 0.0


def read_json(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def read_text(path):
    with open(os.path.join(ROOT, path)) as f:
        return f.read()


def check_points(points, z_noise, where):
    """Bounds on every point, F_full == F_reduced under Z noise, and
    for a sweep the Fig. 10 shape: fidelity falls as the rate factor
    grows, by more than the two points' combined stderr."""
    for p in points:
        if not (0.0 <= p["full"] <= p["reduced"] <= 1.0):
            raise CheckFailed("%s: fidelity out of bounds: %r" % (where, p))
        if z_noise and p["full"] != p["reduced"]:
            raise CheckFailed("%s: F_full != F_reduced under Z noise: %r"
                              % (where, p))
    for a, b in zip(points, points[1:]):
        if "factor" not in a:
            break
        stderr = (a["full_stderr"] ** 2 + b["full_stderr"] ** 2) ** 0.5
        if not (b["factor"] > a["factor"] and
                a["full"] - b["full"] > stderr):
            raise CheckFailed("%s: sweep does not fall with the factor "
                              "beyond stderr: %r -> %r" % (where, a, b))


# --- Estimation set-up -----------------------------------------------------

def setup_time(run, flags):
    res, _, _ = run.helper_json("setup", ["--reps", str(SETUP_REPS)] +
                                flags, "setup")
    return res


# --- depol_replay ----------------------------------------------------------

def depol_flags(seed, shots=None):
    return workload_flags(DEPOL["arch"], DEPOL["m"], 0, derive(seed, 1),
                          DEPOL["noise"], DEPOL["eps"],
                          shots or DEPOL["shots"], derive(seed, 2))


def depol_loop(run, seconds, parent=-1):
    """The timed loop in a worker process whose peak RSS is the
    metric; then the reference check of its last round."""
    last = run.path("depol-last.json")
    flags = depol_flags(run.seed)
    res, rss, _ = run.helper_json(
        "replay", ["--seconds", repr(seconds), "--out", last,
                   "--nthreads", str(DEPOL["threads"]),
                   "--trace", "1" if run.tracer.on else "0"] + flags,
        "replay", parent)
    last_flags = depol_flags(run.seed)
    last_flags[last_flags.index("--seed") + 1] = str(int(res["last_seed"]))
    ver, _, _ = run.helper_json(
        "verify", ["--partials", last, "--sample", str(VERIFY_SAMPLE)] +
        last_flags, "verify", parent)
    os.remove(os.path.join(ROOT, last))
    res["checked"] = ver["checked"]
    return res


def depol_metrics(res, setup):
    n = DEPOL["shots"]
    tn, t1 = median(res["tn"]), median(res["t1"])
    return {
        "shots_per_s": n / tn,
        "shots_per_s_1t": n / t1,
        "jobs_per_s": 1.0 / tn,
        "job_p50_ms": 1e3 * tn,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": res["rss_mb"],
    }


def run_depol(run, seconds):
    setup = setup_time(run, depol_flags(run.seed))
    res = depol_loop(run, seconds)
    rounds = int(res["rounds"])
    counts = {"rounds": rounds,
              "shots_evaluated": 2 * rounds * DEPOL["shots"],
              "shots_checked": int(res["checked"]),
              "estimates_compared_1t_vs_nt": rounds}
    return depol_metrics(res, setup), counts["shots_evaluated"], 0, counts


# --- zbias_sweep -------------------------------------------------------------

def zbias_flags(seed, job):
    return workload_flags(ZBIAS["arch"], ZBIAS["m"], ZBIAS["k"],
                          derive(seed, 3), ZBIAS["noise"], ZBIAS["eps"],
                          ZBIAS["shots"], derive(seed, 4, job),
                          ZBIAS["factors"])


def run_drive(run, flags, nshards, workers, broker=None, parent=-1,
              ident=0, env=None):
    """One qramsim_drive job. Returns a dict with its wall time, peak
    RSS, parsed report, result text and job directory."""
    job_dir = run.fresh("job")
    argv = [run.tool("qramsim_drive"), "--job", job_dir, "--shards",
            str(nshards), "--workers", str(workers), "--worker-bin",
            run.tool("qramsim_shard"), "--threads", "1"]
    if broker:
        argv += ["--broker", broker]
    jsp = run.tracer.open("job", ident, parent)
    rc, _, err, rss, wall, _ = run.call(argv + flags, "drive", jsp,
                                        ident, check=False, env=env)
    run.tracer.close(jsp)
    if rc != 0:
        raise CheckFailed("drive exited %d: %s" % (rc, err.strip()[-800:]))
    return {"wall": wall, "rss": rss, "dir": job_dir,
            "report": read_json(os.path.join(job_dir, "report.json")),
            "result": read_text(os.path.join(job_dir, "result.json"))}


def shard_partials(job_dir):
    """Checkpoint paths of a finished job, in shard order."""
    names = sorted((n for n in os.listdir(os.path.join(ROOT, job_dir))
                    if n.startswith("shard-") and n.endswith(".json")),
                   key=lambda n: int(n[6:-5]))
    return [os.path.join(job_dir, n) for n in names]


def verify_job(run, job, flags, parent=-1):
    ver, _, _ = run.helper_json(
        "verify", ["--partials", ",".join(shard_partials(job["dir"])),
                   "--sample", str(VERIFY_SAMPLE), "--result",
                   os.path.join(job["dir"], "result.json")] + flags,
        "verify", parent)
    return ver["checked"]


def zbias_loop(run, seconds, parent=-1):
    """Jobs back to back; when tracing, every other job is traced."""
    jobs = []
    start = time.monotonic()
    while not jobs or time.monotonic() - start < seconds:
        i = len(jobs)
        flags = zbias_flags(run.seed, i)
        traced = run.tracer.on and i % 2 == 1
        run.tracer.pause(not traced)
        job = run_drive(run, flags, ZBIAS["shards"], ZBIAS_WORKERS,
                        parent=parent, ident=i, env=ZBIAS_ENV)
        job["traced"] = traced
        check_points(json.loads(job["result"])["points"], True,
                     "zbias job %d" % i)
        rep = job["report"]
        if not rep["complete"]:
            raise CheckFailed("zbias job %d incomplete" % i)
        job["shards"] = [(s["seconds"], s["setup_seconds"],
                          s["compute_seconds"]) for s in rep["shards"]]
        if i == 0:
            first = job
        else:
            shutil.rmtree(os.path.join(ROOT, job["dir"]))
        del job["result"]
        jobs.append(job)
    run.tracer.pause(False)
    # Independent checks on the first job: reference re-evaluation of
    # sampled shots, and the in-process counter run must reproduce the
    # sharded drive's result byte for byte.
    flags = zbias_flags(run.seed, 0)
    checked = verify_job(run, first, flags, parent)
    inproc = run.path("zbias-inproc.json")
    run.helper_json("inproc", ["--out", inproc, "--threads", str(NPROC)] +
                    flags, "inproc", parent)
    if read_text(inproc) != read_text(os.path.join(first["dir"],
                                                   "result.json")):
        raise CheckFailed("sharded drive and in-process counter run "
                          "differ")
    shutil.rmtree(os.path.join(ROOT, first["dir"]))
    os.remove(os.path.join(ROOT, inproc))
    return jobs, checked


def zbias_metrics(jobs, setup):
    walls = [j["wall"] for j in jobs]
    # Set-up and compute together, so that moving work from one into
    # the other does not read as a change of rate.
    busy = sum(s + c for j in jobs for (_, s, c) in j["shards"])
    return {
        "shots_per_s": ZBIAS["shots"] / median(walls),
        "shots_per_s_1t": len(jobs) * ZBIAS["shots"] / busy,
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_ms": 1e3 * median(walls),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": max(j["rss"] for j in jobs),
    }


def zbias_counts(jobs, checked):
    launched = sum(j["report"]["launched"] for j in jobs)
    retries = sum(j["report"]["retries"] for j in jobs)
    return {"jobs_submitted": len(jobs), "jobs_completed": len(jobs),
            "shots_evaluated": len(jobs) * ZBIAS["shots"],
            "shots_checked": checked, "shard_attempts": launched,
            "shard_retries": retries,
            "inproc_invariance_checks": 1}


def run_zbias(run, seconds):
    setup = setup_time(run, zbias_flags(run.seed, 0))
    jobs, checked = zbias_loop(run, seconds)
    counts = zbias_counts(jobs, checked)
    return zbias_metrics(jobs, setup), counts["shots_evaluated"], 0, counts


# --- service_jobs ------------------------------------------------------------

def service_flags(seed, arch, job_seed):
    lo, n = SERVICE["shots_units"]
    shots = SERVICE["shots_unit"] * (lo + job_seed % n)
    return workload_flags(arch, SERVICE["m"], 0, derive(seed, 5),
                          SERVICE["noise"], SERVICE["eps"], shots,
                          job_seed)


def flag_value(flags, name):
    return flags[flags.index(name) + 1]


def frame_call(sock_path, msg):
    """One framed broker round trip (4-byte LE length + JSON); the
    broker fills in every field @msg leaves out."""
    data = json.dumps(dict(msg, qramsim_broker=1)).encode()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(10)
        s.connect(sock_path)
        s.sendall(struct.pack("<I", len(data)) + data)
        head = b""
        while len(head) < 4:
            chunk = s.recv(4 - len(head))
            if not chunk:
                raise CheckFailed("broker closed the connection")
            head += chunk
        n = struct.unpack("<I", head)[0]
        buf = b""
        while len(buf) < n:
            chunk = s.recv(n - len(buf))
            if not chunk:
                raise CheckFailed("broker sent a torn frame")
            buf += chunk
    return json.loads(buf)


class Service:
    """qramsim_broker with a fsynced journal plus single-thread
    qramsim_server broker workers."""

    def __init__(self, run, servers):
        self.run = run
        base = run.fresh("svc")
        os.makedirs(os.path.join(ROOT, base))
        self.sock = os.path.join(base, "b.sock")
        self.stats_path = os.path.join(base, "broker-stats.json")
        self.base = base
        self.broker = run.children.spawn(
            [run.tool("qramsim_broker"), "--socket", self.sock,
             "--state", os.path.join(base, "state"), "--stats-out",
             self.stats_path], None, os.path.join(base, "broker.err"),
            stdout_pipe=True)
        self._ready(self.broker, "brokering on")
        self.workers = []
        for i in range(servers):
            p = run.children.spawn(
                [run.tool("qramsim_server"), "--broker", self.sock,
                 "--threads", "1", "--name", "w%d" % i], None,
                os.path.join(base, "w%d.err" % i), stdout_pipe=True)
            self.workers.append(p)
        for p in self.workers:
            self._ready(p, "pulling from")

    @staticmethod
    def _ready(p, marker):
        line = p.stdout.readline().decode()
        if marker not in line:
            raise CheckFailed("service process did not start: %r" % line)

    def hwm(self):
        """Peak RSS (MB) so far of the broker and its workers."""
        peak = 0.0
        for p in [self.broker] + self.workers:
            with open("/proc/%d/status" % p.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def stop(self):
        """SIGTERM everything, reap, and return (peak RSS MB, broker
        stats, per-worker cache stats)."""
        rss = 0.0
        caches = []
        for p in self.workers + [self.broker]:
            self.run.children.stop(p)
        for p in self.workers:
            rc, r = self.run.children.reap(p)
            p.stdout.close()
            rss = max(rss, r)
            err = read_text(os.path.join(self.base, "w%d.err" %
                                         self.workers.index(p)))
            caches.append(parse_worker_stats(err))
        rc, r = self.run.children.reap(self.broker)
        self.broker.stdout.close()
        rss = max(rss, r)
        if rc != 0:
            raise CheckFailed("broker exited %d" % rc)
        stats = read_json(self.stats_path)
        shutil.rmtree(os.path.join(ROOT, self.base))
        return rss, stats, caches


def parse_worker_stats(err):
    """`worker NAME committed N shards (H result hits, C computed, B
    builds)` — the Server::stats() line a broker worker prints."""
    for line in reversed(err.splitlines()):
        if line.startswith("worker ") and "committed" in line:
            inner = line[line.index("(") + 1:line.rindex(")")]
            vals = [int(part.split()[0]) for part in inner.split(",")]
            return {"result_hits": vals[0], "computed": vals[1],
                    "builds": vals[2]}
    raise CheckFailed("a broker worker did not report its cache stats")


def service_setup(run):
    """Median over fresh service starts of: launch the broker and its
    workers, wait until all are up, and have the broker accept a first
    job."""
    times = []
    for rep in range(SERVICE_SETUP_REPS):
        sp = run.tracer.open("service.start", rep)
        t0 = time.monotonic()
        svc = Service(run, SERVICE["servers"])
        resp = frame_call(svc.sock, {
            "type": "submit", "fingerprint": "setup-probe",
            "nshards": SERVICE["shards"],
            "args": service_flags(run.seed, SERVICE["archs"][0],
                                  derive(run.seed, 6, rep))})
        times.append(time.monotonic() - t0)
        run.tracer.close(sp)
        if resp.get("type") != "job":
            raise CheckFailed("broker refused the first job: %r" % resp)
        svc.stop()
    return {"setup_s": median(times), "samples": times}


def service_loop(run, seconds, parent=-1):
    """A closed loop of clients, each running drives back to back
    against one broker service until the run time is up. When tracing,
    each client traces every other block of 2 * repeat_every jobs (a
    block holds as many fresh jobs of each architecture, and its
    repeats), so traced and untraced jobs interleave with the same
    make-up."""
    svc = Service(run, SERVICE["servers"])
    jobs, errors = [], []
    lock = threading.Lock()
    stop_at = time.monotonic() + seconds
    # The service processes' peak RSS is read once a fixed number of
    # jobs is done, since the broker's high-water mark grows with the
    # job count of the run. It keeps every job it has served, about
    # 2.5 MB more per 10 jobs after the first 60; after about 140 jobs
    # the journal compactions start (see the comment on SERVICE) and
    # the mark jumps by 15..20 MB at a seed-dependent job count. The
    # reading is taken before that, on the steady growth.
    svc_rss = []

    def client(c):
        fresh = []
        j = 0
        try:
            while time.monotonic() < stop_at or \
                    len(jobs) < SERVICE["rss_jobs"]:
                repeat = j % SERVICE["repeat_every"] == \
                    SERVICE["repeat_every"] - 1
                if repeat:
                    arch, job_seed, first = fresh[-1]
                else:
                    arch = SERVICE["archs"][
                        (j - j // SERVICE["repeat_every"]) %
                        len(SERVICE["archs"])]
                    job_seed = derive(run.seed, 7, c, j)
                flags = service_flags(run.seed, arch, job_seed)
                ident = c * 100000 + j
                traced = run.tracer.on and \
                    j // (2 * SERVICE["repeat_every"]) % 2 == 1
                run.tracer.pause(not traced)
                job = run_drive(run, flags, SERVICE["shards"], 1,
                                broker=svc.sock, parent=parent,
                                ident=ident)
                rep = job["report"]
                job.update(arch=arch, repeat=repeat, flags=flags,
                           traced=traced,
                           brokered=rep["broker_shards"] ==
                           SERVICE["shards"] and rep["launched"] == 0)
                check_points(json.loads(job["result"])["points"], False,
                             "service job %d" % ident)
                if repeat:
                    if job["result"] != first:
                        raise CheckFailed("repeat job differs from its "
                                          "first run")
                else:
                    job["compute"] = shard_costs(job["dir"])
                    fresh.append((arch, job_seed, job["result"]))
                keep = not repeat and len(fresh) <= len(SERVICE["archs"]) \
                    and c == 0
                if not keep:
                    shutil.rmtree(os.path.join(ROOT, job["dir"]))
                    job["dir"] = None
                del job["result"]
                with lock:
                    jobs.append(job)
                    if len(jobs) == SERVICE["rss_jobs"]:
                        svc_rss.append(svc.hwm())
                j += 1
        except Exception as e:  # surfaced by the caller
            with lock:
                errors.append(e)

    t0 = time.monotonic()
    threads = [threading.Thread(target=client, args=(c,))
               for c in range(SERVICE["clients"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.monotonic() - t0
    end_rss, stats, caches = svc.stop()
    if errors:
        raise errors[0]
    log("service peak RSS: %.1f MB after %d jobs, %.1f MB after all %d"
        % (svc_rss[0], SERVICE["rss_jobs"], end_rss, len(jobs)))
    return jobs, wall, svc_rss[0], stats, caches


def shard_costs(job_dir):
    """(setup, compute) seconds each checkpoint of a job reports."""
    parts = [read_json(p) for p in shard_partials(job_dir)]
    return [(p["setup_seconds"], p["compute_seconds"]) for p in parts]


def service_checks(run, jobs, parent=-1):
    """Reference re-evaluation and brokered vs fork/exec byte identity
    on the first fresh job of each architecture."""
    checked = 0
    for job in [j for j in jobs if j["dir"]]:
        checked += verify_job(run, job, job["flags"], parent)
        direct = run_drive(run, job["flags"], SERVICE["shards"], 1,
                           parent=parent, ident=-1)
        brokered = read_text(os.path.join(job["dir"], "result.json"))
        if direct["result"] != brokered:
            raise CheckFailed("brokered and fork/exec results differ")
        shutil.rmtree(os.path.join(ROOT, direct["dir"]))
        shutil.rmtree(os.path.join(ROOT, job["dir"]))
    return checked


def service_metrics(jobs, wall, rss, setup):
    fresh = [j for j in jobs if not j["repeat"]]
    lat = [j["wall"] for j in jobs]
    shots = sum(int(flag_value(j["flags"], "--shots")) for j in fresh)
    busy = sum(s + c for j in fresh for (s, c) in j["compute"])
    return {
        "shots_per_s": shots / wall,
        "shots_per_s_1t": shots / busy,
        "jobs_per_s": len(jobs) / wall,
        "job_p50_ms": 1e3 * median(lat),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": max([rss] + [j["rss"] for j in jobs]),
    }


def service_counts(jobs, stats, checked):
    return {"jobs_submitted": len(jobs),
            "jobs_completed": len(jobs),
            "jobs_repeat": sum(j["repeat"] for j in jobs),
            "jobs_not_brokered": sum(not j["brokered"] for j in jobs),
            "shard_commits": stats["commits_accepted"],
            "shard_redispatches": stats["redispatches"],
            "duplicate_mismatches": stats["duplicate_mismatches"],
            "shots_checked": checked}


def run_service(run, seconds):
    setup = service_setup(run)
    jobs, wall, rss, stats, caches = service_loop(run, seconds)
    if stats["duplicate_mismatches"] != 0:
        raise CheckFailed("broker saw duplicate commit mismatches")
    checked = service_checks(run, jobs)
    counts = service_counts(jobs, stats, checked)
    failed = counts["jobs_not_brokered"]
    lat = sorted(j["wall"] for j in jobs)
    if len(lat) >= 100:
        counts["job_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[-1]
    return service_metrics(jobs, wall, rss, setup), len(jobs), failed, counts


# --- Traced run --------------------------------------------------------------

def probe(run, flags, nshards, parent):
    d = run.fresh("probe")
    os.makedirs(os.path.join(ROOT, d))
    res, _, _ = run.helper_json("probe", ["--dir", d, "--nshards",
                                          str(nshards)] + flags,
                                "probe", parent)
    shutil.rmtree(os.path.join(ROOT, d))
    return res


def mini_service(run, flags):
    """A small brokered service for workloads that have none of their
    own: one fresh job and its repeat, through a broker and one worker,
    so the broker and cache layers are measured on the workload's own
    inputs."""
    svc = Service(run, 1)
    jobs = []
    for ident, repeat in ((0, False), (1, True)):
        job = run_drive(run, flags, 4, 1, broker=svc.sock, ident=ident)
        job["compute"] = shard_costs(job["dir"])
        job["repeat"] = repeat
        jobs.append(job)
        shutil.rmtree(os.path.join(ROOT, job["dir"]))
    if jobs[0]["result"] != jobs[1]["result"]:
        raise CheckFailed("repeat job differs from its first run")
    _, stats, caches = svc.stop()
    return jobs, stats, caches, 1


def poll_wait_ms(jobs, servers):
    """Job latency minus the shard compute the job needed (spread over
    the service's single-thread servers)."""
    waits = [j["wall"] - sum(s + c for (s, c) in j["compute"]) /
             servers for j in jobs if not j["repeat"]]
    return 1e3 * median(waits)


def split_medians(walls, traced):
    """Median job time of the traced jobs and of the untraced ones
    interleaved with them, their counts, and the untraced jobs' IQR
    as a share of their median (the noise the overhead must beat)."""
    t = [w for w, f in zip(walls, traced) if f]
    u = [w for w, f in zip(walls, traced) if not f]
    q = statistics.quantiles(u, n=4)
    return median(t), median(u), len(t), len(u), (q[2] - q[0]) / median(u)


def layer_metrics(run, workload, seconds):
    """The traced run: one loop whose rounds or jobs alternate between
    traced and untraced, then the layer probes. Returns (per-layer
    metrics, primary operations attempted, report lines)."""
    t = run.tracer
    lines = []
    root = t.open("loop", 0)
    if workload == "depol_replay":
        flags = depol_flags(run.seed)
        res = depol_loop(run, seconds, root)
        t.close(root)
        split = split_medians(res["tn"], res["traced"])
        attempted = 2 * DEPOL["shots"] * int(res["rounds"])
        pr = probe(run, flags, 4, -1)
        ojob = run_drive(run, depol_flags(run.seed, 512), 4, NPROC,
                         parent=-1, ident=-1)
        shutil.rmtree(os.path.join(ROOT, ojob["dir"]))
        orch = [ojob]
        mjobs, stats, caches, servers = mini_service(
            run, depol_flags(run.seed, 256))
        # The probe classified exactly this estimate's shots (its
        # sample is the first DEPOL["shots"] shots of the stream).
        n = DEPOL["shots"]
        t1 = median(res["t1"])
        sampling = 1e-6 * n * pr["noise.sample_us"]
        evaluation = 1e-6 * (
            pr["noise.general_shots"] * pr["fidelity.general_us"] +
            pr["noise.zonly_shots"] * pr["fidelity.zonly_us"])
        modeled = sampling + evaluation
        lines.append("1-thread estimate %.4f s = sampling %.4f s + "
                     "per-shot evaluation %.4f s + residual %.4f s" % (
                         t1, sampling, evaluation, t1 - modeled))
        tn = median(res["tn"])
        busy = (res["stage_sample_s"] + res["stage_gather_s"] +
                res["stage_replay_s"] +
                res["stage_accumulate_s"]) / DEPOL["threads"]
        lines.append("%d-thread estimate %.4f s: stage busy / threads "
                     "%.4f s, residual (idle and coordination) %.4f s" % (
                         DEPOL["threads"], tn, busy, tn - busy))
        residual = (t1 - modeled + tn - busy) / (t1 + tn)
    elif workload == "zbias_sweep":
        jobs, _ = zbias_loop(run, seconds, root)
        t.close(root)
        split = split_medians([j["wall"] for j in jobs],
                              [j["traced"] for j in jobs])
        attempted = ZBIAS["shots"] * len(jobs)
        pr = probe(run, zbias_flags(run.seed, 0), ZBIAS["shards"], -1)
        orch = jobs
        mjobs, stats, caches, servers = mini_service(
            run, zbias_flags(run.seed, 0))
        res = []
        for j in jobs:
            setup = sum(s for (_, s, _) in j["shards"]) / ZBIAS_WORKERS
            comp = sum(c for (_, _, c) in j["shards"]) / ZBIAS_WORKERS
            proc = sum(w for (w, _, _) in j["shards"]) / ZBIAS_WORKERS - \
                setup - comp
            res.append((j["wall"], setup, comp, proc))
        w, s, c, p = (median([r[i] for r in res]) for i in range(4))
        lines.append("job %.4f s = shard setup %.4f s + shard compute "
                     "%.4f s + shard process/IO %.4f s (each summed over "
                     "shards / %d workers) + residual (drive) %.4f s" % (
                         w, s, c, p, ZBIAS_WORKERS, w - s - c - p))
        residual = median([(r[0] - r[1] - r[2] - r[3]) / r[0]
                           for r in res])
    else:
        jobs, _, _, stats, caches = service_loop(run, seconds, root)
        t.close(root)
        service_checks(run, jobs, root)
        split = split_medians([j["wall"] for j in jobs],
                              [j["traced"] for j in jobs])
        attempted = len(jobs)
        flags = service_flags(run.seed, SERVICE["archs"][0],
                              derive(run.seed, 8))
        pr = probe(run, flags, SERVICE["shards"], -1)
        orch = jobs
        mjobs, servers = jobs, SERVICE["servers"]
        fresh = [j for j in jobs if not j["repeat"]]
        need = median([sum(s + c for (s, c) in j["compute"]) / servers
                       for j in fresh])
        lat = median([j["wall"] for j in fresh])
        lines.append("fresh job %.4f s = shard setup+compute %.4f s (over"
                     " %d servers) + residual (broker, polling, frames, "
                     "journal, drive) %.4f s" % (lat, need, servers,
                                                 lat - need))
        residual = (lat - need) / lat
    e2e_t, e2e_u, n_t, n_u, noise = split
    over = (e2e_t - e2e_u) / e2e_u

    # Mean, not median: a resident server pays set-up only on its
    # first job of a circuit, so most service shards report 0.
    if workload == "service_jobs":
        setup_ms = [1e3 * s for j in orch if not j["repeat"]
                    for (s, _) in j["compute"]]
    else:
        setup_ms = [1e3 * s["setup_seconds"] for j in orch
                    for s in j["report"]["shards"]]
    metrics = {k: v for k, v in pr.items() if not k.startswith("probe.")}
    metrics.update({
        "orchestrator.launches": sum(j["report"]["launched"]
                                     for j in orch) / len(orch),
        "orchestrator.retries": sum(j["report"]["retries"] for j in orch),
        "orchestrator.shard_setup_ms": statistics.fmean(setup_ms),
        "cachestore.compiled_builds": sum(c["builds"] for c in caches),
        "cachestore.result_hits": sum(c["result_hits"] for c in caches),
        "broker.poll_wait_ms": poll_wait_ms(mjobs, servers),
        "broker.commits": stats["commits_accepted"],
        "broker.redispatches": stats["redispatches"],
        "broker.duplicate_mismatches": stats["duplicate_mismatches"],
        "trace.residual_share": residual,
        "trace.overhead_share": over,
    })
    if stats["duplicate_mismatches"] != 0:
        raise CheckFailed("broker saw duplicate commit mismatches")
    lines.append("tracing overhead: job median %.4f s over %d traced vs "
                 "%.4f s over %d untraced, interleaved: %+.2f%% against "
                 "an untraced IQR of %.1f%%%s" % (
                     e2e_t, n_t, e2e_u, n_u, 100 * over, 100 * noise,
                     " (unresolved)" if abs(over) < noise else ""))
    return metrics, attempted, lines


def write_trace(run, workload):
    """Spans go to a file beside the build, one per traced run."""
    out = os.path.join(ROOT, run.bdir, "traces")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%d.json" % (workload, run.seed))
    with open(path, "w") as f:
        json.dump(run.tracer.spans, f)
    return os.path.relpath(path, ROOT)


# --- Entry points ------------------------------------------------------------

WORKLOADS = {"depol_replay": run_depol, "zbias_sweep": run_zbias,
             "service_jobs": run_service}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(args):
    spec = load_spec()
    try:
        bdir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("qrambench: cannot build the benchmark: %s" % e)
        return 1
    stamp = json.loads(subprocess.run(
        [os.path.join(bdir, "qrambench"), "stamp"], check=True,
        capture_output=True, text=True).stdout)
    stamp["seed"] = args.seed
    stamp["workload"] = args.workload
    log("qrambench stamp: " + json.dumps(stamp))
    run = Run(bdir, args.workload, args.seed, bool(args.trace))
    correct, attempted, failed = True, 1, 0
    try:
        try:
            if args.trace:
                metrics, attempted, lines = layer_metrics(
                    run, args.workload, args.seconds)
                for name, (n, tot, own) in sorted(
                        run.tracer.self_times().items()):
                    log("span %-18s n=%-5d total %9.4f s  self %9.4f s"
                        % (name, n, tot, own))
                for line in lines:
                    log(line)
                log("trace written to " + write_trace(run, args.workload))
            else:
                metrics, attempted, failed, counts = \
                    WORKLOADS[args.workload](run, args.seconds)
                log("qrambench counts: " + json.dumps(counts))
            names = [m["name"] for m in
                     spec["per_layer" if args.trace else "end_to_end"]]
            missing = [n for n in names if n not in metrics]
            if missing:
                raise CheckFailed("metrics not measured: %s" % missing)
            units = {m["name"]: m["unit"] for m in
                     spec["per_layer"] + spec["end_to_end"]}
            out = {n: {"value": metrics[n], "unit": units[n]}
                   for n in names}
            for n in sorted(metrics):
                log("metric %-30s %.6g" % (n, metrics[n]))
        except CheckFailed as e:
            log("qrambench: CHECK FAILED: %s" % e)
            correct, out = False, {}
        except (OSError, ValueError, KeyError) as e:
            # A child that died or wrote garbage: a failed run, not a
            # crash of the benchmark.
            log("qrambench: RUN FAILED: %r" % e)
            correct, out = False, {}
    finally:
        run.close()
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": out}))
    return 0 if correct else 1


def steady(args):
    """Run a workload K times (seeds 1..K) and print each metric's
    median and quartile spread next to its bound."""
    spec = load_spec()
    build()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    shares = []
    for seed in range(1, args.runs + 1):
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else {"correct": False}
        if not res["correct"]:
            sys.stderr.write(p.stderr)
            log("seed %d: incorrect" % seed)
            return 1
        shares.append(res["failed"] / res["attempted"])
        for n in values:
            values[n].append(res["metrics"][n]["value"])
        log("seed %d: %s" % (seed, json.dumps(
            {n: round(v["value"], 6) for n, v in res["metrics"].items()})))
    print("%-30s %12s %12s %8s" % ("metric", "median", "IQR/median",
                                   "bound"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        print("%-30s %12.6g %12.4f %8s" % (m["name"], med, spread,
                                          m["bound"]))
    print("failed share per run: %s" % sorted(set(shares)))
    return 0


def main():
    # Children inherit ROOT as their cwd, and every path handed to them
    # (sockets included) is relative to it, short whatever the
    # checkout's absolute path. Temporary files stay in the build tree.
    os.chdir(ROOT)
    # A run stopped from outside still stops its children (bench()'s
    # finally clause).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    argv = sys.argv[1:]
    if argv and argv[0] == "steady":
        ap = argparse.ArgumentParser(prog="run.py steady")
        ap.add_argument("--workload", required=True, choices=WORKLOADS)
        ap.add_argument("--runs", type=int, default=10)
        return steady(ap.parse_args(argv[1:]))
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return bench(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
