#!/usr/bin/env python3
"""Wasabi end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-mixed --seed 1 \\
        --seconds 45 --trace 0

Builds the repository (Release, into .bench_build/), generates the
workload's inputs from --seed, sets them up several times (setup_s is
the median), runs the timed phase for --seconds, checks every output
against an independent reference, and prints one JSON object as the
last line of stdout. --trace 1 adds the layer-trace harness run and
prints the per-layer metrics instead of the end-to-end ones.

A full record of the run (environment, every sample with its send time
and class, noise diagnostics) is written to .bench_results/.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "wasabi")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WASABI = os.path.join(BUILD_DIR, "tools", "wasabi")
LAYER_TRACE = os.path.join(BUILD_DIR, "wasabi_layer_trace")

SETUP_REPS = 5
JOB_TIMEOUT_S = 60
TRACE_REPS = 2

# kernels-analyze runs every PolyBench kernel at the size where it
# executes about 2.5M instructions (name: (N, instructions)), so a `mix`
# job takes 0.3-0.36 s and a `mem` job 26-43 ms on a 4-core x86 host
# whatever the draw, and the geometric means hardly move from seed to
# seed. The seed draws KERNEL_DRAW of them.
KERNEL_SIZES = {
    "2mm": (28, 2459662), "3mm": (25, 2542841), "adi": (40, 2687571),
    "atax": (150, 2513742), "bicg": (156, 2504638),
    "cholesky": (64, 2556866), "correlation": (44, 2547768),
    "covariance": (44, 2533694), "deriche": (80, 2528386),
    "doitgen": (15, 2700604), "durbin": (243, 2495356),
    "fdtd-2d": (47, 2398432), "floyd-warshall": (35, 2579211),
    "gemm": (35, 2471392), "gemver": (120, 2510258),
    "gesummv": (136, 2514818), "gramschmidt": (36, 2538780),
    "heat-3d": (16, 2542900), "jacobi-1d": (471, 2481692),
    "jacobi-2d": (48, 2525440), "lu": (52, 2562334), "ludcmp": (51, 2449486),
    "mvt": (149, 2492248), "nussinov": (57, 2462890),
    "seidel-2d": (55, 2449069), "symm": (39, 2517570),
    "syr2k": (38, 2454747), "syrk": (43, 2469739), "trisolv": (217, 2499014),
    "trmm": (45, 2536369),
}
KERNEL_DRAW = 8

# serve-mixed runs every PolyBench kernel at the size where it executes
# about 1-1.8M instructions, so a light-analysis request takes 2.5-5 ms.
SERVE_KERNEL_N = {
    "correlation": 32, "covariance": 32, "gemm": 28, "gemver": 80,
    "gesummv": 96, "symm": 32, "syr2k": 28, "syrk": 32, "trmm": 40,
    "2mm": 24, "3mm": 20, "atax": 96, "bicg": 112, "doitgen": 12,
    "mvt": 96, "cholesky": 48, "durbin": 160, "gramschmidt": 28, "lu": 40,
    "ludcmp": 40, "trisolv": 160, "deriche": 56, "floyd-warshall": 28,
    "nussinov": 48, "adi": 32, "fdtd-2d": 40, "heat-3d": 14,
    "jacobi-1d": 320, "jacobi-2d": 40, "seidel-2d": 40,
}
LIGHT_ANALYSES = ["blocks", "branch", "callgraph"]
UPLOADS = 100  # fixed per run, so peak_rss_mb does not follow throughput
UPLOAD_BASES = 4
QUOTA_FUEL = 600000  # below the 1.29M instructions gemm(28) needs


class BenchError(Exception):
    pass


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def sha(data):
    return hashlib.sha256(data).hexdigest()


def file_sha(path):
    with open(path, "rb") as f:
        return sha(f.read())


# --------------------------------------------------------------- build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no wasabi sources beside the benchmark (%s)" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        check_call(["cmake", "-S", ROOT, "-B", BUILD_DIR] + gen +
                   ["-DCMAKE_BUILD_TYPE=Release",
                    "-DCMAKE_PROJECT_INCLUDE=" +
                    os.path.join(HERE, "layer_trace.cmake")])
    jobs = str(os.cpu_count() or 2)
    # One target per invocation: the Makefile generator builds only the
    # first of several --target arguments.
    for target in ("wasabi", "wasabi_layer_trace"):
        check_call(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", jobs])


def check_call(argv):
    r = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("command failed (%d): %s" % (r.returncode,
                                                      " ".join(argv)))


def wasabi(*args):
    """Run the CLI outside any timed phase; returns stdout."""
    r = subprocess.run([WASABI] + list(args), capture_output=True)
    if r.returncode != 0:
        raise BenchError("wasabi %s failed (%d): %s" % (
            " ".join(args), r.returncode, r.stderr.decode(errors="replace")))
    return r.stdout.decode()


def environment():
    env = {"cores": os.cpu_count(), "kernel": platform.release(),
           "machine": platform.machine(), "python": platform.python_version()}
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        for line in open(cache):
            if line.startswith("CMAKE_BUILD_TYPE:"):
                env["build_type"] = line.split("=", 1)[1].strip()
    files = os.path.join(BUILD_DIR, "CMakeFiles")
    for d in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        f = os.path.join(files, d, "CMakeCXXCompiler.cmake")
        if os.path.isfile(f):
            vals = {}
            for line in open(f):
                for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith("set(%s " % key):
                        vals[key] = line.split('"')[1]
            env["compiler"] = "%s %s" % (vals.get("CMAKE_CXX_COMPILER_ID", "?"),
                                         vals.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    try:
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                            "--dirty", "--tags"], capture_output=True, text=True)
        env["git_describe"] = r.stdout.strip() if r.returncode == 0 else "none"
    except OSError:
        env["git_describe"] = "none"
    return env


# ------------------------------------------------------------ processes

def run_job(argv, stdout_path):
    """Run one CLI job; returns (seconds, exit code, peak RSS in KiB,
    CPU seconds of the job process)."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t0
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def parse_results(stdout):
    """Guest results from a `wasabi run` transcript ("f() = v1 v2")."""
    first = stdout.split("\n", 1)[0]
    if " = " not in first:
        raise BenchError("no result line in: %r" % first)
    return first.split(" = ", 1)[1].split()


# ----------------------------------------------------------- workloads

class Phase:
    """What one timed phase produced."""

    def __init__(self):
        self.samples = {}       # class -> [milliseconds]
        self.cpu_samples = {}   # class -> [CPU milliseconds of the job]
        self.events = []        # (send time in s from phase start, class,
                                #  ms, CPU ms)
        self.verdicts = []      # one bool per reply
        self.classes = []       # the class of each verdict
        self.attempted = 0
        self.wall = 0.0
        self.peak_rss_kb = 0
        self.code_size_ratio = None
        self.extra = {}


class CliWorkload:
    """A workload whose jobs are `wasabi` processes run one at a time.

    Subclasses define classes(): [(name, argv_fn(i, d), digest_fn(i, d))]
    and verify(phase_records, d) -> {class: reference digest or None}.
    """

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def timed(self, d, seconds):
        ph = Phase()
        classes = self.classes()
        records = []
        order_rng = random.Random(self.seed * 7919 + 1)
        t_start = time.perf_counter()
        deadline = t_start + seconds
        i = 0
        # Whole rounds only, so every class has the same sample count and
        # jobs_per_s does not depend on where in a round time runs out.
        while time.perf_counter() < deadline:
            order = list(classes)
            order_rng.shuffle(order)
            for name, argv_fn, digest_fn in order:
                out = os.path.join(d, "job%d.out" % i)
                sent = time.perf_counter() - t_start
                dt, rc, rss, cpu = run_job(argv_fn(i, d), out)
                digest = digest_fn(i, d) if rc == 0 else None
                records.append((name, dt, rc, rss, digest, sent, cpu))
                i += 1
        ph.wall = time.perf_counter() - t_start
        refs = self.verify(records, d)
        for name, dt, rc, rss, digest, sent, cpu in records:
            ph.samples.setdefault(name, []).append(dt * 1000.0)
            ph.cpu_samples.setdefault(name, []).append(cpu * 1000.0)
            ph.events.append((sent, name, dt * 1000.0, cpu * 1000.0))
            ph.peak_rss_kb = max(ph.peak_rss_kb, rss)
            ph.verdicts.append(rc == 0 and digest is not None
                               and digest == refs.get(name))
            ph.classes.append(name)
        ph.attempted = len(records)
        return ph

    def close(self):
        pass

    @staticmethod
    def first_job(records, name):
        for r in records:
            if r[0] == name:
                return r
        return None


class KernelsAnalyze(CliWorkload):
    """`wasabi run <kernel> --analysis={mix,mem}` per job."""

    name = "kernels-analyze"

    def __init__(self, seed):
        super().__init__(seed)
        self.kernels = self.rng.sample(sorted(KERNEL_SIZES), KERNEL_DRAW)

    def largest_kernel(self):
        return max(self.kernels, key=lambda k: KERNEL_SIZES[k][1])

    def setup(self, d):
        for k in self.kernels:
            wasabi("gen", "polybench:%s:%d" % (k, KERNEL_SIZES[k][0]),
                   os.path.join(d, k + ".wasm"))

    def classes(self):
        out = []
        for k in self.kernels:
            for a in ("mix", "mem"):
                def argv(i, d, k=k, a=a):
                    return [WASABI, "run", os.path.join(d, k + ".wasm"),
                            "--analysis=" + a, "--entry=kernel"]

                def digest(i, d):
                    return file_sha(os.path.join(d, "job%d.out" % i))
                out.append(("%s/%s" % (k, a), argv, digest))
        return out

    def verify(self, records, d):
        """Reference: the same job on the legacy engine, the repo's
        independent structured walker."""
        refs = {}
        for name, argv, _ in self.classes():
            ref = argv(0, d) + ["--engine=legacy"]
            r = subprocess.run(ref, capture_output=True)
            refs[name] = sha(r.stdout) if r.returncode == 0 else "legacy-failed"
        return refs

    def code_sizes(self, d):
        """Instrumented / original bytes for the `mix` (all) and `mem`
        (load, store) hook sets over all kernels, not only the draw, so
        the figure does not depend on the seed."""
        ratios = []
        for k, (n, _) in sorted(KERNEL_SIZES.items()):
            src = os.path.join(d, "size-%s.wasm" % k)
            wasabi("gen", "polybench:%s:%d" % (k, n), src)
            for hooks in ("all", "load,store"):
                out = os.path.join(d, "%s.%s.instr.wasm" % (k, hooks[:3]))
                wasabi("instrument", src, out, "--hooks=" + hooks)
                ratios.append(os.path.getsize(out) / os.path.getsize(src))
        return stats.geomean(ratios)


class AppsOffline(CliWorkload):
    """Offline toolchain jobs on the medium synthetic app."""

    name = "apps-offline"
    INSTRUMENT = [("instrument-all", "all"), ("instrument-call", "call"),
                  ("instrument-loadstore", "load,store")]

    def setup(self, d):
        app = os.path.join(d, "app.wasm")
        wasabi("gen", "app:medium", app)
        wasabi("opt", app, "--out=" + os.path.join(d, "setup.opt.wasm"),
               "--manifest-out=" + os.path.join(d, "setup.mf.json"))

    def classes(self):
        out = []
        for name, hooks in self.INSTRUMENT:
            def argv(i, d, hooks=hooks):
                return [WASABI, "instrument", os.path.join(d, "app.wasm"),
                        os.path.join(d, "out%d.wasm" % i), "--hooks=" + hooks]

            def digest(i, d, name=name):
                return self.keep(d, name, i, ["out%d.wasm" % i])
            out.append((name, argv, digest))

        def opt_argv(i, d):
            return [WASABI, "opt", os.path.join(d, "app.wasm"),
                    "--out=" + os.path.join(d, "out%d.wasm" % i),
                    "--manifest-out=" + os.path.join(d, "out%d.mf.json" % i)]

        def opt_digest(i, d):
            return self.keep(d, "opt", i, ["out%d.wasm" % i, "out%d.mf.json" % i])

        def check_argv(i, d):
            return [WASABI, "check", os.path.join(d, "app.wasm"),
                    os.path.join(d, "setup.opt.wasm"),
                    "--manifest=" + os.path.join(d, "setup.mf.json")]

        def check_digest(i, d):
            return file_sha(os.path.join(d, "job%d.out" % i))
        out.append(("opt", opt_argv, opt_digest))
        out.append(("check", check_argv, check_digest))
        return out

    @staticmethod
    def keep(d, name, i, files):
        """Digest a job's output files; keep the class's first output for
        verification and delete the rest."""
        h = hashlib.sha256()
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                h.update(fh.read())
            first = os.path.join(d, "first-%s-%s" % (name, f.split(".", 1)[1]))
            if not os.path.exists(first):
                os.replace(path, first)
            else:
                os.unlink(path)
        return h.hexdigest()

    def verify(self, records, d):
        """Each class's first output must validate and pass `wasabi check`;
        every later output must be byte-identical to it."""
        app = os.path.join(d, "app.wasm")
        refs = {}
        for name, hooks in self.INSTRUMENT:
            first = self.first_job(records, name)
            if first is None or first[4] is None:
                continue
            path = os.path.join(d, "first-%s-wasm" % name)
            wasabi("validate", path)
            wasabi("check", app, path, "--hooks=" + hooks)
            refs[name] = first[4]
        first = self.first_job(records, "opt")
        if first is not None and first[4] is not None:
            path = os.path.join(d, "first-opt-wasm")
            wasabi("validate", path)
            wasabi("check", app, path,
                   "--manifest=" + os.path.join(d, "first-opt-mf.json"))
            refs["opt"] = first[4]
        first = self.first_job(records, "check")
        if first is not None and first[2] == 0:
            refs["check"] = first[4]
        return refs

    def code_sizes(self, d):
        app = os.path.getsize(os.path.join(d, "app.wasm"))
        return stats.geomean(
            os.path.getsize(os.path.join(d, "first-%s-wasm" % name)) / app
            for name, _ in self.INSTRUMENT)


def leb128(n):
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def with_nonce(module, nonce):
    """Append a custom section carrying @p nonce: a module with the same
    semantics and a content hash the daemon has never seen."""
    name = b"perfbench.nonce"
    payload = leb128(len(name)) + name + nonce.to_bytes(8, "little")
    return module + b"\x00" + leb128(len(payload)) + payload


class Daemon:
    """One `wasabi serve --socket` process."""

    def __init__(self, d):
        self.path = os.path.relpath(os.path.join(d, "serve.sock"))
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.proc = subprocess.Popen([WASABI, "serve", "--socket=" + self.path],
                                     stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while True:
            try:
                self.sock = self.connect()
                break
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise BenchError("serve daemon did not come up")
                time.sleep(0.0005)

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.path)
        except OSError:
            s.close()
            raise
        return Connection(s)

    def request(self, req):
        return json.loads(self.sock.send(req))

    def connect_timed(self):
        """A new connection and a clock for the daemon thread serving it
        (one thread per connection)."""
        tasks = set(os.listdir("/proc/%d/task" % self.proc.pid))
        conn = self.connect()
        # The serving thread exists once the first reply is back.
        json.loads(conn.send({"op": "metrics"}))
        new = set(os.listdir("/proc/%d/task" % self.proc.pid)) - tasks
        if len(new) != 1:
            conn.close()
            raise BenchError("cannot tell the connection's daemon thread "
                             "from %s" % sorted(new))
        return conn, ThreadClock(self.proc.pid, new.pop())

    def vm_hwm_kb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        try:
            if self.proc.poll() is None and hasattr(self, "sock"):
                self.sock.send({"op": "shutdown"})
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if hasattr(self, "sock"):
            self.sock.close()


class ThreadClock:
    """CPU time of one thread of another process: the first field of
    /proc/PID/task/TID/schedstat, the nanoseconds it ran. Time it waited
    for a CPU, in the run queue or stolen by the hypervisor, is not in
    it.

    The kernel brings that figure up to date when the thread stops
    running (and at scheduler ticks), so ns() first waits, briefly, for
    the thread to block: the daemon thread blocks reading its socket
    right after it writes a reply."""

    SPINS = 2000

    def __init__(self, pid, tid):
        base = "/proc/%d/task/%s/" % (pid, tid)
        self.sched = open(base + "schedstat", "rb", buffering=0)
        self.stat = open(base + "stat", "rb", buffering=0)

    def running(self):
        self.stat.seek(0)
        return self.stat.read().rsplit(b")", 1)[1].split(None, 1)[0] == b"R"

    def ns(self):
        for _ in range(self.SPINS):
            if not self.running():
                break
            time.sleep(0)
        self.sched.seek(0)
        return int(self.sched.read().split(None, 1)[0])

    def close(self):
        self.sched.close()
        self.stat.close()


class Connection:
    def __init__(self, s):
        self.s = s
        self.f = s.makefile("rwb")

    def send(self, req):
        """Send one request; returns the reply line ("" if none)."""
        self.f.write((json.dumps(req) + "\n").encode())
        self.f.flush()
        return self.f.readline().decode()

    def close(self):
        self.f.close()
        self.s.close()


class ServeMixed:
    """Closed loop on one connection to one daemon. With two connections
    the daemon's two busy request threads made every serve metric swing
    with host load (IQR / median over six 30 s runs: p90 26-32%,
    jobs_per_s 10-15%); with one, in the same hour, 3% and 3%
    (perfbench/README.md)."""

    name = "serve-mixed"

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        offset = self.rng.randrange(len(LIGHT_ANALYSES))
        self.kernel_analysis = {
            k: LIGHT_ANALYSES[(i + offset) % len(LIGHT_ANALYSES)]
            for i, k in enumerate(sorted(SERVE_KERNEL_N))}
        self.random_seeds = [self.rng.randrange(1, 1 << 30)
                             for _ in range(UPLOAD_BASES)]
        self.daemon = None

    def requests(self, d):
        """{class: request} for every warm class."""
        p = lambda f: os.path.abspath(os.path.join(d, f))  # noqa: E731
        reqs = {}
        for k, a in self.kernel_analysis.items():
            reqs["kernel-run/%s/%s" % (k, a)] = {
                "op": "run", "module": p("k_%s.wasm" % k), "analysis": a}
        reqs["app-mix"] = {"op": "run", "module": p("app-small.wasm"),
                           "analysis": "mix", "args": ["i32:1"]}
        reqs["kernel-profile"] = {"op": "profile", "module": p("profile.wasm"),
                                  "analysis": "mix"}
        reqs["big-analyze"] = {"op": "analyze", "module": p("app-large.wasm")}
        reqs["app-instrument"] = {"op": "instrument",
                                  "module": p("app-small.wasm"),
                                  "hooks": "all"}
        reqs["over-quota"] = {"op": "run", "module": p("k_gemm.wasm"),
                              "analysis": "blocks", "fuel": QUOTA_FUEL}
        return reqs

    def upload_request(self, d, i):
        return {"op": "run", "analysis": "blocks", "args": ["i32:5"],
                "module": os.path.abspath(os.path.join(d, "up%d.wasm" % i))}

    def setup(self, d):
        if self.daemon is not None:
            self.daemon.stop()
        for k, n in SERVE_KERNEL_N.items():
            wasabi("gen", "polybench:%s:%d" % (k, n),
                   os.path.join(d, "k_%s.wasm" % k))
        wasabi("gen", "polybench:mvt:16", os.path.join(d, "profile.wasm"))
        wasabi("gen", "app:small", os.path.join(d, "app-small.wasm"))
        wasabi("gen", "app:large", os.path.join(d, "app-large.wasm"))
        for j, s in enumerate(self.random_seeds):
            wasabi("gen", "random:%d" % s, os.path.join(d, "rand%d.wasm" % j))
        bases = [open(os.path.join(d, "rand%d.wasm" % j), "rb").read()
                 for j in range(UPLOAD_BASES)]
        for i in range(UPLOADS):
            with open(os.path.join(d, "up%d.wasm" % i), "wb") as f:
                f.write(with_nonce(bases[i % UPLOAD_BASES],
                                   self.seed * 1000003 + i))
        self.daemon = Daemon(d)
        for name, req in self.requests(d).items():
            req = dict(req)
            if req["op"] == "instrument":
                req["out"] = os.path.abspath(os.path.join(d, "warm.instr.wasm"))
            reply = self.daemon.request(req)
            if not reply.get("ok") and name != "over-quota":
                raise BenchError("warm-up %s failed: %s" % (name, reply))

    def close(self):
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def timed(self, d, seconds):
        reqs = self.requests(d)
        names = sorted(reqs)
        order_rng = random.Random(self.seed * 7919 + 2)
        todo = []  # the rest of the current shuffled round
        uploads = 0
        records = []  # (class, ms, reply line, extra, upload index, sent)
        out = os.path.abspath(os.path.join(d, "instr.wasm"))
        first_instr = os.path.join(d, "first-instrument.wasm")
        before = self.daemon.request({"op": "metrics"})["metrics"]["serve"]
        conn, clock = self.daemon.connect_timed()
        cpu_ns = []
        t_start = time.perf_counter()
        try:
            while True:
                now = time.perf_counter() - t_start
                # Upload i is due at (i + 0.5) / UPLOADS of the phase, so
                # all are sent before it ends.
                if uploads < UPLOADS and now >= (uploads + 0.5) * seconds / UPLOADS:
                    name, req, up = "upload-run", self.upload_request(d, uploads), uploads
                    uploads += 1
                elif now >= seconds:
                    break
                else:
                    if not todo:
                        todo = list(names)
                        order_rng.shuffle(todo)
                    name, up = todo.pop(), None
                    req = reqs[name]
                if req["op"] == "instrument":
                    req = dict(req, out=out)
                cpu_ns.append(clock.ns())
                t0 = time.perf_counter()
                try:
                    line = conn.send(req)
                except OSError:
                    line = ""
                ms = (time.perf_counter() - t0) * 1000.0
                extra = None
                if req["op"] == "instrument" and line:
                    extra = file_sha(out)
                    if not os.path.exists(first_instr):
                        shutil.copyfile(out, first_instr)
                records.append((name, ms, line, extra, up, t0 - t_start))
                if not line:
                    break
            # A request's CPU time runs from its own reading to the next
            # one, both taken while the thread waits for a request.
            cpu_ns.append(clock.ns())
        finally:
            conn.close()
            clock.close()
        ph = Phase()
        ph.wall = time.perf_counter() - t_start
        ph.peak_rss_kb = self.daemon.vm_hwm_kb()
        after = self.daemon.request({"op": "metrics"})["metrics"]["serve"]
        ph.extra["daemon_delta"] = {
            k: after[k] - before[k] for k in after if isinstance(after[k], int)}
        ph.attempted = len(records)
        ph.verdicts = self.verify(records, d, reqs)
        ph.classes = [r[0] for r in records]
        for (name, ms, line, _, _, sent), c0, c1 in zip(records, cpu_ns,
                                                        cpu_ns[1:]):
            cpu_ms = (c1 - c0) / 1e6
            ph.samples.setdefault(name, []).append(ms)
            ph.cpu_samples.setdefault(name, []).append(cpu_ms)
            ph.events.append((sent, name, ms, cpu_ms))
        sizes = [json.loads(r[2]) for r in records
                 if r[0] == "app-instrument" and r[2]][:1]
        if sizes and sizes[0].get("ok"):
            ph.code_size_ratio = sizes[0]["sizeOut"] / sizes[0]["sizeIn"]
        return ph

    def legacy_results(self, module, analysis, args):
        argv = ["run", module, "--analysis=" + analysis, "--engine=legacy"]
        argv += ["--arg=" + a for a in args]
        if not args:
            argv.append("--entry=kernel")
        return parse_results(wasabi(*argv))

    def verify(self, records, d, reqs):
        """Run/profile results must equal the legacy engine's; reports,
        profiles, analyze replies and instrumented binaries must be
        identical within their class; over-quota must be refused with
        serve.quota-exceeded. The first instrumented binary must
        validate and pass `wasabi check`."""
        refs = {}
        for name, req in reqs.items():
            if req["op"] in ("run", "profile") and name != "over-quota":
                refs[name] = self.legacy_results(req["module"], req["analysis"],
                                                 req.get("args", []))
        for j in range(UPLOAD_BASES):
            refs["upload/%d" % j] = self.legacy_results(
                os.path.join(d, "rand%d.wasm" % j), "blocks", ["i32:5"])
        instr_ok = False
        first = os.path.join(d, "first-instrument.wasm")
        if os.path.exists(first):
            wasabi("validate", first)
            wasabi("check", os.path.join(d, "app-small.wasm"), first,
                   "--hooks=all")
            instr_ok = True
        firsts = {}
        verdicts = []
        for name, _, line, extra, up, _ in records:
            try:
                reply = json.loads(line) if line else None
            except ValueError:
                reply = None
            if reply is None:
                verdicts.append(False)
                continue
            if name == "over-quota":
                verdicts.append(reply.get("ok") is False and
                                reply["error"].get("code") == "serve.quota-exceeded")
                continue
            if not reply.get("ok"):
                verdicts.append(False)
                continue
            if name == "big-analyze":
                key = line
            elif name == "app-instrument":
                key = extra if instr_ok else None
            else:
                ref = refs["upload/%d" % (up % UPLOAD_BASES)] \
                    if name == "upload-run" else refs[name]
                if reply.get("results") != ref:
                    verdicts.append(False)
                    continue
                key = (reply.get("report"), reply.get("profile"))
            if name == "upload-run":
                name = "upload/%d" % (up % UPLOAD_BASES)
            firsts.setdefault(name, key)
            verdicts.append(key is not None and key == firsts[name])
        return verdicts


WORKLOADS = {w.name: w for w in (KernelsAnalyze, AppsOffline, ServeMixed)}


# --------------------------------------------------------------- trace

def layer_metrics(spans_doc, untraced_p50, burst):
    """Per-layer metrics from the harness's spans and counts."""
    spans = spans_doc["spans"]
    counts = spans_doc["counts"]
    selfs = stats.self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def job_of(s):
        while s["parent"] != -1:
            s = by_id[s["parent"]]
        return s["name"]

    traced = {}    # (job, span) -> [self ms] over traced repetitions
    roots = {}     # (job, traced?) -> [ms]
    for s in spans:
        ms = selfs[s["id"]] / 1e6
        if s["parent"] == -1:
            dur = (s["end_ns"] - s["start_ns"]) / 1e6
            roots.setdefault((s["name"], not s["request"].endswith("u")),
                             []).append(dur)
        else:
            traced.setdefault((job_of(s), s["name"]), []).append(ms)

    def med(job, name):
        return statistics.median(traced[(job, name)])

    def root(job):
        return statistics.median(roots[(job, True)])

    hooks_all = counts["hooks.mix"]
    hooks_mem = counts["hooks.mem"]
    bare = med("kernel.bare", "interp.exec")
    empty_rw = med("kernel.empty_rewrite", "interp.exec")
    empty_in = med("kernel.empty_intrinsic", "interp.exec")
    mix = med("kernel.mix", "interp.exec")
    parse_ms = med("serve.parts", "serve.parse_x1000") / 1000.0
    read_hash = med("serve.parts", "serve.read_hash")
    overhead = stats.geomean(
        statistics.median(roots[(job, True)]) /
        statistics.median(roots[(job, False)])
        for job, t in roots if t)
    m = {
        "wasm.decode_validate_ms": (med("app.instrument", "wasm.decode_validate"), "ms"),
        "wasm.encode_ms": (med("app.instrument", "wasm.encode"), "ms"),
        "wasm.module_bytes": (counts["wasm.module_bytes"], "bytes"),
        "core.instrument_ms": (med("app.instrument", "core.instrument"), "ms"),
        "core.hooks_generated": (counts["core.hooks_generated"], "count"),
        "core.intrinsic_info_ms": (med("app.intrinsic_info", "core.intrinsic_info"), "ms"),
        "static.opt_ms": (med("app.opt", "static.opt"), "ms"),
        "static.opt_check_ms": (med("app.opt", "static.opt_check"), "ms"),
        "static.opt_claims": (counts["static.opt_claims"], "count"),
        "interp.instantiate_ms": (med("kernel.bare", "interp.instantiate"), "ms"),
        "interp.bare_exec_ms": (bare, "ms"),
        "interp.instructions": (counts["interp.instructions"], "count"),
        "interp.translations": (counts["interp.translations"], "count"),
        "runtime.hooks": (hooks_all, "count"),
        "runtime.rewrite_ns_per_hook": ((empty_rw - bare) * 1e6 / hooks_all, "ns"),
        "runtime.intrinsic_ns_per_hook": ((empty_in - bare) * 1e6 / hooks_all, "ns"),
        "analyses.mix_ns_per_hook": ((mix - empty_rw) * 1e6 / hooks_all, "ns"),
        "analyses.mem_ns_per_hook": (
            (med("kernel.mem", "interp.exec") - med("kernel.empty_mem", "interp.exec"))
            * 1e6 / hooks_mem, "ns"),
        "analyses.report_ms": (med("kernel.mix", "analyses.report"), "ms"),
        "obs.profile_json_ms": (med("kernel.profile", "obs.profile_json"), "ms"),
        "serve.parse_us": (parse_ms * 1000.0, "us"),
        "serve.read_hash_ms": (read_hash, "ms"),
        "serve.pool_restore_ms": (med("serve.parts", "serve.pool_restore"), "ms"),
        "serve.handle_self_ms": (
            (med("serve.parts", "serve.handle_small_x1000")
             - med("serve.parts", "serve.read_hash_small_x1000")) / 1000.0
            - parse_ms, "ms"),
        "serve.cache_hit_ratio": (counts["serve.cache_hit_ratio"], "ratio"),
        "serve.pool_hit_ratio": (counts["serve.pool_hit_ratio"], "ratio"),
        "serve.cache_entries": (counts["serve.cache_entries"], "count"),
        "serve.warm_translations": (counts["serve.warm_translations"], "count"),
        "bench.hook_self_share": ((mix - bare) / root("kernel.mix"), "ratio"),
        "bench.burst_share": (burst, "ratio"),
        "bench.trace_overhead_ratio": (overhead, "x"),
        "bench.untraced_job_p50_ms": (untraced_p50, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_run(wl, d, untraced_p50, burst):
    """Generate the harness inputs and run the layer-trace harness."""
    kernel = KernelsAnalyze(wl.seed).largest_kernel()
    t = os.path.join(d, "trace")
    os.makedirs(t, exist_ok=True)
    inputs = {"kernel": "polybench:%s:%d" % (kernel, KERNEL_SIZES[kernel][0]),
              "app": "app:medium", "small-app": "app:small",
              "large-app": "app:large", "profile": "polybench:mvt:16",
              "upload": "random:%d" % (wl.seed + 1)}
    argv = [LAYER_TRACE, "--reps=%d" % TRACE_REPS,
            "--out=" + os.path.join(t, "spans.json")]
    for key, spec in inputs.items():
        path = os.path.join(t, key + ".wasm")
        wasabi("gen", spec, path)
        argv.append("--%s=%s" % (key, path))
    r = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError("layer-trace harness failed (%d)" % r.returncode)
    with open(os.path.join(t, "spans.json")) as f:
        doc = json.load(f)
    return layer_metrics(doc, untraced_p50, burst), doc


# ---------------------------------------------------------------- main

def tail_p90(samples):
    """Per-class p90 where every class has ten samples beyond it;
    otherwise the pooled p90 of samples normalized by their class
    median, scaled by the geometric mean of the class medians
    (one-at-a-time CLI classes have too few samples each).

    job_p90_ms applies it to the jobs' CPU times: wall-clock tails on a
    shared host follow how often other work takes the CPU away
    (perfbench/README.md, "Noise")."""
    counts = [len(s) for s in samples.values()]
    if stats.tail_supported(counts, 0.9):
        return stats.class_percentile_geomean(samples, 0.9), "per-class", \
            min(counts)
    pooled = [x / statistics.median(s) for s in samples.values() for x in s]
    return (stats.class_percentile_geomean(samples, 0.5) *
            stats.percentile(pooled, 0.9), "pooled-normalized", len(pooled))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    env = environment()
    wl = WORKLOADS[args.workload](args.seed)
    run_dir = os.path.join(WORK_ROOT, "%s-s%d-%d" % (args.workload, args.seed,
                                                      os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_times = []
        for r in range(SETUP_REPS):
            d = os.path.join(run_dir, "setup%d" % r)
            os.makedirs(d)
            t0 = time.perf_counter()
            wl.setup(d)
            setup_times.append(time.perf_counter() - t0)
        log("setup %s s" % ["%.3f" % s for s in setup_times])
        ph = wl.timed(d, args.seconds)
        if ph.code_size_ratio is None:
            ph.code_size_ratio = wl.code_sizes(d)
        p90, p90_method, p90_n = tail_p90(ph.cpu_samples)
        wall_p90 = tail_p90(ph.samples)[0]
        p50 = stats.class_percentile_geomean(ph.samples, 0.5)
        ok_ratio, failed = stats.ok_accounting(ph.attempted, ph.verdicts)
        burst = stats.burst_share(ph.samples)
        e2e = {
            "setup_s": (statistics.median(setup_times), "s"),
            "jobs_per_s": (ph.attempted / ph.wall, "1/s"),
            "job_p50_ms": (p50, "ms"),
            "job_p90_ms": (p90, "ms"),
            "peak_rss_mb": (ph.peak_rss_kb / 1024.0, "MB"),
            "ok_ratio": (ok_ratio, "ratio"),
            "code_size_ratio": (ph.code_size_ratio, "x"),
        }
        e2e = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        layers, spans = None, None
        if args.trace:
            wl.close()
            layers, spans = traced_run(wl, run_dir, p50, burst)
    finally:
        wl.close()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "time": time.time(),
        "end_to_end": e2e, "per_layer": layers, "wall_s": ph.wall,
        "events": [[round(t, 6), c, round(ms, 4), round(cpu, 4)]
                   for t, c, ms, cpu in ph.events],
        "diagnostics": {
            "setup_times_s": setup_times,
            "burst_share": burst,
            "job_p90_method": p90_method, "job_p90_samples": p90_n,
            "wall_job_p90_ms": wall_p90,
            "classes": {c: {"n": len(s), "p50_ms": statistics.median(s),
                            "cpu_p50_ms": statistics.median(ph.cpu_samples[c])}
                        for c, s in sorted(ph.samples.items())},
            "failed_by_class": dict(collections.Counter(
                c for c, ok in zip(ph.classes, ph.verdicts) if not ok)),
            **ph.extra,
        },
        "correct": failed == 0, "attempted": ph.attempted, "failed": failed,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "%s-s%d-t%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time() * 1000)))
    with open(out, "w") as f:
        json.dump(record, f)
    if spans is not None:
        with open(out[:-5] + ".spans.json", "w") as f:
            json.dump(spans, f)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"env": env, "diagnostics": {
        k: v for k, v in record["diagnostics"].items() if k != "classes"}}))
    print(json.dumps({"correct": failed == 0, "attempted": ph.attempted,
                      "failed": failed,
                      "metrics": layers if args.trace else e2e}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("error: %s" % e)
        sys.exit(1)
