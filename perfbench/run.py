#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the worker and the hardness CLI with
dune, runs the named workload's fixed op list (generated from --seed and
sized from --seconds) in fresh child processes with CH_JOBS=1, checks every
op's output, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 prints the
end-to-end metrics; --trace 1 runs the workload untraced and then traced and
prints the per-layer metrics.  The line before it is the run manifest.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

# Timed ops per second of --seconds: the op list is fixed work, sized once
# from these nominal rates, never by how many ops fit in the time.
WORKLOADS = {
    "verify-tables": 70,
    "sweep-solver": 30,
    "reduction-lockstep": 440,
    "serve-closed": 280,
}
MIN_OPS = 120  # p90 needs 100 ops to leave 10 samples beyond it
SETUP_REPS = 5  # set-ups per untraced run; setup_s is their median
DEADLINE_S = 160  # the whole invocation, builds excluded

END_TO_END = [
    ("pairs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

WORKER = os.path.join("_build", "default", "perfbench", "worker.exe")
HARDNESS = os.path.join("_build", "default", "bin", "hardness.exe")
TMP_ROOT = ".perfbench_tmp"

live = []  # child processes not yet reaped
deadline = None


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def remaining():
    """Seconds left before the invocation's deadline (at least 1)."""
    return max(1.0, deadline - time.monotonic())


def child_env():
    env = dict(os.environ)
    env["CH_JOBS"] = "1"
    env.pop("CH_OBS", None)
    return env


def pin_to_one_cpu():
    """Every measured process runs on the same single CPU: a shared host's
    CPUs drift apart, and the speed kernel must time the CPU the work runs
    on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(argv, pin=True, **kw):
    p = subprocess.Popen(argv, env=child_env(),
                         preexec_fn=pin_to_one_cpu if pin else None, **kw)
    live.append(p)
    return p


def reap(p, timeout=None):
    """Wait for p and forget it; past the timeout it is killed."""
    try:
        p.wait(timeout=remaining() if timeout is None else timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        raise BenchError("%s did not finish in time" % os.path.basename(p.args[0]))
    finally:
        if p in live:
            live.remove(p)
    return p.returncode


def stop_all():
    for p in list(live):
        if p.poll() is None:
            p.kill()
        p.wait()
        live.remove(p)


def build():
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    p = spawn([dune, "build", "--root", ".", "./" + WORKER, "./" + HARDNESS],
              pin=False, stdout=sys.stderr)
    if reap(p, timeout=900) != 0:
        raise BenchError("build failed")


def wait_ready(p, what):
    """Block until p prints READY: (arrival time, kernel ns during set-up)."""
    ready, _, _ = select.select([p.stdout], [], [], remaining())
    words = p.stdout.readline().decode().split() if ready else []
    if len(words) != 2 or words[0] != "READY":
        reap(p)
        raise BenchError("%s exited during set-up" % what)
    return time.monotonic(), int(words[1])


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM for pid %d" % pid)


def worker_argv(workload, seed, ops, tmp, traced, setup_only, extra=()):
    argv = [os.path.abspath(WORKER), "--workload", workload, "--seed", str(seed),
            "--ops", str(ops), "--tmp", tmp]
    if traced:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    return argv + list(extra)


def run_inprocess(workload, seed, ops, tmp, traced, setup_only):
    """One fresh worker process: ((set-up seconds, kernel ns during
    set-up), result or None)."""
    t0 = time.monotonic()
    p = spawn(worker_argv(workload, seed, ops, tmp, traced, setup_only),
              stdout=subprocess.PIPE, cwd=tmp)
    t_ready, ref_ns = wait_ready(p, "worker")
    setup = (t_ready - t0, ref_ns)
    if reap(p) != 0:
        raise BenchError("worker exited with %s" % p.returncode)
    if setup_only:
        return setup, None
    with open(os.path.join(tmp, "result.json")) as f:
        result = json.load(f)
    store = os.path.join(tmp, "sweep-store")
    if os.path.isdir(store):
        result["store.bytes"] = du(store)
    return setup, result


def du(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.lstat(os.path.join(root, name)).st_size
    return total


def run_serve(workload, seed, ops, tmp, traced, setup_only):
    """A fresh daemon on a private socket and store, and one client process
    holding two connections in a closed loop."""
    store = os.path.join(tmp, "store")
    argv = [os.path.abspath(HARDNESS), "serve", "--workers", "1",
            "--socket", "d.sock", "--store", store]
    if traced:
        argv += ["--obs-out", os.path.join(tmp, "daemon.jsonl")]
    t0_ns = time.monotonic_ns()
    t0 = time.monotonic()
    daemon = spawn(argv, cwd=tmp, stdout=subprocess.DEVNULL)
    try:
        client = spawn(worker_argv(workload, seed, ops, tmp, traced, setup_only,
                                   ["--socket", "d.sock", "--t0-ns", str(t0_ns)]),
                       stdout=subprocess.PIPE, cwd=tmp)
        t_ready, ref_ns = wait_ready(client, "serve client")
        setup = (t_ready - t0, ref_ns)
        if reap(client) != 0:
            raise BenchError("serve client exited with %s" % client.returncode)
        rss = vm_hwm_mb(daemon.pid)
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
        reap(daemon, timeout=30)
    if setup_only:
        return setup, None
    with open(os.path.join(tmp, "result.json")) as f:
        result = json.load(f)
    result["rss_mb"] = rss  # the daemon's, not the client's
    result["store.bytes_written"] = du(store)
    if traced:
        timed = set(range(1, ops + 1))
        events = []
        with open(os.path.join(tmp, "daemon.jsonl")) as f:
            for line in f:
                ev = json.loads(line)
                if ev.get("ev") == "serve_request" and ev.get("id") in timed:
                    events.append(ev)
        result["daemon_events"] = events
    return setup, result


class Tmp:
    """A private directory under the checkout, removed on every exit path."""

    count = 0

    def __enter__(self):
        Tmp.count += 1
        self.path = os.path.abspath(os.path.join(
            TMP_ROOT, "%d-%d" % (os.getpid(), Tmp.count)))
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc):
        stop_all()
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


def measure(workload, seed, ops, traced, setup_reps):
    """setup_reps set-ups, the last of which goes on to the timed phase.
    Each set-up is a fresh process (and daemon) in a fresh directory."""
    runner = run_serve if workload == "serve-closed" else run_inprocess
    setups = []
    for _ in range(setup_reps - 1):
        with Tmp() as tmp:
            setups.append(runner(workload, seed, ops, tmp, traced, True)[0])
    with Tmp() as tmp:
        setup, result = runner(workload, seed, ops, tmp, traced, False)
        setups.append(setup)
        if traced:
            result["spans"] = stats.read_spans(os.path.join(tmp, "spans.tsv"))
            for name in ("obs_setup", "obs"):
                with open(os.path.join(tmp, name + ".json")) as f:
                    result[name] = json.load(f)
    result["setups"] = setups
    return result


def failed_ops(result):
    return len({f["op"] for f in result["failed"]})


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a manifest names
    the code even where there is no git metadata."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_rev():
    """HEAD of the checkout, or None when it is not a git work tree of its
    own (a directory nested in some other repository does not count)."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        here = os.path.realpath(".")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != here:
            return None
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def manifest(args, ocaml):
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "ocaml": ocaml,
        "nproc": os.cpu_count(),
        "CH_JOBS": "1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def main():
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        raise BenchError("run from the repository root: dune-project, lib/ and "
                         "bin/ are missing here")
    build()
    deadline = time.monotonic() + DEADLINE_S
    ops = max(MIN_OPS, round(args.seconds * WORKLOADS[args.workload]))
    if args.trace:
        plain = measure(args.workload, args.seed, ops, False, 1)
        traced = measure(args.workload, args.seed, ops, True, 1)
        plain_pps = stats.pairs_per_s(plain)
        values = stats.per_layer(traced, traced["spans"], traced["obs_setup"],
                                 traced["obs"], traced.get("daemon_events", []),
                                 plain_pps)
        units = dict(stats.PER_LAYER)
        runs = [plain, traced]
    else:
        plain = measure(args.workload, args.seed, ops, False, SETUP_REPS)
        values = stats.end_to_end(plain)
        units = dict(END_TO_END)
        runs = [plain]
    failed = sum(failed_ops(r) for r in runs)
    info = manifest(args, plain["ocaml"])
    if not args.trace:
        info["measured"] = stats.as_measured(plain)
    print("manifest: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["ops"] for r in runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }), flush=True)


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    try:
        main()
    except (BenchError, stats.TooFewSamples, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        sys.exit(2)
    finally:
        stop_all()
