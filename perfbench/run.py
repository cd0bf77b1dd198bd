#!/usr/bin/env python3
"""End-to-end benchmark of the skipflow CLI, the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py pin                 # re-pin expected results
    python3 perfbench/run.py compare A B         # compare saved reports

Run from the repository root.  The script builds the analyzer and the
benchmark's helper from source, generates the workload's inputs from the
seed, drives `skipflow analyze` / `skipflow serve` for the configured
time, checks every output against perfbench/pins.json, and prints one
JSON result object as the last line of stdout.  See perfbench/README.md.
"""

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
SKIPFLOW = os.path.join(ROOT, "_build", "default", "bin", "skipflow.exe")
PBTOOL = os.path.join(ROOT, "_build", "default", "perfbench", "pbtool.exe")
CALIB = os.path.join(ROOT, "_build", "default", "perfbench", "calib.exe")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("analyze-table1", "analyze-deep", "serve-session")
SETUP_REPS = 5  # set-ups per run; setup_s is their median
MIN_WRITES = 100  # a session holds enough writes that >= 10 lie above p90
# The host's speed drifts by tens of percent within seconds, for every
# process alike.  Right before each timed process (each serve block), a
# run times a fixed reference job (calib.exe, which links only the
# standard library) and takes that time to the reference speed:
# measured * (CALIB_REF_S / reference job) ** CALIB_EXPONENT.  The
# exponent is the measured sensitivity of the analyzer's times to the
# host's speed relative to the reference job's (see README.md).  The
# unscaled values stay in the saved report.
CALIB_REF_S = 0.200
CALIB_EXPONENT = 0.7
CHILD_TIMEOUT_S = 120
DEADLINE_S = 175  # a run that is not done by then stops all it started, exits 1
TRACE_BLOCKS = 8  # schedule blocks the traced serve run replays in process

END_TO_END = [("setup_s", "s"), ("analyze_s", "s"), ("peak_rss_mb", "MB"),
              ("reachable_methods", "count"), ("ok_rate", "ratio"), ("edit_ms.p50", "ms"),
              ("edit_ms.p90", "ms"), ("lint_ms.p50", "ms"), ("requests_per_s", "1/s")]

ANALYZE_LAYERS = [
    ("frontend.parse_ms", "ms"), ("frontend.typecheck_ms", "ms"), ("frontend.lower_ms", "ms"),
    ("frontend.alloc_mwords", "Mwords"), ("ir.meths", "count"), ("ir.instrs", "count"),
    ("build.ms", "ms"), ("build.flows", "count"), ("build.edges", "count"),
    ("build.methods", "count"), ("engine.run_ms", "ms"), ("engine.drain_ms", "ms"),
    ("engine.tasks", "count"), ("engine.dedup_ratio", "ratio"), ("engine.links", "count"),
    ("engine.live_flows", "count"), ("engine.alloc_mwords", "Mwords"), ("metrics.ms", "ms"),
    ("gc.top_heap_mb.frontend", "MB"), ("gc.top_heap_mb.engine", "MB"),
    ("trace.total_s", "s"), ("trace.overhead_ms", "ms"), ("trace.self_over_total", "count"),
]
SERVE_LAYERS = [
    ("incremental.%s.%s" % (s, k), u) for s in ("resident", "memo", "reuse", "redrain", "full")
    for k, u in (("ms", "ms"), ("count", "count"))
] + [
    ("incremental.incremental_ratio", "ratio"), ("protocol.parse_ms", "ms"),
    ("protocol.request_kb", "KB"), ("snapshot.encode_ms", "ms"), ("snapshot.bytes", "bytes"),
    ("snapshot.write_ms", "ms"), ("server.handle_ms", "ms"), ("server.unreported_ms", "ms"),
    ("gc.top_heap_mb.serve", "MB"),
]
SERVE_LAYERS += [("edit_ms.%s.p50" % s, "ms")
                 for s in ("resident", "memo", "reuse", "redrain", "full")]
SHARED_LAYERS = [("checks.ms", "ms"), ("checks.findings", "count"), ("verify.ms", "ms"),
                 ("verify.runs", "count"), ("verify.violations", "count"),
                 ("gc.top_heap_mb.checks", "MB")]
PER_LAYER = ANALYZE_LAYERS + SHARED_LAYERS + SERVE_LAYERS


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Ops:
    """Counts attempted and failed operations; every failure is logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED: " + what)
        return ok


# ------------------------------------------------------------------ build --

def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "bin"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        log("no skipflow sources next to perfbench/ (need dune-project, bin/, lib/)")
        sys.exit(2)
    r = subprocess.run(["dune", "build", "--root", ROOT, "--cache=disabled",
                        "./bin/skipflow.exe", "./perfbench/pbtool.exe", "./perfbench/calib.exe"],
                       cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not all(os.path.isfile(p) for p in (SKIPFLOW, PBTOOL, CALIB)):
        log("build failed")
        sys.exit(1)


def host_block():
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                               text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        ocaml = "unknown"
    return {"nproc": os.cpu_count(), "ocaml": ocaml, "machine": platform.machine(),
            "python": platform.python_version()}


# ------------------------------------------------------------- processes --

LIVE = set()  # started and not yet reaped, killed on the way out


def spawn(argv, **kw):
    p = subprocess.Popen(argv, **kw)
    LIVE.add(p)
    return p


def reap(p):
    """Wait for [p]; returns its resource usage (peak RSS included)."""
    _, status, ru = os.wait4(p.pid, 0)
    LIVE.discard(p)
    p.returncode = os.waitstatus_to_exitcode(status)
    return ru


def kill_all():
    for p in list(LIVE):
        try:
            p.kill()
        except OSError:
            pass
        try:
            reap(p)
        except ChildProcessError:
            LIVE.discard(p)


def run_child(argv, out_path):
    """Run one process to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = spawn(argv, stdout=out, stderr=subprocess.DEVNULL)
        ru = reap(p)
        wall = time.perf_counter() - t0
    return p.returncode, wall, ru.ru_maxrss / 1024.0


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def pin_key(digest, roots=()):
    return digest + ("|" + ",".join(roots) if roots else "")


def load_pins():
    try:
        with open(PINS) as f:
            return json.load(f)["pins"]
    except (OSError, ValueError, KeyError):
        log("cannot read " + PINS)
        return {}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    if not s:
        return 0.0
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]


# --------------------------------------------------------------- set-up --

def generate(workload, seed, reps, calib):
    """Generate the inputs [reps] times, each in a fresh process and
    directory, timing the reference job before each; returns (directory
    of the last one, (the generator's own wall s, speed factor) per rep)."""
    cmd = {"analyze-table1": "gen-table1", "analyze-deep": "gen-deep",
           "serve-session": "gen-session"}[workload]
    walls = []
    for k in range(reps):
        speed = calibrate(calib)
        d = os.path.join(WORK, "inputs%d" % k)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        r = subprocess.run([PBTOOL, cmd, str(seed), d], capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
        if r.returncode != 0:
            log("input generation failed: " + r.stderr[-500:])
            sys.exit(1)
        walls.append((float(r.stdout.split()[-1]), speed))
    return d, walls


def fingerprint(workload, d):
    """Digest of the manifest (seed, generator parameters, schedule) and
    every generated source."""
    h = hashlib.sha256(workload.encode())
    for name in sorted(os.listdir(d)):
        if name == "manifest.json" or name.endswith(".mj"):
            h.update(name.encode())
            with open(os.path.join(d, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:24]


def soundness(ops, path):
    """Every method the interpreter executes must be reachable."""
    program = os.path.basename(path)
    run = subprocess.run([SKIPFLOW, "run", path], capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    ana = subprocess.run([SKIPFLOW, "analyze", "--list-reachable", path],
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    executed = set()
    seen_header = False
    for line in run.stdout.splitlines():
        if line.startswith("methods executed:"):
            seen_header = True
        elif seen_header and line.startswith("  "):
            executed.add(line.strip())
    reachable = {l.strip() for l in ana.stdout.splitlines()
                 if l.startswith("  ") and ":" not in l}
    missing = executed - reachable
    ops.check(run.returncode == 0 and ana.returncode == 0 and seen_header and executed
              and not missing,
              "%s: interpreter-executed methods not reachable: %s"
              % (program, sorted(missing)[:5]))


# --------------------------------------------------------------- analyze --

def cold_analyze(ops, path, pin, pins):
    """One cold `skipflow analyze --format json` process, checked against
    the pinned result; returns (wall s, peak RSS MB, reachable methods)."""
    out = os.path.join(WORK, "analyze.out")
    code, wall, mb = run_child([SKIPFLOW, "analyze", "--format", "json", path], out)
    try:
        with open(out) as f:
            doc = json.load(f)
        m = doc["metrics"]
        ok = code == 0 and not doc["degraded"] and doc["outcome"] == "completed"
    except (OSError, ValueError, KeyError):
        m, ok = {}, False
    want = pins.get(pin)
    got = [m.get("reachable_methods"), m.get("flows")]
    ops.check(ok and got == want, "%s: exit %d, [reachable, flows] %s, pinned %s"
              % (os.path.basename(path), code, got, want))
    return wall, mb, m.get("reachable_methods", 0)


def calibrate(calib):
    """Time the fixed reference job (independent of the analyzer's code);
    returns the factor that takes a time measured right after it to the
    reference speed."""
    ref = run_child([CALIB], os.path.join(WORK, "calib.out"))[1]
    calib.append(ref)
    return (CALIB_REF_S / ref) ** CALIB_EXPONENT


def at_reference(samples, scaled):
    """The times of (wall, speed factor) samples, scaled or as measured."""
    return [wall * speed if scaled else wall for wall, speed in samples]


def cold_lint(ops, path):
    """One cold `skipflow lint --format json` process; returns its wall s."""
    out = os.path.join(WORK, "lint.out")
    code, wall, _ = run_child([SKIPFLOW, "lint", "--format", "json", "--fail-on", "never",
                               path], out)
    try:
        with open(out) as f:
            ok = code == 0 and isinstance(json.load(f)["findings"], list)
    except (OSError, ValueError, KeyError):
        ok = False
    ops.check(ok, "%s: lint exit %d" % (os.path.basename(path), code))
    return wall


def traced_pass(ops, d, programs, pins):
    """One pass through pbtool: each program in a fresh process, every
    layer timed from the outside, all numbers from this one pass."""
    t0 = time.perf_counter()
    docs = []
    for prog in programs:
        r = subprocess.run([PBTOOL, "trace-analyze", os.path.join(d, prog["file"])],
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        try:
            doc = json.loads(r.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            doc = None
        want = pins.get(prog["pin"])
        ok = (r.returncode == 0 and doc is not None and want is not None
              and doc["reachable_methods"] == want[0] and doc["flows"] == want[1])
        if ops.check(ok, "%s: traced run disagrees with pins (%s)" % (prog["file"], want)):
            self_sum = sum(doc["layers_ms"].values())
            ops.check(self_sum <= doc["total_ms"],
                      "%s: layer self times %.1f ms exceed the total %.1f ms"
                      % (prog["file"], self_sum, doc["total_ms"]))
            ops.check(doc["verify.violations"] == 0,
                      "%s: %d Verify violations" % (prog["file"], doc["verify.violations"]))
            docs.append(doc)
    return time.perf_counter() - t0, docs


def layer_metrics(docs, wall_s, untraced_s):
    def total(key):
        return sum(doc[key] for doc in docs)

    def layer(name):
        return sum(doc["layers_ms"][name] for doc in docs)

    tasks, hits = total("engine.tasks"), total("engine.dedup_hits")
    checks_verify_ms = layer("checks") + layer("verify")
    return {
        "frontend.parse_ms": layer("frontend.parse"),
        "frontend.typecheck_ms": layer("frontend.typecheck"),
        "frontend.lower_ms": layer("frontend.lower"),
        "frontend.alloc_mwords": total("frontend.alloc_mwords"),
        "ir.meths": total("ir.meths"), "ir.instrs": total("ir.instrs"),
        "build.ms": layer("build"), "build.flows": total("build.flows"),
        "build.edges": total("build.edges"), "build.methods": total("build.methods"),
        "engine.run_ms": total("engine.run_ms"), "engine.drain_ms": layer("engine.drain"),
        "engine.tasks": tasks, "engine.dedup_ratio": tasks / max(1, tasks + hits),
        "engine.links": total("engine.links"), "engine.live_flows": total("engine.live_flows"),
        "engine.alloc_mwords": total("engine.alloc_mwords"), "metrics.ms": layer("metrics"),
        "checks.ms": layer("checks"), "checks.findings": total("checks.findings"),
        "verify.ms": layer("verify"), "verify.runs": len(docs),
        "verify.violations": total("verify.violations"),
        "gc.top_heap_mb.frontend": max(doc["gc.top_heap_mb.frontend"] for doc in docs),
        "gc.top_heap_mb.engine": max(doc["gc.top_heap_mb.engine"] for doc in docs),
        "gc.top_heap_mb.checks": max(doc["gc.top_heap_mb.checks"] for doc in docs),
        "trace.total_s": wall_s,
        # the traced pass also runs checks and Verify, which analyze does not
        "trace.overhead_ms": (wall_s - untraced_s) * 1000.0 - checks_verify_ms,
        "trace.self_over_total": sum(
            1 for doc in docs if sum(doc["layers_ms"].values()) > doc["total_ms"]),
    }


def bench_analyze(args, ops, d, setup_walls, report):
    with open(os.path.join(d, "manifest.json")) as f:
        manifest = json.load(f)
    programs = manifest["programs"]
    paths = [os.path.join(d, p["file"]) for p in programs]
    for prog, path in zip(programs, paths):
        prog["pin"] = pin_key(sha(path))
    report["draw"] = [p["name"] for p in programs]
    pins = load_pins()
    for path in paths:
        soundness(ops, path)
    # the median-size program is the one linted, once per pass
    lint_path = sorted(paths, key=os.path.getsize)[len(paths) // 2]
    walls = [[] for _ in paths]  # per program: (wall s, speed factor) per pass
    rss, lints, reach, traced, calib = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        results = []
        for prog, path in zip(programs, paths):
            speed = calibrate(calib)
            wall, mb, n = cold_analyze(ops, path, prog["pin"], pins)
            results.append(((wall, speed), mb, n))
        for w, (sample, _, _) in zip(walls, results):
            w.append(sample)
        rss.append(max(mb for _, mb, _ in results))
        reach.append(sum(n for _, _, n in results))
        speed = calibrate(calib)
        lints.append((cold_lint(ops, lint_path), speed))
        if args.trace:
            traced.append(traced_pass(ops, d, programs, pins))
        if time.perf_counter() - t0 >= args.seconds:
            break
    report["samples"] = {"process_s": walls, "lint_s": lints, "peak_rss_mb": rss,
                         "calib_s": calib}
    ops.check(len(set(reach)) == 1, "reachable_methods differs between passes: %s" % reach)
    if args.trace:
        # the traced pass is not scaled, so neither is its untraced baseline
        analyze_s = sum(median(at_reference(w, False)) for w in walls)
        return traced_metrics(traced, programs, analyze_s, report)

    def times(scaled):
        process = [at_reference(w, scaled) for w in walls]
        flat = [x for w in process for x in w]
        lint = at_reference(lints, scaled)
        return {
            "setup_s": median(at_reference(setup_walls, scaled)),
            "analyze_s": sum(median(w) for w in process),
            "edit_ms.p50": 1000.0 * percentile(flat, 50),
            "edit_ms.p90": 1000.0 * percentile(flat, 90),
            "lint_ms.p50": 1000.0 * median(lint),
            "requests_per_s": (len(flat) + len(lint)) / (sum(flat) + sum(lint)),
        }
    report["unscaled"] = times(False)
    return times(True) | {"peak_rss_mb": median(rss), "reachable_methods": reach[0]}


def traced_metrics(traced, programs, analyze_s, report):
    """Per-layer numbers, all from the median traced pass by wall time."""
    good = sorted(((w, docs) for w, docs in traced if len(docs) == len(programs)),
                  key=lambda x: x[0])
    report["traced_passes"] = [w for w, _ in traced]
    if not good:
        return None
    wall, docs = good[(len(good) - 1) // 2]
    return layer_metrics(docs, wall, analyze_s)


# ----------------------------------------------------------------- serve --

class Daemon:
    def __init__(self, base, state):
        shutil.rmtree(state, ignore_errors=True)
        os.makedirs(state)
        self.p = spawn([SKIPFLOW, "serve", base, "--state", state],
                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.rss_mb = 0.0

    def request(self, line):
        t0 = time.perf_counter()
        self.p.stdin.write(line.encode() + b"\n")
        self.p.stdin.flush()
        resp = self.p.stdout.readline()
        ms = (time.perf_counter() - t0) * 1000.0
        try:
            return json.loads(resp), ms
        except ValueError:
            return None, ms

    def stop(self):
        try:
            self.request(json.dumps({"op": "shutdown", "id": -1}))
            self.p.stdin.close()
        except OSError:
            pass
        self.rss_mb = reap(self.p).ru_maxrss / 1024.0
        self.p.stdout.close()


def start_daemon(ops, base, state):
    """Daemon start through the first ready (health) response."""
    t0 = time.perf_counter()
    dm = Daemon(base, state)
    resp, _ = dm.request(json.dumps({"op": "health", "id": 0}))
    wall = time.perf_counter() - t0
    ops.check(resp is not None and resp.get("ok") and resp["result"].get("program"),
              "daemon did not come up ready: %s" % resp)
    return dm, wall


def bench_serve(args, ops, d, report):
    with open(os.path.join(d, "manifest.json")) as f:
        manifest = json.load(f)
    base = os.path.join(d, manifest["base"])
    pins = load_pins()
    sources, digests = {}, {}
    for step in manifest["schedule"]:
        if step["op"] == "edit" and step["source"] not in sources:
            path = os.path.join(d, step["source"])
            with open(path) as f:
                sources[step["source"]] = f.read()
            digests[step["source"]] = sha(path)
    soundness(ops, base)
    base_pin = pin_key(sha(base))

    walls, setup_calib = [], report["setup_calib"]
    for k in range(SETUP_REPS - 1):
        speed = calibrate(setup_calib)
        dm, wall = start_daemon(ops, base, os.path.join(WORK, "state%d" % k))
        walls.append((wall, speed))
        dm.stop()
    speed = calibrate(setup_calib)
    dm, wall = start_daemon(ops, base, os.path.join(WORK, "state"))
    walls.append((wall, speed))
    report["setup_walls"] = walls

    # times are (wall, speed factor of the block they were measured in)
    writes, lints, rtts, strategies, calib, cold, blocks = [], [], [], {}, [], [], []
    source, roots, done = manifest["base"], [], 0
    block_len = manifest["generator"]["block_len"]
    # the whole schedule, on every run: a fixed session, so that every
    # commit is measured on the same requests (the deadline is the cap)
    for i, step in enumerate(manifest["schedule"]):
        if i % block_len == 0:
            # between blocks, and not counted in the session's wall time:
            # the reference job, which scales the block's times, and the
            # one-shot baseline for the program
            if i:
                blocks.append((time.perf_counter() - t_block, speed))
            speed = calibrate(calib)
            wall, _, reachable = cold_analyze(ops, base, base_pin, pins)
            cold.append((wall, speed))
            t_block = time.perf_counter()
        req = {"op": step["op"], "id": i + 1}
        write = step["op"] == "edit" or "roots" in step
        if step["op"] == "edit":
            source = step["source"]
            req["source"] = sources[source]
        if "roots" in step:
            roots = step["roots"]
            req["roots"] = roots
        resp, ms = dm.request(json.dumps(req))
        rtts.append(ms)
        done += 1
        sample = (ms, speed)
        ok = resp is not None and resp.get("ok") is True and resp.get("id") == i + 1
        what = "request %d (%s): %s" % (i + 1, step["op"], str(resp)[:300])
        if write:
            writes.append(sample)
            res = resp["result"] if ok else {}
            strategies.setdefault(res.get("strategy"), []).append(sample)
            want = pins.get(pin_key(digests[source], roots))
            got = res.get("metrics", {})
            ops.check(ok and not res.get("degraded") and want is not None
                      and got.get("reachable_methods") == want[0]
                      and got.get("flows") == want[1],
                      what + " pinned %s" % (want,))
        else:
            if step["op"] == "lint":
                lints.append(sample)
            ops.check(ok, what)
    blocks.append((time.perf_counter() - t_block, speed))
    dm.stop()
    report["strategies"] = {k: {"count": len(v), "p50_ms": percentile(at_reference(v, True), 50)}
                            for k, v in strategies.items()}
    strategy_p50 = {"edit_ms.%s.p50" % k: v["p50_ms"] for k, v in report["strategies"].items()}
    report["writes"] = len(writes)
    report["requests"] = done
    report["samples"] = {"cold_analyze_s": cold, "edit_ms": writes, "lint_ms": lints,
                         "block_s": blocks, "calib_s": calib}
    ops.check(len(writes) >= MIN_WRITES, "only %d writes in the session" % len(writes))

    if args.trace:
        # the same requests in process, capped to keep the run short
        n = min(done, TRACE_BLOCKS * manifest["generator"]["block_len"])
        r = subprocess.run([PBTOOL, "trace-serve", d, str(n)], capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
        try:
            doc = json.loads(r.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            ops.check(False, "trace-serve failed: " + r.stderr[-500:])
            return None
        ops.check(doc["verify.violations"] == 0, "Verify violations in the traced session")
        ops.check(doc["server.reported_over_handle"] == 0,
                  "serve reported more wall_us than the call took")
        self_sum = sum(doc["layers_ms"].values())
        over = self_sum > doc["total_ms"]
        ops.check(not over, "traced session: layer self times %.1f ms exceed the total %.1f ms"
                  % (self_sum, doc["total_ms"]))
        doc["trace.self_over_total"] = int(over)
        doc["trace.total_s"] = doc["total_ms"] / 1000.0
        # the traced replay of the first n requests against the untraced
        # client round trips of the same n requests
        doc["trace.overhead_ms"] = doc["total_ms"] - sum(rtts[:n])
        return doc | strategy_p50

    def times(scaled):
        return {
            "setup_s": median(at_reference(walls, scaled)),
            "analyze_s": median(at_reference(cold, scaled)),
            "edit_ms.p50": percentile(at_reference(writes, scaled), 50),
            "edit_ms.p90": percentile(at_reference(writes, scaled), 90),
            "lint_ms.p50": percentile(at_reference(lints, scaled), 50),
            "requests_per_s": done / sum(at_reference(blocks, scaled)),
        }
    report["unscaled"] = times(False)
    return times(True) | {"peak_rss_mb": dm.rss_mb, "reachable_methods": reachable}


# ------------------------------------------------------------------ main --

def bench(args):
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    ops = Ops()
    serve = args.workload == "serve-session"
    setup_calib = []
    # serve's set-up is the daemon start (bench_serve), not input generation
    d, setup_walls = generate(args.workload, args.seed, 1 if serve else SETUP_REPS,
                              [] if serve else setup_calib)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint(args.workload, d),
              "host": host_block(), "setup_walls": setup_walls, "setup_calib": setup_calib}
    if serve:
        values = bench_serve(args, ops, d, report)
    else:
        values = bench_analyze(args, ops, d, setup_walls, report)
    values = values or {}
    if "unscaled" in report:
        log("unscaled: %s" % json.dumps(report["unscaled"]))
    values["ok_rate"] = 1.0 - ops.failed / max(1, ops.attempted)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units}
    report.update({"attempted": ops.attempted, "failed": ops.failed, "metrics": metrics})
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=1)
    print(json.dumps({k: report[k] for k in ("workload", "seed", "fingerprint", "host")}
                     | {"extra": {k: report[k] for k in report
                                  if k in ("draw", "strategies", "writes", "requests")}}))
    print(json.dumps({"correct": ops.failed == 0 and ops.attempted > 0,
                      "attempted": max(1, ops.attempted), "failed": ops.failed,
                      "metrics": metrics}))
    shutil.rmtree(WORK, ignore_errors=True)


def pin():
    """Pin reachable_methods and flows for every input any seed can draw,
    each cross-checked between the dedup and the reference engine."""
    build()
    pins = {}
    for workload in WORKLOADS:
        d = os.path.join(WORK, "pool-" + workload)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        subprocess.run([PBTOOL, "pool", workload, d], check=True)
        jobs = [(f, []) for f in sorted(os.listdir(d)) if f.endswith(".mj")]
        if workload == "serve-session":
            with open(os.path.join(d, "roots.json")) as f:
                jobs += [("base00.mj", ["Main.main", r]) for r in json.load(f)]
        for f, roots in jobs:
            path = os.path.join(d, f)
            results = []
            for engine in ("dedup", "ref"):
                cmd = [SKIPFLOW, "analyze", "--format", "json", "--no-timings",
                       "--engine", engine, path] + [a for r in roots for a in ("--root", r)]
                out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
                results.append(json.loads(out)["metrics"])
            if results[0] != results[1]:
                log("dedup and ref disagree on %s %s" % (f, roots))
                sys.exit(1)
            m = results[0]
            pins[pin_key(sha(path), roots)] = [m["reachable_methods"], m["flows"]]
            log("%s %s %s" % (workload, f, pins[pin_key(sha(path), roots)]))
    with open(PINS, "w") as f:
        json.dump({"about": "reachable_methods and flows per input digest "
                            "(| roots), equal under --engine dedup and ref",
                   "pins": dict(sorted(pins.items()))}, f, indent=0)
        f.write("\n")
    shutil.rmtree(WORK, ignore_errors=True)


def compare(side_a, side_b):
    """Compare saved reports (files or directories of them).  Runs are
    paired by workload fingerprint; differing fingerprints are refused."""
    def load(side):
        paths = ([os.path.join(side, p) for p in sorted(os.listdir(side))]
                 if os.path.isdir(side) else [side])
        out = {}
        for p in paths:
            with open(p) as f:
                r = json.load(f)
            out.setdefault((r["workload"], r["fingerprint"], r["trace"]), []).append(r)
        return out
    a, b = load(side_a), load(side_b)
    if set(a) != set(b):
        log("refusing to compare: workload fingerprints differ\n  A: %s\n  B: %s"
            % (sorted(a), sorted(b)))
        sys.exit(2)
    by_workload = {}
    for key in sorted(a):
        for side, runs in (("A", a[key]), ("B", b[key])):
            for r in runs:
                for name, m in r["metrics"].items():
                    by_workload.setdefault((key[0], name), {"A": [], "B": []})[side].append(
                        m["value"])
    for (workload, name), v in sorted(by_workload.items()):
        ma, mb = median(v["A"]), median(v["B"])
        change = (mb - ma) / ma * 100.0 if ma else 0.0
        print("%-16s %-30s A %12.4f  B %12.4f  %+7.2f%%" % (workload, name, ma, mb, change))


def main(argv):
    if argv[:1] == ["pin"]:
        return pin()
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", help="also write the full run report (JSON) here")
    args = ap.parse_args(argv)

    def overtime(signum, frame):
        raise TimeoutError("run exceeded %d s" % DEADLINE_S)
    # a terminated run still stops and reaps every process it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    build()  # the first build in a checkout may take minutes; not under the alarm
    signal.signal(signal.SIGALRM, overtime)
    signal.alarm(DEADLINE_S)
    try:
        bench(args)
    except (TimeoutError, OSError, subprocess.SubprocessError) as e:
        log("aborted: %s" % e)
        sys.exit(1)
    finally:
        signal.alarm(0)
        kill_all()


if __name__ == "__main__":
    main(sys.argv[1:])
