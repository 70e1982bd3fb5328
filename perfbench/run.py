#!/usr/bin/env python3
"""The MATADOR benchmark: time to a verified design through `matador flow`,
serving through the real NDJSON pipe of `matador serve`, and (with
`--trace 1`) a traced per-layer breakdown.

    python3 perfbench/run.py --workload flow-mnist --seed 1 --seconds 45 --trace 0

Run from the repository root.  The first run builds `matador` and the layer
program into .bench_build/.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the environment stamp, every sample and every correctness gate.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import harness as h  # noqa: E402

TRAIN_THREADS = 4
EPOCHS = 5
MAX_INFLIGHT = 256  # matador serve's default in-order window
READY_SPAWNS = 34  # serve spawns per round behind a spawn-to-ready setup_s
# Flows and serve sessions alternate in this many rounds.  The shared host
# has slow spells of several seconds; spread over the run, a spell moves
# some samples of each metric instead of all of one.
ROUNDS = 3

# Every workload is one user session: `matador flow` turns seeded datasets
# into verified designs, and `matador serve` answers a seeded request
# stream built from the first dataset's test split.  Each workload puts
# most of its time into one of the two; the other is there because every
# workload reports every end-to-end metric.
#   datasets:    flows run once per dataset, and twice on the first one;
#   serve_share: share of --seconds spent sending requests;
#   setup:       where setup_s comes from (flow process start, or serve
#                spawn to `ready`).
WORKLOADS = {
    # The ROADMAP reference flow: training and the SAT verify stage do
    # nearly all the work.
    "flow-mnist": {"dataset": "mnist-like", "examples": 1000, "clauses": 500,
                   "datasets": 10, "serve_share": 0.25, "setup": "flow"},
    # A kws6-like model served with 512 requests outstanding: blocks fill
    # to 64 lanes, so the per-line front end (JSON parse,
    # BitVector::from_string, promise, dump) does the work.  The first
    # short kws6 flow trains the served model.
    "serve-saturate": {"dataset": "kws6-like", "examples": 1000, "clauses": 200,
                       "datasets": 20, "serve_share": 0.65, "setup": "serve"},
}

END_TO_END = {  # name -> unit
    "flow_s": "s", "train_s": "s", "verify_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "test_accuracy": "fraction", "design_luts": "count",
    "design_latency_cycles": "cycles", "serve_rps": "req/s",
    "serve_p50_us": "us", "serve_p90_us": "us",
}
PER_LAYER = {
    "data.synth_s": "s", "train.fit_s": "s", "train.examples_per_s": "1/s",
    "train.fit_1t_s": "s", "infer.accuracy_s": "s", "infer.block64_us": "us",
    "infer.block1_us": "us", "analyze.s": "s", "generate.hcb_s": "s",
    "generate.lut_map_s": "s", "generate.assemble_s": "s",
    "generate.aig_ands": "count", "verify.lint_s": "s", "verify.ladder_s": "s",
    "verify.sim_s": "s", "sat.prove_s": "s", "sat.outputs_s": "s",
    "sat.induction_s": "s", "sat.obligations": "count",
    "sat.conflicts": "count", "sat.decisions": "count",
    "serve.parse_us": "us", "serve.emit_us": "us", "serve.inproc_rps": "req/s",
    "batcher.wait_p50_us": "us", "batcher.wait_p99_us": "us",
    "batcher.occupancy": "lanes", "registry.load_s": "s",
    "client.late_p99_ms": "ms", "trace.coverage.flow": "fraction",
    "trace.coverage.verify": "fraction", "trace.coverage.serve": "fraction",
    "trace.overhead_pct": "%",
}


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and environment
# --------------------------------------------------------------------------


def build():
    """Configure and build `matador` + `perfbench_layers`; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release"] + gen,
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                           "matador", "perfbench_layers"],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def matador_bin():
    return os.path.join(BUILD, "matador", "matador")


def layers_bin():
    return os.path.join(BUILD, "perfbench_layers")


def cmake_cache():
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def environment():
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"), recursive=True)
                   + glob.glob(os.path.join(ROOT, "tools", "*"))
                   + [os.path.join(ROOT, "CMakeLists.txt")])
    for path in files:
        if os.path.isfile(path):
            src.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                src.update(f.read())
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "git_sha": sha,  # None in an export without .git
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": version,
        "flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                  cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")).strip(),
        "build_type": build_type,
        "python": platform.python_version(),
    }


# --------------------------------------------------------------------------
# Workload phases
# --------------------------------------------------------------------------


class Session:
    """One run: counts, samples and gates shared by the phases."""

    def __init__(self, name, seed, work_dir):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.gates = {}
        self.samples = {}
        self.rss = []
        self.notes = []

    def gate(self, name, ok, detail=""):
        ok = bool(ok)
        self.gates[name] = self.gates.get(name, True) and ok
        if not ok:
            self.notes.append("%s failed %s" % (name, detail))
            log("gate %s failed %s" % (name, detail))

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def data_seeds(self, n):
        """The first `n` of the workload's `datasets` seeds derived from
        --seed.  The flow's work (training, proof obligations) varies by up
        to a quarter from one dataset to the next, so a run goes through
        several and reports medians; the first one is the dataset that gets
        served."""
        k = self.w["datasets"]
        return [self.seed * k + j for j in range(n)]

    def flow_cmd(self, data_seed, model_out, extra=()):
        w = self.w
        return [matador_bin(), "flow", "--dataset", w["dataset"],
                "--examples", str(w["examples"]),
                "--clauses_per_class", str(w["clauses"]),
                "--epochs", str(EPOCHS), "--verify_sat", "true",
                "--train-threads", str(TRAIN_THREADS), "--timing",
                "--data-seed", str(data_seed), "--model-out", model_out] + list(extra)

    def run_flow(self, i, ds, first):
        """Run the session's i-th `matador flow`, on data seed `ds`, and
        record its samples.  `first` maps a data seed to the parsed output
        and model bytes of its first flow, which a repeat must match.
        Returns False when the flow failed."""
        model = os.path.join(self.dir, "flow%d.tm" % i)
        out = os.path.join(self.dir, "flow%d.txt" % i)
        self.attempted += 1
        code, wall, rss, text = h.run_timed(self.flow_cmd(ds, model), out, 90)
        parsed = h.parse_flow_output(text)
        stages = parsed["stages"]
        ok = code == 0 and "total" in stages and parsed["prove"] is not None
        self.gate("flow_exit_0", ok, "(flow %d exit %s)" % (i, code))
        if not ok:
            self.failed += 1
            return False
        proved, total = parsed["prove"]
        self.gate("prove_all_unsat", proved == total and total > 0,
                  "(%d/%d)" % (proved, total))
        with open(model, "rb") as f:
            data = f.read()
        want, want_bytes = first.setdefault(ds, (parsed, data))
        self.gate("model_bytes_identical", data == want_bytes,
                  "(flow %d, data seed %d)" % (i, ds))
        for key in ("test_accuracy_pct", "luts", "latency_cycles"):
            self.gate("flow_%s_identical" % key, parsed[key] == want[key],
                      "(%r vs %r)" % (parsed[key], want[key]))
        self.sample("flow_s", wall)
        self.sample("train_s", stages["train"][1])
        self.sample("verify_s", stages["verify"][1])
        self.sample("flow_setup_s", wall - stages["total"][1])
        self.rss.append(rss)
        return True

    def golden(self, model, data_seed):
        """Offline predictions and the request stream from `matador eval`,
        or None when eval fails."""
        preds = os.path.join(self.dir, "golden.txt")
        reqs = os.path.join(self.dir, "requests.ndjson")
        w = self.w
        code, _, _, text = h.run_timed(
            [matador_bin(), "eval", "--model", model, "--dataset", w["dataset"],
             "--examples", str(w["examples"]),
             "--data-seed", str(data_seed),
             "--predictions-out", preds, "--dump-requests", reqs],
            os.path.join(self.dir, "eval.txt"), 90)
        self.gate("eval_exit_0", code == 0, "(exit %s: %s)" % (code, text[-300:]))
        if code != 0:
            return None
        with open(preds) as f:
            golden = [int(line) for line in f]
        examples = []
        with open(reqs) as f:
            for line in f:
                req = json.loads(line)
                examples.append((req["x"].encode(), int(req["label"])))
        return golden, examples

    def serve(self, model, golden, examples, send_s, spawns):
        """`spawns - 1` spawns timed to `ready`, then one measured session
        on the pipe."""
        cmd = [matador_bin(), "serve", "--model", model]
        for _ in range(spawns - 1):
            proc = h.ServeProcess(cmd, 30)
            self.gate("serve_ready", proc.setup_s is not None)
            if proc.setup_s is not None:
                self.sample("serve_setup_s", proc.setup_s)
            code, rss = proc.close(time.perf_counter() + 30)
            self.gate("serve_exit_0", code == 0, "(exit %s)" % code)
            self.rss.append(rss)
        proc = h.ServeProcess(cmd, 30)
        self.gate("serve_ready", proc.setup_s is not None)
        if proc.setup_s is None:
            proc.close(time.perf_counter() + 10)
            self.failed += 1
            return None
        self.sample("serve_setup_s", proc.setup_s)
        client = h.ServeClient(proc, examples, golden)
        res = client.run(send_s, time.perf_counter() + send_s + 30,
                         window=2 * MAX_INFLIGHT)
        code, rss = proc.close(time.perf_counter() + 10)
        self.rss.append(rss)
        self.gate("serve_exit_0", code == 0, "(exit %s)" % code)
        self.gate("serve_replies_match_eval", res["failed"] == 0,
                  "(%d failed, %d unanswered, first: %s)"
                  % (res["failed"], res["unanswered"], res["failures"][:1]))
        self.gate("serve_no_stall", not res["timed_out"])
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        return res


def run_session(session, n_datasets, send_s, spawns, rounds):
    """The untraced end-to-end measurement: `rounds` rounds, each a share of
    the flows (every dataset once, the first one twice), `spawns` serve
    spawns and `send_s / rounds` seconds of serving.  Returns
    (metrics, serve_totals, served_model_path), or None when a phase could
    not run."""
    seeds = session.data_seeds(n_datasets)
    order = seeds + seeds[:1]
    first = {}
    model = os.path.join(session.dir, "flow0.tm")
    windows = []
    served = {"attempted": 0, "ok": 0, "failed": 0, "unanswered": 0,
              "latency_samples": 0}
    for r in range(rounds):
        for i in range(r, len(order), rounds):
            if not session.run_flow(i, order[i], first):
                return None
        if r == 0:
            offline = session.golden(model, seeds[0])
            if offline is None:
                return None
            golden, examples = offline
        res = session.serve(model, golden, examples, send_s / rounds, spawns)
        if res is None:
            return None
        windows += res["windows"]
        for k in ("attempted", "ok", "failed", "unanswered"):
            served[k] += res[k]
        served["latency_samples"] += len(res["latencies_us"])
    flows = [first[ds][0] for ds in seeds]
    labels = [label for _, label in examples]
    n_test = len(labels)
    served_correct = sum(g == y for g, y in zip(golden, labels))
    # The flow prints accuracy to 0.01%; every dataset of a run has the same
    # test-split size, so the printed figure pins down the exact count.
    correct = [round(f["test_accuracy_pct"] * n_test / 100.0) for f in flows]
    session.gate("eval_accuracy_matches_flow", served_correct == correct[0],
                 "(%d vs %d of %d)" % (served_correct, correct[0], n_test))
    s = session.samples
    setup = s["flow_setup_s"] if session.w["setup"] == "flow" else s["serve_setup_s"]
    # Serve figures are medians over whole one-second windows of the send
    # phase, so a short stall on a shared machine moves one window, not the
    # run.  The tail is p90: on a shared 4-core VM, scheduler stalls of
    # 5-20 ms land in the top few percent of most seconds, which moves p99
    # and p95 of identical sessions by a third or more.  p90 moves by about
    # a tenth.  With the window always full, both percentiles follow the
    # backlog over serve_rps (see ServeClient).
    served["windows"] = windows
    session.gate("serve_windows", len(windows) >= 2, "(%d windows)" % len(windows))
    if not windows:
        return None
    metrics = {
        "flow_s": h.median(s["flow_s"]),
        "train_s": h.median(s["train_s"]),
        "verify_s": h.median(s["verify_s"]),
        "setup_s": h.median(setup),
        "peak_rss_mb": max(session.rss),
        "test_accuracy": h.median(correct) / n_test,
        "design_luts": h.median([f["luts"] for f in flows]),
        "design_latency_cycles": h.median([f["latency_cycles"] for f in flows]),
        "serve_rps": h.median([w[0] for w in windows]),
        "serve_p50_us": h.median([w[1] for w in windows]),
        "serve_p90_us": h.median([w[2] for w in windows]),
    }
    return metrics, served, model


def run_traced(session, e2e, model):
    """The per-layer breakdown: the traced in-process layer program plus one
    `matador flow --trace-out`, compared with the untraced run."""
    w = session.w
    data_seed = session.data_seeds(1)[0]
    layer_model = os.path.join(session.dir, "layers.tm")
    trace_out = os.path.join(OUT, "%s-seed%d.layers.trace.json"
                             % (session.name, session.seed))
    cmd = [layers_bin(), "--dataset", w["dataset"], "--examples", str(w["examples"]),
           "--clauses", str(w["clauses"]), "--epochs", str(EPOCHS),
           "--data-seed", str(data_seed), "--threads", str(TRAIN_THREADS),
           "--model-out", layer_model, "--trace-out", trace_out]
    session.attempted += 1
    code, _, _, text = h.run_timed(cmd, os.path.join(session.dir, "layers.txt"), 120)
    session.gate("layers_exit_0", code == 0, "(exit %s: %s)" % (code, text[-300:]))
    if code != 0:
        session.failed += 1
        return None
    doc = json.loads(text.strip().splitlines()[-1])
    for gate, ok in doc["gates"].items():
        session.gate("layers_" + gate, ok)
    with open(model, "rb") as a, open(layer_model, "rb") as b:
        session.gate("layers_model_bytes_match_flow", a.read() == b.read())
    lm = doc["metrics"]
    session.gate("layers_latency_matches_flow",
                 lm["design_latency_cycles"] == e2e["design_latency_cycles"])

    # The program's own tracer on one flow: traced versus untraced wall.
    flow_trace = os.path.join(OUT, "%s-seed%d.flow.trace.json"
                              % (session.name, session.seed))
    session.attempted += 1
    code, traced_wall, _, _ = h.run_timed(
        session.flow_cmd(data_seed,
                         os.path.join(session.dir, "traced.tm"),
                         ["--trace-out", flow_trace]),
        os.path.join(session.dir, "traced.txt"), 90)
    session.gate("traced_flow_exit_0", code == 0)

    flow_spans = sum(lm[k] for k in (
        "data.synth_s", "train.fit_s", "infer.accuracy_s", "analyze.s",
        "generate.hcb_s", "generate.lut_map_s", "generate.assemble_s",
        "verify.lint_s", "verify.ladder_s", "verify.sim_s", "sat.prove_s"))
    verify_spans = sum(lm[k] for k in (
        "verify.lint_s", "verify.ladder_s", "verify.sim_s", "sat.prove_s"))
    metrics = {k: lm[k] for k in PER_LAYER if k in lm}
    metrics.update({
        "trace.coverage.flow": flow_spans / e2e["flow_s"],
        "trace.coverage.verify": verify_spans / e2e["verify_s"],
        # Server::run over in-memory streams against the same requests
        # through the pipe: the share of the pipe's wall the server
        # logic explains.
        "trace.coverage.serve": e2e["serve_rps"] / lm["serve.inproc_rps"],
        "trace.overhead_pct": 100.0 * (traced_wall - e2e["flow_s"]) / e2e["flow_s"],
    })
    return metrics, [trace_out, flow_trace]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        log("build failed")
        return 2
    work = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    session = Session(args.workload, args.seed, work)
    w = session.w
    if args.trace:
        # A short untraced session supplies the walls the trace is compared
        # with; the layer program then takes its own time.
        out = run_session(session, 1, 4.0, 1, 1)
    else:
        out = run_session(session, w["datasets"], w["serve_share"] * args.seconds,
                          READY_SPAWNS if w["setup"] == "serve" else 1, ROUNDS)
    result, traces = None, []
    if out is not None:
        e2e, _, model = out
        if args.trace:
            traced = run_traced(session, e2e, model)
            if traced is not None:
                result, traces = traced
        else:
            result = e2e
    correct = result is not None and all(session.gates.values())
    units = PER_LAYER if args.trace else END_TO_END
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": environment(),
        "gates": session.gates, "notes": session.notes,
        "samples": {k: h.summary(v) for k, v in session.samples.items()},
        "traces": traces,
    }
    if out is not None:
        detail["serve"] = out[1]
    print(json.dumps(detail))
    metrics = {k: {"value": result[k], "unit": unit}
               for k, unit in units.items() if result and k in result}
    print(json.dumps({"correct": correct, "attempted": max(1, session.attempted),
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
