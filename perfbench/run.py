"""hodgegauge benchmark: closed loop, one client, one fresh CLI process at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pipeline-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs every workload untraced and prints a table.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See perfbench/README.md for the workloads, the
metric definitions and the items known to fail at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("pipeline-mix", "wide-spread", "lie-tables")
# A run makes a fixed number of passes, so that two commits compared average
# over the same number.  The count depends on --seconds only: it is how many
# passes fit when a pass, and the fixed phases (corpus, warm-up, probes),
# take the seconds below.  They are raw times measured at the seed commit on
# a shared 2-core x86-64 host with Python 3.11, while its neighbours kept it
# busy; a quiet host is up to 1.7x faster.
PASS_TIMES_S = {  # workload: (one pass with its setup imports, fixed phases)
    "pipeline-mix": (13.0, 4.0),
    "wide-spread": (18.0, 5.0),
    "lie-tables": (13.0, 1.5),
}
# No pass starts that would end the run after this many times --seconds.
# The guard keeps a run on a heavily loaded host within the time it was
# given; at the load above the fixed count fits under it.
DEADLINE_FACTOR = 1.25
# bare imports timed per pass, for setup_s
SETUP_PER_PASS = 12
# the CPUs this process may use; a run pins itself and its children to
# the first `jobs` of them
CPUS = sorted(os.sched_getaffinity(0))
LAYERS = ("scalars", "linalg", "poly", "mhs", "splitting", "freelie",
          "connection", "holonomy", "rees", "hodgecoh", "documents", "cli")


def child_env():
    env = dict(os.environ)
    # a developer's on-disk table cache would skip the table builds
    env.pop("HODGEGAUGE_TABLE_CACHE", None)
    env["PYTHONPATH"] = SRC
    return env


ENV = child_env()


def spawn(argv, cwd, limit_s, tag):
    """Run one child to completion; wall time from spawn to reap, and its
    rusage from wait4.  A child past ``limit_s`` is killed."""
    out_path = os.path.join(cwd, "out", tag + ".stdout")
    err_path = os.path.join(cwd, "out", tag + ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], limit_s)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": not ready,
        "stdout": stdout,
        "stderr": stderr,
    }


def cli_argv(inv):
    return [sys.executable, "-m", "hodgegauge.cli"] + inv.argv


def load_reference(workload, seed):
    path = os.path.join(HERE, "reference", workload + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    ref = dict(doc.get("fixed", {}))
    ref.update(doc.get("seeds", {}).get(str(seed), {}))
    return ref


def prepare(workload, seed):
    """Build the corpus and warm the .pyc files; returns (workdir, plan)."""
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "out"))
    # built in a child, so that this process never imports hodgegauge: a
    # child's ru_maxrss starts at the RSS of the process that forked it, and
    # peak_rss_mb must be the program's own
    r = spawn([sys.executable, os.path.join(HERE, "corpus.py"), workload,
               str(seed)], workdir, 120, "corpus")
    if r["code"] != 0:
        raise SystemExit("building the corpus failed:\n%s"
                         % r["stderr"].decode(errors="replace"))
    docs = json.loads(r["stdout"])
    plan = workloads.plan(workload, docs)
    # untimed warm-up, so no timed process compiles bytecode
    warm = [d for d in docs if d["kind"] != "hostile"][:1]
    argv = ["validate"] + [d["path"] for d in warm] if warm else \
        ["lie", "--truncation", "2"]
    spawn([sys.executable, "-m", "hodgegauge.cli"] + argv, workdir, 60, "warmup")
    spawn([sys.executable, os.path.join(HERE, "trace.py"), "--out",
           os.path.join(workdir, "out", "warmup-spans.json"), "--", "lie",
           "--truncation", "2"], workdir, 60, "warmup-trace")
    return workdir, plan


def pass_count(workload, seconds):
    pass_s, fixed_s = PASS_TIMES_S[workload]
    return max(1, int((seconds - fixed_s) // pass_s))


def measure_setup(workdir, tag):
    r = spawn([sys.executable, "-c", "import hodgegauge.cli"], workdir, 60,
              "setup" + tag)
    if r["code"] != 0:
        raise SystemExit("importing hodgegauge.cli failed:\n%s"
                         % r["stderr"].decode(errors="replace"))
    return r["wall"]


def run_pass(timed, workdir, k, sampler):
    """One pass; returns its results and setup times.  Before each
    invocation bare imports of hodgegauge.cli are timed, at least
    ``SETUP_PER_PASS`` in the pass, so the setup samples spread over the run
    like the invocations.  ``sampler`` files its samples by the phase."""
    results, setup = [], []
    imports = max(1, SETUP_PER_PASS // len(timed))
    for i, inv in enumerate(timed):
        tag = "p%d-%d" % (k, i)
        sampler.phase = "setup"
        setup += [measure_setup(workdir, tag) for _ in range(imports)]
        sampler.phase = "run"
        results.append(spawn(cli_argv(inv), workdir, inv.limit_s, tag))
    sampler.phase = None
    return results, setup


def check_passes(timed, passes, reference):
    failed = {}
    for i, inv in enumerate(timed):
        for p in passes:
            bad = workloads.check(inv, p[i], reference)
            if p[i]["stdout"] != passes[0][i]["stdout"]:
                for key in inv.item_keys():
                    bad.setdefault(key, "stdout differs between passes")
            for key, why in bad.items():
                failed.setdefault(key, [0, why, p[i]["stderr"]])[0] += 1
    return failed


def run_probes(probes, workdir, reference):
    failed = {}
    for i, inv in enumerate(probes):
        r = spawn(cli_argv(inv), workdir, inv.limit_s, "probe%d" % i)
        for key, why in workloads.check(inv, r, reference).items():
            failed[key] = [1, why, r["stderr"]]
    return failed


def end_to_end(workload, seed, seconds):
    start = time.perf_counter()
    workdir, plan = prepare(workload, seed)
    reference = load_reference(workload, seed)
    timed = [inv for inv in plan if not inv.probe]
    probes = [inv for inv in plan if inv.probe]
    jobs = max(int(inv.argv[inv.argv.index("--jobs") + 1])
               if "--jobs" in inv.argv else 1 for inv in timed)
    # the probes run first, so the deadline below sees every fixed phase
    probe_failed = run_probes(probes, workdir, reference)
    # every timed child, and the calibration sampler, runs on the same `jobs`
    # CPUs: the cores of a shared host slow down independently of each other
    cpus = CPUS[:jobs]
    os.sched_setaffinity(0, cpus)
    passes, setup = [], []
    with calibrate.Sampler(cpus) as sampler:
        for k in range(pass_count(workload, seconds)):
            if passes and time.perf_counter() - start + pass_s > \
                    DEADLINE_FACTOR * seconds:
                break
            t = time.perf_counter()
            results, pass_setup = run_pass(timed, workdir, k, sampler)
            passes.append(results)
            setup += pass_setup
            pass_s = time.perf_counter() - t
    os.sched_setaffinity(0, CPUS)
    failed = check_passes(timed, passes, reference)
    with open(os.path.join(workdir, "out", "samples.json"), "w") as fh:
        json.dump({"cal": sampler.samples, "setup": setup,
                   "passes": [[{k: r[k] for k in ("wall", "cpu")} for r in p]
                              for p in passes]}, fh)

    per_pass = sum(len(inv.item_keys()) for inv in timed)
    n_probe = sum(len(inv.item_keys()) for inv in probes)
    timed_failures = sum(n for n, _, _ in failed.values())
    # probes run once per run but stand for one item each in every pass
    fail_rate = (timed_failures / len(passes) + len(probe_failed)) / \
        (per_pass + n_probe)
    # how much slower than nominal the host ran the timed children, and the
    # imports, judged by the calibration samples taken while they ran; the
    # times below are divided by it, so they read as on the reference host
    # at full speed
    slowdown = sampler.slowdown("run")
    pass_walls = [sum(r["wall"] for r in p) for p in passes]
    pass_cpus = [sum(r["cpu"] for r in p) for p in passes]
    return {
        "elapsed": time.perf_counter() - start,
        "workload": workload,
        "seed": seed,
        "wall_s": statistics.fmean(pass_walls) / slowdown,
        "raw_wall_s": statistics.fmean(pass_walls),
        "pass_walls": pass_walls,
        "slowdown": slowdown,
        "cal_samples": len(sampler.samples["run"]),
        "setup_s": statistics.fmean(setup) / sampler.slowdown("setup"),
        "setup_samples": len(setup),
        "peak_rss_mb": max(r["maxrss_mb"] for p in passes for r in p),
        "fail_rate": fail_rate,
        "cpu_s": statistics.fmean(pass_cpus) / slowdown,
        "jobs": jobs,
        "passes": len(passes),
        "planned_passes": pass_count(workload, seconds),
        "items_per_pass": per_pass,
        "attempted": per_pass * len(passes),
        "failed": timed_failures,
        "failed_items": failed,
        "probe_items": n_probe,
        "probe_failed": probe_failed,
        "workdir": workdir,
        "plan": plan,
        "last_pass": passes[-1],
    }


def traced(res):
    """Run every timed invocation and the crash probes once more under
    trace.py, one fresh interpreter each; returns per-layer metrics.

    Each traced invocation is followed by an untraced one with the same
    arguments, so the overhead share compares runs a moment apart."""
    workdir = res["workdir"]
    timed = [inv for inv in res["plan"] if not inv.probe]
    # the hang probe would only burn its time limit
    crash_probes = [inv for inv in res["plan"] if inv.probe == "crash"]
    data = []
    traced_s = untraced_s = 0.0
    mismatched = 0
    for i, inv in enumerate(timed + crash_probes):
        argv = list(inv.argv)
        if "--jobs" in argv:
            # per-layer times are serial times; threads would count GIL waits
            j = argv.index("--jobs")
            del argv[j:j + 2]
        spans = os.path.join(workdir, "out", "spans%d.json" % i)
        r = spawn([sys.executable, os.path.join(HERE, "trace.py"), "--out",
                   spans, "--"] + argv, workdir, inv.limit_s * 3, "trace%d" % i)
        if i < len(timed):
            plain = spawn([sys.executable, "-m", "hodgegauge.cli"] + argv,
                          workdir, inv.limit_s, "untraced%d" % i)
            traced_s += r["wall"]
            untraced_s += plain["wall"]
            if r["stdout"] != res["last_pass"][i]["stdout"]:
                mismatched += 1
        with open(spans) as fh:
            data.append(json.load(fh))
    overhead = (traced_s - untraced_s) / untraced_s
    return layer_metrics(res, data, overhead), mismatched


def _sum_stat(data, name, field):
    return sum(d["stats"].get(name, [0, 0.0, 0.0])[field] for d in data)


def layer_metrics(res, data, overhead):
    def calls(name):
        return _sum_stat(data, name, 0)

    def incl(*names):
        return sum(_sum_stat(data, n, 1) for n in names)

    def self_s(name):
        return _sum_stat(data, name, 2)

    m = {}
    for op in ("rref", "matmul", "inverse", "det"):
        m["linalg.%s_calls" % op] = (calls("linalg." + op), "count")
    m["linalg.rref_s"] = (self_s("linalg.rref"), "s")
    m["linalg.matmul_s"] = (self_s("linalg.matmul"), "s")
    m["scalars.max_bits"] = (max((d["max_bits"] for d in data), default=0),
                             "bits")
    m["documents.parse_s"] = (incl("documents.parse"), "s")
    m["mhs.validate_s"] = (incl("mhs.validate_mhs"), "s")
    m["mhs.validate_calls"] = (calls("mhs.validate_mhs"), "count")
    m["splitting.delta_s"] = (incl("splitting.delta_operator"), "s")
    m["splitting.log_components_s"] = (incl("splitting.log_delta_components"),
                                       "s")
    m["freelie.log_pexp_s"] = (incl("freelie.universal_log_pexp"), "s")
    m["freelie.invert_s"] = (incl("freelie.invert_generator_change"), "s")
    for n in range(8, 12):
        m["freelie.log_pexp_s.n%d" % n] = (
            incl("freelie.universal_log_pexp.n%d" % n), "s")
        m["freelie.invert_s.n%d" % n] = (
            incl("freelie.invert_generator_change.n%d" % n), "s")
    m["connection.from_delta_cold_s"] = (incl("connection.from_delta_cold"),
                                         "s")
    m["connection.from_delta_warm_s"] = (incl("connection.from_delta_warm"),
                                         "s")
    m["freelie.substitute_calls"] = (calls("freelie.substitute"), "count")
    m["holonomy.triangle_s"] = (incl("holonomy.triangle_delta"), "s")
    m["connection.curvature_s"] = (incl("connection.curvature"), "s")
    m["rees.patching_s"] = (incl("rees.rees_patching"), "s")
    m["rees.line_type_s"] = (incl("rees.restrict_to_line",
                                  "rees.splitting_type"), "s")
    # the `ext` handler: absolute cohomology plus the handler's own checks
    ext_s = incl("cli.ext")
    m["hodgecoh.ext_s"] = (ext_s, "s")
    recomputed = sum(d["ext_recomputed_s"] for d in data)
    m["hodgecoh.ext_recompute_share"] = (
        recomputed / ext_s if ext_s else 0.0, "ratio")
    m["cli.cpu_s"] = (res["cpu_s"], "s")
    m["cli.parallel_efficiency"] = (
        res["cpu_s"] / (res["wall_s"] * res["jobs"]), "ratio")
    for layer in LAYERS:
        names = {n for d in data for n in d["stats"]
                 if n.split(".")[0] == layer and n.count(".") == 1
                 and not n.endswith(("_cold", "_warm"))}
        m["%s.self_s" % layer] = (sum(self_s(n) for n in names), "s")
        m["%s.errors" % layer] = (
            sum(d["errors"].get(layer, 0) for d in data), "count")
    m["fail_rate"] = (res["fail_rate"], "ratio")
    m["trace.overhead_share"] = (overhead, "ratio")
    return m


def summary(res):
    walls = " ".join("%.2f" % w for w in res["pass_walls"])
    lines = [
        "workload %s seed %d: %d passes of %d invocations, %d items per pass"
        " + %d probe items, %.1f s in all"
        % (res["workload"], res["seed"], res["passes"], len(res["last_pass"]),
           res["items_per_pass"], res["probe_items"], res["elapsed"]),
        "  wall_s       %9.3f s      mean pass over %d passes, divided by the"
        " host slowdown %.3f (%d calibration samples); raw %.3f s, pass"
        " totals %s; no percentile has 10 samples beyond it"
        % (res["wall_s"], res["passes"], res["slowdown"], res["cal_samples"],
           res["raw_wall_s"], walls),
    ]
    if res["passes"] < res["planned_passes"]:
        lines.append("  cut to %d of %d passes: the next would have ended past"
                     " %.2f x --seconds" % (res["passes"],
                                            res["planned_passes"],
                                            DEADLINE_FACTOR))
    lines += [
        "  setup_s      %9.4f s      mean of %d fresh imports of"
        " hodgegauge.cli, divided by the host slowdown"
        % (res["setup_s"], res["setup_samples"]),
        "  peak_rss_mb  %9.2f MB     largest child ru_maxrss"
        % res["peak_rss_mb"],
        "  fail_rate    %9.5f ratio  (ok_rate %.5f)"
        % (res["fail_rate"], 1 - res["fail_rate"]),
    ]
    failures = list(res["failed_items"].items()) + \
        [(k + " [probe]", v) for k, v in res["probe_failed"].items()]
    for key, (count, why, stderr) in failures:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] \
            if stderr else []
        lines.append("  failed %s x%d: %s %s" % (key, count, why,
                                                   " ".join(tail)))
    return "\n".join(lines)


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.trace and args.workload == "all":
        ap.error("--trace 1 takes a single workload")
    if not os.path.exists(os.path.join(SRC, "hodgegauge", "cli.py")):
        print("run from the root of a hodgegauge checkout (no src/hodgegauge)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        # a traced run times one untraced pass, then the traced one
        res = end_to_end(name, args.seed, 0 if args.trace else args.seconds)
        print(summary(res), flush=True)
        results.append(res)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        metrics, mismatched = traced(results[0])
        for key, (value, unit) in sorted(metrics.items()):
            print("  %-32s %14.6g %s" % (key, value, unit))
        if mismatched:
            print("  traced stdout differs from the untraced run in %d"
                  " invocations" % mismatched)
        print(result_line(failed == 0 and not mismatched, attempted, failed,
                          metrics))
        return 0
    metrics = {}
    for res in results:
        prefix = res["workload"] + "." if len(results) > 1 else ""
        metrics[prefix + "wall_s"] = (res["wall_s"], "s")
        metrics[prefix + "setup_s"] = (res["setup_s"], "s")
        metrics[prefix + "peak_rss_mb"] = (res["peak_rss_mb"], "MB")
        metrics[prefix + "ok_rate"] = (1 - res["fail_rate"], "ratio")
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
