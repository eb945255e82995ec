"""holoreduce benchmark.

    python3 perfbench/run.py --workload derive|verify|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

With --trace 0 the workload runs untraced in this process and the last
line of standard output is one JSON object with the end-to-end metrics.
With --trace 1 this process starts a traced child and an untraced child
that runs the same passes, and reports the per-layer metrics plus the
tracing overhead.  --selftest runs one pass of every workload, traced and
untraced, with every check.  Details (per-kind latencies, which kind each
percentile lands on, spans) are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PRECISION_BITS = "96"
SETUP_REPEATS = 15
WORKLOADS = ("derive", "verify", "cli")

import harness  # noqa: E402
from harness import Task  # noqa: E402


def load_program():
    """Import holoreduce from the working tree's src/, never another copy."""
    sys.path.insert(0, SRC)
    hr = importlib.import_module("holoreduce")
    where = os.path.realpath(hr.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"holoreduce imported from {where}, not from {SRC}")
    return hr


def make_workload(name, seed, hr=None, launcher=None):
    if name == "derive":
        from wl_derive import Derive
        wl = Derive(hr, seed)
        wl.tasks(0)  # input generation is part of set-up
        return wl
    if name == "verify":
        from wl_verify import Verify
        wl = Verify(hr, seed, os.path.join(SRC, "holoreduce", "fixtures"))
        wl.setup()
        return wl
    from wl_cli import Cli
    wl = Cli(ROOT, seed, OUT, launcher)
    wl.setup()
    return wl


def set_up(name, seed, tracer=None, launcher=None):
    """Import, generate inputs and fill caches; return the workload and
    the set-up time."""
    t0 = time.perf_counter()
    hr = None
    if name != "cli":
        hr = load_program()
        if tracer is not None:
            tracer.install()
    wl = make_workload(name, seed, hr, launcher)
    return wl, time.perf_counter() - t0


def setup_sample(args):
    """One more set-up, timed in a fresh child process (in this process for
    cli, whose set-up is itself a child), so that repeated imports never
    inflate this process's peak RSS."""
    if args.workload == "cli":
        return set_up("cli", args.seed)[1]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def detail(log, wl):
    return {
        "passes": log.passes,
        "attempted": len(log.samples),
        "failed": sum(s.failed for s in log.samples),
        "incorrect": log.incorrect,
        "op_wall_s": sum(s.wall for s in log.samples),
        "pass_wall_s": log.pass_walls,
        "kinds": harness.kind_summary(log),
        "samples": [[*s.slot, s.kind, s.wall, s.cpu, s.failed] for s in log.samples],
        "tail_q": wl.tail_q,
        "landing": {"p50": harness.landing(log.samples, 0.5),
                    f"p{round(wl.tail_q * 100)}": harness.landing(log.samples, wl.tail_q)},
    }


def result_line(log, metrics):
    return json.dumps({
        "correct": not log.incorrect,
        "attempted": len(log.samples),
        "failed": sum(s.failed for s in log.samples),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, default=str)


def untraced(args):
    wl, own = set_up(args.workload, args.seed)
    setups = [own]
    repeats = 1 if args.passes else SETUP_REPEATS
    t0 = time.perf_counter()
    getattr(wl, "prepare_oracles", lambda: None)()
    oracle_s = time.perf_counter() - t0

    def between(elapsed):
        # Spread the other set-ups over the run, so that setup_s sees the
        # same machine speed as the operations do.
        while len(setups) < repeats and elapsed >= len(setups) * args.seconds / repeats:
            setups.append(setup_sample(args))

    clock = getattr(wl, "cpu_clock", time.process_time)
    log = harness.run_passes(wl, args.seconds, args.passes, cpu_clock=clock, between=between)
    while len(setups) < repeats:
        setups.append(setup_sample(args))
    metrics = harness.end_to_end(log, setups, peak_rss_mb(args.workload), wl.tail_q)
    info = detail(log, wl)
    info.update(setup_s=setups, oracle_s=oracle_s,
                metrics={k: v for k, (v, _) in metrics.items()})
    write_json(args.result, info)
    print(result_line(log, metrics))


def traced_child(args):
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    dumps = []
    launcher = None
    if args.workload == "cli":
        shim_out = os.path.join(OUT, f"shim-{args.seed}.json")
        launcher = [sys.executable, os.path.join(HERE, "cli_shim.py"), shim_out]
    wl, _ = set_up(args.workload, args.seed, tracer, launcher)
    getattr(wl, "prepare_oracles", lambda: None)()
    if launcher is not None:
        plain_tasks = wl.tasks

        def tasks(k):
            def collect(task):
                def check(result):
                    with open(shim_out, encoding="utf-8") as fh:
                        dumps.append(json.load(fh))
                    dumps[-1]["first_op"] = len(dumps) - 1
                    task.check(result)
                return Task(task.kind, task.run, check)
            return [collect(t) for t in plain_tasks(k)]

        wl.tasks = tasks
        log = harness.run_passes(wl, args.seconds, args.passes, cpu_clock=wl.cpu_clock,
                                 need_tail=False)
    else:
        log = harness.run_passes(wl, args.seconds, args.passes, tracer=tracer,
                                 need_tail=False)
        dumps.append(tracer.dump())
    info = detail(log, wl)
    info["layers"] = layer_metrics(dumps, log.passes, len(log.samples) // log.passes)
    write_json(args.result, info)
    with open(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dumps, fh)


def child(args, extra, result):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--result", result] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"child {' '.join(extra)} exited {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def traced(args):
    """Per-layer metrics: a traced child, then an untraced child running
    exactly the same passes, for the overhead ratio."""
    base = os.path.join(OUT, f"layers-{args.workload}-s{args.seed}")
    budget = str(args.seconds / 2)
    extra = ["--passes", str(args.passes)] if args.passes else ["--seconds", budget]
    t = child(args, extra + ["--trace", "1", "--traced-child"], base + "-traced.json")
    u = child(args, ["--passes", str(t["passes"]), "--trace", "0"], base + "-plain.json")
    layers = dict(t["layers"])
    layers["trace.overhead_ratio"] = t["op_wall_s"] / u["op_wall_s"]
    cli_layers = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0}
    from wl_cli import commands, Cli, timed_python
    for name in commands(""):
        cli_layers[f"cli.{name}.wall_ms"] = 0.0
    if args.workload == "cli":
        env = Cli(ROOT, args.seed, OUT)
        interp = timed_python(env, "pass")
        cli_layers["cli.interpreter_ms"] = interp * 1e3
        cli_layers["cli.import_ms"] = (timed_python(env, "import holoreduce.cli") - interp) * 1e3
        for name, stats in u["kinds"].items():
            cli_layers[f"cli.{name}.wall_ms"] = stats["median_ms"]
    layers.update(cli_layers)
    units = {}
    for key in layers:
        units[key] = ("ms" if key.endswith("_ms") else "ratio" if key.endswith("ratio")
                      else "count")
    print(json.dumps({
        "correct": not t["incorrect"] and not u["incorrect"],
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in layers.items()},
    }))


def selftest():
    """One pass of every workload, untraced and traced, every check on."""
    ok = True
    for name in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", "1", "--passes", "1", "--trace", trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            res = json.loads(last) if last.startswith("{") else {}
            good = proc.returncode == 0 and res.get("correct") is True
            ok &= good
            print(f"{name:7s} trace={trace} {'ok' if good else 'FAILED'} "
                  f"attempted={res.get('attempted')} failed={res.get('failed')}")
            if not good:
                print(proc.stderr[-4000:], file=sys.stderr)
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, help="run exactly this many passes")
    ap.add_argument("--result", help="where to write the detailed result")
    ap.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    os.environ["HOLOREDUCE_PRECISION_BITS"] = PRECISION_BITS
    os.makedirs(OUT, exist_ok=True)
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.result is None:
        args.result = os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    if not os.path.isdir(os.path.join(SRC, "holoreduce")):
        raise SystemExit(f"no holoreduce sources under {SRC}")
    if args.setup_only:
        print(set_up(args.workload, args.seed)[1])
    elif args.traced_child:
        traced_child(args)
    elif args.trace:
        traced(args)
    else:
        untraced(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
