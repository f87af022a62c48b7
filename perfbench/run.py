"""ecgdx benchmark: one workload, one seed, one measured run.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run sets up the workload's inputs three times from the seed (the
median is ``setup_s``), then repeats the workload's cycle of CLI commands,
each command in a fresh process with a pinned BLAS thread count, until S
seconds have passed.  Every command's exit code and outputs are checked.
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced cycles alternate and it reports
the per-layer metrics, including the tracing overhead.  A results file
with the environment, every sample and (traced) every span is written
under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150
MAX_BLAS_THREADS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "records_per_s": "1/s",
}


def blas_threads() -> int:
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() if out.returncode == 0 else commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    from workloads import tree_digest
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "src_sha256": tree_digest(ROOT / "src" / "ecgdx"),
        "workload_seed": seed,
    }


def run_command(cmd, run_id: str, traced: bool, env: dict, logs: Path) -> dict:
    """Run one CLI command in a fresh process; time it and check its outputs."""
    from workloads import reset
    for path in cmd.outputs:
        if path.is_dir():
            reset(path)
        elif path.exists():
            path.unlink()
    result_path = logs / f"{run_id}.json"
    argv = [sys.executable, str(HERE / "child.py"), str(result_path),
            "1" if traced else "0", run_id, "--", *cmd.argv]
    problems: list[str] = []
    start = time.perf_counter()
    with open(logs / f"{run_id}.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        try:
            proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            problems.append(f"timed out after {COMMAND_TIMEOUT_S} s")
    wall = time.perf_counter() - start
    sample = {"run_id": run_id, "command": cmd.name, "traced": traced,
              "wall_s": wall, "records": cmd.records}
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"no result from the command process ({exc})")
        result = None
    if result is not None:
        sample.update(dispatch_s=result["dispatch_s"],
                      peak_rss_mib=result["maxrss_kib"] / 1024.0,
                      user_s=result["user_s"], sys_s=result["sys_s"],
                      trace=result["trace"])
        if result["rc"] != 0:
            problems.append(f"exit code {result['rc']} {result['error'] or ''}")
        else:
            try:
                problems += cmd.check()
            except Exception as exc:  # any failure to read an output is a failed op
                problems.append(f"output check raised {type(exc).__name__}: {exc}")
    sample["problems"] = problems
    result_path.unlink(missing_ok=True)
    return sample


def run_cycle(wl, index: int, traced: bool, env: dict, logs: Path) -> dict:
    tag = "traced" if traced else "plain"
    samples = [run_command(cmd, f"cycle{index}-{tag}-{cmd.name}", traced, env, logs)
               for cmd in wl.commands()]
    main = next(s for s in samples if s["command"] == wl.main_command)
    ok = all(not s["problems"] for s in samples)
    cycle = {"index": index, "traced": traced, "ok": ok, "samples": samples,
             "wall_s": sum(s["wall_s"] for s in samples)}
    if ok:
        cycle["peak_rss_mib"] = max(s["peak_rss_mib"] for s in samples)
        cycle["throughput"] = {s["command"]: s["records"] / s["dispatch_s"]
                               for s in samples}
        cycle["records_per_s"] = main["records"] / main["dispatch_s"]
    return cycle


def setup_runs(wl, traced: bool) -> tuple[list[float], list[float], list[str]]:
    """Set the inputs up SETUP_REPEATS times; returns times, generate ms, problems."""
    from workloads import reset, tree_digest
    times, generate_ms, digests = [], [], []
    for k in range(SETUP_REPEATS):
        reset(wl.inputs)
        tracer = None
        if traced:
            import tracing
            tracer = tracing.Tracer(f"setup{k}")
            tracing.install(tracer)
        start = time.perf_counter()
        try:
            wl.setup()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        times.append(elapsed)
        if tracer is not None:
            generate_ms.append(sum((s[2] - s[1]) * 1e3 for s in tracer.spans
                                   if s[0] == "synth.generate"))
        digests.append(tree_digest(wl.inputs))
    problems = [] if len(set(digests)) == 1 else \
        ["set-up is not deterministic: input digests differ between repeats"]
    return times, generate_ms, problems


def declared_metrics() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ecgdx" / "cli.py").is_file():
        print(f"error: no ecgdx sources under {ROOT / 'src'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    threads = blas_threads()
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)   # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_names, layer_names = declared_metrics()
    if set(e2e_names) != set(END_TO_END) or set(layer_names) != set(tracing.LAYER_METRICS):
        print("error: BENCHMARK.json metrics do not match the harness", file=sys.stderr)
        return 2

    base = WORK / args.workload
    wl = workloads.WORKLOADS[args.workload](args.seed, base / "inputs",
                                            base / "outputs")
    logs = base / "logs"
    for d in (wl.outputs, logs):
        workloads.reset(d)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    traced_run = bool(args.trace)

    env_info = environment(args.seed, threads)
    print("env: " + json.dumps(env_info, sort_keys=True))
    print("shape: " + json.dumps(wl.shape, sort_keys=True))

    setup_times, generate_ms, setup_problems = setup_runs(wl, traced_run)
    cycles = []
    start = time.perf_counter()
    while True:
        traced = traced_run and len(cycles) % 2 == 1
        cycles.append(run_cycle(wl, len(cycles), traced, env, logs))
        kinds = {c["traced"] for c in cycles}
        if time.perf_counter() - start >= args.seconds and \
                (not traced_run or kinds == {False, True}):
            break

    attempted = SETUP_REPEATS + sum(len(c["samples"]) for c in cycles)
    failed = len(setup_problems) + sum(1 for c in cycles for s in c["samples"]
                                       if s["problems"])
    for problem in setup_problems:
        print(f"FAIL set-up: {problem}")
    for c in cycles:
        for s in c["samples"]:
            for problem in s["problems"]:
                print(f"FAIL {s['run_id']}: {problem}")
    print(f"ops: attempted={attempted} failed={failed} "
          f"failed_ops_ratio={failed / attempted:.6g}")

    plain = [c for c in cycles if not c["traced"] and c["ok"]]
    traced_cycles = [c for c in cycles if c["traced"] and c["ok"]]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env_info, "shape": wl.shape,
              "attempted": attempted, "failed": failed,
              "failed_ops_ratio": failed / attempted,
              "setup_s": setup_times,
              "cycles": [{k: v for k, v in c.items() if k != "samples"}
                         | {"samples": [{k: v for k, v in s.items() if k != "trace"}
                                        for s in c["samples"]]}
                         for c in cycles]}
    metrics: dict[str, dict] = {}
    if not plain or (traced_run and not traced_cycles):
        print("FAIL: no cycle completed without errors")
    elif not traced_run:
        values = {
            "setup_s": setup_times,
            "wall_s": [c["wall_s"] for c in plain],
            "peak_rss_mib": [c["peak_rss_mib"] for c in plain],
            "records_per_s": [c["records_per_s"] for c in plain],
        }
        for name, unit in END_TO_END.items():
            print(f"{name}: {stats.describe_text(values[name], ' ' + unit)}")
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
        for command in plain[0]["throughput"]:
            per_s = [c["throughput"][command] for c in plain]
            print(f"{command}_records_per_s: {stats.describe_text(per_s, ' 1/s')}")
    else:
        per_cycle = [tracing.layer_metrics([s["trace"] for s in c["samples"]])
                     for c in traced_cycles]
        layer = {name: statistics.median(m[name] for m in per_cycle)
                 for name in per_cycle[0]}
        layer["synth.generate_ms"] = statistics.median(generate_ms)
        traced_wall = statistics.median(c["wall_s"] for c in traced_cycles)
        plain_wall = statistics.median(c["wall_s"] for c in plain)
        layer["trace.overhead_s"] = traced_wall - plain_wall
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            metrics[name] = {"value": layer[name], "unit": unit}
        report = trace_report(args, layer, plain_wall, traced_wall,
                              [s["trace"] for c in traced_cycles for s in c["samples"]])
        report_path = results_dir / f"{args.workload}-seed{args.seed}-layers.md"
        report_path.write_text(report, encoding="utf-8")
        spans_path = results_dir / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(
            [s["trace"] for c in traced_cycles for s in c["samples"]]),
            encoding="utf-8")
        print(report.split("\n\n")[1])
        print(f"per-layer report: {report_path.relative_to(ROOT)}")

    record["metrics"] = metrics
    suffix = "layers" if traced_run else "e2e"
    (results_dir / f"{args.workload}-seed{args.seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    for d in (wl.inputs, wl.outputs):   # large; the results and logs stay
        shutil.rmtree(d)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def top_backward_layers(layer: dict, n: int = 3) -> list[tuple[str, float]]:
    import tracing
    ranked = sorted(((name, layer[f"nn.model.{name}.bwd_ms"])
                     for name in tracing.MODEL_LAYERS), key=lambda kv: -kv[1])
    return [kv for kv in ranked[:n] if kv[1] > 0]


def trace_report(args, layer: dict, plain_wall: float, traced_wall: float,
                 reports: list[dict]) -> str:
    """Markdown per-layer report of a traced run."""
    import tracing
    top = top_backward_layers(layer)
    top_text = ", ".join(f"{name} ({ms:.1f} ms)" for name, ms in top) \
        if top else "none (no backward pass on this workload)"
    lines = [f"# Per-layer report: {args.workload}, seed {args.seed}", "",
             f"top network layers by backward time: {top_text}",
             f"tracing overhead: {traced_wall - plain_wall:+.3f} s per cycle "
             f"(traced {traced_wall:.3f} s, untraced {plain_wall:.3f} s)", "",
             "Values are medians over traced cycles of per-cycle totals; "
             "`nn.autodiff.conv1d.gflop` and `.mbytes` are computed from "
             "shapes, not measured.", "",
             "| metric | value | unit |", "|---|---|---|"]
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        lines.append(f"| {name} | {layer[name]:.6g} | {unit} |")
    lines += ["", "Per-call span durations (all traced cycles):", "",
              "| span | per-call summary |", "|---|---|"]
    for name, values in sorted(tracing.per_call_ms(reports).items()):
        lines.append(f"| {name} | {stats.describe_text(values, ' ms')} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
