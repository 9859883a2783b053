"""Benchmark of the conecert CLI, timed from outside as a user runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli-exact --seed 42 --seconds 60 --trace 0

A closed loop with one client: one child process runs at a time, each
``python -m conecert ... --format json`` with ``src`` on the path, and the
next starts when the previous one has exited.  Every child's exit code and
JSON report are checked against ``expected.json`` (see checks.py).
Times are in ref_s, read off a reference loop that a second process runs
for the whole run (see HostClock), so that the host's drift cancels out.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
invocation of one pass in process in a fresh interpreter (inproc.py), once
untraced and once with span tracing, and prints the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
README.md in this directory names each metric and workload.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_build"
EXPECTED = json.loads((HERE / "expected.json").read_text())
WORKLOADS = tuple(EXPECTED["workloads"])

SETUP_ROUNDS = 3           # warm-up invocations; setup_s is their median
MIN_PASSES = 2             # passes made even when they overrun --seconds
CHILD_TIMEOUT_S = 150.0    # a child still running after this is killed and fails
REF_ROUNDS_PER_S = 2000.0  # reference rounds per second that define one ref_s

# Every layer label: the named layers, then "<module>.other" for each module.
LAYER_METRICS = tuple(dict.fromkeys([*spans.LAYERS.values(), *map(spans.other_label, spans.MODULES)]))
COUNTER_METRICS = (
    "linearization.remainder_directions", "tilt.identity_samples", "tilt.identity_fallbacks",
    "tilt.margin_boxes", "cones.oracle_samples", "cones.enum_candidates",
)


@dataclass
class Child:
    exit: int
    stdout: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    stderr: str
    ref_s: float = 0.0


def reference_round() -> None:
    """A fixed slice of interpreter work: Fraction, big-int and dict operations."""
    total, table = Fraction(0), {}
    for i in range(1, 120):
        total += Fraction(1, i)
        table[i % 31] = table.get(i % 31, 0) + i * i


def spin(rounds, stop, parent: int) -> None:
    """Count reference rounds until stopped or until ``parent`` has exited."""
    while not stop.value and os.getppid() == parent:
        reference_round()
        rounds.value += 1


class HostClock:
    """Time at a fixed host speed, read off a reference loop in a second process.

    On a shared 2-vCPU virtual machine the host's speed was seen to drift by
    up to 1.8x within minutes, on both vCPUs at once.  While the benchmark runs, a second process repeats
    ``reference_round`` and counts the rounds in shared memory; the rounds
    that complete while something runs, divided by REF_ROUNDS_PER_S, are its
    time in ref_s, which follows the program's cost and not the host's speed.
    The loop exits when stopped or when the benchmark process is gone.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._rounds = ctx.Value("q", 0, lock=False)
        self._stop = ctx.Value("b", 0, lock=False)
        self._proc = ctx.Process(target=spin, args=(self._rounds, self._stop, os.getpid()), daemon=True)

    def __enter__(self) -> "HostClock":
        self._proc.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.value = 1
        self._proc.join(10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()

    def read(self) -> float:
        """Reference time elapsed since the loop started, in ref_s."""
        return self._rounds.value / REF_ROUNDS_PER_S


def run_child(cmd: list[str], env: dict, clock: HostClock | None = None) -> Child:
    """Run one child to completion: stdout to EOF, stderr to a file, then wait4."""
    err_path = WORK / "child-stderr.txt"
    with open(err_path, "wb") as err:
        ref_start = clock.read() if clock else 0.0
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        ref = clock.read() - ref_start if clock else 0.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        exit=proc.returncode,
        stdout=out.decode(errors="replace"),
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        stderr=err_path.read_text(errors="replace"),
        ref_s=ref,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "conecert", *argv]


def resolved(workload: str, seed: int) -> list[tuple[dict, list[str]]]:
    """(spec, argv) per invocation, with the seed filled in and JSON output."""
    return [
        (spec, [a.replace("{seed}", str(seed)) for a in spec["argv"]] + ["--format", "json"])
        for spec in EXPECTED["workloads"][workload]
    ]


def count_failed(outcomes: list[tuple[dict, list[str], int, str]]) -> int:
    """Number of invocations whose exit code, verdict or answers are wrong."""
    failed = 0
    for spec, argv, exit_code, stdout in outcomes:
        errors = checks.check_invocation(spec, argv, exit_code, stdout, EXPECTED["published"])
        if errors:
            failed += 1
            print(f"# FAILED {' '.join(argv)}: {'; '.join(errors)}")
    return failed


def machine_info() -> list[str]:
    lines = [f"nproc={os.cpu_count()}", f"python={platform.python_version()}"]
    for dist in ("numpy", "mpmath", "scipy", "sympy", "click"):
        try:
            lines.append(f"{dist}={metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            lines.append(f"{dist}=missing")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    lines.append(f"commit={commit}")
    return lines


def report_digest(seed: int, stdout: str) -> None:
    """Print the selftest content digest; information only, never a gate."""
    digest = checks.selftest_digest(stdout)
    recorded = EXPECTED["selftest_digest"]
    note = ""
    if seed == recorded["seed"]:
        note = " (same as recorded)" if digest == recorded["sha256"] else f" (recorded: {recorded['sha256']})"
    print(f"# selftest content digest at seed {seed}: {digest}{note}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup(env: dict, clock: HostClock) -> tuple[float, float]:
    """Warm bytecode and file caches; returns the median warm-up in ref_s and in s."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        child = run_child(cli_cmd(["--version"]), env, clock)
        if child.exit != 0 or "version" not in child.stdout:
            raise SystemExit(f"conecert --version failed (exit {child.exit}):\n{child.stderr}")
        rounds.append(child)
    return statistics.median(c.ref_s for c in rounds), statistics.median(c.wall_s for c in rounds)


def end_to_end(workload: str, seed: int, seconds: float, env: dict) -> dict:
    """Set-up, then timed passes while the run (set-up included) fits in ``seconds``.

    Times are in ref_s (see HostClock); the wall-clock seconds are printed
    beside them.
    """
    started = time.perf_counter()
    with HostClock() as clock:
        setup_ref, setup_wall = setup(env, clock)
        invocations = resolved(workload, seed)
        pass_walls: list[float] = []
        pass_refs: list[float] = []
        children: list[Child] = []
        outcomes = []
        while True:
            pass_start, ref_start = time.perf_counter(), clock.read()
            done = [run_child(cli_cmd(argv), env, clock) for _, argv in invocations]
            pass_walls.append(time.perf_counter() - pass_start)
            pass_refs.append(clock.read() - ref_start)
            children += done
            outcomes += [(spec, argv, c.exit, c.stdout) for (spec, argv), c in zip(invocations, done)]
            elapsed = time.perf_counter() - started
            if len(pass_walls) >= MIN_PASSES and elapsed + statistics.median(pass_walls) > seconds:
                break

    failed = count_failed(outcomes)
    if workload == "selftest":
        report_digest(seed, children[0].stdout)
    refs = [c.ref_s for c in children]
    walls = [c.wall_s for c in children]
    metrics = {
        "pass_ref_s": metric(statistics.median(pass_refs), "s"),
        "cmd_p50_ref_s": metric(statistics.median(refs), "s"),
        "peak_rss_mb": metric(max(c.rss_mb for c in children), "MB"),
        "setup_s": metric(setup_ref, "s"),
    }
    print(f"# {workload} seed {seed}: {len(pass_walls)} passes of {len(invocations)} invocations"
          f" in {time.perf_counter() - started:.1f} s, set-up included")
    print(f"# pass_ref_s    {metrics['pass_ref_s']['value']:.4f} ref_s  median of {len(pass_refs)} passes:"
          f" {' '.join(f'{r:.4f}' for r in pass_refs)}")
    print(f"# pass wall     {statistics.median(pass_walls):.4f} s      median of {len(pass_walls)} passes:"
          f" {' '.join(f'{w:.4f}' for w in pass_walls)}")
    print(f"# cmd_p50_ref_s {metrics['cmd_p50_ref_s']['value']:.4f} ref_s  median of {len(refs)} invocations"
          f" (min {min(refs):.4f}, max {max(refs):.4f}); wall {statistics.median(walls):.4f} s")
    print(f"# peak_rss_mb   {metrics['peak_rss_mb']['value']:.1f} MB  largest child")
    print(f"# ops_failed    {failed}/{len(outcomes)} = {failed / len(outcomes):.3f}")
    print(f"# setup_s       {setup_ref:.4f} ref_s  median of {SETUP_ROUNDS} warm-up invocations (--version);"
          f" wall {setup_wall:.4f} s")
    print(f"# host speed    {sum(pass_refs) / sum(pass_walls):.4f} ref_s per s over the passes")
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def layer_metrics(plain: list[dict], traced_runs: list[dict], cpu_s: float) -> dict:
    """Per-layer metrics from the untraced and traced in-process results.

    The tracing overhead is the wrapper cost of one span, timed on a no-op
    in each traced interpreter, times the spans recorded, as a share of the
    traced time.  The untraced and traced main() times are reported beside
    it for information only: host drift between the two runs exceeds it.
    """

    def total(key: str, sub: str) -> float:
        return sum(r.get(key, {}).get(sub, 0) for r in traced_runs)

    untraced_s = sum(r["main_s"] for r in plain)
    traced_s = sum(r["main_s"] for r in traced_runs)
    layer_s = sum(sum(r.get("layers", {}).values()) for r in traced_runs)
    overhead_s = sum(r.get("span_cost_s", 0.0) * r.get("spans", 0) for r in traced_runs)
    metrics = {"cli.import_s": metric(statistics.median(r["import_s"] for r in plain), "s")}
    for layer in LAYER_METRICS:
        metrics[f"{layer}_s"] = metric(total("layers", layer), "s")
    metrics["exact.trig_calls"] = metric(total("entries", "exact.trig"), "count")
    metrics["exact.window_calls"] = metric(total("entries", "exact.window"), "count")
    for name in COUNTER_METRICS:
        metrics[name] = metric(total("counters", name), "count")
    metrics["report.bytes"] = metric(total("counters", "report.bytes"), "bytes")
    metrics["proc.cpu_s"] = metric(cpu_s, "s")
    metrics["trace.untraced_s"] = metric(untraced_s, "s")
    metrics["trace.traced_s"] = metric(traced_s, "s")
    metrics["trace.overhead_share"] = metric(overhead_s / traced_s if traced_s else 0.0, "ratio")
    metrics["trace.spans"] = metric(sum(r.get("spans", 0) for r in traced_runs), "count")
    metrics["trace.accounted_share"] = metric(layer_s / traced_s if traced_s else 0.0, "ratio")
    return metrics


def traced(workload: str, seed: int, env: dict) -> dict:
    """One pass in process: each invocation untraced and traced, in fresh interpreters."""
    invocations = resolved(workload, seed)
    span_file = WORK / f"spans-{workload}-seed{seed}.jsonl"
    span_file.unlink(missing_ok=True)
    inproc = [sys.executable, str(HERE / "inproc.py")]
    outcomes, plain, traced_runs, cpu = [], [], [], 0.0
    for trace_id, (spec, argv) in enumerate(invocations):
        for is_traced in (False, True):
            extra = ["--trace", "--trace-id", str(trace_id), "--spans", str(span_file)] if is_traced else []
            child = run_child([*inproc, *extra, "--", *argv], env)
            try:
                result = json.loads(child.stdout)
            except ValueError:
                result = {"exit": child.exit, "stdout": "", "main_s": 0.0, "import_s": 0.0}
                print(f"# in-process run failed: {' '.join(argv)}\n{child.stderr}", file=sys.stderr)
            outcomes.append((spec, argv, result["exit"], result["stdout"]))
            if is_traced:
                traced_runs.append(result)
            else:
                plain.append(result)
                cpu += child.cpu_s
    failed = count_failed(outcomes)
    if workload == "selftest":
        report_digest(seed, plain[0]["stdout"])
    metrics = layer_metrics(plain, traced_runs, cpu)
    print(f"# {workload} seed {seed}: traced in-process pass of {len(invocations)} invocations;"
          f" spans in {span_file.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"# {name:36s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="conecert CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42, help="passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help=f"time per run, set-up included (at least {MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "conecert" / "__main__.py").is_file():
        print(f"error: no conecert sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 1

    WORK.mkdir(exist_ok=True)
    print("# machine: " + " ".join(machine_info()))
    env = child_env()
    if args.trace:
        result = traced(args.workload, args.seed, env)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
