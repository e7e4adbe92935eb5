"""Paper-scale benchmark of the ransomflow command-line pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run writes a seeded synthetic CSV with the paper's counts (see
``gen.py``), then drives the real CLI, one process per command as a user runs
it, in a closed loop: the workload's two commands run one after the other,
and the pair (a pass) repeats until ``--seconds`` have gone by. Work files go
to ``.bench_work/<workload>/`` in the checkout.

Workloads (the two timed commands are "produce", then "consume"):

    ingest-analyze  ingest the raw CSV, then analyze the artifact
    sae-lstm        train --kind sae-lstm (1 SAE + 1 LSTM epoch), evaluate
    gbt             train --kind gbt (2 rounds, depth 6), evaluate

The training workloads ingest the artifact during set-up. ``setup_s`` is the
median CPU time of three CSV generations (which must give identical bytes)
plus the CPU time of that ingest.

Every time of ``--trace 0`` is CPU time (user + system) of the process that
did the work. Each command is single-threaded numpy with one BLAS thread,
runs alone on one CPU, and waits on no network or fsync, so on an idle
machine its CPU time equals its wall time. On a shared host the wall time
also counts the time the CPU was taken by the hypervisor or by another
process; CPU time does not, so it is the steadier measure of the program.
Wall times are printed on the lines before the result.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json as medians over the passes. With ``--trace 1`` each pass runs
the commands untraced and then under ``traced_cli.py``; the last line reports
the per-layer metrics of BENCHMARK.json (means over traced passes) and the
tracing overhead. Every command is checked: exit code 0, ``ingest`` stage
counts equal to the planted ones, test accuracy at or above a floor, and a
digest of its deterministic outputs equal across passes and across runs of
the same source tree, seed and BLAS thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gen
from tracer import LAYERS, summarize, tree_bytes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One BLAS thread: output bytes depend on the thread count, and one thread
# per command keeps timings steady on a small shared machine.
BLAS_THREADS = 1
GEN_REPEATS = 3
# A run must end within 180 s; no pass starts that would end after this.
DEADLINE_S = 165.0

# Below every accuracy seen on 25 seeds (SAE+LSTM 0.817-0.891, GBT
# 0.896-0.903) with room for seed-to-seed spread.
ACCURACY_FLOOR = {"sae-lstm": 0.75, "gbt": 0.88}
STAGE_KEYS = ("parsed_rows", "duplicates_removed", "bad_timestamps_removed",
              "table_rows")


class BenchError(Exception):
    """Set-up could not produce the inputs a run needs."""


@dataclass(frozen=True)
class Command:
    role: str            # "produce" or "consume"
    label: str           # CLI command name
    args: tuple          # CLI arguments, relative to the work directory
    output: str          # directory the command writes
    deterministic: tuple  # output files (glob patterns) covered by the digest


INGEST = Command("produce", "ingest", ("ingest", "raw.csv", "--output", "art"),
                 "art", ("dataset.json", "table.csv", "train.csv", "test.csv",
                         "stats.json"))
ANALYZE = Command("consume", "analyze", ("analyze", "art", "--output", "analysis"),
                  "analysis", ("analysis.json",))
EVALUATE = Command("consume", "evaluate",
                   ("evaluate", "model/bundle.json", "art", "--output", "eval"),
                   "eval", ("report.json",))


def _train(*options) -> Command:
    return Command("produce", "train",
                   ("train", "art", "--output", "model", *options),
                   "model", ("bundle.json", "*_history.csv"))


# workload -> (ingest during set-up?, timed commands)
WORKLOADS = {
    "ingest-analyze": (False, (INGEST, ANALYZE)),
    "sae-lstm": (True, (_train("--kind", "sae-lstm", "--sae-epochs", "1",
                               "--lstm-epochs", "1", "--lstm-hidden", "168"),
                        EVALUATE)),
    "gbt": (True, (_train("--kind", "gbt", "--gbt-rounds", "2"), EVALUATE)),
}


@dataclass
class CommandRun:
    command: Command
    wall_s: float
    cpu_s: float         # user + system time of the command process
    peak_rss_mb: float
    exit_code: int
    output_bytes: int = 0
    digest: str = ""
    report: dict = field(default_factory=dict)
    spans: dict | None = None
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def run_process(argv, cwd: Path, log_stem: Path, timeout: float):
    """Run argv to completion.

    Returns (exit code, wall s, CPU s, peak RSS in MB). ``os.wait4`` reports
    the CPU time and peak RSS of this child alone. A timer thread
    kills the child if it outlives ``timeout``.
    """
    lock = threading.Lock()
    reaped = False
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err)

        def kill():
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            with lock:
                reaped = True
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6


def cli_argv(args, spans_path: Path | None) -> list:
    if spans_path is None:
        return [sys.executable, "-m", "ransomflow.cli", *args]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *args]


# ---------------------------------------------------------------------------
# Correctness checks


def output_digest(directory: Path, patterns) -> str:
    """sha256 over the names and bytes of the matching files, sorted."""
    h = hashlib.sha256()
    for pattern in patterns:
        matches = sorted(directory.glob(pattern))
        if not matches:
            h.update(f"missing:{pattern}\n".encode())
        for path in matches:
            h.update(f"{path.name}:{path.stat().st_size}\n".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class DigestBook:
    """First-seen output digests, compared on every later sighting.

    The book persists in a JSON file so that runs of one source tree agree
    with each other, not only the passes within one run.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, key: str, digest: str) -> bool:
        expected = self.known.setdefault(key, digest)
        return expected == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def stage_problems(artifact: Path, planted: dict) -> list:
    try:
        stages = json.loads((artifact / "dataset.json").read_text())["payload"]["stages"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"cannot read ingest stages: {exc!r}"]
    return [f"{k}: ingest reports {stages.get(k)}, planted {planted[k]}"
            for k in STAGE_KEYS if stages.get(k) != planted[k]]


def report_problems(report: dict, floor: float) -> list:
    accuracy = report.get("accuracy")
    if not isinstance(accuracy, float) or accuracy < floor:
        return [f"test accuracy {accuracy} below floor {floor}"]
    return []


def judge(run: CommandRun, cwd: Path, planted: dict, floor, book: DigestBook,
          key: str) -> None:
    """Append every failed check of one finished command to run.problems."""
    cmd = run.command
    if run.exit_code != 0:
        run.problems.append(f"exit code {run.exit_code}")
        return
    out = cwd / cmd.output
    run.output_bytes = tree_bytes(out)
    run.digest = output_digest(out, cmd.deterministic)
    if not book.check(f"{key}|{cmd.label}", run.digest):
        run.problems.append("output digest differs from an earlier run")
    if cmd.label == "ingest":
        run.problems.extend(stage_problems(out, planted))
    if cmd.label == "evaluate":
        try:
            run.report = json.loads((out / "report.json").read_text())
        except (OSError, ValueError) as exc:
            run.problems.append(f"cannot read report.json: {exc!r}")
        else:
            run.problems.extend(report_problems(run.report, floor))


# ---------------------------------------------------------------------------
# Set-up and passes


class Bench:
    """One run of one workload: its work directory, inputs and checks."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.ingest_in_setup, self.commands = WORKLOADS[workload]
        self.cwd = WORK / workload
        self.logs = self.cwd / "logs"
        self.planted = {}
        # On a shared host each CPU slows and speeds up with the load of its
        # neighbours, over seconds to minutes; over seconds, independently of
        # the other CPUs. Every command runs alone on one CPU, and successive
        # commands of a role take turns over the CPUs, so a role's median
        # samples the drift of every CPU instead of the drift of one.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.book = DigestBook(WORK / "digests.json")
        self.key = (f"{workload}|seed={seed}|src={source_digest()}"
                    f"|blas={BLAS_THREADS}")

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def pin(self, turn: int) -> None:
        """Pin this process, and the commands it starts, to one CPU."""
        os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})

    def execute(self, cmd: Command, traced: bool) -> CommandRun:
        shutil.rmtree(self.cwd / cmd.output, ignore_errors=True)
        spans_path = self.cwd / "spans" / f"{cmd.label}.json" if traced else None
        if spans_path is not None:
            spans_path.unlink(missing_ok=True)
        code, wall, cpu, rss = run_process(cli_argv(cmd.args, spans_path),
                                           self.cwd, self.logs / cmd.label,
                                           self.remaining())
        run = CommandRun(cmd, wall, cpu, rss, code)
        judge(run, self.cwd, self.planted, ACCURACY_FLOOR.get(self.workload),
              self.book, self.key)
        if spans_path is not None and spans_path.is_file():
            run.spans = json.loads(spans_path.read_text())
        elif traced:
            run.problems.append("traced command wrote no spans")
        if run.problems:
            tail = (self.logs / f"{cmd.label}.err").read_text(errors="replace")
            print(f"FAILED {cmd.label}: {'; '.join(run.problems)}\n{tail[-2000:]}",
                  file=sys.stderr)
        return run

    def setup(self) -> float:
        shutil.rmtree(self.cwd, ignore_errors=True)
        for sub in ("logs", "spans"):
            (self.cwd / sub).mkdir(parents=True)
        # Bytecode is compiled once, outside every timing.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                       check=True, stdout=subprocess.DEVNULL)
        times, digests = [], set()
        for turn in range(GEN_REPEATS):
            self.pin(turn)
            start = time.process_time()
            text, self.planted = gen.generate(self.seed)
            (self.cwd / "raw.csv").write_text(text, encoding="utf-8")
            times.append(time.process_time() - start)
            digests.add(hashlib.sha256(text.encode()).hexdigest())
        if len(digests) != 1:
            raise BenchError("the generator gave different bytes for one seed")
        setup_s = statistics.median(times)
        if self.ingest_in_setup:
            self.pin(0)
            run = self.execute(INGEST, traced=False)
            if run.problems:
                raise BenchError("set-up ingest failed: " + "; ".join(run.problems))
            setup_s += run.cpu_s
        return setup_s

    def run_pass(self, number: int, traced: bool) -> list:
        """Pass ``number``: its command ``i`` runs on CPU ``number + i``."""
        runs = []
        for index, cmd in enumerate(self.commands):
            self.pin(number + index)
            runs.append(self.execute(cmd, traced))
        return runs

    def measure(self, seconds: float, trace: bool):
        """Passes until ``seconds`` have gone by; returns (plain, traced)."""
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            plain.append(self.run_pass(len(plain), traced=False))
            if trace:
                traced.append(self.run_pass(len(plain) - 1, traced=True))
            now = time.perf_counter()
            if now - start >= seconds or now - begun > self.remaining():
                return plain, traced


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(setup_s: float, passes) -> dict:
    rows = []
    for runs in passes:
        by_role = {r.command.role: r.cpu_s for r in runs}
        rows.append({
            "produce_cpu_s": by_role["produce"],
            "consume_cpu_s": by_role["consume"],
            "workload_cpu_s": sum(r.cpu_s for r in runs),
            "peak_rss_mb": max(r.peak_rss_mb for r in runs),
        })
    values = {name: statistics.median(row[name] for row in rows)
              for name in rows[0]}
    values["setup_s"] = setup_s
    return values


def result(runs, metrics: dict) -> dict:
    """The last output line: a command with any failed check counts failed."""
    failed = sum(1 for run in runs if run.problems)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def layer_values(runs, names) -> dict:
    """Per-layer values of one traced pass, summed over its commands."""
    inclusive, self_s, calls, layer_self, counts = (Counter() for _ in range(5))
    cli_self = 0.0
    for run in runs:
        if run.spans is None:
            continue
        s = summarize(run.spans["spans"])
        inclusive.update(s["inclusive"])
        self_s.update(s["self"])
        calls.update(s["calls"])
        layer_self.update(s["layer_self"])
        counts.update(run.spans["counts"])
        cli_self += run.wall_s - s["root"]
    report = next((r.report for r in runs if r.report), {})
    special = {
        "cli.self_s": cli_self,
        "trace.workload_s": sum(r.wall_s for r in runs),
        "gbt.split_found_ratio": (counts["gbt.best_split_found"]
                                  / calls["gbt.best_split"]
                                  if calls["gbt.best_split"] else 0.0),
        "lstm.train_rows_per_s": (counts["lstm.rows_trained"]
                                  / inclusive["lstm.train_classifier"]
                                  if inclusive["lstm.train_classifier"] else 0.0),
        "metrics.test_accuracy": report.get("accuracy", 0.0),
        "metrics.macro_f1": report.get("macro", {}).get("f1", 0.0),
    }
    for layer in LAYERS:
        special[f"{layer}.self_s"] = layer_self[layer]

    def value(name: str) -> float:
        if name in special:
            return special[name]
        if name.endswith("_self_s"):
            return self_s[name[:-len("_self_s")]]
        if name.endswith("_calls"):
            return calls[name[:-len("_calls")]]
        if name.endswith("_s"):
            return inclusive[name[:-len("_s")]]
        return counts[name]

    return {name: value(name) for name in names}


def per_layer(names, plain, traced) -> dict:
    """Means over traced passes, plus the overhead against the plain passes."""
    names = [n for n in names if n != "trace.overhead_s"]
    rows = [layer_values(runs, names) for runs in traced]
    values = {name: statistics.fmean(row[name] for row in rows) for name in names}
    plain_s = statistics.fmean(sum(r.wall_s for r in runs) for runs in plain)
    values["trace.overhead_s"] = values["trace.workload_s"] - plain_s
    return values


# ---------------------------------------------------------------------------
# Environment


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ransomflow").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description="ransomflow CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "ransomflow" / "cli.py").is_file():
        print(f"error: no ransomflow sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    bench = Bench(args.workload, args.seed, started)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    try:
        setup_s = bench.setup()
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain, traced = bench.measure(args.seconds, bool(args.trace))
    bench.book.save()

    runs = [run for passes in (plain, traced) for pass_ in passes for run in pass_]
    if args.trace:
        section = spec["per_layer"]
        values = per_layer([m["name"] for m in section], plain, traced)
    else:
        section = spec["end_to_end"]
        values = end_to_end(setup_s, plain)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    outcome = result(runs, metrics)
    print_details(runs, len(plain), outcome, ACCURACY_FLOOR.get(args.workload))
    print(json.dumps(outcome))
    return 0


def print_details(runs, passes: int, outcome: dict, floor) -> None:
    """Human-readable lines that precede the result line."""
    for run in runs:
        traced_note = " traced" if run.spans is not None else ""
        print(f"{run.command.role:8s} {run.command.label:9s}{traced_note:7s} "
              f"{run.wall_s:8.3f} s wall {run.cpu_s:8.3f} s cpu  "
              f"rss {run.peak_rss_mb:7.1f} MB  "
              f"out {run.output_bytes / 1e6:8.3f} MB  digest {run.digest[:12]}  "
              f"{'FAILED' if run.problems else 'ok'}")
        if run.spans is not None:
            s = summarize(run.spans["spans"])
            print(f"  layers self {sum(s['layer_self'].values()):.3f} s + "
                  f"cli.self {run.wall_s - s['root']:.3f} s = {run.wall_s:.3f} s")
    plain = [run for run in runs if run.spans is None]
    for role in ("produce", "consume"):
        mine = [run for run in plain if run.command.role == role]
        print(f"{role} median over {len(mine)} commands: wall "
              f"{statistics.median(r.wall_s for r in mine):.4f} s, cpu "
              f"{statistics.median(r.cpu_s for r in mine):.4f} s")
    reports = [run.report for run in runs if run.report]
    if reports:
        print(f"test accuracy {reports[0]['accuracy']!r}, macro F1 "
              f"{reports[0]['macro']['f1']!r} (floor {floor})")
    print(f"passes {passes}, commands {outcome['attempted']}, failed "
          f"{outcome['failed']}, failed_ratio "
          f"{outcome['failed'] / outcome['attempted']!r}")
    metrics = outcome["metrics"]
    if "trace.overhead_s" in metrics:
        print(f"tracing overhead {metrics['trace.overhead_s']['value']:.3f} s on "
              f"{metrics['trace.workload_s']['value']:.3f} s traced")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']!r} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
