"""End-to-end benchmark of the alloymsa CLI.

usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One benchmark process launches CLI processes one at a time, as a closed
loop, for about S seconds: each starts after the previous one exits.
Every CLI process runs with an explicit `--threads` (never above the CPU
count) and with BLAS pinned to one thread.  Each process's outputs are
checked against the stored seed reference and against the first
process's bytes.  With `--trace 0` the benchmark reports the medians of
the end-to-end metrics over the processes; with `--trace 1` it alternates
untraced and traced processes and reports the per-layer metrics of the
traced ones.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.  Exit code 2,
with no result, means the benchmark could not run the program at all.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from check import compare_outputs, outputs_digest, read_outputs, source_digest
from spans import Span, by_name, now
from workloads import WORKLOADS, Workload, cli_seed

BENCH = Path(__file__).resolve().parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# A run must end within 180 s: start no CLI process that is predicted to
# end after LAST_START_S, and kill any still running at KILL_AT_S.
LAST_START_S = 140.0
KILL_AT_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "realizations_per_s": "1/s",
    "peak_rss_mb": "MB",
}

LAYERS = {
    "lattice.sample.calls": "count",
    "lattice.sample.self_s": "s",
    "lattice.assemble_potential.calls": "count",
    "lattice.assemble_potential.self_s": "s",
    "lattice.free_box_matrix.calls": "count",
    "lattice.free_box_matrix.self_s": "s",
    "lattice.restrict_hamiltonian.self_s": "s",
    "lattice.matrix_bytes": "B",
    "spectral.eigh.calls": "count",
    "spectral.eigh_vectors.calls": "count",
    "spectral.eigh.self_s": "s",
    "spectral.eigh.n_cubed": "count",
    "spectral.eigensolve.calls": "count",
    "spectral.eigensolve.reuse_ratio": "ratio",
    "spectral.lu_factor.calls": "count",
    "spectral.lu_factor.self_s": "s",
    "spectral.greens_column.calls": "count",
    "spectral.greens_column.self_s": "s",
    "spectral.count_eigenvalues_in.self_s": "s",
    "spectral.decay_fit.calls": "count",
    "spectral.decay_fit.self_s": "s",
    "msa.uniform_regularity_test.calls": "count",
    "msa.uniform_regularity_test.self_s": "s",
    "msa.verdict.certified_regular": "count",
    "msa.verdict.certified_irregular": "count",
    "msa.verdict.indeterminate": "count",
    "msa.solves_per_realization": "ratio",
    "genfun.find_leading_index.self_s": "s",
    "genfun.companion_radius.calls": "count",
    "genfun.companion_radius.self_s": "s",
    "genfun.positivity_certificate.self_s": "s",
    "wegner.wegner_constant_chain.self_s": "s",
    "resonance.perturbation_radius.self_s": "s",
    "mc.run_trials.wall_s": "s",
    "mc.worker.busy_s": "s",
    "mc.realizations": "count",
    "mc.parallel_efficiency": "ratio",
    "cli.import_s": "s",
    "cli.validate_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.report_s": "s",
    "trace.overhead_s": "s",
}

# Counts that repeat exactly for a given source tree and seed; at the seed
# source they must equal the reference, or the harness is wrong.
EXACT_COUNTS = [name for name, unit in LAYERS.items() if unit in ("count", "B")]


class HarnessError(Exception):
    """The benchmark cannot run the program at all; no result is printed."""


@dataclass
class CliRun:
    traced: bool
    returncode: int
    launched: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    steal_s: float | None
    import_s: float | None = None
    spans: list[Span] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        trials = [s for s in self.spans if s.name == "mc.run_trials"]
        inside = sum(s.end - s.start for s in trials)
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "setup_s": min(s.start for s in trials) - self.launched,
            "realizations_per_s": sum(s.attrs["trials"] for s in trials) / inside,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def layers(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.import_s)


@dataclass
class WorkloadResult:
    workload: str
    seed: int
    cli_seed: int
    threads: int
    trace: bool
    runs: list[CliRun]
    metrics: dict[str, float]
    env: dict

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.problems)


def layer_metrics(spans: list[Span], import_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced CLI process (trace.overhead_s aside)."""
    agg = by_name(spans)

    def calls(name):
        return agg.get(name, (0, 0.0))[0]

    def self_s(name):
        return agg.get(name, (0, 0.0))[1]

    named = {s.id: s.name for s in spans}
    eigh = [s for s in spans if s.name == "spectral.eigh"]
    trials = [s for s in spans if s.name == "mc.run_trials"]
    realizations = sum(s.attrs["trials"] for s in trials)
    trials_wall = sum(s.end - s.start for s in trials)
    thread_seconds = sum((s.end - s.start) * s.attrs["threads"] for s in trials)
    busy = sum(s.end - s.start for s in spans if s.name == "mc.worker")
    verdicts = Counter(s.attrs["verdict"] for s in spans
                       if s.name == "msa.uniform_regularity_test")
    solves = sum(1 for s in eigh if named.get(s.parent) == "spectral.eigensolve")
    eigensolves = calls("spectral.eigensolve")
    experiment_end = max(s.end for s in spans if s.name == "cli.run_experiment")
    m = {}
    for name in ("lattice.sample", "lattice.assemble_potential",
                 "lattice.free_box_matrix", "spectral.lu_factor",
                 "spectral.greens_column", "spectral.decay_fit",
                 "msa.uniform_regularity_test", "genfun.companion_radius"):
        m[f"{name}.calls"] = calls(name)
    for name in ("lattice.sample", "lattice.assemble_potential",
                 "lattice.free_box_matrix", "lattice.restrict_hamiltonian",
                 "spectral.eigh", "spectral.lu_factor", "spectral.greens_column",
                 "spectral.count_eigenvalues_in", "spectral.decay_fit",
                 "msa.uniform_regularity_test", "genfun.find_leading_index",
                 "genfun.companion_radius", "genfun.positivity_certificate",
                 "wegner.wegner_constant_chain", "resonance.perturbation_radius",
                 "cli.write_csv"):
        m[f"{name}.self_s"] = self_s(name)
    m.update({
        "lattice.matrix_bytes": sum(s.attrs["bytes"] for s in spans
                                    if s.name == "lattice.free_box_matrix"),
        "spectral.eigh.calls": len(eigh),
        "spectral.eigh_vectors.calls": sum(1 for s in eigh if s.attrs["vectors"]),
        "spectral.eigh.n_cubed": sum(s.attrs["n"] ** 3 for s in eigh),
        "spectral.eigensolve.calls": eigensolves,
        "spectral.eigensolve.reuse_ratio":
            1.0 - solves / eigensolves if eigensolves else 0.0,
        "msa.verdict.certified_regular": verdicts["certified_regular"],
        "msa.verdict.certified_irregular": verdicts["certified_irregular"],
        "msa.verdict.indeterminate": verdicts["indeterminate"],
        "msa.solves_per_realization": len(eigh) / realizations,
        "mc.run_trials.wall_s": trials_wall,
        "mc.worker.busy_s": busy,
        "mc.realizations": realizations,
        "mc.parallel_efficiency": busy / thread_seconds,
        "cli.import_s": import_s,
        "cli.validate_s": self_s("cli.validate"),
        "cli.report_s": experiment_end - max(s.end for s in trials),
    })
    return m


def _steal_seconds() -> float | None:
    """Host CPU steal so far, from the steal column of /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    if len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _run_process(cmd: list[str], env: dict, log: Path, timeout: float):
    """Run `cmd` to completion; (launch time, exit time, exit code, rusage,
    steal seconds).  The process is killed after `timeout` seconds."""
    with log.open("wb") as out:
        steal0 = _steal_seconds()
        launched = now()
        proc = subprocess.Popen(cmd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: leave no CLI process behind
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        ended = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        steal1 = _steal_seconds()
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    return launched, ended, proc.returncode, usage, steal


class Bench:
    """One benchmark run of one workload in the checkout at `root`."""

    def __init__(self, root: Path, workload: Workload, seed: int,
                 reference: dict | None):
        self.src = root / "src"
        self.workload = workload
        self.cli_seed = cli_seed(seed)
        self.threads = min(workload.threads, os.cpu_count() or 1)
        self.reference = reference
        self.work = root / ".perfbench-work" / workload.name
        self.env = dict(os.environ, **BLAS_ENV, PERFBENCH_SRC=str(self.src))
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.started = now()

    def _child(self, hook: Path, mode: str, args: list[str], log: Path):
        cmd = [sys.executable, str(BENCH / "child.py"), str(hook), mode, *args]
        return _run_process(cmd, self.env, log,
                            self.started + KILL_AT_S - now())

    def prepare(self) -> dict:
        """Fresh work directory, config file and a warm import of the CLI;
        returns the interpreter and BLAS record."""
        if not (self.src / "alloymsa" / "cli.py").is_file():
            raise HarnessError(f"no alloymsa source under {self.src}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(self.workload.config, indent=2))
        hook, log = self.work / "env.json", self.work / "env.log"
        rc = self._child(hook, "env", [], log)[2]
        if rc != 0:
            raise HarnessError(f"cannot import the CLI (exit code {rc}):\n"
                               + log.read_text(errors="replace")[-2000:])
        return json.loads(hook.read_text())

    def cli_run(self, index: int, traced: bool) -> CliRun:
        out = self.work / f"out{index}"
        hook = self.work / f"hook{index}.json"
        args = [self.workload.subcommand, "--config", str(self.config),
                "--seed", str(self.cli_seed), "--threads", str(self.threads),
                "--out", str(out)]
        launched, ended, rc, usage, steal = self._child(
            hook, "1" if traced else "0", args, self.work / f"cli{index}.log")
        run = CliRun(traced=traced, returncode=rc, launched=launched,
                     wall_s=ended - launched,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     peak_rss_mb=usage.ru_maxrss / 1024.0, steal_s=steal)
        if rc != 0:
            run.problems.append(f"exit code {rc}")
        if hook.is_file():
            record = json.loads(hook.read_text())
            run.import_s = record["import_s"]
            run.spans = [Span(*s) for s in record["spans"]]
        if not any(s.name == "mc.run_trials" for s in run.spans):
            run.problems.append("no completed mc.run_trials call")
        if out.is_dir():
            run.outputs = read_outputs(out)
        shutil.rmtree(out, ignore_errors=True)
        return run

    def check(self, run: CliRun, first: CliRun, seed_source: bool) -> None:
        """Record in `run.problems` every way its outputs are wrong."""
        if outputs_digest(run.outputs) != outputs_digest(first.outputs):
            run.problems.append("outputs differ in bytes from the first CLI run")
        if self.reference is None:
            return
        expected = self.reference["seeds"][str(self.cli_seed)]
        run.problems += compare_outputs(run.outputs, expected["files"])
        if run.traced and seed_source and not run.problems:
            layers = run.layers()
            for name in EXACT_COUNTS:
                if layers[name] != expected["counts"][name]:
                    run.problems.append(f"{name} = {layers[name]}, seed "
                                        f"reference {expected['counts'][name]}")


def run_workload(root: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool, reference: dict | None) -> WorkloadResult:
    """Closed loop of CLI processes for about `seconds` seconds."""
    bench = Bench(root, workload, seed, reference)
    env = bench.prepare()
    seed_source = (reference is not None
                   and source_digest(bench.src) == reference["src_sha256"])
    batch = [False, True] if trace else [False]
    runs: list[CliRun] = []
    t0 = now()
    while True:
        walls = [r.wall_s for r in runs]
        predicted = statistics.median(walls) * len(batch) if walls else 0.0
        if runs and (now() - t0 + predicted > seconds
                     or now() + predicted > bench.started + LAST_START_S):
            break
        for traced in batch:
            runs.append(bench.cli_run(len(runs), traced))
        if any(r.returncode < 0 for r in runs):
            break  # killed at the time limit
    ran = [r for r in runs if r.returncode == 0]
    for run in ran:
        bench.check(run, ran[0], seed_source)
    shutil.rmtree(bench.work, ignore_errors=True)

    # Runs whose outputs are wrong still measure the program; they count as
    # failed, so the result reads correct: false.
    timed = [r for r in ran if any(s.name == "mc.run_trials" for s in r.spans)]
    plain = [r for r in timed if not r.traced]
    traced = [r for r in timed if r.traced]
    if not plain or (trace and not traced):
        raise HarnessError("no CLI run completed:\n" + "\n".join(
            f"  run {i}: {'; '.join(r.problems[:3])}" for i, r in enumerate(runs)))
    if trace:
        per_run = [r.layers() for r in traced]
        # median_low keeps the exact counts whole
        metrics = {k: statistics.median_low(m[k] for m in per_run)
                   for k in LAYERS if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(r.wall_s for r in plain))
    else:
        per_run = [r.end_to_end() for r in plain]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in END_TO_END}
    env.update({
        "git_rev": git_rev(root),
        "src_sha256": source_digest(bench.src),
        "nproc": os.cpu_count(),
        "blas_env": BLAS_ENV,
        "threads": bench.threads,
    })
    return WorkloadResult(workload=workload.name, seed=seed,
                          cli_seed=bench.cli_seed, threads=bench.threads,
                          trace=trace, runs=runs, metrics=metrics, env=env)


def git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(root / ".git"),
                              "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def load_reference(name: str) -> dict:
    path = BENCH / "reference" / f"{name}.json"
    if not path.is_file():
        raise HarnessError(f"no stored reference {path}")
    return json.loads(path.read_text())


def report(result: WorkloadResult) -> dict:
    """Print the human-readable summary and detail; return the result line."""
    units = LAYERS if result.trace else END_TO_END
    attempted, failed = len(result.runs), result.failed
    print(f"workload {result.workload}: seed {result.seed} (CLI seed "
          f"{result.cli_seed}), --threads {result.threads}, "
          f"{'traced' if result.trace else 'untraced'}, "
          f"{attempted} CLI runs, {failed} failed")
    for name, value in result.metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    if not result.trace:
        print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} ratio")
    for i, r in enumerate(result.runs):
        for problem in r.problems[:5]:
            print(f"  run {i}: {problem}")
    print(json.dumps({"env": result.env, "runs": [
        {"traced": r.traced, "returncode": r.returncode,
         "wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb,
         "steal_s": r.steal_s, "problems": r.problems} for r in result.runs]}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        workload = WORKLOADS[args.workload]
        result = run_workload(Path.cwd(), workload, args.seed, args.seconds,
                              bool(args.trace), load_reference(workload.name))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
