"""pairsieve benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload noise_removal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the directory holding ``src/pairsieve``).
One caller runs CLI jobs back to back, each in fresh processes, until
``--seconds`` have passed; every job uses the workload seed, so every job's
deterministic outputs must match the first job's byte for byte. Each job's
output is checked; a job that exits nonzero or fails its check counts as
failed. Set-up time is also sampled by probe launches that stop at the
first call into the workload.

``--trace 0`` reports the end-to-end metrics (medians over jobs).
``--trace 1`` alternates traced and untraced jobs and reports the
per-layer metrics (medians over traced jobs) plus the tracing overhead.

The last stdout line is the result JSON; the line before it holds the
provenance. Work files go to ``.bench_out/`` in the checkout; a summary
with every sample stays there as ``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import refkernel

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
RUN_LIMIT_S = 170.0  # every child is killed past this point of a run
PROBES = 6  # set-up-only launches per run
PROBE_SAMPLES = 3  # reference-kernel samples taken right after each probe
BLAS_THREADS = 1  # BLAS/OpenMP threads of every child process

# name -> unit; the end-to-end metrics reported with --trace 0.
END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
    "val_r1_b2a": "ratio",
    "val_f1": "ratio",
    "frac_noisy_mean": "ratio",
}
# Trace-run metrics reported beside spans.LAYER_METRICS with --trace 1.
TRACE_METRICS = {
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.root_self_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "distill.held_mse": ("mse", "lower"),
}


@dataclass
class Job:
    traced: bool
    wall_s: float = 0.0  # first spawn to last exit, pauses included
    run_s: float = 0.0  # time the job's processes ran: wall_s minus the pauses
    setup_s: float = 0.0
    max_rss_kb: int = 0
    out_bytes: int = 0
    ref_s: list[float] = field(default_factory=list)  # reference-kernel samples
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def to_ref(self) -> float:
        """Factor from this job's seconds to seconds at the reference host speed."""
        return refkernel.REF_S * len(self.ref_s) / sum(self.ref_s)


@dataclass
class Child:
    code: int
    t0: float  # spawn time (monotonic)
    t1: float  # exit time
    pauses: list[tuple[float, float]]  # (start, end) of each reference-kernel pause
    ref_s: list[float]  # the reference kernel's time in each pause

    def paused_before(self, t: float) -> float:
        """Seconds the child spent paused before monotonic time ``t``."""
        return sum(max(0.0, min(end, t) - start) for start, end in self.pauses)


def spawn(argv: list[str], env: dict[str, str], log: Path, deadline: float,
          kernel: refkernel.Kernel | None) -> Child:
    """Run one child to completion, timing ``kernel`` in pauses.

    With a kernel, after every ``refkernel.SAMPLE_EVERY_S`` seconds of run
    the child is stopped, the kernel runs on the CPU the benchmark is
    pinned to, and the child continues. The child is killed if it is still
    running at ``deadline`` (monotonic), and on any exception.
    """
    with open(log, "wb") as f:
        actions = [(os.POSIX_SPAWN_DUP2, f.fileno(), 1), (os.POSIX_SPAWN_DUP2, f.fileno(), 2)]
        t0 = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        pauses: list[tuple[float, float]] = []
        ref_s: list[float] = []
        status = None
        try:
            while status is None:
                wait = min(refkernel.SAMPLE_EVERY_S, deadline - time.monotonic())
                if wait <= 0:
                    os.kill(pid, signal.SIGKILL)
                    _, status = os.waitpid(pid, 0)
                elif select.select([pidfd], [], [], wait)[0]:
                    _, status = os.waitpid(pid, 0)
                elif kernel is not None:
                    p0 = time.monotonic()
                    os.kill(pid, signal.SIGSTOP)
                    _, stopped = os.waitpid(pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(stopped):
                        status = stopped  # it exited before the stop landed
                        break
                    ref_s.append(kernel.sample())
                    os.kill(pid, signal.SIGCONT)
                    pauses.append((p0, time.monotonic()))
        except BaseException:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        finally:
            os.close(pidfd)
        t1 = time.monotonic()
    return Child(os.waitstatus_to_exitcode(status), t0, t1, pauses, ref_s)


def run_job(wl, seed: int, job_dir: Path, env, deadline: float, kernel: refkernel.Kernel,
            *, traced=False, probe=False) -> Job:
    """Run every step of one job; fills times, set-up, RSS and problems.

    Untraced jobs sample the reference kernel in pauses. Traced jobs run
    without pauses, so span times hold no paused time; probes are too
    short for a pause and sample the kernel after their last step.
    """
    sample = None if traced or probe else kernel
    job = Job(traced=traced)
    out = job_dir / "out"
    out.mkdir(parents=True)
    t_start = time.monotonic()
    for i, (kind, spec) in enumerate(wl.steps(seed, out)):
        log = job_dir / f"step{i}.log"
        rss = job_dir / f"rss{i}"
        argv = [sys.executable, str(LAUNCH), "--rss", str(rss)]
        if kind == "fixture":
            argv += ["--fixture", str(spec), "--seed", str(seed)]
        else:
            mark = job_dir / f"mark{i}"
            argv += ["--mark", str(mark)]
            if traced:
                argv += ["--trace", str(job_dir / f"trace{i}.tsv")]
            if probe:
                argv.append("--probe")
            argv += ["--", *spec]
        child = spawn(argv, env, log, deadline, sample)
        job.ref_s += child.ref_s
        job.run_s += child.t1 - child.t0 - child.paused_before(child.t1)
        if child.code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            job.problems.append(f"step {i} ({kind}) exited {child.code}: {' | '.join(tail)}")
            break
        job.max_rss_kb = max(job.max_rss_kb, int(rss.read_text()))
        if kind == "fixture":
            job.setup_s += child.t1 - child.t0 - child.paused_before(child.t1)
        else:
            try:
                at = float(mark.read_text())
                job.setup_s += at - child.t0 - child.paused_before(at)
            except (OSError, ValueError):
                job.problems.append(f"step {i} never reached the workload")
    job.wall_s = time.monotonic() - t_start
    if probe:
        job.ref_s = [kernel.sample() for _ in range(PROBE_SAMPLES)]
    elif sample is not None and not job.problems and not job.ref_s:
        job.problems.append("job too short for a reference-kernel sample")
    job.out_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return job


def evaluate(wl, job: Job, job_dir: Path, reference, first_digest: list[str]) -> None:
    """Check a finished job's output and read its quality figures and trace."""
    import spans
    from workloads import fingerprint

    out = job_dir / "out"
    job.problems += wl.check(out, reference)
    if job.problems:
        return
    digest = fingerprint(wl, out)
    if not first_digest:
        first_digest.append(digest)
    elif digest != first_digest[0]:
        job.problems.append("deterministic outputs differ from the run's first job")
    job.quality = wl.quality(out)
    traces = sorted(job_dir.glob("trace*.tsv"))
    if job.traced and traces:
        sp, counters = spans.merge([spans.load(p) for p in traces])
        job.layers = spans.layer_metrics(sp, counters)
        job.layers["trace.spans"] = float(len(sp))


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path) -> dict:
    import numpy as np

    h = hashlib.sha256()
    for p in sorted((root / "src" / "pairsieve").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(root),
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def child_env(root: Path, nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, nproc))
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
    )
    return env


def main() -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="pairsieve benchmark (one workload)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    # Turn SIGTERM into SystemExit so spawn() can kill and reap its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_run = time.monotonic()
    deadline = t_run + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "pairsieve" / "__init__.py").is_file():
        print(f"error: {root} holds no src/pairsieve; run from a pairsieve checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    wl = WORKLOADS[args.workload]
    prov = provenance(root)
    env = child_env(root, prov["nproc"])
    # Children inherit this CPU, so the reference kernel runs where the job runs.
    prov["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {prov["pinned_cpu"]})
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    bench_out = root / ".bench_out"
    work = bench_out / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)

    reference = wl.prepare(args.seed)
    kernel = refkernel.Kernel()
    probes: list[Job] = []
    for i in range(PROBES):
        probe = run_job(wl, args.seed, work / f"probe{i}", env, deadline, kernel, probe=True)
        if not probe.problems:
            probes.append(probe)
        shutil.rmtree(work / f"probe{i}")

    jobs: list[Job] = []
    first_digest: list[str] = []
    while True:
        kinds = {j.traced for j in jobs}
        elapsed = time.monotonic() - t_run
        if jobs and elapsed >= args.seconds and (not args.trace or kinds == {True, False}):
            break
        if time.monotonic() >= deadline:
            break
        traced = bool(args.trace) and (len(jobs) % 2 == 0)
        job_dir = work / f"job{len(jobs)}"
        job = run_job(wl, args.seed, job_dir, env, deadline, kernel, traced=traced)
        if not job.problems:
            evaluate(wl, job, job_dir, reference, first_digest)
        jobs.append(job)
        if not job.problems:
            shutil.rmtree(job_dir)

    from stats import median, summary

    ok = [j for j in jobs if not j.problems]
    failed = len(jobs) - len(ok)
    metrics: dict[str, dict] = {}
    samples: dict[str, dict] = {}
    if ok:
        plain = [j for j in ok if not j.traced]
        if not args.trace:
            samples = {
                "wall_ref_s": summary([j.run_s * j.to_ref for j in plain]),
                "setup_s": summary([j.setup_s * j.to_ref for j in probes + plain]),
                "wall_s": summary([j.wall_s for j in plain]),
                "run_s": summary([j.run_s for j in plain]),
                "setup_unscaled_s": summary([j.setup_s for j in probes + plain]),
                "peak_rss_mb": summary([j.max_rss_kb / 1024 for j in plain]),
                "out_mb": summary([j.out_bytes / 1e6 for j in plain]),
            }
            values = {k: s["median"] for k, s in samples.items()}
            values.update({k: v for k, v in ok[0].quality.items() if k in END_TO_END})
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items() if k in values}
        else:
            import spans

            traced_jobs = [j for j in ok if j.traced]
            if traced_jobs and plain:
                values = {m: median([j.layers[m] for j in traced_jobs]) for m, *_ in spans.LAYER_METRICS}
                values["trace.spans"] = median([j.layers["trace.spans"] for j in traced_jobs])
                values["trace.wall_s"] = median([j.run_s for j in traced_jobs])
                values["trace.untraced_wall_s"] = median([j.run_s for j in plain])
                values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
                values["trace.root_self_share"] = values["layer.cli.self_s"] / values["trace.wall_s"]
                values["distill.held_mse"] = ok[0].quality["distill_held_mse"]
                units = {m: u for m, u, *_ in spans.LAYER_METRICS}
                units.update({m: u for m, (u, _) in TRACE_METRICS.items()})
                metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    complete = bool(metrics)
    result = {"correct": failed == 0 and complete, "attempted": len(jobs), "failed": failed, "metrics": metrics}

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, "probes": [vars(j) for j in probes], "samples": samples, "result": result,
        "jobs": [vars(j) for j in jobs],
    }
    (bench_out / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if failed == 0:
        shutil.rmtree(work)
    for j in jobs:
        for problem in j.problems:
            print(f"job failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
