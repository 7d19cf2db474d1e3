"""spawn() pauses a child to time the reference kernel and leaves the pauses out."""

import subprocess
import sys
import time
from pathlib import Path

import run
from run import Child, Job


class FakeKernel:
    def sample(self) -> float:
        time.sleep(0.05)
        return 0.004


BUSY = "import time\nt = time.process_time()\nwhile time.process_time() - t < {}: pass\n"


def test_paused_before_counts_overlap_only():
    child = Child(0, 0.0, 10.0, pauses=[(1.0, 2.0), (5.0, 5.5)], ref_s=[0.01, 0.01])
    assert child.paused_before(0.5) == 0.0
    assert child.paused_before(1.25) == 0.25
    assert child.paused_before(5.25) == 1.25
    assert child.paused_before(10.0) == 1.5


def test_to_ref_scales_by_mean_kernel_time():
    job = Job(traced=False, ref_s=[0.012, 0.020])
    assert job.to_ref == run.refkernel.REF_S / 0.016


def test_spawn_pauses_child_and_times_kernel(tmp_path):
    argv = [sys.executable, "-c", BUSY.format(0.6)]
    child = spawn_child(argv, tmp_path, FakeKernel())
    assert child.code == 0
    assert len(child.ref_s) >= 2 and all(r == 0.004 for r in child.ref_s)
    assert len(child.pauses) == len(child.ref_s)
    paused = child.paused_before(child.t1)
    assert paused >= 0.05 * len(child.pauses)
    assert child.t1 - child.t0 - paused >= 0.6  # the child's CPU time, without the pauses


def test_spawn_without_kernel_never_pauses(tmp_path):
    child = spawn_child([sys.executable, "-c", BUSY.format(0.3)], tmp_path, None)
    assert child.code == 0 and child.pauses == [] and child.ref_s == []


def test_spawn_kills_child_at_deadline(tmp_path):
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    t0 = time.monotonic()
    child = run.spawn(argv, {}, tmp_path / "log", time.monotonic() + 0.5, FakeKernel())
    assert child.code == -9
    assert time.monotonic() - t0 < 5


def spawn_child(argv, tmp_path, kernel) -> Child:
    return run.spawn(argv, {}, tmp_path / "log", time.monotonic() + 30, kernel)


def test_launched_child_dies_with_the_benchmark(tmp_path):
    """A child of launch.py is killed when its parent ends, even while stopped."""
    bench = Path(run.__file__).parent
    child_code = f"import sys; sys.path.insert(0, {str(bench)!r}); import launch, time; launch.die_with_parent(); time.sleep(30)"
    parent_code = (
        "import os, signal, subprocess, sys, time\n"
        f"p = subprocess.Popen([sys.executable, '-c', {child_code!r}])\n"
        "time.sleep(1.0)\n"
        "os.kill(p.pid, signal.SIGSTOP)\n"
        "print(p.pid, flush=True)\n"
        "os._exit(0)\n"
    )
    out = subprocess.run([sys.executable, "-c", parent_code], capture_output=True, text=True, timeout=30)
    pid = int(out.stdout.split()[0])
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and alive(pid):
        time.sleep(0.05)
    assert not alive(pid)


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return "\nState:\tZ" not in status
