"""The reference kernel: a fixed piece of work whose time tracks host speed.

The benchmark's host is shared, and how fast it runs a given piece of
code changes from one second to the next (by 10-30% over a job on a
2-vCPU guest), so a raw job time says as much about the neighbours as
about pairsieve. ``run.spawn`` therefore pauses each job every
``SAMPLE_EVERY_S`` seconds of its run (SIGSTOP), times this kernel on the
same CPU, and resumes it (SIGCONT). A job's time multiplied by
``REF_S / mean kernel time`` over that job is the time it would take on
a host that runs the kernel in ``REF_S``: ``wall_ref_s``. Set-up time is
scaled the same way, with samples taken right after each probe.

The kernel is interpreted Python, like the workloads' hot loops (record
generation, per-row reads, the training loop around numpy calls): an
integer loop and a walk through a large list of dicts in random order.
Of the kernels tried (also numpy matmul, exp over a 4 MB array, a 32 MB
streaming sum and a random gather), this one tracked job time best: over
19 ``noise_removal`` jobs its time correlated 0.92 with job time, with
an elasticity of 0.99. It does not touch pairsieve, so a change to the
program cannot change the kernel.
"""

from __future__ import annotations

import random
import time

SAMPLE_EVERY_S = 0.2  # job run time between two kernel samples
REF_S = 0.008  # kernel time on the idle 2-vCPU host the baseline was measured on
_LOOP = 25_000
_WALK = 5_000


class Kernel:
    """The kernel's data (about 50 MB of dicts), built once per benchmark run."""

    def __init__(self) -> None:
        self.records = [{"id": i, "tag": str(i)} for i in range(200_000)]
        self.order = random.Random(0).sample(range(len(self.records)), _WALK)

    def sample(self) -> float:
        """Run the kernel once; its wall time in seconds."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += (i * 2654435761) & 0xFFFF
        for i in self.order:
            r = self.records[i]
            acc += r["id"] + len(r["tag"])
        return time.perf_counter() - t0
