#!/usr/bin/env python3
"""Peak and current resident memory of one CLI command, stage by stage.

Runs ``pairsieve <command>`` in this process with the given arguments and
prints one line at the start and one after each stage of the command:

- ``pretrain``: the teacher, the distillation, the training and validation
  rows with their frozen keys (one generation pass, each block's ``x_a``
  encoded whole as it arrives), the set-up's end and each epoch.
- ``sweep``: the same stages for each grid point, then a line named after
  the point's output directory (``queue_4096_seed7``) when it ends. The
  points of one seed share one set-up (teacher, distillation, rows and
  frozen keys), so only the first point of each seed reports the teacher,
  the distillation and the rows; every point reports its set-up's end.
- ``eval``: the manifest labels (with ``--data-dir`` only), the blocked
  read and encode of both towers, and the validation metrics.

Other commands print the start line only. Each line gives ``VmHWM`` (the
process's peak resident memory so far, which perfbench reports as
``peak_rss_mb``) and ``VmRSS`` (resident now), in MiB, as Linux reports
them in ``/proc/self/status``. A last line names the stage whose line
last showed a higher ``VmHWM`` than the line before it: the stage that set
the peak (``start`` if none did). It only reads that file and changes nothing
the run computes, so its outputs are the CLI's. The arguments after the
script name are the CLI's, for example noise_removal's job:

    PYTHONPATH=src python scripts/rss_stages.py pretrain --out-dir /tmp/rss --seed 7 \\
        --set stop.enabled=false --set train.filter_epochs_max=11 --set train.epochs=12

or queue_sweep's:

    PYTHONPATH=src python scripts/rss_stages.py sweep --axis queue --values 512,4096 --seeds 7 \\
        --seed 7 --out-dir /tmp/rss --set filtering_on=false --set train.epochs=5
"""

import sys
from contextlib import ExitStack, contextmanager
from functools import wraps
from pathlib import Path
from unittest.mock import patch

from pairsieve import cli, harness

# Per command, (owner, function, stage name from the call's arguments): a line is printed when the
# function returns.
PRETRAIN_STAGES = [
    (harness, "train_teacher", lambda *args: "teacher"),
    (harness, "distill_student", lambda *args: "distillation"),
    (harness, "run_rows", lambda *args: "rows"),
    (harness.PretrainRun, "__init__", lambda *args: "set-up"),
    (harness.PretrainRun, "run_epoch", lambda run, epoch: f"epoch {epoch}"),
]
STAGES = {
    "pretrain": PRETRAIN_STAGES,
    "sweep": [*PRETRAIN_STAGES, (harness, "pretrain", lambda cfg, out_dir, stages: Path(out_dir).name)],
    "eval": [
        (harness, "read_manifest_labels", lambda *args: "labels"),
        (harness, "_eval_embeddings", lambda *args: "encode"),
        (harness, "validation_metrics", lambda *args: "metrics"),
    ],
}


def memory_mib() -> tuple[float, float]:
    """(VmHWM, VmRSS) of this process in MiB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            name, _, value = line.partition(":")
            fields[name] = value
    return tuple(int(fields[name].split()[0]) / 1024 for name in ("VmHWM", "VmRSS"))


class StageLog:
    """Prints one line per stage and keeps the stage whose line last showed a higher VmHWM."""

    def __init__(self) -> None:
        self.hwm, self.peak_stage = 0.0, "start"

    def report(self, stage: str) -> None:
        hwm, rss = memory_mib()
        if hwm > self.hwm:
            self.hwm, self.peak_stage = hwm, stage
        print(f"{stage:<17} VmHWM {hwm:8.2f} MiB  VmRSS {rss:8.2f} MiB", flush=True)

    def reporting(self, fn, stage_name):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.report(stage_name(*args, **kwargs))
            return out

        return wrapper


@contextmanager
def stage_reports(command: str, log: StageLog):
    """Report to ``log`` after each stage of ``command``; the original functions are back on exit."""
    with ExitStack() as patches:
        for owner, attr, stage_name in STAGES.get(command, []):
            patches.enter_context(patch.object(owner, attr, log.reporting(getattr(owner, attr), stage_name)))
        yield


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    log = StageLog()
    log.report("start")
    with stage_reports(argv[0] if argv else "", log):
        code = cli.main(argv)
    print(f"peak set by       {log.peak_stage} (VmHWM {log.hwm:.2f} MiB)", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
