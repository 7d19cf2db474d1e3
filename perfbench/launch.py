"""Child-process entry of the benchmark: one pairsieve CLI job, or a fixture.

    python3 perfbench/launch.py [--rss FILE] --mark FILE [--trace FILE] [--probe] -- <pairsieve CLI args>
    python3 perfbench/launch.py [--rss FILE] --fixture DIR --seed N

The CLI form runs ``pairsieve.cli.main`` from the checkout's ``src/``.
The first call into the workload (the harness function a subcommand
dispatches to) writes ``time.monotonic()`` to the mark file, so the
parent can tell set-up (interpreter start, imports, argument and config
parsing) from work. ``--probe`` exits right there, which measures set-up
alone. ``--trace`` installs the span tracer first and dumps it at exit.
``--rss`` writes the process's peak RSS in KiB (``VmHWM``) at exit. The
parent cannot use ``ru_maxrss`` from ``wait4``: a child started with
``posix_spawn`` inherits the parent's peak at exec into that figure.

The fixture form writes the encoder checkpoints ``eval`` reads: an oracle
pair built from the generator's mixing matrices, so retrieval on data of
the same world seed is good without any training.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
# Harness functions the CLI subcommands dispatch to.
ENTRIES = ("cmd_gen_data", "pretrain", "cmd_distill", "cmd_sweep", "cmd_eval")


class _ProbeDone(Exception):
    pass


def _mark_entries(harness, mark: Path, probe: bool) -> None:
    done = []

    def hook(fn):
        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if not done:
                done.append(time.monotonic())
                mark.write_text(repr(done[0]))
                if probe:
                    raise _ProbeDone
            return fn(*args, **kwargs)

        return entry

    for name in ENTRIES:
        setattr(harness, name, hook(getattr(harness, name)))


def run_cli(mark: Path, trace: Path | None, probe: bool, argv: list[str]) -> int:
    tracer = None
    if trace is not None:
        import spans

        tracer = spans.install()
    from pairsieve import cli, harness

    _mark_entries(harness, mark, probe)
    main = tracer.wrap(cli.main, "cli.main") if tracer else cli.main
    try:
        return main(argv)
    except _ProbeDone:
        return 0
    finally:
        if tracer is not None:
            tracer.dump(trace)


def write_fixture(out_dir: Path, seed: int) -> None:
    """Oracle key/query checkpoints for the world of ``seed``.

    Layer 1 projects each modality back onto the shared latent (the mixing
    matrices have orthonormal columns) at a small scale where tanh is
    nearly linear; layer 2 reads the latent back out. Both towers then
    embed a pair near the direction of its latent.
    """
    import numpy as np

    from pairsieve.config import RunConfig
    from pairsieve.data import mixing_matrices
    from pairsieve.encoder import EncoderParams, save_params

    cfg = RunConfig().with_seed(seed)
    hidden, k = cfg.encoder.hidden, cfg.data.latent_dim
    if cfg.encoder.embed_dim != k or hidden < k:
        raise SystemExit("fixture needs embed_dim == latent_dim <= hidden")
    scale = 0.05
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, mix in zip(("key", "query"), mixing_matrices(cfg.data)):
        w1 = np.zeros((mix.shape[0], hidden))
        w1[:, :k] = scale * mix
        w2 = np.zeros((hidden, k))
        w2[:k] = np.eye(k)
        save_params(out_dir / f"{name}.ecpm", EncoderParams(w1, np.zeros(hidden), w2, np.zeros(k)))


def peak_rss_kb() -> int:
    """VmHWM of this process: the peak RSS of its own address space, in KiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def die_with_parent() -> None:
    """Get SIGKILL when the benchmark process ends, however it ends.

    The benchmark stops its job for each reference-kernel sample; if the
    benchmark were killed then, a stopped job would otherwise live on.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    parent = os.getppid()
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent ended before prctl took effect
        raise SystemExit(1)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mark", type=Path)
    p.add_argument("--trace", type=Path)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--fixture", type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rss", type=Path)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    die_with_parent()
    if args.fixture is None and args.mark is None:
        p.error("--mark is required for a CLI job")
    try:
        if args.fixture is not None:
            write_fixture(args.fixture, args.seed)
            return 0
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        return run_cli(args.mark, args.trace, args.probe, cli_args)
    finally:
        if args.rss is not None:
            args.rss.write_text(str(peak_rss_kb()))


if __name__ == "__main__":
    sys.exit(main())
