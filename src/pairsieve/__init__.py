"""Noisy-pair curation testbed: dual encoders, queue contrastive training,
score-based data filtering, distillation, and a masked-token auxiliary task,
all on synthetic datasets with planted quality labels."""

import os

# OpenBLAS picks its kernels by shape and thread count, so a run's float bits
# depend on the thread count. One thread, whatever the environment says, makes
# every CLI run's bytes the same on any host. The setting is read when numpy
# loads: a caller that imported numpy before pairsieve keeps its own count.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
