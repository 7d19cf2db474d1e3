import numpy as np
import pytest

from pairsieve.distill import DistillJob, distill_loss, run_distillation
from pairsieve.encoder import EncoderParams, clone_params, init_params
from pairsieve.errors import DimMismatch, EmptyBatch
from pairsieve.numerics import finite_diff_check
from pairsieve.rng import substream


def test_loss_zero_for_identical_copy():
    teacher = init_params(1, 6, 5, 4)
    student = clone_params(teacher)
    x = substream(0, "distill", 0).standard_normal((8, 6))
    loss, grads = distill_loss(teacher, student, x, x)
    assert loss == pytest.approx(0.0, abs=1e-30)
    for arr in grads.arrays():
        np.testing.assert_allclose(arr, 0.0, atol=1e-15)


def test_loss_reduces_gap_in_one_dim():
    # Embeddings are unit vectors, so a 1-D analogue uses opposite signs:
    # teacher emits +1, student -1, squared distance 4.
    teacher = EncoderParams(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1))
    student = EncoderParams(np.array([[-1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1))
    x = np.array([[1.0]])
    loss, grads = distill_loss(teacher, student, x, x)
    assert loss == pytest.approx(4.0)
    # The projection Jacobian of the 1-D normalization is zero, so use a
    # 2-D case to check the gradient direction reduces the gap.
    teacher2 = init_params(3, 4, 3, 2)
    student2 = init_params(4, 4, 3, 2)
    xs = substream(1, "distill", 1).standard_normal((6, 4))
    loss_before, grads2 = distill_loss(teacher2, student2, xs, xs)
    from pairsieve.encoder import sgd_step

    stepped = sgd_step(student2, grads2, lr=1e-3)
    loss_after, _ = distill_loss(teacher2, stepped, xs, xs)
    assert loss_after < loss_before


def test_loss_gradient_matches_finite_differences():
    teacher = init_params(7, 6, 5, 4)
    student = init_params(8, 6, 5, 4)
    rng = substream(2, "distill", 2)
    x_t = rng.standard_normal((5, 6))
    x_s = rng.standard_normal((5, 6))

    def loss_fn(arrays):
        s = EncoderParams(
            np.asarray(arrays[0]).reshape(6, 5),
            np.asarray(arrays[1]),
            np.asarray(arrays[2]).reshape(5, 4),
            np.asarray(arrays[3]),
        )
        loss, grads = distill_loss(teacher, s, x_t, x_s)
        return loss, grads.arrays()

    report = finite_diff_check(loss_fn, student.arrays())
    assert report.max_rel_err <= 1e-4


def test_empty_batch_rejected():
    teacher = init_params(1, 4, 3, 2)
    with pytest.raises(EmptyBatch):
        distill_loss(teacher, clone_params(teacher), np.empty((0, 4)), np.empty((0, 4)))


def test_mismatched_rows_rejected():
    teacher = init_params(1, 4, 3, 2)
    with pytest.raises(DimMismatch):
        DistillJob(
            teacher=teacher,
            student=clone_params(teacher),
            x_teacher=np.ones((3, 4)),
            x_student=np.ones((2, 4)),
        )


def test_run_distillation_lr_zero_flat_curve():
    teacher = init_params(5, 6, 5, 4)
    student = init_params(6, 6, 5, 4)
    x = substream(3, "distill", 3).standard_normal((64, 6))
    job = DistillJob(teacher=teacher, student=student, x_teacher=x, x_student=x, base_lr=0.0, batch_size=64)
    _, losses = run_distillation(job, steps=5, seed=0)
    assert len(set(losses)) == 1  # full-batch sampling with lr 0 repeats the same loss


def test_teacher_untouched_by_distillation():
    teacher = init_params(5, 6, 5, 4)
    frozen = [a.copy() for a in teacher.arrays()]
    student = init_params(6, 6, 5, 4)
    x = substream(4, "distill", 4).standard_normal((128, 6))
    job = DistillJob(teacher=teacher, student=student, x_teacher=x, x_student=x, base_lr=0.05)
    run_distillation(job, steps=50, seed=1)
    for a, b in zip(teacher.arrays(), frozen):
        np.testing.assert_array_equal(a, b)


def test_descent_on_fixed_batch():
    teacher = init_params(9, 6, 5, 4)
    student = init_params(10, 6, 5, 4)
    x = substream(5, "distill", 5).standard_normal((32, 6))
    losses = []
    from pairsieve.encoder import sgd_step

    for _ in range(60):
        loss, grads = distill_loss(teacher, student, x, x)
        losses.append(loss)
        student = sgd_step(student, grads, lr=5e-3)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_held_out_mse_reaches_target():
    # Matches the pipeline construction: the teacher reads an orthogonal
    # view of the inputs the student sees raw.
    from pairsieve.config import RunConfig
    from pairsieve.data import GenConfig
    from pairsieve.harness import StageInputs, distill_student, train_teacher

    wins = 0
    for seed in range(5):
        cfg = RunConfig(data=GenConfig(n_pairs=500, seed=seed), seed=seed)
        teacher = train_teacher(StageInputs.of(cfg))
        _, held, _ = distill_student(StageInputs.of(cfg), teacher)
        wins += held < cfg.distill.target_mse
    assert wins >= 3
