import numpy as np
import pytest

import spans
from spans import Span, Target, layer_metrics, self_times


def _tree():
    # root [0, 10] > a [1, 4] > a2 [2, 3]; root > b [5, 9]
    return [
        Span("cli.main", 0.0, 10.0, -1, None),
        Span("x.a", 1.0, 4.0, 0, None),
        Span("x.a2", 2.0, 3.0, 1, None),
        Span("y.b", 5.0, 9.0, 0, None),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_partition_the_root():
    tree = _tree()
    assert sum(self_times(tree)) == pytest.approx(tree[0].end - tree[0].start)


def test_total_counts_same_name_nesting_once():
    tree = [
        Span("store.read_at", 0.0, 4.0, -1, None),
        Span("store.read_at", 1.0, 2.0, 0, None),
        Span("store.read_at", 5.0, 6.0, -1, None),
    ]
    m = layer_metrics(tree, {})
    assert m["store.read_at.s"] == pytest.approx(5.0)
    assert m["store.rows_read"] == 3.0


def test_layer_self_and_per_capacity_medians():
    tree = [
        Span("contrastive.training_step", 0.0, 0.010, -1, None),
        Span("contrastive.contrastive_loss", 0.001, 0.003, 0, 512),
        Span("contrastive.contrastive_loss", 0.004, 0.008, 0, 4096),
        Span("contrastive.contrastive_loss", 0.011, 0.017, -1, 4096),
    ]
    m = layer_metrics(tree, {"curation.pruned_noisy": 3, "curation.pruned": 4})
    assert m["contrastive.loss_ms.q512"] == pytest.approx(2.0)
    assert m["contrastive.loss_ms.q4096"] == pytest.approx(5.0)
    assert m["contrastive.loss_ms.q2048"] == 0.0
    assert m["contrastive.training_step.self_s"] == pytest.approx(0.004)
    assert m["layer.contrastive.self_s"] == pytest.approx(0.016)  # both root spans: 0.010 + 0.006
    assert m["harness.step_ms.count"] == 1.0
    assert m["curation.prune_precision"] == 0.75


def test_merge_rebases_parents():
    merged, counters = spans.merge([(_tree(), {"k": 1.0}), (_tree(), {"k": 2.0})])
    assert [s.parent for s in merged[4:]] == [-1, 4, 5, 4]
    assert counters == {"k": 3.0}


def test_install_rebinds_every_namespace_and_uninstall_restores(tmp_path):
    from pairsieve import contrastive, harness, mlm, data, rng
    from pairsieve.contrastive import MemoryQueue, PairBatch, training_step
    from pairsieve.encoder import EncoderPairState, init_params

    state = EncoderPairState(init_params(1, 6, 5, 4), init_params(2, 6, 5, 4))
    queue = MemoryQueue(8, 4)
    keys = np.eye(4)[[0, 1, 2]]
    batch = PairBatch(ids=np.arange(3), x_a=np.ones((3, 6)), x_b=np.ones((3, 6)))
    originals = (contrastive.contrastive_loss, rng.substream, MemoryQueue.push, training_step)
    tracer = spans.install()
    try:
        assert harness.contrastive_loss is mlm.contrastive_loss is contrastive.contrastive_loss
        assert contrastive.contrastive_loss is not originals[0]
        assert data.substream is harness.substream is rng.substream is not originals[1]
        assert MemoryQueue.push is not originals[2]
        contrastive.training_step(state, queue, batch, 0.1, 0.01, 0.0, lambda ids: keys[ids])
        tracer.dump(tmp_path / "t.tsv")
    finally:
        tracer.uninstall()
    assert (contrastive.contrastive_loss, rng.substream, MemoryQueue.push, contrastive.training_step) == originals
    assert mlm.contrastive_loss is originals[0]

    recorded, counters = spans.load(tmp_path / "t.tsv")
    names = [s.name for s in recorded]
    assert names[0] == "contrastive.training_step"
    assert {"harness.key_lookup", "encoder.encode_batch", "contrastive.contrastive_loss",
            "contrastive.snapshot", "contrastive.push"} <= set(names)
    assert all(s.parent == 0 for s in recorded if s.name != "contrastive.snapshot" and s is not recorded[0])
    loss = next(s for s in recorded if s.name == "contrastive.contrastive_loss")
    assert loss.tag == 8
    assert counters["contrastive.push_rows"] == 3
    assert counters["contrastive.logit_cells"] == 9  # empty queue: 3 x 3 in-batch


def test_missing_target_fails_before_wrapping_anything():
    from pairsieve import rng

    original = rng.substream
    targets = (Target("pairsieve.rng", "substream", "rng.substream"),
               Target("pairsieve.rng", "renamed_away", "rng.renamed_away"))
    with pytest.raises(spans.MissingTarget, match="renamed_away"):
        spans.install(targets)
    assert rng.substream is original
