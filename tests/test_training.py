import math

import numpy as np
import pytest

import skelact.autodiff as ad
from skelact.data import Sample, SyntheticSpec, generate_synthetic
from skelact.errors import ContractError
from skelact.model import ModelDims, build_variant, load_checkpoint, variant_config
from skelact.streams import StreamConfig
from skelact.training import (
    Adam,
    Sgd,
    TrainConfig,
    _split_metrics,
    cross_entropy,
    evaluate,
    format_record,
    make_optimizer,
    train,
)


def tiny_dataset(classes=2, per_class=4, joints=4, frames=6, **kw):
    spec = SyntheticSpec(
        num_classes=classes, samples_per_class=per_class, joints=joints, frames=12, seed=3, **kw
    )
    return generate_synthetic(spec, target=frames)


def train_dims(frames=6, joints=4, classes=2):
    stream = StreamConfig(
        seu_filters=(2, 2, 2),
        teu_filters=(2, 2, 2),
        post_filters=(3, 3, 4),
        seu_kernels=(1, 1, 1),
        teu_kernels=(3, 3, 3),
        post_kernels=(3, 3, 3),
        channel_dim=4,
    )
    return ModelDims(
        frames=frames, joints=joints, coords=3, hidden=2, num_classes=classes,
        heads=2, stream=stream,
    )


def tiny_model(variant="full", seed=0, **dim_kw):
    dims = train_dims(**dim_kw)
    return build_variant(variant_config(variant, branch="pose"), dims, seed=seed)


def param_tensor(values):
    t = ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return t


# ---------------------------------------------------------------------------
# loss


def test_cross_entropy_perfect_prediction():
    probs = ad.Tensor(np.array([0.0, 1.0, 0.0]))
    assert float(cross_entropy(probs, 1).data) == 0.0


def test_cross_entropy_uniform():
    probs = ad.Tensor(np.full(5, 0.2))
    assert abs(float(cross_entropy(probs, 3).data) - math.log(5)) < 1e-12


def test_cross_entropy_closed_form():
    probs = ad.Tensor(np.array([0.25, 0.75]))
    assert abs(float(cross_entropy(probs, 1).data) + math.log(0.75)) < 1e-12


def test_cross_entropy_clamps_zero_probability():
    probs = ad.Tensor(np.array([1.0, 0.0]))
    loss = float(cross_entropy(probs, 1).data)
    assert abs(loss + math.log(1e-12)) < 1e-9


def test_cross_entropy_rejects_bad_label():
    probs = ad.Tensor(np.full(4, 0.25))
    with pytest.raises(ContractError):
        cross_entropy(probs, 4)
    with pytest.raises(ContractError):
        cross_entropy(probs, -1)


def test_cross_entropy_gradient():
    probs_data = np.array([0.1, 0.6, 0.3])

    def f(x):
        return cross_entropy(x, 1)

    assert ad.gradient_check(f, ad.Tensor(probs_data.copy())) < 1e-6


# ---------------------------------------------------------------------------
# SGD


def test_sgd_null_step():
    t = param_tensor([1.0, -2.0])
    t.grad = np.zeros(2)
    opt = Sgd([t], lr=0.1, l2_lambda=0.0, lr_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(t.data, [1.0, -2.0])


def test_sgd_closed_form_step():
    t = param_tensor([1.0])
    t.grad = np.array([1.0])
    opt = Sgd([t], lr=0.1, l2_lambda=0.0, lr_decay=0.0)
    opt.step()
    np.testing.assert_allclose(t.data, [0.9], atol=1e-15)


def test_sgd_l2_contributes_to_update():
    t = param_tensor([2.0])
    t.grad = np.array([0.0])
    opt = Sgd([t], lr=0.1, l2_lambda=1e-5, lr_decay=0.0)
    opt.step()
    np.testing.assert_allclose(t.data, [2.0 - 0.1 * 2e-5], atol=1e-18)


def test_sgd_lr_decay_schedule():
    t = param_tensor([5.0])
    opt = Sgd([t], lr=1.0, l2_lambda=0.0, lr_decay=0.5)
    t.grad = np.array([1.0])
    opt.step()  # lr_t = 1 / (1 + 0.5*0) = 1
    np.testing.assert_allclose(t.data, [4.0], atol=1e-15)
    t.grad = np.array([1.0])
    opt.step()  # lr_t = 1 / 1.5
    np.testing.assert_allclose(t.data, [4.0 - 2.0 / 3.0], atol=1e-15)


def test_sgd_missing_grad_rejected():
    t = param_tensor([1.0])
    opt = Sgd([t])
    with pytest.raises(ContractError):
        opt.step()


# ---------------------------------------------------------------------------
# Adam


def test_adam_null_dynamics():
    t = param_tensor([3.0])
    opt = Adam([t], l2_lambda=0.0, lr_decay=0.0)
    for _ in range(4):
        t.grad = np.array([0.0])
        opt.step()
    np.testing.assert_array_equal(t.data, [3.0])


def test_adam_first_step_magnitude_is_lr():
    for g in (0.001, 1.0, 250.0):
        t = param_tensor([1.0])
        t.grad = np.array([g])
        opt = Adam([t], lr=1e-3, l2_lambda=0.0, lr_decay=0.0)
        opt.step()
        step = 1.0 - float(t.data[0])
        assert abs(step - 1e-3) < 1e-8, f"gradient {g}: step {step}"


def test_adam_three_step_hand_trace():
    t = param_tensor([1.0])
    opt = Adam([t], lr=1e-3, l2_lambda=0.0, lr_decay=0.0)
    # independent scalar recomputation of the same recurrence
    m = v = 0.0
    p = 1.0
    for k in range(1, 4):
        m = 0.9 * m + 0.1 * 1.0
        v = 0.999 * v + 0.001 * 1.0
        m_hat = m / (1.0 - 0.9 ** k)
        v_hat = v / (1.0 - 0.999 ** k)
        p -= 1e-3 * m_hat / (math.sqrt(v_hat) + 1e-8)
        t.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(t.data, [p], atol=1e-15)
    # constant unit gradient keeps both moment estimates at exactly 1
    np.testing.assert_allclose(t.data, [1.0 - 3e-3 / (1.0 + 1e-8)], atol=1e-12)


def test_adam_missing_grad_rejected():
    t = param_tensor([1.0])
    opt = Adam([t])
    with pytest.raises(ContractError):
        opt.step()


def test_adam_state_shape_mismatch_rejected():
    t = param_tensor([1.0, 2.0])
    opt = Adam([t])
    opt.m[0] = np.zeros(3)
    t.grad = np.zeros(2)
    with pytest.raises(ContractError):
        opt.step()


def test_make_optimizer_resolves_defaults():
    params = tiny_model("baseline")
    adam = make_optimizer(params, TrainConfig(optimizer="adam"))
    assert isinstance(adam, Adam) and adam.lr == 1e-3
    sgd = make_optimizer(params, TrainConfig(optimizer="sgd"))
    assert isinstance(sgd, Sgd) and sgd.lr == 0.1


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ContractError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ContractError):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        TrainConfig(epochs=0)
    with pytest.raises(ContractError):
        TrainConfig(val_fraction=1.0)
    assert TrainConfig(lr=0.0).lr == 0.0  # frozen-model runs are legal


# ---------------------------------------------------------------------------
# training loop


def test_training_is_deterministic():
    config = TrainConfig(optimizer="adam", epochs=2, seed=7)
    runs = []
    for _ in range(2):
        dataset = tiny_dataset()
        params = tiny_model()
        runs.append(train(dataset, params, config))
    assert runs[0] == runs[1]
    assert [format_record(r) for r in runs[0]] == [format_record(r) for r in runs[1]]


def test_record_layout():
    dataset = tiny_dataset()
    params = tiny_model()
    records = train(dataset, params, TrainConfig(epochs=3, seed=0))
    assert len(records) == 6  # train + val per epoch
    assert [r["epoch"] for r in records] == [1, 1, 2, 2, 3, 3]
    assert [r["split"] for r in records] == ["train", "val"] * 3
    assert all(np.isfinite(r["loss"]) for r in records)
    line = format_record(records[0])
    assert line.startswith("epoch=1 split=train loss=")


def test_zero_lr_freezes_model():
    dataset = tiny_dataset()
    params = tiny_model()
    before = [t.data.copy() for t in params.tensors()]
    records = train(dataset, params, TrainConfig(optimizer="sgd", lr=0.0, epochs=3, seed=1))
    for t, saved in zip(params.tensors(), before):
        np.testing.assert_array_equal(t.data, saved)
    val_losses = [r["loss"] for r in records if r["split"] == "val"]
    assert max(val_losses) - min(val_losses) < 1e-12


def test_loss_decreases_over_first_five_full_batch_steps():
    dataset = tiny_dataset()
    params = tiny_model()
    opt = Adam(params.tensors(), lr=1e-3, l2_lambda=0.0, lr_decay=0.0)
    losses = []
    from skelact.training import _batch_forward

    for _ in range(5):
        params.zero_grads()
        probs, labels = _batch_forward(params, dataset, range(len(dataset)))
        loss = cross_entropy(probs, labels)
        ad.backward(loss)
        losses.append(float(loss.data))
        opt.step()
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_one_step_changes_parameters():
    dataset = tiny_dataset()
    params = tiny_model()
    before = [t.data.copy() for t in params.tensors()]
    train(dataset, params, TrainConfig(epochs=1, seed=0))
    changed = any(
        not np.array_equal(t.data, saved) for t, saved in zip(params.tensors(), before)
    )
    assert changed


def test_l2_alone_shrinks_parameters():
    t = param_tensor(np.array([4.0, -3.0]))
    opt = Sgd([t], lr=0.1, l2_lambda=0.1, lr_decay=0.0)
    norms = [float(np.linalg.norm(t.data))]
    for _ in range(5):
        t.grad = np.zeros(2)
        opt.step()
        norms.append(float(np.linalg.norm(t.data)))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_train_writes_checkpoints(tmp_path):
    dataset = tiny_dataset()
    params = tiny_model()
    path = tmp_path / "run.ckpt"
    train(dataset, params, TrainConfig(epochs=2, seed=0), ckpt_path=path)
    assert path.exists()
    best = tmp_path / "run.ckpt.best"
    assert best.exists()
    last = load_checkpoint(path)
    for (name, a), (_, b) in zip(last.named_parameters(), params.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    load_checkpoint(best)  # well formed


def test_no_validation_split_skips_best_checkpoint(tmp_path):
    dataset = tiny_dataset()
    params = tiny_model()
    path = tmp_path / "run.ckpt"
    records = train(
        dataset, params, TrainConfig(epochs=1, seed=0, val_fraction=0.0), ckpt_path=path
    )
    assert all(r["split"] == "train" for r in records)
    assert path.exists()
    assert not (tmp_path / "run.ckpt.best").exists()


def test_train_empty_dataset_rejected():
    with pytest.raises(ContractError):
        train([], tiny_model(), TrainConfig())


def test_train_missing_modality_named():
    dataset = [Sample(None, np.zeros((6, 1536)), 0)]
    with pytest.raises(ContractError, match="skeleton"):
        train(dataset, tiny_model(), TrainConfig(val_fraction=0.0))


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_confusion_totals():
    dataset = tiny_dataset(classes=3, per_class=5)
    params = tiny_model(classes=3)
    accuracy, confusion = evaluate(dataset, params)
    assert confusion.shape == (3, 3)
    assert confusion.dtype == np.int64
    assert confusion.sum() == 15
    for c in range(3):
        assert confusion[c].sum() == 5
    assert abs(accuracy - 100.0 * np.trace(confusion) / 15) < 1e-12


def test_evaluate_shape_mismatch_rejected():
    dataset = tiny_dataset(joints=5)
    params = tiny_model(joints=4)
    with pytest.raises(ContractError, match="shape"):
        evaluate(dataset, params)


def test_every_clip_shape_checked_before_stacking():
    dataset = tiny_dataset()[:4] + tiny_dataset(joints=5)[:1]
    params = tiny_model()
    with pytest.raises(ContractError, match="sample 4: pose shape"):
        evaluate(dataset, params)
    with pytest.raises(ContractError, match="sample 4: pose shape"):
        _split_metrics(params, dataset, np.arange(5), 2)
    with pytest.raises(ContractError, match="sample 4: pose shape"):
        train(dataset, params, TrainConfig(epochs=1, val_fraction=0.0))


def test_evaluate_label_out_of_range_rejected():
    dataset = tiny_dataset(classes=3)
    params = tiny_model(classes=2)
    with pytest.raises(ContractError, match="label"):
        evaluate(dataset, params)


def test_evaluate_empty_dataset_rejected():
    with pytest.raises(ContractError):
        evaluate([], tiny_model())


def test_training_reaches_perfect_accuracy_on_noiseless_data():
    dataset = tiny_dataset(noise_sigma=0.0, rgb_noise_sigma=0.0)
    params = tiny_model()
    config = TrainConfig(optimizer="adam", lr=1e-2, epochs=25, seed=2, val_fraction=0.0)
    train(dataset, params, config)
    accuracy, _ = evaluate(dataset, params)
    assert accuracy == 100.0
