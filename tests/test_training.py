import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skelact.autodiff as ad
import skelact.training as training
from skelact.data import Sample, SyntheticSpec, generate_synthetic
from skelact.errors import ContractError
from skelact.model import (
    BRANCH_VARIANTS,
    BRANCHES,
    ModelDims,
    build_variant,
    load_checkpoint,
    save_checkpoint,
    variant_config,
)
from skelact.streams import StreamConfig
from skelact.training import (
    CHUNK,
    Adam,
    Sgd,
    TrainConfig,
    _batch_forward,
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
    stream = StreamConfig(seu_filters=(2, 2, 2), teu_filters=(2, 2, 2), post_filters=(3, 3, 4))
    return ModelDims(frames=frames, joints=joints, hidden=2, num_classes=classes, stream=stream)


def tiny_model(variant="full", seed=0, **dim_kw):
    dims = train_dims(**dim_kw)
    return build_variant(variant_config(variant, branch="pose"), dims, seed=seed)


def param_tensor(values):
    t = ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return t


# ---------------------------------------------------------------------------
# loss


def test_cross_entropy_perfect_prediction():
    logits = ad.Tensor(np.array([-800.0, 800.0, -800.0]))
    assert float(cross_entropy(logits, 1).data) == 0.0


def test_cross_entropy_uniform():
    logits = ad.Tensor(np.full(5, 3.0))
    assert abs(float(cross_entropy(logits, 3).data) - math.log(5)) < 1e-12


def test_cross_entropy_closed_form():
    logits = ad.Tensor(np.log([0.25, 0.75]))
    assert abs(float(cross_entropy(logits, 1).data) + math.log(0.75)) < 1e-12


def test_cross_entropy_confidently_wrong_keeps_its_gradient():
    # a probability clamped at 1e-12 would give loss 27.6 and a zero gradient here
    logits = ad.Tensor(np.array([0.0, 40.0]), requires_grad=True)
    loss = cross_entropy(logits, 0)
    assert float(loss.data) == pytest.approx(40.0, rel=1e-15)
    ad.backward(loss)
    np.testing.assert_allclose(logits.grad, [-1.0, 1.0], rtol=0, atol=1e-15)


def test_cross_entropy_rejects_bad_label():
    logits = ad.Tensor(np.zeros(4))
    with pytest.raises(ContractError):
        cross_entropy(logits, 4)
    with pytest.raises(ContractError):
        cross_entropy(logits, -1)
    with pytest.raises(ContractError):
        cross_entropy(ad.Tensor(np.zeros((2, 2, 4))), np.zeros((2, 2), dtype=int))


def test_cross_entropy_gradient():
    logits = np.array([[0.1, -1.6, 0.3], [2.0, 0.5, -0.7]])

    def f(x):
        return cross_entropy(x, [1, 0])

    assert ad.gradient_check(f, ad.Tensor(logits)) < 1e-6


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


# ---------------------------------------------------------------------------
# in-place optimizer steps against the allocating reference


def reference_sgd_step(p, g, lr_t, l2):
    """The allocating SGD update, frozen as the reference for the in-place step."""
    return p - lr_t * (g + l2 * p)


def reference_adam_step(p, g, m, v, lr_t, steps, l2, beta1=0.9, beta2=0.999, eps=1e-8):
    """The allocating Adam update (Kingma & Ba 2015) with L2 in the gradient; `steps`
    counts this step. Returns the new (p, m, v)."""
    g = g + l2 * p
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** steps)
    v_hat = v / (1.0 - beta2 ** steps)
    return p - lr_t * m_hat / (np.sqrt(v_hat) + eps), m, v


CHUNK_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]
# every size flat, and again as a 2-D or 3-D tensor (factors of the sizes at CHUNK = 32768)
CHUNK_SHAPES = [(n,) for n in CHUNK_SIZES] + [(1, 1, 1), (7, 31, 151), (128, 256), (3, 10923), (17, 5783)]


# a drawn shape: a fixed one, a flat size within 2 of a CHUNK multiple, any flat size, or a small n-d one
STEP_SHAPES = st.one_of(
    st.sampled_from(CHUNK_SHAPES),
    st.builds(lambda k, offset: (k * CHUNK + offset,), st.integers(1, 3), st.integers(-2, 2)),
    st.integers(1, 3 * CHUNK).map(lambda n: (n,)),
    st.lists(st.integers(1, 9), max_size=3).map(tuple),
)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
@settings(max_examples=25, deadline=None)
@given(shapes=st.lists(STEP_SHAPES, min_size=1, max_size=4),
       lr=st.floats(1e-6, 1.0), l2=st.floats(0.0, 1e-2), decay=st.floats(0.0, 1.0))
@example(shapes=CHUNK_SHAPES, lr=3e-2, l2=1e-3, decay=0.1)
def test_in_place_step_equals_allocating_reference(kind, shapes, lr, l2, decay):
    assert [math.prod(shape) for shape in CHUNK_SHAPES[len(CHUNK_SIZES):]] == CHUNK_SIZES
    rng = np.random.default_rng(31)
    tensors = [param_tensor(rng.normal(size=shape)) for shape in shapes]
    reference = [t.data.copy() for t in tensors]
    moments = [(np.zeros(t.data.shape), np.zeros(t.data.shape)) for t in tensors]
    cls = Adam if kind == "adam" else Sgd
    opt = cls(tensors, lr=lr, l2_lambda=l2, lr_decay=decay)
    for step in range(5):
        lr_t = lr / (1.0 + decay * step)
        for idx, t in enumerate(tensors):
            t.grad = rng.normal(size=t.data.shape)
            if kind == "adam":
                reference[idx], *moments[idx] = reference_adam_step(
                    reference[idx], t.grad, *moments[idx], lr_t, step + 1, l2)
            else:
                reference[idx] = reference_sgd_step(reference[idx], t.grad, lr_t, l2)
        opt.step()
    for idx, t in enumerate(tensors):
        np.testing.assert_array_equal(t.data, reference[idx])
    if kind == "adam":
        np.testing.assert_array_equal(opt.m, np.concatenate([m.ravel() for m, _ in moments]))
        np.testing.assert_array_equal(opt.v, np.concatenate([v.ravel() for _, v in moments]))


@pytest.mark.parametrize("kind", ["adam", "sgd"])
@pytest.mark.parametrize("layout", ["transposed", "read-only"])
def test_in_place_step_updates_any_data_layout(kind, layout):
    rng = np.random.default_rng(32)
    data = rng.normal(size=(6, CHUNK // 4))
    t = param_tensor(data.copy())
    if layout == "transposed":
        t.data = t.data.T
    else:
        t.data.flags.writeable = False
    start = t.data.copy()
    grad = rng.normal(size=t.data.shape)
    opt = (Adam if kind == "adam" else Sgd)([t], lr=1e-2, l2_lambda=1e-3, lr_decay=0.0)
    t.grad = grad
    opt.step()
    if kind == "adam":
        expect = reference_adam_step(start, grad, 0.0, 0.0, 1e-2, 1, 1e-3)[0]
    else:
        expect = reference_sgd_step(start, grad, 1e-2, 1e-3)
    np.testing.assert_array_equal(t.data, expect)


def test_sgd_allocates_no_copy_of_the_parameters():
    # the default pose `full` build: 1,164,268 parameters, 9.3 MB; SGD needs only its two scratch blocks
    params = build_variant(variant_config("full"), ModelDims(), seed=0)
    assert params.parameter_count() == 1_164_268
    tracemalloc.start()
    try:
        make_optimizer(params, TrainConfig(optimizer="sgd"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * params.parameter_count() / 4


# ---------------------------------------------------------------------------
# the step fused into backward


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_fused_step_equals_backward_then_step(kind):
    dataset = tiny_dataset()
    config = TrainConfig(optimizer=kind, lr=0.05, l2_lambda=1e-3, lr_decay=0.1)
    plain_params, fused_params = tiny_model(), tiny_model()
    plain, fused = make_optimizer(plain_params, config), make_optimizer(fused_params, config)
    rng = np.random.default_rng(8)
    for _ in range(5):
        batch = rng.permutation(len(dataset))[:4]
        loss = cross_entropy(*_batch_forward(plain_params, dataset, batch))
        ad.backward(loss)
        plain.step()
        assert all(t.grad is None for t in plain_params.tensors())  # a whole step drops them too

        loss = cross_entropy(*_batch_forward(fused_params, dataset, batch))
        ad.backward(loss, on_leaf=fused.on_leaf)
        assert all(t.grad is None for t in fused_params.tensors())  # each dropped once applied
        fused.step()
        assert all(t.grad is None for t in fused_params.tensors())
    assert fused.steps == plain.steps == 5
    for fused_t, plain_t in zip(fused_params.tensors(), plain_params.tensors(), strict=True):
        np.testing.assert_array_equal(fused_t.data, plain_t.data)
    for name in fused.state:
        np.testing.assert_array_equal(getattr(fused, name), getattr(plain, name))


@pytest.mark.parametrize("cls", [Adam, Sgd])
def test_parameter_the_loss_does_not_reach_raises_unpopulated(cls):
    reached, unreached = param_tensor([1.0, 2.0]), param_tensor([3.0])
    opt = cls([reached, unreached])
    ad.backward(ad.sum_all(ad.mul(reached, reached)), on_leaf=opt.on_leaf)
    with pytest.raises(ContractError, match=f"^{cls.__name__.lower()} step with an unpopulated gradient$"):
        opt.step()
    # the plain walk refuses the same tensor alike, and either way the step is counted
    reached.grad = np.ones(2)
    with pytest.raises(ContractError, match=f"^{cls.__name__.lower()} step with an unpopulated gradient$"):
        opt.step()
    assert opt.steps == 2


@pytest.mark.parametrize("cls", [Adam, Sgd])
def test_one_step_applies_fused_updates_and_a_gradient_the_caller_set(cls):
    reached, by_hand = param_tensor([1.0, -2.0]), param_tensor([3.0])
    opt = cls([reached, by_hand], lr=0.1, lr_decay=0.5)
    ad.backward(ad.sum_all(ad.mul(reached, reached)), on_leaf=opt.on_leaf)
    assert reached.grad is None  # updated inside backward
    by_hand.grad = np.array([0.5])
    opt.step()

    # the same gradients, each set by hand and applied by one whole step()
    ref_reached, ref_by_hand = param_tensor([1.0, -2.0]), param_tensor([3.0])
    ref = cls([ref_reached, ref_by_hand], lr=0.1, lr_decay=0.5)
    ref_reached.grad, ref_by_hand.grad = np.array([2.0, -4.0]), np.array([0.5])
    ref.step()
    for t, ref_t in zip((reached, by_hand), (ref_reached, ref_by_hand)):
        np.testing.assert_array_equal(t.data, ref_t.data)
    assert reached.data[0] != 1.0 and by_hand.data[0] != 3.0
    assert opt.steps == ref.steps == 1
    assert reached.grad is None and by_hand.grad is None


def test_train_calls_adam_step_once_per_step_after_backward(monkeypatch):
    # the benchmark times a training step from one Adam.step return to the next
    step = Adam.step
    calls = []

    def counted(optimizer):
        calls.append([t.grad for t in optimizer.tensors])
        step(optimizer)

    monkeypatch.setattr(Adam, "step", counted)
    dataset = tiny_dataset(per_class=5)  # 10 clips: 2 held out, 8 trained on in batches of 4
    train(dataset, tiny_model(), TrainConfig(optimizer="adam", batch_size=4, epochs=3, seed=0))
    assert len(calls) == 3 * 2
    assert all(grad is None for grads in calls for grad in grads)  # consumed inside backward


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


@pytest.mark.parametrize("field,value", [
    ("lr", float("nan")),
    ("lr", float("inf")),
    ("lr", "fast"),
    ("lr_decay", -1.0),  # 1 + decay * step is zero at step 1
    ("lr_decay", float("nan")),
    ("l2_lambda", float("nan")),
    ("l2_lambda", -1e-5),
    ("val_fraction", float("nan")),
    ("epochs", 3.0),
    ("epochs", True),
    ("batch_size", 4.0),
    ("batch_size", False),
    ("seed", 1.5),
    ("seed", True),
    ("seed", -1),
])
def test_train_config_rejects_bad_value(field, value):
    with pytest.raises(ContractError, match=f"TrainConfig.{field} "):
        TrainConfig(**{field: value})


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
    for _ in range(5):
        params.zero_grads()
        logits, labels = _batch_forward(params, dataset, range(len(dataset)))
        loss = cross_entropy(logits, labels)
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
    snapshots = []  # the weights at each epoch's validation record

    def log_fn(line):
        if "split=val" in line:
            snapshots.append([t.data.copy() for t in params.tensors()])

    # its val accuracies tie at the top on epochs 1 and 2, then fall
    config = TrainConfig(optimizer="sgd", lr=0.3, epochs=3, seed=0, val_fraction=0.5)
    records = train(dataset, params, config, ckpt_path=path, log_fn=log_fn)
    val_acc = [r["accuracy"] for r in records if r["split"] == "val"]
    assert len(snapshots) == len(val_acc) == 3
    top = val_acc.index(max(val_acc))  # the first epoch with the top val accuracy
    assert top < 2, f"val accuracies {val_acc} peak last, so .best and .ckpt would hold the same weights"
    final, best = snapshots[-1], snapshots[top]
    for ckpt, expected in ((path, final), (tmp_path / "run.ckpt.best", best)):
        loaded = load_checkpoint(ckpt)
        for (name, t), want in zip(loaded.named_parameters(), expected, strict=True):
            np.testing.assert_array_equal(t.data, want, err_msg=f"{ckpt.name}: {name}")
    # writing .best as validation improves leaves the trained weights in place
    for (name, t), want in zip(params.named_parameters(), final, strict=True):
        np.testing.assert_array_equal(t.data, want, err_msg=name)


def test_failed_run_leaves_the_directory_as_it_was(tmp_path):
    dataset = tiny_dataset()
    path = tmp_path / "run.ckpt"
    train(dataset, tiny_model(), TrainConfig(optimizer="sgd", lr=0.3, epochs=1, seed=0), ckpt_path=path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["run.ckpt", "run.ckpt.best"]
    partial = tmp_path / "run.ckpt.best.partial"
    candidate_written = []

    def log_fn(line):
        if line.startswith("epoch=2 split=train"):
            candidate_written.append(partial.is_file())  # epoch 1's validation wrote one
            raise KeyboardInterrupt

    config = TrainConfig(optimizer="sgd", lr=0.3, epochs=3, seed=0, val_fraction=0.5)
    with pytest.raises(KeyboardInterrupt):
        train(dataset, tiny_model(seed=1), config, ckpt_path=path, log_fn=log_fn)
    assert candidate_written == [True]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_validation_and_return_hold_no_gradients(monkeypatch):
    score = training._score
    grads_at_score = []

    def spy(params, dataset, indices):
        grads_at_score.append([t.grad for t in params.tensors()])
        return score(params, dataset, indices)

    monkeypatch.setattr(training, "_score", spy)
    params = tiny_model()
    train(tiny_dataset(), params, TrainConfig(optimizer="adam", epochs=3, seed=0))
    assert len(grads_at_score) == 3
    assert all(grad is None for grads in grads_at_score for grad in grads)
    assert all(t.grad is None for t in params.tensors())


def test_no_checkpoint_path_writes_no_checkpoint(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(training, "save_checkpoint", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    records = train(tiny_dataset(), tiny_model(), TrainConfig(epochs=3, seed=0))
    assert [r["split"] for r in records] == ["train", "val"] * 3
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_gradients_the_caller_left_change_no_step():
    # train clears them once before its first step; backward would otherwise add to them
    config = TrainConfig(optimizer="adam", epochs=2, seed=0)
    clean, held = tiny_model(), tiny_model()
    rng = np.random.default_rng(12)
    for t in held.tensors():
        t.grad = rng.normal(size=t.data.shape)
    assert train(tiny_dataset(), held, config) == train(tiny_dataset(), clean, config)
    for (name, a), (_, b) in zip(held.named_parameters(), clean.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        assert a.grad is None, name


def test_adam_epoch_from_a_loaded_model_equals_one_from_a_build(tmp_path):
    # loaded tensors are views of one payload array; a build's own their memory
    dataset = tiny_dataset()
    path = tmp_path / "start.ckpt"
    save_checkpoint(path, tiny_model(seed=4))
    loaded = load_checkpoint(path)
    built = tiny_model(seed=0)
    for t, source in zip(built.tensors(), loaded.tensors()):
        t.data[...] = source.data
    config = TrainConfig(optimizer="adam", epochs=1, seed=5)
    assert train(dataset, loaded, config) == train(dataset, built, config)
    for (name, a), (_, b) in zip(loaded.named_parameters(), built.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


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


def test_run_without_validation_removes_an_earlier_best_checkpoint(tmp_path):
    dataset = tiny_dataset()
    path = tmp_path / "run.ckpt"
    train(dataset, tiny_model("full"), TrainConfig(epochs=1, seed=0), ckpt_path=path)
    assert (tmp_path / "run.ckpt.best").exists()
    train(dataset, tiny_model("baseline"), TrainConfig(epochs=1, seed=0, val_fraction=0.0), ckpt_path=path)
    assert load_checkpoint(path).ablation.variant == "baseline"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]


def test_non_finite_parameter_stops_training_and_names_it(tmp_path):
    dataset = tiny_dataset()
    params = tiny_model()
    named = list(params.named_parameters())
    name, tensor = named[3]
    tensor.data[(0,) * tensor.data.ndim] = np.nan
    path = tmp_path / "run.ckpt"
    with pytest.raises(ContractError, match=rf"at epoch 1, step 1 \(global step 1\); "
                                            rf"first non-finite parameter group: {name} \(data\)$"):
        train(dataset, params, TrainConfig(epochs=2, seed=0), ckpt_path=path)
    # a gradient the caller left on an earlier tensor is cleared unread: only weights are named
    _, held = named[1]
    held.grad = np.full(held.data.shape, np.inf)
    with pytest.raises(ContractError, match=rf"first non-finite parameter group: {name} \(data\)$"):
        train(dataset, params, TrainConfig(epochs=2, seed=0), ckpt_path=path)
    assert list(tmp_path.iterdir()) == []


def test_diverging_training_stops_before_any_checkpoint(tmp_path):
    dataset = tiny_dataset()
    params = tiny_model("baseline")
    path = tmp_path / "run.ckpt"
    config = TrainConfig(optimizer="sgd", lr=1e100, epochs=3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow is the point
        with pytest.raises(ContractError, match=r"non-finite training loss .* at epoch \d+, step \d+ "
                                                r"\(global step \d+\); .*parameter group"):
            train(dataset, params, config, ckpt_path=path)
    assert list(tmp_path.iterdir()) == []


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
        train(dataset, params, TrainConfig(epochs=1, val_fraction=0.0))


def test_train_checks_each_clip_once(monkeypatch):
    # train checks every clip before its first step; its validation passes trust that check
    calls = []
    check = training._check_clips

    def counted(params, dataset, indices):
        calls.append(list(indices))
        return check(params, dataset, indices)

    monkeypatch.setattr(training, "_check_clips", counted)
    dataset = tiny_dataset()
    train(dataset, tiny_model(), TrainConfig(optimizer="adam", epochs=3, val_fraction=0.25))
    assert calls == [list(range(len(dataset)))]


def test_validation_record_is_evaluate_on_the_held_out_clips():
    # train() scores its held-out clips with evaluate()'s scorer: the last
    # split=val record is evaluate() of the final model on exactly those clips
    dataset = tiny_dataset(classes=3, per_class=12)
    params = tiny_model(classes=3)
    config = TrainConfig(optimizer="adam", epochs=2, seed=4, val_fraction=0.5)
    records = train(dataset, params, config)
    order = np.random.default_rng(config.seed).permutation(len(dataset))
    held_out = [dataset[i] for i in order[:int(round(len(dataset) * config.val_fraction))]]
    assert len(held_out) > 16  # more than one EVAL_CHUNK
    last = [r for r in records if r["split"] == "val"][-1]
    accuracy, _ = evaluate(held_out, params)
    assert last["accuracy"] == accuracy
    with ad.no_grad():
        logits, labels = _batch_forward(params, held_out, range(len(held_out)))
    losses = [float(cross_entropy(ad.Tensor(row), label).data) for row, label in zip(logits.data, labels)]
    assert abs(last["loss"] - sum(losses) / len(losses)) < 1e-12


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


@pytest.mark.parametrize("variant,branch", [(v, b) for b in BRANCHES for v in BRANCH_VARIANTS[b]])
def test_default_builds_load_and_optimize_on_cache_lines(tmp_path, variant, branch):
    # every tensor of a default build starts at a multiple of 8 elements in its
    # vector, so an aligned payload or `flat` puts each tensor on a cache line
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build_variant(variant_config(variant, branch), ModelDims(), seed=0))
    params = load_checkpoint(path)
    path.unlink()
    for name, t in params.named_parameters():
        assert t.data.ctypes.data % 64 == 0, f"loaded {name}"
    adam = make_optimizer(params, TrainConfig(optimizer="adam"))
    for name, t in params.named_parameters():
        assert t.data.ctypes.data % 64 == 0, f"optimized {name}"
    for state in (adam.m, adam.v):
        assert state.ctypes.data % 64 == 0 and not state.any()
