"""Leading batch axes: a batch must compute exactly what its items compute alone,
and backward must release the graph it walks."""

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skelact.autodiff as ad
from skelact import recurrent
from skelact.data import COORDS
from skelact.model import ModelDims, build_variant, forward, variant_config
from skelact.recurrent import init_lstm_params, lstm_forward
from skelact.streams import StreamConfig
from skelact.training import cross_entropy

# ---------------------------------------------------------------------------
# backward releases the graph


def test_backward_frees_intermediates_and_keeps_held_grads():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    held = ad.matmul(x, w)
    inner = ad.tanh(held)
    only_in_graph = weakref.ref(inner)
    probe = rng.normal(size=(3, 2))
    loss = ad.sum_all(ad.mul(inner, ad.Tensor(probe)))
    del inner
    assert only_in_graph() is not None  # the graph still holds it

    ad.backward(loss)
    assert only_in_graph() is None
    assert loss._parents == () and loss._backward is None
    assert held._parents == () and held._backward is None
    expected = probe * (1.0 - np.tanh(held.data) ** 2)
    np.testing.assert_allclose(held.grad, expected, rtol=1e-12)
    np.testing.assert_allclose(w.grad, x.data.T @ expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# batch == per-clip oracle through the whole model


def small_dims():
    stream = StreamConfig(seu_filters=(2, 2, 2), teu_filters=(2, 2, 2), post_filters=(3, 3, 4))
    return ModelDims(frames=5, joints=3, rgb_width=8, hidden=3, num_classes=4, stream=stream)


def clip_inputs(dims, branch, rng, count):
    pose = rng.normal(size=(count, dims.frames, dims.joints, COORDS))
    features = rng.normal(size=(count, dims.frames, dims.rgb_width))
    return (pose if branch != "rgb" else None), (features if branch != "pose" else None)


def model_logits(params, pose, features):
    return forward(
        params,
        pose=None if pose is None else ad.Tensor(pose),
        features=None if features is None else ad.Tensor(features),
        logits=True,
    )


@pytest.mark.parametrize("variant, branch", [
    ("baseline", "pose"), ("seu", "pose"), ("seu+teu", "pose"), ("full", "pose"), ("full", "both"),
])
def test_batch_matches_per_clip_forward_and_mean_gradient(variant, branch):
    dims = small_dims()
    params = build_variant(variant_config(variant, branch=branch), dims, seed=5)
    rng = np.random.default_rng(6)
    pose, features = clip_inputs(dims, branch, rng, 3)
    labels = np.array([0, 3, 1])

    params.zero_grads()
    logits = model_logits(params, pose, features)
    assert logits.data.shape == (3, dims.num_classes)
    ad.backward(cross_entropy(logits, labels))
    batch_grads = {name: t.grad.copy() for name, t in params.named_parameters()}

    mean_grads = {name: np.zeros_like(t.data) for name, t in params.named_parameters()}
    for i in range(3):
        params.zero_grads()
        clip = model_logits(params, None if pose is None else pose[i],
                            None if features is None else features[i])
        assert clip.data.shape == (dims.num_classes,)
        np.testing.assert_allclose(logits.data[i], clip.data, rtol=0, atol=1e-12)
        ad.backward(cross_entropy(clip, labels[i]))
        for name, t in params.named_parameters():
            mean_grads[name] += t.grad / 3
    params.zero_grads()
    for name, grad in batch_grads.items():
        np.testing.assert_allclose(grad, mean_grads[name], rtol=0, atol=1e-10, err_msg=name)


def test_batched_cross_entropy_is_the_mean_of_clip_losses():
    logits = np.array([[0.2, 0.8], [0.6, 0.4], [40.0, 0.0]])
    labels = np.array([1, 0, 1])
    batched = float(cross_entropy(ad.Tensor(logits), labels).data)
    clips = [float(cross_entropy(ad.Tensor(z), y).data) for z, y in zip(logits, labels)]
    assert batched == pytest.approx(np.mean(clips), rel=1e-15)


# ---------------------------------------------------------------------------
# gradients are handed off without copies


@pytest.mark.parametrize("branch", ["pose", "both"])
def test_backward_never_writes_a_handed_off_gradient(branch, monkeypatch):
    """Every array passed to _accumulate still holds its values when backward
    returns, and no two parameters' .grad share memory."""
    handed = []
    accumulate = ad._accumulate

    def recording(t, g):
        handed.append((g, np.array(g, copy=True)))
        accumulate(t, g)

    # recurrent binds the name at import, so it is wrapped there as well
    monkeypatch.setattr(ad, "_accumulate", recording)
    monkeypatch.setattr(recurrent, "_accumulate", recording)
    dims = small_dims()
    params = build_variant(variant_config("full", branch=branch), dims, seed=8)
    pose, features = clip_inputs(dims, branch, np.random.default_rng(9), 3)
    ad.backward(cross_entropy(model_logits(params, pose, features), np.array([2, 0, 1])))

    assert len(handed) > len(params.tensors())
    for index, (g, snapshot) in enumerate(handed):
        np.testing.assert_array_equal(g, snapshot, err_msg=f"hand-off {index} was written after it")
    named = list(params.named_parameters())
    for i, (name, t) in enumerate(named):
        for other, u in named[i + 1:]:
            assert not np.shares_memory(t.grad, u.grad), f"{name} and {other} share a gradient"


# ---------------------------------------------------------------------------
# batched ops == the op applied to each batch item


def assert_itemwise(op, x, params, lead, rng):
    """op on x [*lead, ...] equals op on every item x[i], in value and in gradient."""
    for p in params:
        p.grad = None
    batch = ad.Tensor(x, requires_grad=True)
    out = op(batch)
    probe = rng.normal(size=out.data.shape)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(probe))))
    batch_grads = [p.grad.copy() for p in params]

    summed = [np.zeros_like(p.data) for p in params]
    for idx in np.ndindex(*lead):
        for p in params:
            p.grad = None
        item = ad.Tensor(x[idx], requires_grad=True)
        item_out = op(item)
        np.testing.assert_allclose(out.data[idx], item_out.data, rtol=0, atol=1e-12)
        ad.backward(ad.sum_all(ad.mul(item_out, ad.Tensor(probe[idx]))))
        np.testing.assert_allclose(batch.grad[idx], item.grad, rtol=0, atol=1e-12)
        for total, p in zip(summed, params):
            total += p.grad
    for got, want in zip(batch_grads, summed):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def _param(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


leading_shapes = st.lists(st.integers(1, 3), max_size=2).map(tuple)


@settings(max_examples=30, deadline=None)
@given(lead=leading_shapes, seed=st.integers(0, 2**32 - 1))
@example(lead=(), seed=0)
@example(lead=(1,), seed=0)
def test_batched_ops_match_per_item_application(lead, seed):
    rng = np.random.default_rng(seed)

    for width in (3, 2, 1):
        kernel, bias = _param(rng, width, 3, 2), _param(rng, 2)
        assert_itemwise(lambda t: ad.conv1d(t, kernel, bias),
                        rng.normal(size=(*lead, 5, 3)), [kernel, bias], lead, rng)

    weight, bias = _param(rng, 3, 2), _param(rng, 2)
    x = rng.normal(size=(*lead, 4, 3))
    assert_itemwise(lambda t: ad.dense(t, weight, bias), x, [weight, bias], lead, rng)
    # dense takes any leading axes, none included: here every item is a 1-d row
    assert_itemwise(lambda t: ad.dense(t, weight, bias), x[..., 0, :], [weight, bias], lead, rng)
    assert_itemwise(lambda t: ad.matmul(t, weight), x, [weight], lead, rng)
    assert_itemwise(lambda t: ad.matmul(t, ad.transpose(t)), x, [], lead, rng)
    assert_itemwise(ad.softmax, x, [], lead, rng)

    gain, shift = _param(rng, 3), _param(rng, 3)
    assert_itemwise(lambda t: ad.layer_norm(t, gain, shift), x, [gain, shift], lead, rng)

    lstm = init_lstm_params(rng, 3, 2)
    assert_itemwise(lambda t: lstm_forward(t, lstm), x, [lstm.w_x, lstm.w_h, lstm.bias], lead, rng)
