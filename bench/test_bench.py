"""Tests of the benchmark's own machinery: python -m pytest -q bench/test_bench.py"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from skelact import autodiff, model, training  # noqa: E402
from skelact.data import SyntheticSpec, generate_synthetic  # noqa: E402

import spans  # noqa: E402
from measure import Checks, check_probabilities, percentile  # noqa: E402
from workloads import WARMUP_OPS, PoseInfer, Run  # noqa: E402


@pytest.fixture(scope="module")
def pose_state():
    samples = generate_synthetic(SyntheticSpec(samples_per_class=2, seed=3))
    dims = model.ModelDims(joints=samples[0].pose.shape[1], num_classes=4)
    return samples, model.build_variant(model.variant_config("full"), dims, seed=3)


def test_percentile_refused_with_fewer_than_ten_samples_beyond():
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(list(range(1, 100)), 90)
    assert percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        percentile(list(range(1, 20)), 50)


def test_error_rate_counts_an_injected_failing_check(pose_state, monkeypatch, tmp_path):
    checks = Checks()
    check_probabilities(checks, [0.25, 0.25, 0.25, 0.25])
    check_probabilities(checks, [0.25, 0.25, 0.25, 0.25 + 1e-9])
    check_probabilities(checks, [np.nan, 0.5, 0.5, 0.0])
    assert (checks.attempted, checks.failed) == (3, 2)

    forward = model.forward
    calls = []

    def forward_failing_once(params, pose=None, features=None):
        calls.append(None)
        probs = forward(params, pose=pose, features=features)
        return autodiff.Tensor(2.0 * probs.data) if len(calls) == 7 else probs

    monkeypatch.setattr(model, "forward", forward_failing_once)
    run = Run("pose_infer", seed=0, seconds=0.0, work=tmp_path, prepared={})
    phase = PoseInfer().measure(run, pose_state, seconds=0.0, min_ops=20)
    assert phase.ops == len(calls) == 20 + WARMUP_OPS
    assert (run.checks.attempted, run.checks.failed) == (phase.ops, 1)
    assert run.checks.error_rate == pytest.approx(1 / phase.ops)


def test_bilstm_replay_matches_its_in_graph_gradient(pose_state):
    samples, params = pose_state
    tracer = spans.Tracer()
    tracer.install()
    try:
        params.zero_grads()
        probs = model.forward(params, pose=autodiff.Tensor(samples[0].pose))
        autodiff.backward(training.cross_entropy(probs, samples[0].label))
    finally:
        tracer.uninstall()
    capture = tracer.captures["recurrent.bilstm"][0]
    lstm = [t for name, t in params.named_parameters() if name.startswith("pose.lstm.")]
    in_graph = [t.grad.copy() for t in lstm]
    input_grad = capture.args[0].grad.copy()

    _, replayed = spans.replay_backward(tracer.originals["recurrent.bilstm"], capture, params.tensors())
    for tensor, expected in zip(lstm, in_graph):
        np.testing.assert_allclose(tensor.grad, expected, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(replayed.grad, input_grad, rtol=1e-12, atol=1e-15)
    params.zero_grads()

    table = tracer.summary()
    children = sum(table[name]["total_ms"] for name in
                   ("model.pose_branch", "model.late_fuse_and_classify"))
    forward = table["model.forward"]
    assert forward["self_ms"] == pytest.approx(forward["total_ms"] - children)


def test_uninstall_restores_the_untraced_call_path():
    def bindings():
        return {(m.__name__, k): v for m in spans._MODULES for k, v in vars(m).items()}

    before, step = bindings(), training.Adam.step
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert model.forward is not before[("skelact.model", "forward")]
        assert training.forward is model.forward
        assert training.Adam.step is not step
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert training.Adam.step is step
