"""Gradient mutants: each changes one parent's gradient in one backward closure, and a `verify` suite must catch it.

A closure is picked by its `__qualname__` (`add.<locals>.bw`) where `_node`
records it, in `autodiff` and in `recurrent`, which imports `_node` by name.
A closure that an op case reaches is checked at op scope, on the op cases
named after its op only; `lstm_forward` and `softmax_cross_entropy`, which no
op case reaches, are checked at module scope.
"""

import numpy as np
import pytest

from skelact import autodiff as ad
from skelact import recurrent, verify

SEED = 0
# each maps one parent's gradient to a wrong one; a 0-d gradient has no axis to reverse
MUTATIONS = {
    "scaled": lambda g: g * 1.01,
    "zeroed": np.zeros_like,
    "reversed": lambda g: g[..., ::-1] if g.ndim else g,
}
# the parent count of each op's backward closure, by the suite that reaches it
OP_SCOPE = {"add": 2, "mul": 2, "relu": 1, "tanh": 1, "scale": 1, "reshape": 1, "transpose": 1, "concat": 2,
            "sum_all": 1, "global_avg_pool": 1, "matmul": 2, "dense": 3, "softmax": 1, "layer_norm": 3, "conv1d": 3}
MODULE_SCOPE = {"lstm_forward": 4, "softmax_cross_entropy": 1}
# mutants whose gradient equals the true one, each with the reason
EQUIVALENT = {
    ("sum_all", 0, "reversed"): "sum_all's gradient is one value repeated, the same reversed",
}
MUTANTS = [(scope, op, parent, mutation)
           for scope, closures in (("op", OP_SCOPE), ("module", MODULE_SCOPE))
           for op, parents in closures.items() for parent in range(parents) for mutation in MUTATIONS]


def _inject(monkeypatch, op, parent, mutation):
    """Mutate `parent`'s gradient in every `op` closure recorded from now on; returns the list of mutated calls."""
    hits = []
    record = ad._node

    def node(data, parents, backward_fn):
        if backward_fn.__qualname__ != f"{op}.<locals>.bw":
            return record(data, parents, backward_fn)

        def mutated(g):
            grads = list(backward_fn(g))
            if parent < len(grads) and grads[parent] is not None:  # dense without a bias has two parents
                hits.append(parent)
                grads[parent] = MUTATIONS[mutation](np.asarray(grads[parent]))
            return grads

        return record(data, parents, mutated)

    monkeypatch.setattr(ad, "_node", node)
    monkeypatch.setattr(recurrent, "_node", node)
    return hits


def _only_cases_of(monkeypatch, op):
    """Restrict `verify.op_suite` to the op cases whose name starts with `op` (conv1d_same, dense_no_bias, ...)."""
    names = [name for name in verify.OPS if name.startswith(op)]
    monkeypatch.setattr(verify, "OPS", {name: verify.OPS[name] for name in names})
    monkeypatch.setattr(verify, "BATCHED", tuple(name for name in verify.BATCHED if name in names))
    monkeypatch.setattr(verify, "OPERAND_CASES", {case: value for case, value in verify.OPERAND_CASES.items()
                                                  if case.split(".")[0] in names})


@pytest.mark.parametrize("scope, op, parent, mutation", MUTANTS)
def test_gradient_mutant_is_caught(monkeypatch, scope, op, parent, mutation):
    if scope == "op":
        _only_cases_of(monkeypatch, op)
    hits = _inject(monkeypatch, op, parent, mutation)
    results = verify.SUITES[scope](SEED)
    assert hits, f"no {scope}-scope case reached parent {parent} of {op}'s closure"
    failing = [(name, err) for name, err in results if not err < verify.THRESHOLD]
    if (op, parent, mutation) in EQUIVALENT:
        assert not failing, f"the mutant listed as equivalent was caught: {failing}"
    else:
        assert failing, f"{mutation} gradient of parent {parent} of {op} survives: {results}"
