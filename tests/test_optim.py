"""SGD with momentum and weight decay: update rule, decay exemption and
freezing."""

import numpy as np

from pairsieve.optim import sgd_step


def _setup(values):
    tensors = {name: np.array(v, dtype=float) for name, v in values.items()}
    velocity = {name: np.zeros_like(arr) for name, arr in tensors.items()}
    return tensors, velocity


def test_plain_gradient_step_without_momentum():
    tensors, velocity = _setup({"w": [1.0, 2.0]})
    grads = {"w": np.array([0.5, -1.0])}
    sgd_step(tensors, grads, velocity, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.allclose(tensors["w"], [1.0 - 0.05, 2.0 + 0.1])


def test_zero_gradient_zero_decay_is_identity():
    tensors, velocity = _setup({"w": [3.0, -4.0]})
    grads = {"w": np.zeros(2)}
    sgd_step(tensors, grads, velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.array_equal(tensors["w"], np.array([3.0, -4.0]))


def test_two_steps_constant_gradient_closed_form():
    # velocity: g then 0.9g + g = 1.9g; displacement -0.1 * (g + 1.9g) = -0.29g
    tensors, velocity = _setup({"w": [0.0]})
    grads = {"w": np.array([1.0])}
    sgd_step(tensors, grads, velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
    sgd_step(tensors, grads, velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.isclose(tensors["w"][0], -0.29)


def test_weight_decay_shrinks_parameters_without_gradient():
    tensors, velocity = _setup({"w": [2.0, -2.0, 1.0]})
    grads = {"w": np.zeros(3)}
    norms = [np.linalg.norm(tensors["w"])]
    for _ in range(5):
        sgd_step(tensors, grads, velocity, lr=0.1, momentum=0.9, weight_decay=0.1)
        norms.append(np.linalg.norm(tensors["w"]))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_no_decay_tensors_untouched_without_gradient():
    tensors, velocity = _setup({"w": [2.0, -2.0], "a": [4.5, -0.3]})
    grads = {"w": np.zeros(2), "a": np.zeros(2)}
    start = tensors["a"].copy()
    for _ in range(5):
        sgd_step(tensors, grads, velocity, lr=0.1, momentum=0.9, weight_decay=0.1,
                 no_decay=("a",))
    assert np.array_equal(tensors["a"], start)
    assert np.array_equal(velocity["a"], np.zeros(2))
    assert np.linalg.norm(tensors["w"]) < np.linalg.norm([2.0, -2.0])


def test_frozen_tensors_completely_untouched():
    tensors, velocity = _setup({"a": [1.0], "b": [1.0]})
    grads = {"a": np.array([1.0]), "b": np.array([1.0])}
    sgd_step(tensors, grads, velocity, lr=0.1, momentum=0.9, weight_decay=0.01,
             frozen=("b",))
    assert tensors["a"][0] != 1.0
    assert tensors["b"][0] == 1.0
    assert velocity["b"][0] == 0.0  # not even the velocity moves


def test_update_is_in_place():
    tensors, velocity = _setup({"w": [1.0]})
    arr = tensors["w"]
    sgd_step(tensors, {"w": np.array([1.0])}, velocity, lr=0.1, momentum=0.0,
             weight_decay=0.0)
    assert arr is tensors["w"]
    assert arr[0] == 0.9
