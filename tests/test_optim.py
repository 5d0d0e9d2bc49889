"""SGD with momentum and weight decay on one flat vector: update rule,
decay exemption, freezing, and bit-identity with the per-tensor rule."""

import numpy as np

from oracles import sgd_step_per_tensor
from pairsieve.model import pack_layout, tensor_views
from pairsieve.optim import sgd_step, update_runs


class _Flat:
    """Named tensors as views into one parameter, one gradient and one velocity vector."""

    def __init__(self, values):
        arrays = {name: np.asarray(v, dtype=float) for name, v in values.items()}
        self.layout = pack_layout((name, arr.shape) for name, arr in arrays.items())
        size = self.layout[-1][2]
        self.param, self.grad, self.velocity = np.zeros(size), np.zeros(size), np.zeros(size)
        self.tensors = tensor_views(self.param, self.layout)
        self.grads = tensor_views(self.grad, self.layout)
        self.vel = tensor_views(self.velocity, self.layout)
        for name, arr in arrays.items():
            self.tensors[name][...] = arr

    def step(self, lr, momentum, weight_decay, frozen=(), no_decay=()):
        sgd_step(self.param, self.grad, self.velocity, lr, momentum, weight_decay,
                 update_runs(self.layout, frozen, no_decay))


def test_plain_gradient_step_without_momentum():
    f = _Flat({"w": [1.0, 2.0]})
    f.grads["w"][...] = [0.5, -1.0]
    f.step(lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.allclose(f.tensors["w"], [1.0 - 0.05, 2.0 + 0.1])


def test_zero_gradient_zero_decay_is_identity():
    f = _Flat({"w": [3.0, -4.0]})
    f.step(lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.array_equal(f.tensors["w"], np.array([3.0, -4.0]))


def test_two_steps_constant_gradient_closed_form():
    # velocity: g then 0.9g + g = 1.9g; displacement -0.1 * (g + 1.9g) = -0.29g
    f = _Flat({"w": [0.0]})
    f.grads["w"][...] = 1.0
    f.step(lr=0.1, momentum=0.9, weight_decay=0.0)
    f.step(lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.isclose(f.tensors["w"][0], -0.29)


def test_weight_decay_shrinks_parameters_without_gradient():
    f = _Flat({"w": [2.0, -2.0, 1.0]})
    norms = [np.linalg.norm(f.tensors["w"])]
    for _ in range(5):
        f.step(lr=0.1, momentum=0.9, weight_decay=0.1)
        norms.append(np.linalg.norm(f.tensors["w"]))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_no_decay_tensors_untouched_without_gradient():
    f = _Flat({"w": [2.0, -2.0], "a": [4.5, -0.3]})
    start = f.tensors["a"].copy()
    for _ in range(5):
        f.step(lr=0.1, momentum=0.9, weight_decay=0.1, no_decay=("a",))
    assert np.array_equal(f.tensors["a"], start)
    assert np.array_equal(f.vel["a"], np.zeros(2))
    assert np.linalg.norm(f.tensors["w"]) < np.linalg.norm([2.0, -2.0])


def test_frozen_tensors_completely_untouched():
    f = _Flat({"a": [1.0], "b": [1.0]})
    f.grad[...] = 1.0
    f.step(lr=0.1, momentum=0.9, weight_decay=0.01, frozen=("b",))
    assert f.tensors["a"][0] != 1.0
    assert f.tensors["b"][0] == 1.0
    assert f.vel["b"][0] == 0.0  # not even the velocity moves


def test_update_is_in_place():
    f = _Flat({"w": [1.0]})
    arr = f.tensors["w"]
    f.grads["w"][...] = 1.0
    f.step(lr=0.1, momentum=0.0, weight_decay=0.0)
    assert arr is f.tensors["w"] and np.shares_memory(arr, f.param)
    assert arr[0] == 0.9


def test_runs_merge_neighbours_and_follow_names_not_positions():
    layout = pack_layout([("a", (2,)), ("b", (3,)), ("c", (1,)), ("d", (2,)), ("e", (1,))])
    assert update_runs(layout) == ((slice(0, 9), True),)
    # a frozen tensor between two decayed ones splits the run around it
    assert update_runs(layout, frozen={"c"}, no_decay={"e"}) == (
        (slice(0, 5), True), (slice(6, 8), True), (slice(8, 9), False))
    # exempt names need not be neighbours
    assert update_runs(layout, no_decay={"a", "d"}) == (
        (slice(0, 2), False), (slice(2, 6), True), (slice(6, 8), False), (slice(8, 9), True))
    assert update_runs(layout, frozen={"a", "b", "c", "d", "e"}) == ()


def test_flat_update_bit_identical_to_per_tensor_rule():
    rng = np.random.default_rng(0)
    shapes = [("w1", (3, 4)), ("b1", (4,)), ("frozen", (2, 3)), ("w2", (5,)),
              ("s1", (1,)), ("s2", (1,)), ("tail", (2, 2))]
    for trial in range(20):
        values = {name: rng.normal(size=shape) for name, shape in shapes}
        if trial % 4 == 0:
            values["w2"][...] = -0.0
        f = _Flat(values)
        ref = {name: arr.copy() for name, arr in values.items()}
        ref_vel = {name: np.zeros_like(arr) for name, arr in ref.items()}
        frozen = {"frozen"} if trial % 2 == 0 else ()
        no_decay = {"s1", "s2"} if trial % 3 else {"s1", "tail"}
        for step in range(4):
            # zero gradients in some steps and tensors, signed zeros included
            for name, shape in shapes:
                g = rng.normal(size=shape)
                if (step + len(name)) % 3 == 0:
                    g = -np.zeros(shape) if (trial + step) % 4 < 2 else np.zeros(shape)
                f.grads[name][...] = g
            lr, momentum, wd = rng.uniform(0.01, 0.5), rng.uniform(0.0, 0.95), rng.uniform(0, 0.1)
            if step % 2:
                momentum = 0.0  # turns a negative velocity into -0.0
            f.step(lr, momentum, wd, frozen=frozen, no_decay=no_decay)
            sgd_step_per_tensor(ref, {n: g.copy() for n, g in f.grads.items()}, ref_vel,
                                lr, momentum, wd, frozen=frozen, no_decay=no_decay)
            for name in ref:
                assert f.tensors[name].tobytes() == ref[name].tobytes(), (trial, step, name)
                assert f.vel[name].tobytes() == ref_vel[name].tobytes(), (trial, step, name)
