"""SGD with classical momentum on the flat parameter vector
(model.ModelParams.flat); weight decay folds into the gradient before the
velocity update.

Decay applies to every tensor the caller does not exempt. The trainer
exempts the scale and offset of the match logit, `a_lvc` and `b_lvc`
(`training.NO_DECAY`): the logit is `a_lvc * p_lvc + b_lvc` with the
pair score `p_lvc` in [0, 1], so decay on `a_lvc` pulls the logit's
sharpness toward zero and holds the bce head back, while the two
scalars carry no capacity that decay would need to limit.
"""

from __future__ import annotations


def update_runs(layout, frozen=(), no_decay=()):
    """(slice, decay) runs of the flat vector, built once per phase for sgd_step.

    layout holds (name, start, stop, shape) entries (model.pack_layout).
    Tensors named in frozen are left out: no decay, no velocity change,
    so a frozen tensor is bit-identical before and after. Tensors named
    in no_decay drop the weight_decay term. Neighbours that agree on
    decay merge into one run.
    """
    runs = []
    for name, start, stop, _ in layout:
        if name in frozen:
            continue
        decay = name not in no_decay
        if runs and runs[-1][1] == start and runs[-1][2] == decay:
            runs[-1][1] = stop
        else:
            runs.append([start, stop, decay])
    return tuple((slice(start, stop), decay) for start, stop, decay in runs)


def sgd_step(param, grad, velocity, lr, momentum, weight_decay, runs):
    """Update the flat param and velocity (zeros at first) in place, run by run.

    velocity <- momentum * velocity + (grad + weight_decay * param)
    param    <- param - lr * velocity

    The weight_decay term applies only in runs marked decay; entries
    outside every run are not touched.
    """
    for sl, decay in runs:
        p, v = param[sl], velocity[sl]
        g = grad[sl] + weight_decay * p if decay else grad[sl]
        v *= momentum
        v += g
        p -= lr * v
