"""SGD with classical momentum; weight decay folds into the gradient
before the velocity update.

Decay applies to every tensor the caller does not exempt. The trainer
exempts the scale and offset of the match logit, `a_lvc` and `b_lvc`
(`training.NO_DECAY`): the logit is `a_lvc * p_lvc + b_lvc` with the
pair score `p_lvc` in [0, 1], so decay on `a_lvc` pulls the logit's
sharpness toward zero and holds the bce head back, while the two
scalars carry no capacity that decay would need to limit.
"""

from __future__ import annotations


def sgd_step(tensors, grads, velocity, lr, momentum, weight_decay, frozen=(),
             no_decay=()):
    """Update tensors and the velocity dict (name -> array, zeros at first) in place.

    velocity <- momentum * velocity + (grad + weight_decay * param)
    param    <- param - lr * velocity

    Tensors named in frozen are skipped entirely: no decay, no velocity
    change, so a frozen tensor is bit-identical before and after.
    Tensors named in no_decay take the same update without the
    weight_decay term; the trainer passes the match-logit scalars
    `a_lvc` and `b_lvc` here, so only their gradient moves them.
    """
    for name, arr in tensors.items():
        if name in frozen:
            continue
        g = grads[name] if name in no_decay else grads[name] + weight_decay * arr
        vel = velocity[name]
        vel *= momentum
        vel += g
        arr -= lr * vel
