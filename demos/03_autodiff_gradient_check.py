"""The tape-based gradient engine, checked against finite differences.

Builds the full four-part training loss (soft cross-entropy, squared-error
consistency, uniform-prior regularizer, contrastive) on a tiny network and
compares every reverse-mode gradient entry with central differences.

Training runs in float32, but central differences at h = 1e-5 need float64,
so the network and the batch here are float64 arrays: every function
computes in the dtype of its inputs.  The script exits non-zero when any
relative error exceeds 1e-4 (acceptance criterion 2's bar).
"""

import sys

import numpy as np

from noisytrain.kernel import GradientTape, backward, wrap
from noisytrain.model import (ALL_GROUPS, Arch, NetworkParams, forward_logits,
                              forward_projection, init_network)
from noisytrain.training import (Hyperparams, loss_contrastive, loss_lu,
                                 loss_lx, loss_reg, total_loss)

MAX_REL_ERR = 1e-4

rng = np.random.default_rng(0)
arch = Arch(in_dim=5, hidden=8, num_classes=3, embed_dim=4)
start = init_network(arch, seed=1)
net = NetworkParams(arch, start.seed,
                    {name: wrap(m.data.astype(np.float64)) for name, m in start.params.items()})
x = wrap(rng.normal(size=(6, 5)))
targets = rng.dirichlet(np.ones(3), size=6)   # a plain array: a constant, never on the tape
hp = Hyperparams()


def forward(tape=None):
    logits = forward_logits(net, x, tape)
    lx = loss_lx(logits, targets, tape)
    lu = loss_lu(logits, targets, tape)
    lreg = loss_reg(logits, 3, tape)
    z = forward_projection(net, x, tape)
    lc = loss_contrastive(z, hp.kappa, tape)
    return total_loss(lx, lu, lreg, lc, hp, tape)


tape = GradientTape()
for p in net.params.values():
    tape.watch(p)
loss = forward(tape)
grads = backward(tape, loss)
print(f"total loss on a random batch: {loss.item():.6f}")
print(f"operations recorded on the tape: {tape.num_records}\n")

h = 1e-5
worst = 0.0
print("parameter  shape     max|grad|   max rel err vs finite differences")
for name in ALL_GROUPS:
    p = net.params[name]
    analytic = grads[p]
    numeric = np.zeros(p.shape)
    flat, nflat = p.data.reshape(-1), numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = forward().item()
        flat[i] = orig - h
        f_minus = forward().item()
        flat[i] = orig
        nflat[i] = (f_plus - f_minus) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-7)
    rel = np.max(np.abs(analytic - numeric) / denom)
    worst = max(worst, rel)
    print(f"{name:9s}  {str(p.shape):8s}  {np.abs(analytic).max():9.4f}   {rel:.2e}")

if not worst <= MAX_REL_ERR:
    sys.exit(f"gradient check failed: max relative error {worst:.2e} > {MAX_REL_ERR:.0e}")
print(f"\nevery loss path through the network differentiates exactly (max rel err "
      f"{worst:.2e});")
print("the tape replays its record in reverse and is consumed afterwards.")
