"""How divergence-based clean-sample selection works, step by step.

Builds a noisy blob dataset, measures per-sample Jensen-Shannon divergence
between given labels and an ensemble prediction, derives the automatic
cutoff and filter rate, and contrasts class-balanced selection with the
class-blind baseline: the same ranking, per class or over one group.
"""

from noisytrain import (compute_cutoff, compute_filter_rate, init_twins, jsd,
                        make_gaussian_blobs, inject_symmetric_noise, select_clean)
from noisytrain.metrics import roc_auc, selection_precision_recall
from noisytrain.model import Arch, ensemble_softmax, forward_softmax
from noisytrain.selection import divergences_from_probs
from noisytrain.training import Hyperparams, warmup_train

print("= Divergence of a given label from a prediction =")
print("agreeing one-hots:      ", jsd([1, 0, 0, 0], [1, 0, 0, 0]))
print("uniform prediction:     ", round(jsd([1, 0, 0, 0], [0.25, 0.25, 0.25, 0.25]), 4))
print("confidently different:  ", jsd([1, 0], [0, 1]))

print("\n= A blob dataset with 40% symmetric label noise =")
ds = make_gaussian_blobs(num_classes=4, per_class=150, dims=8, separation=8.0, seed=3)
ds = inject_symmetric_noise(ds, rate=0.4, seed=3)
corrupted = (ds.given_labels != ds.true_labels).mean()
print(f"{len(ds)} samples, measured corruption {corrupted:.3f}")

print("\n= Warm up twin networks with plain cross-entropy =")
twins = init_twins(Arch(in_dim=8, hidden=64, num_classes=4, embed_dim=16), seed=3)
hp = Hyperparams(seed=3)
for epoch in range(10):
    warmup_train(twins, ds, hp, epoch)

# the selection reads a prediction made here: the two networks' averaged softmax
probs = ensemble_softmax(forward_softmax(twins.net1, ds.features),
                         forward_softmax(twins.net2, ds.features))
report = divergences_from_probs(probs, ds.given_labels)
clean_mask = ds.given_labels == ds.true_labels
print(f"divergences: mean {report.d_avg:.3f}, min {report.d_min:.3f}")
print(f"  truly-clean mean {report.d[clean_mask].mean():.3f}, "
      f"truly-noisy mean {report.d[~clean_mask].mean():.3f}")

print("\n= Automatic cutoff and filter rate =")
cutoff = compute_cutoff(report)  # fixed tau=5, adjustment threshold 0.7
rate = compute_filter_rate(report, cutoff)
print(f"cutoff {cutoff:.3f} -> filter rate R = {rate:.3f} "
      f"(clean fraction is {clean_mask.mean():.3f})")

print("\n= Class-balanced vs class-blind selection =")
for name, balancing in (("balanced", True), ("class-blind", False)):
    sel = select_clean(report, ds.given_labels, 4, rate, balancing=balancing, d_cutoff=cutoff)
    precision, recall = selection_precision_recall(sel, ds)
    print(f"{name:12s} per-class counts {sel.class_counts.tolist()}  "
          f"precision {precision:.3f}  recall {recall:.3f}")
print(f"ranking quality (ROC-AUC of 1 - d): {roc_auc(report, ds):.3f}")
