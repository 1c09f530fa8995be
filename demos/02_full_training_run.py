"""A complete robust-training run next to a plain cross-entropy baseline.

Half the training labels are corrupted.  The robust pipeline warms up for
5 epochs, then alternates divergence-based selection and semi-supervised
training of the two networks.  The baseline keeps minimizing CE on the
corrupted labels for the same number of epochs.
"""

import numpy as np

from noisytrain import AugmentationSpec, Hyperparams, make_gaussian_blobs, \
    inject_symmetric_noise, run
from noisytrain.data import LabeledDataset
from noisytrain.kernel import Matrix

SEED = 11

pool = make_gaussian_blobs(num_classes=4, per_class=180, dims=8, separation=8.0, seed=SEED)


def split(ds, train_per_class, num_classes):
    rows = np.arange(len(ds)).reshape(num_classes, -1)   # the pool is grouped by class
    def subset(idx):
        return LabeledDataset(Matrix(ds.features.data[idx]), ds.true_labels[idx],
                              ds.given_labels[idx], num_classes)
    return subset(rows[:, :train_per_class].ravel()), subset(rows[:, train_per_class:].ravel())


train, test = split(pool, train_per_class=150, num_classes=4)
train = inject_symmetric_noise(train, rate=0.5, seed=SEED)
print(f"train {len(train)} samples at 50% label noise, test {len(test)} clean samples\n")

hp = Hyperparams(seed=SEED, warmup_epochs=5, total_epochs=30)
aug = AugmentationSpec()

print("robust pipeline:")
result = run(train, test, hp, hidden=64, embed_dim=16, aug=aug)
print("epoch  phase    R      sel.prec  roc_auc  test_acc  train_acc(given)")
for row in result.rows:
    if row.epoch % 3 == 0 or row.epoch == hp.total_epochs - 1:
        fr = f"{row.filter_rate:.3f}" if row.filter_rate is not None else "  -  "
        pr = f"{row.precision:.3f}" if row.precision is not None else "  -  "
        auc = f"{row.roc_auc:.3f}" if row.roc_auc is not None else "  -  "
        print(f"{row.epoch:5d}  {row.phase:7s}  {fr}  {pr}     {auc}    "
              f"{row.test_acc:.3f}     {row.train_acc_given:.3f}")

print("\nplain CE on the same corrupted labels:")
ce = run(train, test, Hyperparams(seed=SEED, warmup_epochs=30, total_epochs=30),
         hidden=64, embed_dim=16, aug=aug)
print(f"  final test accuracy {ce.rows[-1].test_acc:.3f}, "
      f"given-label train accuracy {ce.rows[-1].train_acc_given:.3f}")

robust = result.rows[-1]
print(f"\nrobust final: test accuracy {robust.test_acc:.3f}, "
      f"given-label train accuracy {robust.train_acc_given:.3f}")
print("the robust run tracks the true labels (given-label accuracy stays near the")
print("clean fraction) while plain CE slowly absorbs the corrupted labels.")
