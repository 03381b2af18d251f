#!/usr/bin/env python3
"""Train the paper's on-device model (LeNet-5) on image-shaped synthetic data.

The phones in the paper run LeNet-5 on CIFAR-10 with batch size 20
(Section VI).  The simulation studies in this repository train a faster MLP
(their client plane runs ``Linear`` / ``ReLU`` / ``Tanh`` stacks only), but
the full convolutional path exists and this example exercises it:
it builds 3x32x32 synthetic images, runs a few local epochs of momentum SGD
exactly as one federated participant would, reports accuracy, and uses the
measured per-epoch times of Table II to translate the work into on-device
wall-clock time and energy for each testbed device.

Run with::

    python examples/lenet_on_device_training.py              # ~1-2 minutes
    python examples/lenet_on_device_training.py --epochs 1 --train-samples 300
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.reporting import format_table
from repro.energy.measurements import MeasurementTable
from repro.fl.dataset import SyntheticCifar10
from repro.fl.metrics import evaluate_model
from repro.fl.model import build_lenet5
from repro.fl.optimizer import MomentumSGD


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--train-samples", type=int, default=600)
    parser.add_argument("--test-samples", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=20, help="the paper's batch size")
    parser.add_argument("--learning-rate", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dataset = SyntheticCifar10(
        num_train=args.train_samples,
        num_test=args.test_samples,
        image_shape=(3, 32, 32),
        class_separation=2.0,
        clusters_per_class=2,
        label_noise=0.05,
        seed=args.seed,
    )
    model = build_lenet5(in_channels=3, image_size=32, num_classes=10, seed=args.seed)
    optimizer = MomentumSGD(learning_rate=args.learning_rate, momentum=0.9)
    x_train, y_train = dataset.train_set()

    print(f"LeNet-5 with {model.num_parameters():,} parameters, "
          f"{args.train_samples} training images, batch size {args.batch_size}\n")

    start = time.time()
    for epoch in range(args.epochs):
        losses = []
        for begin in range(0, x_train.shape[0], args.batch_size):
            xb = x_train[begin:begin + args.batch_size]
            yb = y_train[begin:begin + args.batch_size]
            losses.append(model.train_step_gradients(xb, yb))
            optimizer.step(model)
        accuracy, _ = evaluate_model(model, *dataset.test_set())
        print(f"epoch {epoch + 1}: mean loss {sum(losses) / len(losses):.3f}, "
              f"test accuracy {accuracy:.3f}")
    host_seconds = time.time() - start
    print(f"\nhost training time: {host_seconds:.1f} s "
          f"({args.epochs} local epochs, momentum norm {optimizer.velocity_norm():.3f})")

    # Translate one local epoch into on-device time and energy per Table II.
    table = MeasurementTable()
    rows = []
    for device in table.devices():
        epoch_s = table.training_time(device)
        power_w = table.training_power(device)
        rows.append([device, epoch_s, power_w, epoch_s * power_w,
                     100.0 * table.mean_saving(device)])
    print()
    print(format_table(
        ["device", "local-epoch time (s)", "training power (W)",
         "energy per epoch (J)", "mean co-running saving %"],
        rows,
        float_format=".1f",
        title="What the same local epoch costs on the paper's testbed (Table II)",
    ))


if __name__ == "__main__":
    main()
