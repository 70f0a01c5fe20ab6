"""The benchmark's workloads: one fixed deskml training run each.

A workload is a config for ``deskml.train.run_trainer`` plus, for
``vit-dp``, a resume leg. The seed passed on the command line is the
``seed`` argument of ``run_trainer``; it alone decides the synthetic
data, the initial parameters and the dropout masks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # run_trainer's trainer kind
    config: dict       # run_trainer config, without the seed
    resume: bool = False   # re-run the second half from the mid-run checkpoint

    @property
    def total_steps(self) -> int:
        return self.config["total_steps"]

    @property
    def eval_every(self) -> int:
        return self.config["eval_every"]

    @property
    def hosts(self) -> int:
        return self.config.get("topology", {}).get("host_count", 1)

    @property
    def resume_step(self) -> int:
        """The checkpoint step the resume leg starts from (mid-run)."""
        evals = self.total_steps // self.eval_every
        return (evals // 2) * self.eval_every

    def expected_ops(self) -> dict:
        """Operations one round attempts, by kind, checks excluded."""
        steps = self.total_steps
        evals = steps // self.eval_every
        loads = 0
        if self.resume:
            steps += self.total_steps - self.resume_step
            evals += (self.total_steps - self.resume_step) // self.eval_every
            loads = 1
        return {"train_steps": steps, "eval_passes": evals,
                "checkpoint_saves": evals, "checkpoint_loads": loads}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="unet-seg",
            kind="segmentation",
            config={
                "model": {"name": "unet_segmentation"},
                "dataset": {"name": "shapes_segmentation",
                            "num_train_examples": 256,
                            "num_eval_examples": 256},
                "batch_size": 32,
                "total_steps": 60,
                "eval_every": 20,
                "optimizer": {"kind": "adam", "lr": 1e-3},
            },
        ),
        Workload(
            name="detr-set",
            kind="detection",
            config={
                "model": {"name": "detr_detection",
                          "lambda_cls": 1.0, "lambda_box": 5.0},
                "dataset": {"name": "boxes_detection",
                            "num_train_examples": 1536,
                            "num_eval_examples": 1024},
                "batch_size": 32,
                "total_steps": 60,
                "eval_every": 30,
                "optimizer": {"kind": "adam", "lr": 3e-4},
            },
        ),
        Workload(
            name="vit-dp",
            kind="classification",
            config={
                "model": {"name": "vit_classification", "dropout": 0.1},
                "dataset": {"name": "blobs_classification",
                            "input_shape": [8, 8, 1],
                            "num_train_examples": 512,
                            "num_eval_examples": 512},
                "batch_size": 8,
                "topology": {"host_count": 2, "devices_per_host": 2},
                "total_steps": 120,
                "eval_every": 30,
                "optimizer": {"kind": "adam", "lr": 1e-3},
            },
            resume=True,
        ),
    )
}
