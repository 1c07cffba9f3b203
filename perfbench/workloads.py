"""The four benchmark workloads: inputs made from the seed, one timed run,
and the output checks that feed `pass_frac`.

Every workload is a class with three parts:

* ``setup()`` makes the inputs from the workload seed (the corpora, their
  files, the warm tensor cache) and warms the code paths; it is timed as
  `setup_s`.
* ``run(i)`` runs the work under test once on corpus ``i`` and returns a
  :class:`Unit` with what was observed.
* ``checks(observed, golden)`` compares one run's observations with the
  goldens recorded at the commit that added the benchmark.

Workload seed ``n`` uses slot ``s = n % SLOTS`` and optimizer seed ``s``.
A workload runs a panel of ``PANEL`` corpora with seeds ``7 + PANEL*s + j``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import simnet
import simnet.cli  # noqa: F401  (not imported by the package)

MUTATION_RATE = 0.10
CORPUS_BASE = 7          # corpus seed of workload seed 0, as in the README
SLOTS = 32               # goldens are recorded for workload seeds 0..31
THRESHOLD = 0.90
PIPELINE_ITERATIONS = 40
CROSSVAL_K = 5
CROSSVAL_ITERATIONS = 24
SWEEP_ITERATIONS = 2
SWEEP_THRESHOLDS = tuple(p / 100.0 for p in range(80, 96))
PIPELINE_MIN_ACCURACY = 0.95
CROSSVAL_MIN_MEAN = 0.90
ARTIFACTS = ("report.json", "report.txt", "trace.jsonl", "graph.json",
             "graph.dot")


def slot_of(seed: int) -> int:
    """Workload seed -> goldens slot; seeds congruent mod SLOTS share inputs."""
    return seed % SLOTS


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_array(m: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(m, dtype=np.float64).tobytes()).hexdigest()


def pairs(n: int) -> int:
    return n * (n - 1) // 2


@dataclass
class Unit:
    """What one run produced, plus its work counts."""

    observed: dict
    iterations: int              # scored proposals (search) or round trips (tensor)
    pairs: int                   # similarity pairs fused or built
    build_s: float = 0.0         # build_similarity_tensor time (tensor only)
    artifact_bytes: int = 0


class Workload:
    name = ""
    families, per_family = 8, 50
    PANEL = 1

    def __init__(self, seed: int, workdir: Path):
        self.slot = slot_of(seed)
        self.opt_seed = self.slot
        self.corpus_seeds = tuple(CORPUS_BASE + self.PANEL * self.slot + j
                                  for j in range(self.PANEL))
        self.workdir = workdir

    def corpus(self, i: int):
        return simnet.generate_planted(self.families, self.per_family,
                                       MUTATION_RATE, self.corpus_seeds[i])

    def setup(self) -> None:
        """In-memory datasets and tensors, warmed by one scoring each."""
        self.ds, self.tensor = [], []
        for i in range(self.PANEL):
            ds = self.corpus(i)
            t = simnet.build_similarity_tensor(ds)
            simnet.clustering_error(t, ds, simnet.WeightVector.equal(),
                                    THRESHOLD, self.opt_seed)
            self.ds.append(ds)
            self.tensor.append(t)


class Pipeline(Workload):
    """`simnet pipeline` in-process on a JSONL corpus with a warm cache."""

    name = "pipeline"

    def setup(self) -> None:
        super().setup()
        self.workdir.mkdir(parents=True, exist_ok=True)
        simnet.save_dataset(self.ds[0], self.workdir / "corpus.jsonl")
        self.tensor[0].save(self.workdir / "tensor.bin")

    def run(self, i: int) -> Unit:
        out = self.workdir / "out"
        argv = ["pipeline", "--dataset", str(self.workdir / "corpus.jsonl"),
                "--threshold", str(THRESHOLD * 100),
                "--iterations", str(PIPELINE_ITERATIONS),
                "--seed", str(self.opt_seed),
                "--cache", str(self.workdir / "tensor.bin"), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = simnet.cli.main(argv)
        obs = {"exit": code, "sha256": {}, "accuracy": None}
        size = 0
        if code == 0:
            obs["sha256"] = {a: sha256_file(out / a) for a in ARTIFACTS}
            obs["accuracy"] = json.loads((out / "report.json").read_text())["accuracy"]
            size = sum((out / a).stat().st_size for a in ARTIFACTS)
        return Unit(obs, PIPELINE_ITERATIONS,
                    PIPELINE_ITERATIONS * pairs(self.tensor[i].n), artifact_bytes=size)

    @staticmethod
    def checks(obs, gold):
        yield "exit", obs["exit"] == 0
        for a in ARTIFACTS:
            yield f"sha256 {a}", gold is not None and obs["sha256"].get(a) == gold["sha256"][a]
        acc = obs["accuracy"]
        yield "accuracy floor", acc is not None and acc >= PIPELINE_MIN_ACCURACY

    @staticmethod
    def record(obs):
        return {"sha256": obs["sha256"], "accuracy": obs["accuracy"]}


class Crossval(Workload):
    """Stratified 5-fold `kfold_crossval` on an in-memory tensor.

    Three corpora: the learned weights, and with them graph density and
    Louvain cost, differ from corpus to corpus (a ten-seed spread of about
    a fifth with one corpus, see README.md), and a panel averages that out.
    """

    name = "crossval"
    PANEL = 3

    def setup(self) -> None:
        super().setup()
        self.fold_pairs = [
            sum(pairs(t.n - len(f))
                for f in simnet.stratified_folds(ds, CROSSVAL_K, self.opt_seed))
            for ds, t in zip(self.ds, self.tensor)]

    def run(self, i: int) -> Unit:
        cfg = simnet.OptimizerConfig(iterations=CROSSVAL_ITERATIONS,
                                     threshold=THRESHOLD, seed=self.opt_seed)
        rep = simnet.kfold_crossval(self.ds[i], CROSSVAL_K, cfg,
                                    tensor=self.tensor[i])
        obs = {
            "folds": [list(f.weights.as_tuple()) + [f.classification_accuracy,
                                                    f.prediction_accuracy]
                      for f in rep.per_fold],
            "mean": rep.mean_prediction_accuracy,
        }
        return Unit(obs, CROSSVAL_K * CROSSVAL_ITERATIONS,
                    CROSSVAL_ITERATIONS * self.fold_pairs[i])

    @staticmethod
    def checks(obs, gold):
        for f, fold in enumerate(obs["folds"]):
            yield f"fold {f}", gold is not None and fold == gold["folds"][f]
        yield "mean floor", obs["mean"] >= CROSSVAL_MIN_MEAN

    @staticmethod
    def record(obs):
        return obs


class Sweep(Workload):
    """`threshold_sweep` over 0.80-0.95: dense and sparse graphs alike."""

    name = "sweep"

    def run(self, i: int) -> Unit:
        cfg = simnet.OptimizerConfig(iterations=SWEEP_ITERATIONS,
                                     seed=self.opt_seed)
        rep = simnet.threshold_sweep(self.tensor[i], self.ds[i], cfg,
                                     SWEEP_THRESHOLDS)
        obs = {
            "points": [[p.threshold] + list(p.best_weights.as_tuple())
                       + [p.accuracy] for p in rep.points],
            "best": rep.best_threshold,
        }
        proposals = len(SWEEP_THRESHOLDS) * SWEEP_ITERATIONS
        return Unit(obs, proposals, proposals * pairs(self.tensor[i].n))

    @staticmethod
    def checks(obs, gold):
        for i, pt in enumerate(obs["points"]):
            yield f"point {i}", gold is not None and pt == gold["points"][i]
        yield "best threshold", gold is not None and obs["best"] == gold["best"]

    @staticmethod
    def record(obs):
        return obs


class Tensor(Workload):
    """Cold `build_similarity_tensor` on 16x50, then `save` and `load`."""

    name = "tensor"
    families, per_family = 16, 50

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ds = [self.corpus(0)]
        # warm the digest, compare and Jaccard paths on a small subset
        simnet.build_similarity_tensor(self.ds[0].subset(self.ds[0].ids[:32]))

    def run(self, i: int) -> Unit:
        path = self.workdir / "tensor.bin"
        t0 = time.perf_counter()
        t = simnet.build_similarity_tensor(self.ds[i])
        build_s = time.perf_counter() - t0
        t.save(path)
        back = simnet.SimilarityTensor.load(path)
        mats = back.matrices()
        obs = {
            "sha256": {f: sha256_array(m) for f, m in zip(simnet.FEATURES, t.matrices())},
            "round_trip": back.sample_order == t.sample_order and all(
                a.tobytes() == np.ascontiguousarray(b, dtype=np.float64).tobytes()
                for a, b in zip(mats, t.matrices())),
            "symmetric": all(np.array_equal(m, m.T) for m in mats),
            "unit_diagonal": all(bool((np.diagonal(m) == 1.0).all()) for m in mats),
        }
        return Unit(obs, 1, pairs(t.n), build_s=build_s)

    @staticmethod
    def checks(obs, gold):
        for f in simnet.FEATURES:
            yield f"sha256 {f}", gold is not None and obs["sha256"][f] == gold["sha256"][f]
        yield "round trip", obs["round_trip"]
        yield "symmetric", obs["symmetric"]
        yield "unit diagonal", obs["unit_diagonal"]

    @staticmethod
    def record(obs):
        return {"sha256": obs["sha256"]}


WORKLOADS = {w.name: w for w in (Pipeline, Crossval, Sweep, Tensor)}
