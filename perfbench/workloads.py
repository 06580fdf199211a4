"""The benchmark's workloads: what is set up and what one unit of work runs.

Every workload is built from the shipped configs in ``configs/`` and a seed
index k.  Index 0 runs the configs exactly as shipped; index k adds k to
every ``seed`` field (data generators and swarms alike), so each index is
another draw of the same experiment.  One unit of work is a list of
operations; each returns the answers to check and the number of points it
predicted.  ``work_spans`` names the calls a workload's throughput is timed
over, and ``work_done`` counts what was done in them: objective evaluations
of the swarm for the tuning workloads, predicted points for ``predict``.

A run seeded with index k runs the j-th draw of a tuning workload at index
(k + j) mod ``SEED_INDICES``.  How long a tune takes depends on the draw
even at a fixed number of fits: ``sdof_se_gp`` takes 1.6-1.8 s at indices
6 and 7 and 1.0-1.1 s at indices 0 and 3 on the same machine minutes apart,
with no jitter retries and no infeasible particles, so a run that stayed on
one draw would put that draw's cost into its median.  ``predict`` keeps
index k, because its set-up is per draw.

Why these three:

* ``narx_tune``: 373 ARD squared-exponential fits at n = 336, d = 14 per
  config; the 14-D Gram build dominates, Cholesky is the rest.
* ``exact_gp_1d``: 1-D fits at n = 150 where per-call overhead and Cholesky
  dominate, GLS refits (two Gram builds per evaluation) and a reduced-rank
  fit.
* ``predict``: the read side.  Set-up fits three models with fixed
  hyperparameters and saves them; a unit runs ``shmgp predict`` on long
  records, a long NARX free run, and a latent-force estimate (one Kalman
  pass and one RTS pass over a long record, 8 states) with fixed
  hyperparameters, which keeps the state-space layer measured.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from shmgp import cli, experiments, model_io, narx
from shmgp.config import ExperimentConfig
from shmgp.metrics import nmse

from run import SEED_INDICES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Fixed hyperparameters for the predict workload: the shipped tuners' optima
# at seed index 0, rounded.  SDOF noise is raised to keep n = 600 well posed.
SDOF_KERNEL = {"family": "sdof", "zeta": 0.053, "omega_n": 9.59, "sigma2": 1.82}
SDOF_NOISE = 1e-6
SDOF_SAMPLES = 4800  # record length; every 8th sample trains (n = 600)
NARX_KERNEL = {
    "family": "squared_exponential",
    "signal_scale": 0.292,
    "lengthscales": [0.970, 4.36, 27.1, 4.17, 2.59, 17.8, 5.18,
                     22.9, 6.62, 18.9, 31.9, 49.4, 1.58, 49.4],
}
NARX_NOISE = 1.46e-3
WAVE_SEGMENT = 2000  # samples per amplitude regime of the long wave record
FIELD_GRID = 150  # prediction grid is FIELD_GRID x FIELD_GRID
LATENT_FORCE = {"sigma": 4.60, "lengthscale": 2.33}  # latent_force_3dof's tuned optimum
FORCE_SAMPLES = 3000  # record length of the latent-force estimate


def seeded(doc, k: int):
    """Copy of a config document with k added to every integer 'seed'."""
    if isinstance(doc, dict):
        return {key: value + k if key == "seed" and isinstance(value, int)
                else seeded(value, k) for key, value in doc.items()}
    if isinstance(doc, list):
        return [seeded(value, k) for value in doc]
    return doc


def load_config(name: str, k: int) -> dict:
    return seeded(json.loads((CONFIGS / f"{name}.json").read_text()), k)


class TuneWorkload:
    """Shipped configs run end to end through ``run_experiment``."""

    work_spans = ("pso.minimize",)

    def __init__(self, names):
        self.names = list(names)

    def setup(self, k: int, work: Path) -> None:
        self.k, self.work = k, work
        self.configs = {(i, name): ExperimentConfig.from_dict(load_config(name, i))
                        for i in range(SEED_INDICES) for name in self.names}

    def ops(self, draw: int):
        i = (self.k + draw) % SEED_INDICES
        return [(name, i, lambda name=name: self._run(i, name)) for name in self.names]

    def work_done(self, ops) -> int:
        return sum(op["counts"]["tuning.objective"] for op in ops)

    def _run(self, i, name):
        report = experiments.run_experiment(self.configs[i, name], output_dir=self.work / name)
        answers = {"nmse": report.nmse_percent}
        if report.log_marginal_likelihood is not None:
            answers["lml"] = report.log_marginal_likelihood
        return answers, 0


def _quiet_cli(argv) -> None:
    """``shmgp`` in-process; its stdout line is not part of the result."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"shmgp {argv[0]} exited with code {code}")


class PredictWorkload:
    """Saved models read back by ``shmgp predict``, a NARX free run and a
    latent-force estimate with fixed hyperparameters."""

    work_spans = ("cli.predict", "narx.free_run", "statespace.estimate_force")

    def setup(self, k: int, work: Path) -> None:
        self.k, self.work = k, work
        models, data = work / "models", work / "data"

        sdof = load_config("sdof_kernel_gp", k)
        sdof["data"]["params"]["n_samples"] = SDOF_SAMPLES
        sdof["model"] = {"kernel": dict(SDOF_KERNEL), "noise_var": SDOF_NOISE}
        sdof["optimizer"] = None
        wave = load_config("wave_narx_residual", k)
        wave["model"].update(kernel=dict(NARX_KERNEL), noise_var=NARX_NOISE)
        wave["optimizer"] = None
        field = load_config("reduced_rank_field", k)
        for name, doc in (("sdof", sdof), ("narx", wave), ("field", field)):
            experiments.run_experiment(ExperimentConfig.from_dict(doc), output_dir=models / name)

        wave_spec = {"generator": "wave",
                     "params": {**wave["data"]["params"], "segment": WAVE_SEGMENT}}
        field_spec = {"generator": "bounded_field",
                      "params": {**field["data"]["params"], "test_grid": FIELD_GRID}}
        for name, spec in (("sdof", sdof["data"]), ("wave", wave_spec), ("field", field_spec)):
            path = work / f"{name}-spec.json"
            path.write_text(json.dumps(spec))
            _quiet_cli(["generate", str(path), "-o", str(data / name)])
        self.inputs = {
            "predict_sdof": (models / "sdof", data / "sdof" / "data.csv"),
            "predict_narx_osa": (models / "narx", data / "wave" / "data.csv"),
            "predict_field": (models / "field", data / "field" / "test.csv"),
        }

        _, model = model_io.load_model(models / "narx")
        header, table = model_io.read_csv(data / "wave" / "data.csv")
        u = table[:, [header.index("U"), header.index("Udot")]]
        y = table[:, header.index("y")]
        cfg = model.config
        p = cfg.first_index
        self.osa_truth = y[p:]
        u_test, y_test = u[-WAVE_SEGMENT:], y[-WAVE_SEGMENT:]
        self.free_run = (model, u_test[p - cfg.exog_lags:], y_test[p - cfg.auto_lags:p], y_test[p:])

        force = load_config("latent_force_3dof", k)
        force["data"]["params"]["force"]["n_samples"] = FORCE_SAMPLES
        force["model"].update(LATENT_FORCE)
        force["optimizer"] = None
        self.force = ExperimentConfig.from_dict(force)

    def ops(self, draw: int):
        ops = [(name, self.k, lambda name=name: self._predict(name)) for name in self.inputs]
        return ops + [("free_run", self.k, self._free_run),
                      ("estimate_force", self.k, self._estimate_force)]

    def work_done(self, ops) -> int:
        return sum(op["points"] for op in ops)

    def _predict(self, name):
        model_dir, data = self.inputs[name]
        out = self.work / "predictions" / f"{name}.csv"
        _quiet_cli(["predict", str(model_dir), str(data), "-o", str(out)])
        header, table = model_io.read_csv(out)
        mean = table[:, header.index("y_mean")]
        truth = table[:, header.index("y_true")] if "y_true" in header else self.osa_truth
        return {"nmse": nmse(truth, mean)}, len(mean)

    def _free_run(self):
        model, u, y_init, truth = self.free_run
        mean = narx.simulate_free_run(model, u, y_init=y_init)
        return {"nmse": nmse(truth, np.asarray(mean))}, len(mean)

    def _estimate_force(self):
        report = experiments.run_experiment(self.force, output_dir=self.work / "estimate_force")
        return ({"nmse": report.nmse_percent, "lml": report.log_marginal_likelihood},
                len(report.squared_errors))


WORKLOADS = {
    "narx_tune": lambda: TuneWorkload(["wave_narx_blackbox", "wave_narx_residual"]),
    "exact_gp_1d": lambda: TuneWorkload(["sdof_kernel_gp", "sdof_se_gp", "trend_linear_mean",
                                         "trend_zero_mean", "reduced_rank_field"]),
    "predict": PredictWorkload,
}
