"""The benchmark's workloads: which seeded models each one generates and
which CLI commands one round runs on every model.

A round runs the whole command list on each of the workload's models. One
model per run would let the seed dominate the timing: the number of
surviving tuples, and with it run time, differs by about 5 % (standard
deviation) between seeds, so each round covers several models drawn from
the run's seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default lineshape, spelled out so the oracle check uses the same one.
SIGMA, ETA, WINDOW = 10.0, 1.0, 6.0
SHAPE_ARGS = ("--sigma", "10", "--eta", "1", "--window", "6",
              "--lineshape", "gaussian")
TEMPERATURE = 300.0
COMMON_ARGS = ("--temp", "300", "--threads", "1") + SHAPE_ARGS

TEMP_GRID = "5:400:6:log"
CUTOFF_GRID = "50:200:5"
LAMBDA_GRID = "0.5:64:5:log"

#: Largest seed accepted; model seeds are ``seed * 1000 + i``.
MAX_SEED = 2**53 // 1000


@dataclass(frozen=True)
class Workload:
    name: str
    #: gen-model flags apart from --seed and --output
    model_args: tuple[str, ...]
    #: models per round
    n_models: int
    #: lowest modes kept for the comparison with the naive oracle
    oracle_modes: int
    #: one argv per command of a round, without --input and --output
    commands: tuple[tuple[str, ...], ...]

    def model_seeds(self, seed: int) -> list[int]:
        """Model seeds drawn from the run seed; distinct seeds give distinct models."""
        if not 0 <= seed <= MAX_SEED:
            raise ValueError(f"seed must lie in [0, {MAX_SEED}]")
        return [seed * 1000 + i for i in range(self.n_models)]

    def gen_model_argv(self, model_seed: int, path: str) -> list[str]:
        return ["gen-model", "--seed", str(model_seed), *self.model_args,
                "--output", path]


_T1 = ("t1", "--orders", "2,4,6") + COMMON_ARGS

#: criterion-7 recipe: 300 modes over 20-560 cm^-1, coupling 0.3
_KERNEL_MODEL = ("--n-states", "2", "--n-modes", "300", "--freq-min", "20",
                 "--freq-max", "560", "--coupling-scale", "0.3")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("kernel-t1", _KERNEL_MODEL, n_models=8, oracle_modes=30,
                 commands=(_T1,)),
        Workload(
            "paper-sweeps",
            # README recipe: 120 modes over 20-200 cm^-1, coupling 0.5
            ("--n-states", "2", "--n-modes", "120", "--freq-min", "20",
             "--freq-max", "200", "--coupling-scale", "0.5"),
            n_models=4,
            oracle_modes=30,
            commands=(
                ("sweep-temp", "--orders", "4,6", "--grid", TEMP_GRID) + COMMON_ARGS,
                ("sweep-cutoff", "--orders", "6", "--grid", CUTOFF_GRID) + COMMON_ARGS,
                ("sweep-lambda", "--orders", "4,6", "--grid", LAMBDA_GRID)
                + COMMON_ARGS,
                ("crossover",) + COMMON_ARGS,
            ),
        ),
        Workload(
            "multilevel-t1",
            ("--n-states", "4", "--n-modes", "300", "--freq-min", "20",
             "--freq-max", "560", "--coupling-scale", "0.3"),
            n_models=3,
            oracle_modes=12,
            commands=(_T1,),
        ),
    )
}
