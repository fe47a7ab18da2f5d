"""The benchmark's workloads: one fracch run document per (workload, seed).

The seed draws the four cosine amplitudes of the initial state ``y0``
around the README values (0.1, 0.4, 0.2, 0).  Every amplitude moves by at
most the workload's ``jitter`` (0.05 or less), so ``|y0| <= 0.9 < 1``
everywhere and the mean stays in [0.05, 0.15], strictly inside the domain
of every graph used here; the dynamics, and with them the Newton work per
step, stay close from seed to seed.  The grid-513 run is short enough for
its start to matter: with a jitter of 0.05 its Newton iteration count,
and with it the simulate time, moved by 24% across the inputs, with 0.01
by 7%.  Inputs repeat with period ``INPUTS`` in the seed, so that every
input has stored reference values in ``references.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

INPUTS = 16
BASE_AMPLITUDES = (0.1, 0.4, 0.2, 0.0)

_OPERATOR = """[{section}]
kind = neumann
modes = {modes}
length = 4.0
grid_points = {grid}
exponent = 0.5
"""

_OBSTACLE = """[potential]
name = obstacle
c2 = 1.0

[scheme]
tau = 0.25
yosida_lambda = 1e-3
h = 0.01
steps = {steps}

[data]
y0 = cosine {y0}
source = decay 0.5
u_inf = constant 0
u_bump = cosine 0 0.05
"""

_LOGARITHMIC = """[potential]
name = logarithmic
c1 = 1.1

[scheme]
tau = 0.5
yosida_lambda = 1e-4
h = 0.02
steps = {steps}

[data]
y0 = cosine {y0}
source = zero
"""

_TAIL = """[output]
snapshots = {snapshots}

[run]
seed = {seed}
"""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed problem whose initial state the seed draws.

    Why each workload was chosen is recorded in ``BENCHMARK.json``.
    """

    name: str
    grid: int
    modes: int
    steps: int
    snapshots: str
    physics: str
    jitter: float = 0.05

    def input_index(self, seed: int) -> int:
        return seed % INPUTS

    def amplitudes(self, seed: int) -> list:
        rng = random.Random(f"{self.name}/{self.input_index(seed)}")
        return [a + rng.uniform(-self.jitter, self.jitter) for a in BASE_AMPLITUDES]

    def config_text(self, seed: int) -> str:
        y0 = " ".join(repr(a) for a in self.amplitudes(seed))
        return "\n".join((
            _OPERATOR.format(section="operator_a", modes=self.modes, grid=self.grid),
            _OPERATOR.format(section="operator_b", modes=self.modes, grid=self.grid),
            self.physics.format(steps=self.steps, y0=y0),
            _TAIL.format(snapshots=self.snapshots, seed=seed),
        ))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="canonical-obstacle",
        grid=129, modes=64, steps=1000, snapshots="every 5", physics=_OBSTACLE,
    ),
    Workload(
        name="obstacle-513",
        grid=513, modes=256, steps=150, snapshots="log 65", physics=_OBSTACLE, jitter=0.01,
    ),
    Workload(
        name="log-well",
        grid=129, modes=64, steps=250, snapshots="log 65", physics=_LOGARITHMIC,
    ),
)}
