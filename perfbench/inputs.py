"""Set-up step of the benchmark: write one workload's input files.

Run as a child process of ``run.py`` (``python3 perfbench/inputs.py
<workload> <seed> <dir>``) so that its wall time, interpreter start-up
included, is the workload's set-up time.  The inputs depend only on the
workload and the seed; the program under test receives them only as files.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crosp import chart_point_oct, io, make_space, parse_space, sample_uniform  # noqa: E402
from crosp.spaces import geodesic_matrix  # noqa: E402

# (file name, space code, N) of the uniform point sets each workload reads
POINT_SETS = {
    "closed-n4000": [("s2.json", "s2", 4000), ("hp2.json", "hp2", 4000)],
    "mc-hp2": [("hp2.json", "hp2", 100)],
    "series-certify": [("s2.json", "s2", 150)],
}
# N of the octonionic distance-matrix CSV each workload reads
OP2_MATRICES = {"series-certify": ("op2.csv", 100)}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def op2_distance_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Geodesic matrix of n octonionic points from Gaussian chart coordinates."""
    pts = np.stack([chart_point_oct(rng.standard_normal(8), rng.standard_normal(8)).data
                    for _ in range(n)])
    dm = geodesic_matrix(make_space("op", 2), pts)
    np.fill_diagonal(dm, 0.0)  # arccos of a rounded 1 need not be exactly 0
    return dm


def write_inputs(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for stream, (name, code, n) in enumerate(POINT_SETS[workload]):
        pts = sample_uniform(parse_space(code), n, _rng(seed, stream),
                             label=f"perfbench-{code}-{n}")
        io.save_pointset(out / name, pts)
    if workload in OP2_MATRICES:
        name, n = OP2_MATRICES[workload]
        io.save_distance_matrix(out / name, op2_distance_matrix(n, _rng(seed, 100)))


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in POINT_SETS:
        sys.exit(f"usage: inputs.py {{{','.join(POINT_SETS)}}} SEED DIR")
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
