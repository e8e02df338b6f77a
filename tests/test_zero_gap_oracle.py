"""The zero-gap scenario: an exact oracle for the certificate.

With no income (example1 with ``scenario.y0 = 0``) the Merton-Richard
stock share of 5/6 of wealth lies inside the constraint [0, W], so the
zero adjustment is optimal, the feedback strategy is optimal in
continuous time, and the true value is J* = J~(v = 0) at grid
convergence (Merton 1971; Richard 1975).  A reported bound can then be
held against the truth instead of against the other bound.

The checks land one per estimator change (ROADMAP items 3, 5, 7 and
8).  The first is the upper bound's grid: the optimizer's 100-interval
search value lies 3.8e-4 below J*, so it is no bound; on the path grid
of 1,000 steps it lies 3.8e-6 below.  The certificate itself is not
checked: it reads ``crossed`` while the stream is unscrambled (ROADMAP
item 3).
"""

import csv
import dataclasses

import pytest

from lifedual.cli import main
from lifedual.closed_form import compute_g, origin_upper_bound
from lifedual.drift_policy import make_policy
from lifedual.market import preset_scenario
from lifedual.quadrature import UniformGrid

# a small protocol: the path grid is the desk's 1,000 steps
ZERO_INCOME_CFG = """\
scenario.preset = example1
scenario.y0 = 0
opt.num_starts = 2
opt.iterations_per_start = 20
sim.n_paths = 1024
sim.n_steps = 1000
"""


@pytest.fixture(scope="module")
def j_star():
    """J~ of the zero adjustment at n = 12,800, 2.3e-8 below its grid limit."""
    sc = dataclasses.replace(preset_scenario("example1"), Y0=0.0)
    zero = make_policy("affine", [0.0] * 8, t_retire=sc.T_R)
    return origin_upper_bound(compute_g(sc, UniformGrid(0.0, sc.T, 12_800)), zero)


def test_oracle_value(j_star):
    assert j_star == pytest.approx(-20.6457028, abs=1e-7)


def test_reported_upper_bound_is_within_1e_5_of_the_optimum(tmp_path, j_star):
    cfg = tmp_path / "zero_income.cfg"
    cfg.write_text(ZERO_INCOME_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == 0
    with open(out / "bounds.csv", newline="", encoding="utf-8") as fh:
        upper = float(next(csv.DictReader(fh))["upper_bound"])
    assert abs(upper - j_star) <= 1e-5, f"upper {upper:.9f} vs J* {j_star:.9f}"
