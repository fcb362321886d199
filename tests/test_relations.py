"""Metamorphic relations: how an answer must move when its input moves.

A relation needs no second implementation of the physics; it compares the
program with itself on related inputs drawn from a seeded generator.
"""

import numpy as np
import pytest

from paradoxlab import epr, szilard

# Related sweep points differ by the rounding of a few gate applications on
# 32-entry state vectors, a few ulps of 1; this bound is far above that.
SWEEP_ATOL = 1e-12


def sweep_grid(thetas, phis) -> np.ndarray:
    p = [point.p_check_one for point in epr.sweep(thetas, phis)]
    return np.reshape(p, (len(thetas), len(phis)))


def test_epr_check_depends_on_the_angle_sum_alone():
    rng = np.random.default_rng(7)
    thetas, phis = rng.uniform(-2 * np.pi, 2 * np.pi, size=(2, 40))
    base = sweep_grid(thetas, phis)
    related = {"swapped": sweep_grid(phis, thetas).T,
               "theta + 2 pi": sweep_grid(thetas + 2 * np.pi, phis),
               "phi + 2 pi": sweep_grid(thetas, phis + 2 * np.pi)}
    for delta in rng.uniform(-np.pi, np.pi, size=3):
        related[f"shifted by {delta:+.3f}"] = sweep_grid(thetas + delta, phis - delta)
    gaps = {name: float(np.max(np.abs(grid - base))) for name, grid in related.items()}
    assert max(gaps.values()) <= SWEEP_ATOL, gaps


@pytest.mark.parametrize("skip_reset", [True, False])
def test_engine_run_is_a_prefix_of_a_longer_run(skip_reset):
    """A cycle depends only on the cycles before it, sampled totals included."""
    def run(cycles):
        cfg = szilard.SzilardConfig(cycles=cycles, skip_reset=skip_reset, depolarize_p=0.7)
        return szilard.run_cycles(cfg, shots=1000, seed=5)

    assert run(5) == run(12)[:5]
