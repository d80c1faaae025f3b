import json
from pathlib import Path

import numpy as np
import pytest

import saddlekit as sk
from saddlekit.harness import _fd_gradient as fd_gradient  # noqa: F401  (imported by the test modules)


@pytest.fixture(scope="session")
def three_hole():
    return sk.make_builtin("three_hole")


@pytest.fixture(scope="session")
def double_well2():
    return sk.make_builtin("double_well", {"mu": 2.0})


@pytest.fixture(scope="session")
def sphere_quad():
    return sk.make_builtin("sphere_quadratic")


@pytest.fixture(scope="session")
def morse():
    return sk.make_builtin("morse_island")


@pytest.fixture(scope="session")
def morse_saddle():
    """A verified index-1 saddle of the default Morse island, stored with the benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "morse_saddle.json"
    return np.asarray(json.loads(path.read_text())["x"], dtype=float)


def make_index2_cubic(l1=-0.8, l2=-0.5, l3=2.0, c1=0.3, c2=0.4, c3=0.2, c4=0.25):
    """3-d non-quadratic surface with an exact index-2 point at the origin."""

    def energy(x):
        return (0.5 * (l1 * x[0] ** 2 + l2 * x[1] ** 2 + l3 * x[2] ** 2)
                + c1 * x[0] ** 2 * x[1] + c2 * x[0] * x[1] * x[2]
                + c3 * (x[0] ** 3 + x[1] ** 3)
                + c4 * (x[0] ** 4 + x[1] ** 4 + x[2] ** 4))

    def grad(x):
        return np.array([
            l1 * x[0] + 2 * c1 * x[0] * x[1] + c2 * x[1] * x[2]
            + 3 * c3 * x[0] ** 2 + 4 * c4 * x[0] ** 3,
            l2 * x[1] + c1 * x[0] ** 2 + c2 * x[0] * x[2]
            + 3 * c3 * x[1] ** 2 + 4 * c4 * x[1] ** 3,
            l3 * x[2] + c2 * x[0] * x[1] + 4 * c4 * x[2] ** 3,
        ])

    def hvec(x, u):
        H = np.array([
            [l1 + 2 * c1 * x[1] + 6 * c3 * x[0] + 12 * c4 * x[0] ** 2,
             2 * c1 * x[0] + c2 * x[2], c2 * x[1]],
            [2 * c1 * x[0] + c2 * x[2],
             l2 + 6 * c3 * x[1] + 12 * c4 * x[1] ** 2, c2 * x[0]],
            [c2 * x[1], c2 * x[0], l3 + 12 * c4 * x[2] ** 2],
        ])
        return H @ u

    return sk.PotentialModel(
        name="index2_cubic",
        dimension=3,
        energy_fn=energy,
        gradient_fn=grad,
        hessian_vec_fn=hvec,
        stationary_points=((np.zeros(3), 2),),
    )
