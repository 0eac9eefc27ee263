"""Each exception type in ike_lab.errors stands for one fault that the
package raises, and floats are added in order whatever the Python version."""

import ast
from pathlib import Path

import numpy as np
import pytest

import ike_lab
from ike_lab import errors, oracles, trainer
from ike_lab.errors import LabError, ordered_sum
from ike_lab.evaluation import MetricsReport
from ike_lab.losses import LossBreakdown

SOURCE = Path(ike_lab.__file__).parent


# The names that the package's code uses: its class statements and import
# lines define or bind names without using them.
USED_NAMES = {
    node.id
    for path in SOURCE.glob("*.py")
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, ast.Name)
}


ERROR_TYPES = sorted(
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, LabError) and value is not LabError
)


@pytest.mark.parametrize("name", ERROR_TYPES)
def test_every_error_type_is_exported_and_used(name):
    # A type that no code raises, or passes on as the type to raise, names
    # a fault nothing reports. errors.index_array is the one raise site of
    # IndexOutOfRange, so errors.py counts too.
    assert getattr(ike_lab, name) is getattr(errors, name)
    assert name in USED_NAMES


def test_floats_add_in_order(monkeypatch):
    # From Python 3.12 sum() of floats is compensated, and it gives 1.0 on
    # [0.1] * 10 and on the loss terms below, where adding in order gives
    # 0.9999999999999999 and 0.0.
    in_order = 0.9999999999999999
    assert ordered_sum([0.1] * 10) == in_order
    assert MetricsReport([0.1] * 10, [1] * 10, [None] * 10).mean_map == in_order / 10
    assert LossBreakdown(1e16, 1.0, -1e16, 0.0).total == 0.0
    assert trainer._mean_breakdown([LossBreakdown(id=0.1)] * 10).id == in_order / 10
    monkeypatch.setattr(oracles, "ap_oracle", lambda scores, relevance: 0.1)
    assert oracles.map_oracle(np.eye(10), [0] * 10, list(range(10)), "none") == in_order / 10
