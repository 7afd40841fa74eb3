"""The plain records: what a caller may rely on.

Each record is built by keyword, with its fields in a fixed order and some
defaulted; it cannot be assigned to after construction; and two records built
from equal values compare equal.  The contract is read through
``inspect.signature``, so it holds whatever builds the class.
"""

import inspect
from functools import partial

import numpy as np
import pytest

from mnlbandit.cli import RunJob
from mnlbandit.driver import PhaseState, RunResult, pac_exact
from mnlbandit.env import EpochBatch, _Plan, _Split
from mnlbandit.estimators import EstimateSet
from mnlbandit.model import Instance
from mnlbandit.oracle import OptimumSolution

_SPLIT = _Split(size=2, at=np.array([0, 1]), probs=np.array([0.25, 0.75]))
_EST = EstimateSet(
    items=(2,), m=1, zeta_lo=0.1, zeta_hi=0.2, nu_lo={2: 0.3}, nu_hi={2: 0.4},
    theta_lo=0.3, theta_hi=0.5, s_hi=(2,), xi_lo={2: -0.1}, xi_hi={2: 0.2}, epochs=8,
)

#: record -> (its required fields' values, its defaults), each in field order
RECORDS = {
    "OptimumSolution": (OptimumSolution, {"s_star": (1, 3), "theta_star": 0.5}, {}),
    "EpochBatch": (
        EpochBatch,
        {"requested": 4, "epochs": 4, "steps": 9, "x_sums": np.array([3, 2]),
         "z_sum": 1.5, "truncated": False},
        {"tracked": ()},
    ),
    "_Split": (_Split, {"size": 3, "at": np.array([0, 2]), "probs": np.array([0.5, 0.5])}, {}),
    "_Plan": (
        _Plan,
        {"tracked": (1, 2), "regret": 0.125, "q": 0.5, "items": _SPLIT, "stops": None,
         "stop_rewards": np.array([0.0])},
        {},
    ),
    "PhaseState": (
        PhaseState,
        {"k": 1, "a_set": (1,), "b_set": (2, 3), "eps_k": 0.5, "delta_k": 0.01, "alpha": 0.1,
         "beta": 0.2, "b_acc": (), "b_rej": (3,), "steps": 40, "est": _EST},
        {},
    ),
    "RunResult": (
        RunResult,
        {"assortment": (1, 2), "phases": ()},
        {"status": "ok"},
    ),
    "RunJob": (
        RunJob,
        {"inst": Instance(n=2, k=1, r=[1.0, 0.5], v=[0.5, 0.5]), "master_seed": 7,
         "drive": partial(pac_exact, delta=0.1), "eps": None, "horizon": None, "curve_rep": 0},
        {},
    ),
}


@pytest.mark.parametrize("cls, required, defaults", RECORDS.values(), ids=list(RECORDS))
def test_record_contract(cls, required, defaults):
    params = inspect.signature(cls).parameters
    assert list(params) == [*required, *defaults]
    assert {name: p.default for name, p in params.items() if p.default is not p.empty} == defaults
    record = cls(**required)
    assert all(getattr(record, name) is value for name, value in required.items())
    assert {name: getattr(record, name) for name in defaults} == defaults
    for name in (*params, "unlisted"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == cls(**required) == cls(*required.values())
