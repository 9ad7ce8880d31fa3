"""dtmv.records.checked: a NamedTuple record whose check runs on every
record built, however it is built."""

import copy
import inspect
import math
import pickle
import re

import pytest

from dtmv.analytic import GaussianPolicy, IterationFamily, MarketModel, ProblemSpec
from dtmv.evaluation import RollingSpec, SplitSpec
from dtmv.learner import Episode, HyperParams

SPEC = ProblemSpec(T=3, x0=1.0, b=1.1, lam=2.0)

# (a valid record, a field, a value of it that the record's check rejects, the message)
CASES = [
    (MarketModel(0.01, 0.05, 1.001), "sigma", 0.0, "sigma must be positive"),
    (MarketModel(0.01, 0.05, 1.001), "r_f", -1.0, "r_f must be positive"),
    (SPEC, "T", 0, "T must be an integer >= 1"),
    (SPEC, "T", 3.0, "T must be an integer >= 1"),
    (SPEC, "lam", 0.0, "lam must be positive"),
    (GaussianPolicy(0.0, 1.0), "variance", math.nan, "variance must be positive"),
    (IterationFamily(-0.5, 0.5, 1.2), "var_base", 0.0, "var_base must be positive"),
    (IterationFamily(-0.5, 0.5, 1.2), "var_ratio", -1.0, "var_ratio must be positive"),
    (HyperParams(SPEC), "eta_phi", math.inf, "eta_phi must be finite, got inf"),
    (HyperParams(SPEC), "episodes", -1, "episodes must be >= 0"),
    (HyperParams(SPEC), "refresh_every", 0, "refresh_every must be >= 1"),
    (HyperParams(SPEC), "alpha", 0.0, "learning rates must be positive"),
    (Episode((1.0, 1.1), (0.5,), (0.1,)), "controls", (), "episode arrays inconsistent"),
    (SplitSpec(10, 5), "test_episodes", 1, "need train_episodes >= 0 and test_episodes >= 2"),
    (RollingSpec((2004,)), "targets", (), "test_years and targets must be nonempty"),
    (RollingSpec((2004,)), "horizon_months", 0, "need window_months >= horizon_months >= 1"),
    (RollingSpec((2004,)), "test_months", 5, "test period shorter than two horizon windows"),
]


@pytest.mark.parametrize("record, field, bad, message", CASES)
def test_a_checked_record_runs_its_check_on_every_record_built(record, field, bad, message):
    """A call, _replace (which builds through _make, not __new__), _make,
    copying and unpickling each build the record through its check: a valid
    record comes back equal and of its class, a rejected value raises the
    check's own message."""
    cls, match = type(record), f"^{re.escape(message)}$"
    rebuilt = (cls(*record), cls(**record._asdict()), record._replace(), cls._make(record),
               copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)))
    for same in rebuilt:
        assert type(same) is cls and same == record
    values = {**record._asdict(), field: bad}
    forged = tuple.__new__(cls, values.values())  # past the check, as no caller builds one
    for build in (lambda: cls(**values), lambda: record._replace(**{field: bad}),
                  lambda: cls._make(values.values()), lambda: copy.copy(forged),
                  lambda: pickle.loads(pickle.dumps(forged))):
        with pytest.raises(ValueError, match=match):
            build()


@pytest.mark.parametrize("cls", sorted({type(record) for record, *_ in CASES}, key=repr))
def test_a_checked_record_keeps_its_signature_and_fields(cls):
    """The check's wrapper keeps the record's call signature (what help()
    and inspect show) and its NamedTuple fields and defaults."""
    assert list(inspect.signature(cls).parameters) == list(cls._fields)
    for name, default in cls._field_defaults.items():
        assert inspect.signature(cls).parameters[name].default == default
