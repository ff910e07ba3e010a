"""Property test of the declared parameter domains (Hypothesis; MacIver et al.,
JOSS 4(43), 1891, 2019).

Every parameter of an experiment is drawn inside its domain, and at most one
is then redrawn just outside it (or, for `particle`, a massless or unknown
name). A run inside every domain must end with a non-empty list of claims,
all computed values finite; a run with one value outside must fail with a
ValueError that names that parameter, before any claim is computed.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qmbh_lab import experiments
from qmbh_lab.experiments import EXPERIMENTS


def _inside(p):
    if p.choices is not None:
        return st.sampled_from(p.choices)
    if p.lo is None:  # widths: 1 and 100 plus up to four more entries
        return st.lists(st.floats(0.01, 1e4), max_size=4).map(
            lambda ws: ":".join(map(repr, sorted({1.0, 100.0, *ws}))))
    if isinstance(p.default, int):
        return st.integers(p.lo, p.hi)
    return st.floats(p.lo, p.hi, exclude_min=p.lo_open)


def _outside(p):
    if p.choices is not None:
        if isinstance(p.default, str):
            return st.sampled_from(["neutrino", "positronium"])
        return st.integers(1, 1 << 13).filter(lambda v: v not in p.choices)
    if p.lo is None:
        return st.sampled_from(["1:2", "0.005:1:100", "1:100:2e4", "1:100:5",
                                ":".join(map(str, range(1, 101)))])
    if isinstance(p.default, int):
        return st.sampled_from([p.lo - 1, p.hi + 1])
    below = p.lo if p.lo_open else math.nextafter(p.lo, -math.inf)
    return st.sampled_from([below, math.nextafter(p.hi, math.inf)])


@st.composite
def _draws(draw, exp):
    params = {key: draw(st.sampled_from([128, 256]) if key == "grid" else _inside(p))
              for key, p in exp.params.items()}
    bad = draw(st.one_of(st.none(), st.sampled_from(list(exp.params))))
    if bad is not None:
        params[bad] = draw(_outside(exp.params[bad]))
    return params, bad


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_run_gives_finite_claims_or_names_the_rejected_parameter(tmp_path, exp_id):
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(_draws(EXPERIMENTS[exp_id]))
    def check(case):
        params, bad = case
        report = experiments.run(experiments.ExperimentSpec(exp_id, params, tmp_path))
        if bad is None:
            assert report.error == "", params
            assert report.claims, params
            assert all(math.isfinite(c.computed) for c in report.claims), params
        else:
            assert report.error.startswith(
                f"{exp_id}: ValueError: parameter {bad!r}"), (params, report.error)
            assert report.claims == []

    check()
