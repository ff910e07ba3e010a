"""Property test of the declared parameter domains (Hypothesis; MacIver et al.,
JOSS 4(43), 1891, 2019).

Every parameter is one number or one name, and its domain an interval or a
set. Every parameter of an experiment is drawn inside its domain (zbw's
`samples` at no fewer than 20 per period), and at most one is then redrawn
just outside it (or, for `particle`, a name the catalog lacks). A run inside
every domain must end with a non-empty list of claims, all computed values
finite; a run with one value outside must fail with a ValueError that names
that parameter, before any claim is computed. With the one tolerance
parameter, zbw's `omega_tol`, held at its default, a run inside every domain
must pass every claim.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qmbh_lab import experiments
from qmbh_lab.experiments import EXPERIMENTS

# loosening or tightening this moves a claim's bound, not its computation
TOLERANCES = ("omega_tol",)


def _inside(p):
    if p.choices is not None:
        return st.sampled_from(p.choices)
    if isinstance(p.default, int):
        return st.integers(p.lo, p.hi)
    return st.floats(p.lo, p.hi, exclude_min=p.lo_open)


def _outside(p):
    if p.choices is not None:  # the particle names
        return st.sampled_from(["neutrino", "positronium"])
    if isinstance(p.default, int):
        return st.sampled_from([p.lo - 1, p.hi + 1])
    below = p.lo if p.lo_open else math.nextafter(p.lo, -math.inf)
    return st.sampled_from([below, math.nextafter(p.hi, math.inf)])


@st.composite
def _draws(draw, exp, inside_only=False):
    """(params, the parameter drawn outside its domain or None); with
    `inside_only`, every value is inside and the tolerances keep their
    defaults."""
    params = {}
    for key, p in exp.params.items():
        if inside_only and key in TOLERANCES:
            continue
        if key == "samples":  # zbw's rule: at least 20 samples per period
            strategy = st.integers(max(p.lo, math.ceil(20 * params["periods"])), p.hi)
        else:
            strategy = _inside(p)
        params[key] = draw(strategy)
    if inside_only or not exp.params:  # st.sampled_from([]) is invalid
        return params, None
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


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_run_inside_every_domain_passes(tmp_path, exp_id):
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(_draws(EXPERIMENTS[exp_id], inside_only=True))
    def check(case):
        params, _ = case
        report = experiments.run(experiments.ExperimentSpec(exp_id, params, tmp_path))
        assert report.status == "pass", (
            params, report.error, [c.id for c in report.claims if not c.passed])

    check()
