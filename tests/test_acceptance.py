"""Acceptance properties of the inner problem and the action back-ends.

Randomized instances, all drawn in one fixed order from one
`default_rng(0)` stream, so each property sees the same instances on every
run:

* the multiplier LP equals the penalized-mean primal (strong duality of the
  inner problem);
* the batched parametric solve equals the LP route, action by action;
* at L = M = 1 the unary MIP equals enumeration and McCormick bounds both
  from above;
* random LPs pass the textbook strong-duality check;
* every action enumeration picks in backward induction is a corner of the
  action box;
* McCormick backward induction bounds enumeration's from above, strictly
  somewhere, with the same root value.

All tolerances are 1e-6 relative to 1 + |value|, except the McCormick gap's
1e-9.
"""

from functools import cache

import numpy as np

from epiplan import lp as lp_module
from epiplan.backup import (
    drmdp_backup_enumerate,
    drmdp_backup_mccormick,
    drmdp_backup_unary,
    inner_value_parametric,
)
from epiplan.lp import LinearProgram
from epiplan.model import EpidemicModel, lattice_state_index
from epiplan.plan import PlannerConfig, backward_dp
from epiplan.rules import AmbiguityConfig, DecisionRuleCoefficients, design_matrix, mean_bounds
from epiplan.seir import Action, EpidemicParams
from oracles import inner_primal_oracle, lp_duality_check

TOL = 1e-6
LAM = 0.95


def _coeffs(rng, m):
    base = rng.random(m)
    base /= base.sum()
    mean = np.vstack([base, rng.normal(scale=0.1, size=m),
                      rng.normal(scale=0.1, size=m)])
    eps = np.array([-rng.random() * 20, -rng.random(), -rng.random()])
    return DecisionRuleCoefficients(np.arange(m), mean, 0.05, eps)


def _inner_instance(rng, m_range, v_scale, ks):
    m = int(rng.integers(*m_range))
    coeffs = _coeffs(rng, m)
    v = -rng.random(m) * v_scale
    k = float(rng.choice(ks))
    return coeffs, v, k


@cache
def instances():
    """Every property's instances, drawn in order from one stream."""
    rng = np.random.default_rng(0)
    out = {}
    out["dual_primal"] = [_inner_instance(rng, (1, 8), 50, [0.0, 1.0, 1e3, 1e6])
                          for _ in range(40)]
    out["parametric_lp"] = [_inner_instance(rng, (1, 8), 50, [0.0, 1.0, 1e3, 1e6])
                            for _ in range(10)]
    out["unary_mccormick"] = [_inner_instance(rng, (2, 6), 30, [1.0, 1e3])
                              for _ in range(15)]
    lps = []
    for _ in range(10):
        n, mrows = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        c = rng.normal(size=n)
        A = rng.normal(size=(mrows, n))
        b = rng.random(mrows) + 0.5
        lps.append(LinearProgram(c, A, b))
    out["lps"] = lps
    return out


def test_dual_equals_primal():
    for trial, (coeffs, v, k) in enumerate(instances()["dual_primal"]):
        dual, _ = drmdp_backup_enumerate(coeffs, [Action(0, 0)], v, LAM, k, method="lp",
                                         X=design_matrix([Action(0, 0)]))
        primal = inner_primal_oracle(coeffs, Action(0, 0), v, LAM, k)
        assert abs(dual - primal) <= TOL * (1.0 + abs(dual)), (trial, dual, primal)


def test_batched_parametric_equals_lp_route():
    actions = [Action(a, b) for a in range(3) for b in range(3)]
    X = design_matrix(actions)
    for trial, (coeffs, v, k) in enumerate(instances()["parametric_lp"]):
        fast = X @ coeffs.eps + inner_value_parametric(*mean_bounds(coeffs, X), LAM * v, k)
        for a, got in zip(actions, fast):
            dual, _ = drmdp_backup_enumerate(coeffs, [a], v, LAM, k, method="lp",
                                             X=design_matrix([a]))
            assert abs(dual - got) <= TOL * (1.0 + abs(dual)), (trial, a, dual, got)


def test_unary_equals_enumeration_below_mccormick():
    actions = [Action(a, b) for a in range(2) for b in range(2)]
    for trial, (coeffs, v, k) in enumerate(instances()["unary_mccormick"]):
        e, _ = drmdp_backup_enumerate(coeffs, actions, v, LAM, k, method="parametric",
                                      X=design_matrix(actions))
        un, _ = drmdp_backup_unary(coeffs, v, LAM, k, L=1, M=1)
        mc, _ = drmdp_backup_mccormick(coeffs, v, LAM, k, L=1, M=1)
        scale = 1.0 + abs(e)
        assert abs(un - e) <= TOL * scale, (trial, un, e)
        assert mc >= un - TOL * scale, (trial, mc, un)


def test_strong_duality_of_random_lps():
    checked = 0
    for trial, lp in enumerate(instances()["lps"]):
        rep = lp_duality_check(lp, tol=TOL)
        if rep.status == "checked":
            assert rep.ok, (trial, rep)
            checked += 1
    assert checked == 6  # the other four draws are unbounded


@cache
def dp_mip_small():
    """The model of the dp-mip-small size (N=100, Y=5, L=M=2, T=5) and its
    backward induction under enumeration."""
    model = EpidemicModel(EpidemicParams(N=100, L=2, M=2, T=5), 5, AmbiguityConfig())
    return model, backward_dp(model, PlannerConfig(backend="drmdp-enumerate"))


def test_enumeration_argmax_is_a_corner():
    # For fixed multipliers the backup objective is affine in the action and
    # the multiplier polytope does not depend on it, so the backup value is
    # convex in the action and the first maximizer in action order is a
    # vertex of [0, L] x [0, M].
    model, table = dp_mip_small()
    L, M = model.params.L, model.params.M
    assert len(table.actions) == 4 * len(model.grid.in_S_indices())
    off_corner = {key: a for key, a in table.actions.items()
                  if a.y_V not in (0, L) or a.y_R not in (0, M)}
    assert off_corner == {}


def test_mccormick_gap_at_dp_mip_small(monkeypatch):
    # The McCormick MIP relaxes the bilinear products, so its backward
    # induction bounds enumeration's from above.  The gap is real: some
    # entries sit strictly above (83 of the 224 simplex entries by more than
    # 1e-9 relative; it picks the interior level (1, 0) at 43 of the 224),
    # while the root value agrees.  The simplex's path at this size is pinned
    # too: 260 LP solves (224 roots, 36 branch-and-bound children) and 6,563
    # pivots.
    model, exact = dp_mip_small()
    pivots = []
    real_solve_lp = lp_module.solve_lp

    def counting_solve_lp(lp):
        sol = real_solve_lp(lp)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(lp_module, "solve_lp", counting_solve_lp)
    relaxed = backward_dp(model, PlannerConfig(backend="drmdp-mccormick"))
    assert (len(pivots), sum(pivots)) == (260, 6563)
    assert len(exact.values) == len(relaxed.values) == 224
    gaps = {key: (relaxed.values[key] - e) / (1.0 + abs(e))
            for key, e in exact.values.items()}
    assert min(gaps.values()) >= -1e-9
    assert sum(g > 1e-9 for g in gaps.values()) >= 1
    root = (lattice_state_index(model, 0.6, 0.2, 0.2), 1)
    assert abs(gaps[root]) <= 1e-9


def test_penalty_slack_census():
    # Planner agreement assumes every ambiguity set is nonempty, that is, zero
    # penalty slack.  At each benchmark size many states, and every
    # benchmark's initial state, have positive slack.  Per size: (states with
    # positive slack, simplex states), the largest slack, and the slack at
    # initial states, to two decimals.
    census = [
        (EpidemicModel(EpidemicParams(), 10, AmbiguityConfig()), (212, 286), 250.0,
         {(0.7, 0.1, 0.2): 83.25, (0.6, 0.1, 0.3): 69.07}),
        (dp_mip_small()[0], (29, 56), 183.33, {(0.6, 0.2, 0.2): 54.67}),
        (EpidemicModel(EpidemicParams(N=300), 8, AmbiguityConfig()), (113, 165), 250.0,
         {(0.75, 0.125, 0.125): 67.46}),
    ]
    for model, positive, largest, at_initial in census:
        model.compile_all()
        slack = np.array([model.penalty_slack(int(i)) for i in model.grid.in_S_indices()])
        assert (int((slack > 0).sum()), len(slack)) == positive
        assert round(float(slack.max()), 2) == largest
        for state, want in at_initial.items():
            assert round(model.penalty_slack(lattice_state_index(model, *state)), 2) == want
