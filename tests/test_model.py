"""Parameter validation and derived constants."""
import dataclasses
import json
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from mixedfbm import fredholm as fr
from mixedfbm import gaussian_sim as gs
from mixedfbm.cli import main
from mixedfbm.errors import DomainError
from mixedfbm.harness import ExperimentConfig
from mixedfbm.kernels import KernelContext
from mixedfbm.model import HurstPair, ModelParams, check_int, derive_constants


def constants_for(h1, h2, sigma=1.0):
    return derive_constants(ModelParams(hurst=HurstPair(h1, h2), sigma=sigma))


class TestHurstPair:
    def test_valid_pair(self):
        hp = HurstPair(0.6, 0.9)
        assert hp.h1 == 0.6 and hp.h2 == 0.9

    @pytest.mark.parametrize("h1,h2,fragment", [
        (0.5, 0.9, "h1"),
        (0.45, 0.9, "h1"),
        (0.7, 0.7, "h2"),
        (0.7, 0.65, "h2"),
        (0.6, 1.0, "h2"),
    ])
    def test_invalid_pairs_name_the_inequality(self, h1, h2, fragment):
        with pytest.raises(DomainError) as exc:
            HurstPair(h1, h2)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("h1,h2,field", [
        ("0.6", 0.9, "h1"), (0.6, "0.9", "h2"), (None, 0.9, "h1"),
        (0.6, [0.9], "h2"), (0.6, math.nan, "h2"), (math.nan, 0.9, "h1"),
    ])
    def test_pairs_of_non_numbers_raise_domain_error(self, h1, h2, field):
        with pytest.raises(DomainError, match=field):
            HurstPair(h1, h2)

    def test_solver_admissibility_gate(self):
        assert HurstPair(0.6, 0.9).solver_admissible
        assert HurstPair(0.6, 0.851).solver_admissible
        assert not HurstPair(0.6, 0.7).solver_admissible
        assert not HurstPair(0.6, 0.85).solver_admissible
        HurstPair(0.55, 0.95).require_solver_admissible()
        with pytest.raises(DomainError):
            HurstPair(0.7, 0.9).require_solver_admissible()

    def test_params_validation(self):
        hp = HurstPair(0.6, 0.9)
        with pytest.raises(DomainError):
            ModelParams(hurst=hp, sigma=0.0)
        with pytest.raises(DomainError):
            ModelParams(hurst=hp, sigma=-1.0)
        with pytest.raises(DomainError):
            ModelParams(hurst=hp, horizon_T=0.0)

    @pytest.mark.parametrize("field,value", [
        ("sigma", math.inf), ("sigma", math.nan), ("sigma", "1"),
        ("theta", math.inf), ("theta", -math.inf), ("theta", math.nan),
        ("theta", "a"), ("horizon_T", math.inf), ("horizon_T", math.nan),
        ("horizon_T", None),
    ])
    def test_params_reject_non_finite_or_non_numbers(self, field, value):
        with pytest.raises(DomainError, match=field):
            ModelParams(hurst=HurstPair(0.6, 0.9), **{field: value})

    @pytest.mark.parametrize("field", ["h1", "h2", "sigma", "theta",
                                       "horizon_T"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bools_are_not_numbers(self, field, flag):
        # bool is a numbers.Real, so True would pass as 1 and False as 0
        kwargs = {"h1": 0.6, "h2": 0.9, field: flag}
        with pytest.raises(DomainError,
                           match=f"require a (finite )?number {field}"):
            pair = HurstPair(kwargs.pop("h1"), kwargs.pop("h2"))
            ModelParams(hurst=pair, **kwargs)


class TestDerivedConstants:
    def test_alpha_exact(self):
        cons = constants_for(0.75, 0.9)
        assert cons.alpha_h1 == 0.75 * 0.5
        assert cons.alpha_h1 == 0.375

    def test_script_b_gamma_ratio(self):
        # B(3/4, 3/4) through an independent gamma-function route
        cons = constants_for(0.75, 0.9)
        expect = sp_gamma(0.75) ** 2 / sp_gamma(1.5)
        assert math.isclose(cons.script_b, expect, rel_tol=1e-12)

    # frozen from the weighted double-integral variance oracle: gamma^2
    # equals the squared normalizer that makes the bridged martingale
    # variance come out as epsilon * t^(2-2h1)
    @pytest.mark.parametrize("h1,gamma,eps", [
        (0.55, 1.0486395177434811, 1.2218275979703118),
        (0.60, 1.0939107049858326, 1.4958007881032516),
        (0.70, 1.1670995593473755, 2.2702023023813966),
        (0.75, 1.1880764747190656, 2.8230514195617652),
    ])
    def test_gamma_and_epsilon_frozen(self, h1, gamma, eps):
        cons = constants_for(h1, 0.96)
        assert math.isclose(cons.gamma_h1, gamma, rel_tol=1e-12)
        assert math.isclose(cons.epsilon_h1, eps, rel_tol=1e-12)

    def test_gamma_closed_form_identity(self):
        # beta_h * B(h-1/2, 3/2-h) squared == 2h G(3/2-h)^3 G(h+1/2) / G(2-2h)
        for h1 in np.linspace(0.52, 0.93, 12):
            cons = constants_for(h1, 0.97)
            g2 = (2.0 * h1 * sp_gamma(1.5 - h1) ** 3 * sp_gamma(h1 + 0.5)
                  / sp_gamma(2.0 - 2.0 * h1))
            assert math.isclose(cons.gamma_h1 ** 2, g2, rel_tol=1e-12)
            assert math.isclose(cons.epsilon_h1,
                                cons.gamma_h1 ** 2 / (2.0 - 2.0 * h1),
                                rel_tol=1e-14)

    def test_drift_normalizer_wiring(self):
        cons = constants_for(0.6, 0.9, sigma=2.0)
        g, b = cons.gamma_h1, cons.script_b
        assert math.isclose(cons.delta_paper, 0.8 * b / (2.0 * g), rel_tol=1e-14)
        assert math.isclose(cons.drift_norm, 0.8 * b / (2.0 * g * g), rel_tol=1e-14)
        assert math.isclose(cons.drift_norm, cons.delta_paper / g, rel_tol=1e-14)

    def test_scale_functions(self):
        cons = constants_for(0.6, 0.9, sigma=2.0)
        gap = 2.0 * (0.9 - 0.6)
        for T in (1.0, 5.0, 125.0):
            assert math.isclose(cons.lambda_of_T(T),
                                T ** gap / (4.0 * cons.gamma_h1 ** 2),
                                rel_tol=1e-14)

    @pytest.mark.parametrize("sigma, T", [(1e-200, 1.0), (1e200, 1.0),
                                          (1e-150, 1e300)])
    def test_coupling_beyond_the_float_range_is_a_domain_error(self, sigma, T):
        # sigma^2 gamma^2 underflows to 0 or overflows, or the coupling
        # does; sigma = 1e100 (coupling 1.3e-200) stays in range
        cons = constants_for(0.6, 0.9, sigma=sigma)
        with pytest.raises(DomainError, match="coupling"):
            cons.lambda_of_T(T)
        assert 0.0 < constants_for(0.6, 0.9, sigma=1e100).lambda_of_T(1.0) < 1e-199

    def test_constants_pickle_round_trip(self):
        cons = constants_for(0.6, 0.9, sigma=1.5)
        back = pickle.loads(pickle.dumps(cons))
        assert back == cons
        for T in (0.3, 1.0, 125.0):
            assert back.lambda_of_T(T) == cons.lambda_of_T(T)

    def test_as_dict_serializable(self):
        cons = constants_for(0.6, 0.9)
        d = cons.as_dict()
        assert d["h1"] == 0.6 and d["h2"] == 0.9
        for v in d.values():
            assert isinstance(v, float)

    def test_same_model_tolerances(self):
        # one comparison for the solve, its record and mle: the pair to
        # 1e-12 absolute, the coupling at T to 1e-12 relative
        cons = constants_for(0.6, 0.9, sigma=1.5)
        lam = cons.lambda_of_T(5.0)
        def pair(h1, h2):
            return SimpleNamespace(h1=h1, h2=h2)
        assert cons.same_model(cons.hurst)
        assert cons.same_model(pair(0.6 + 5e-13, 0.9 - 5e-13), 5.0,
                               lam * (1 + 5e-13))
        assert not cons.same_model(pair(0.6 + 2e-12, 0.9))
        assert not cons.same_model(pair(0.6, 0.9 - 2e-12))
        for other in (lam * (1 + 2e-12), math.nan, math.inf):
            assert not cons.same_model(cons.hurst, 5.0, other)


# ------------------------------------------- one scalar check per input

@pytest.fixture(scope="module")
def small_solve():
    cons = constants_for(0.6, 0.9)
    op = fr.assemble(KernelContext(constants=cons), fr.build_grid(64))
    return cons, op, fr.solve_second_kind(op, 1.0, cons, residual_tol=1.0)


def _cli(command, key, *argv):
    """The CLI with ``key`` set in a config file; DomainError on exit 2."""
    def call(ctx, value):
        if isinstance(value, np.generic):
            value = value.item()
        cfg = ctx.tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main([command, "--config", str(cfg), *argv,
                     "--out", str(ctx.tmp_path / "out")])
        err = ctx.capsys.readouterr().err
        if code == 2:
            raise DomainError(err)
        assert code == 0, err
    return call


def _record(ctx, **changes):
    return dataclasses.replace(ctx.sol, **changes)


_T = np.linspace(0.0, 1.0, 33)
_PAIR = HurstPair(0.6, 0.9)

# every scalar entry point: id, kind, a value it reads (or its function
# of ctx), read as a numpy scalar, and the call of it with one value;
# ctx holds the solve, tmp_path and capsys
_ENTRY_POINTS = [
    ("HurstPair-h1", "real", 0.6, lambda ctx, v: HurstPair(v, 0.9)),
    ("HurstPair-h2", "real", 0.9, lambda ctx, v: HurstPair(0.6, v)),
    *[(f"ModelParams-{name}", "real", 1.0,
       lambda ctx, v, name=name: ModelParams(hurst=_PAIR, **{name: v}))
      for name in ("sigma", "theta", "horizon_T")],
    *[(f"ExperimentConfig-{name}", "int", valid,
       lambda ctx, v, name=name: ExperimentConfig(
           params=ModelParams(hurst=_PAIR), **{name: v}))
      for name, valid in (("grid_n", 128), ("path_points", 512),
                          ("replicates", 2), ("master_seed", 0))],
    ("SolutionRecord-T", "real", 1.0, lambda ctx, v: fr.SolutionRecord(
        constants=ctx.cons, horizon_T=v, spline=ctx.sol.spline,
        qv_N=ctx.sol.qv_N)),
    ("SolutionRecord-qv_N", "real", 0.75,
     lambda ctx, v: _record(ctx, qv_N=v)),
    *[(f"SolutionRecord.from_json-{key}", "real", valid,
       lambda ctx, v, key=key: fr.SolutionRecord.from_json(
           {**ctx.sol.to_json(), key: v}))
      for key, valid in (("lambda", lambda ctx: ctx.sol.lam),
                         ("grading_exponent", 2.0))],
    ("build_grid-n", "int", 64, lambda ctx, v: fr.build_grid(v)),
    ("solve_second_kind-T", "real", 1.0, lambda ctx, v: fr.solve_second_kind(
        ctx.op, v, ctx.cons, residual_tol=1.0)),
    ("covariance_model-Y-theta", "real", 0.5,
     lambda ctx, v: gs.covariance_model(_T, ctx.cons, "Y", v)),
    ("covariance_model-Z-theta", "real", 0.5,
     lambda ctx, v: gs.covariance_model(_T, ctx.cons, "Z", v)),
    ("simulate_Y-theta", "real", 0.5,
     lambda ctx, v: gs.simulate_Y(_T, 1, v, ctx.cons)),
    ("simulate_Z-theta", "real", 0.5,
     lambda ctx, v: gs.simulate_Z(_T, 1, v, ctx.cons)),
    *[(f"cli-config-{key}", kind, valid, _cli("constants", key))
      for key, kind, valid in (
          ("h1", "real", 0.6), ("h2", "real", 0.9), ("sigma", "real", 1.0),
          ("theta", "real", 0.0), ("t_horizon", "real", 1.0),
          ("grid_n", "int", 128), ("path_points", "int", 512),
          ("replicates", "int", 100))],
    ("cli-kernel-t", "real", 0.9, _cli("kernel", "t")),
    ("cli-kernel-s", "real", 0.2, _cli("kernel", "s")),
    ("cli-closed-form-points", "int", 3, _cli("closed-form", "points")),
    ("cli-simulate-seed", "int", 7,
     _cli("simulate", "seed", "--path-points", "128")),
]


@pytest.mark.parametrize("kind, valid, call", [e[1:] for e in _ENTRY_POINTS],
                         ids=[e[0] for e in _ENTRY_POINTS])
def test_every_scalar_entry_point_checks_alike(tmp_path, capsys, small_solve,
                                               kind, valid, call):
    # a bool, a NaN, an infinity or a string is refused at every entry
    # point, and a float where an integer is due, or an int beyond the
    # float range where a number is; numpy scalars are read
    cons, op, sol = small_solve
    ctx = SimpleNamespace(cons=cons, op=op, sol=sol, tmp_path=tmp_path,
                          capsys=capsys)
    bad = [True, math.nan, math.inf, "1"] + (
        [128.0] if kind == "int" else [10**400])
    for value in bad:
        with pytest.raises(DomainError):
            call(ctx, value)
    if callable(valid):
        valid = valid(ctx)
    call(ctx, np.float64(valid) if kind == "real" else np.int64(valid))


def test_t_sequence_reads_strings_but_not_bools():
    params = ModelParams(hurst=_PAIR)
    cfg = ExperimentConfig(params=params, t_sequence=("1", np.float64(5.0), 25))
    assert cfg.t_sequence == (1.0, 5.0, 25.0)
    for bad in (True, math.nan, "inf", None, 10**400, 10**5000):
        with pytest.raises(DomainError, match="t_sequence"):
            ExperimentConfig(params=params, t_sequence=(0.5, bad))


def test_check_int_names_a_huge_int_by_its_size():
    # str() of an int beyond 4300 digits raises ValueError, so the
    # refusal names the int by its size
    for value in (-10**400, -10**5000):
        with pytest.raises(DomainError, match=r"master_seed >= 0, got an "
                           rf"int of {value.bit_length()} bits"):
            check_int("master_seed", value, 0)
        with pytest.raises(DomainError, match="master_seed"):
            ExperimentConfig(params=ModelParams(hurst=_PAIR),
                             master_seed=value)
    with pytest.raises(DomainError, match="got -5$"):
        check_int("master_seed", np.int64(-5), 0)
