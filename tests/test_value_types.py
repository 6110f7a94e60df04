"""The six value types: immutable named tuples that validate on construction."""

import copy
import math
import pickle

import pytest

from suptail import sim, supbound
from suptail.entropy import HolderProfile, entropy_integral_closed
from suptail.growth import SeriesSum
from suptail.heat import SheModel, she_growth_envelope, v_bound_inputs
from suptail.metric import AnisotropicBox, covering_oracle, covering_upper_bound
from suptail.orlicz import PhiFamily, rv_tail_bound

NAN, INF = math.nan, math.inf

VALUES = {
    "AnisotropicBox(a1=0.1, b1=1.0, a2=0.0, b2=1.0, h1=1.0, h2=1.0)": AnisotropicBox(0.1, 1.0, 0.0, 1.0),
    "PhiFamily(alpha=1.5)": PhiFamily(1.5),
    "HolderProfile(scale=2.0, exponent=0.5)": HolderProfile(2.0, 0.5),
    "TailBound(k=3.0, scale=0.5, gamma_beta=2.0, cap=1.0, fam=PhiFamily(alpha=2.0))":
        supbound.TailBound(3.0, 0.5, 2.0, 1.0, PhiFamily(2.0)),
    "SeriesSum(value=1.5, remainder=1e-12, n_terms=7)": SeriesSum(1.5, 1e-12, 7),
    "SheModel(hurst=0.35, rho=0.5, holder_const=2.0, init_sup=1.0, det_const=1.0, alpha=2.0)":
        SheModel(0.35, rho=0.5, holder_const=2.0),
}


@pytest.mark.parametrize("text", VALUES, ids=lambda text: text.split("(")[0])
class TestValueSemantics:
    def test_repr_names_every_field(self, text):
        assert repr(VALUES[text]) == text

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clone_is_equal(self, text, clone):
        value = VALUES[text]
        twin = clone(value)
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)

    def test_fields_are_read_only(self, text):
        value = VALUES[text]
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], 1.0)
        with pytest.raises(AttributeError):
            value.extra = 1.0


def test_she_model_keeps_its_signature_and_derived_constants():
    model = SheModel(0.35, 0.5, 2.0)
    assert model == SheModel(hurst=0.35, rho=0.5, holder_const=2.0, init_sup=1.0, det_const=1.0, alpha=2.0)
    assert model._fields == ("hurst", "rho", "holder_const", "init_sup", "det_const", "alpha")
    twin = pickle.loads(pickle.dumps(model))
    assert (twin.a_h, twin.c_v, twin.c_omega) == (model.a_h, model.c_v, model.c_omega)
    with pytest.raises(AttributeError):
        model.c_v = 1.0


def test_she_model_validates_through_the_class_post_init(monkeypatch):
    # A wrapper installed on the class (as a tracer does) sees every construction.
    calls = []
    post_init = SheModel.__post_init__
    monkeypatch.setattr(SheModel, "__post_init__", lambda self: calls.append(self) or post_init(self))
    model = SheModel(0.5)
    assert calls == [model]


def test_values_compare_as_tuples():
    assert HolderProfile(1.0, 0.5) == (1.0, 0.5)
    scale, exponent = HolderProfile(1.0, 0.5)
    assert (scale, exponent) == (1.0, 0.5)


class TestNonFiniteInputsRejected:
    def test_nan_box_endpoint(self):
        with pytest.raises(ValueError, match="box endpoints must be finite"):
            AnisotropicBox(NAN, 1.0, 0.0, 1.0)

    def test_infinite_box_endpoint(self):
        with pytest.raises(ValueError, match="box endpoints must be finite"):
            AnisotropicBox(0.1, 1.0, -INF, 1.0)

    @pytest.mark.parametrize(
        "ends, axis", [((-1e308, 1e308, 0.0, 1.0), 1), ((0.1, 1.0, -1e308, 1e308), 2)], ids=["time", "space"]
    )
    def test_overflowing_box_side(self, ends, axis):
        # finite endpoints whose side b - a is inf gave all-INVALID or infinite results
        with pytest.raises(ValueError, match=rf"box side b{axis} - a{axis} must be finite, got inf"):
            AnisotropicBox(*ends)
        AnisotropicBox(0.0, 1e308, -1.7e308, 0.0)  # the largest finite sides pass

    def test_nan_box_gives_no_v_bound(self):
        # The NaN time axis once dropped out of the entropy term and gave a
        # VALID bound of 9.66e-16 at u = 30, where the real box asserts none.
        with pytest.raises(ValueError, match="box endpoints must be finite"):
            supbound.optimize_theta(30.0, v_bound_inputs(AnisotropicBox(NAN, 1.0, 0.0, 1.0), SheModel(hurst=0.5)))

    def test_nan_holder_const(self):
        with pytest.raises(ValueError, match="holder_const must be positive, got nan"):
            SheModel(hurst=0.5, holder_const=NAN)

    def test_infinite_holder_const(self):
        with pytest.raises(ValueError, match="holder_const must be finite, got inf"):
            SheModel(hurst=0.5, holder_const=INF)

    @pytest.mark.parametrize("name", ["init_sup", "det_const"])
    def test_nan_model_constant(self, name):
        with pytest.raises(ValueError, match=f"{name} must be positive, got nan"):
            SheModel(hurst=0.5, **{name: NAN})

    @pytest.mark.parametrize("name", ["init_sup", "det_const"])
    def test_infinite_model_constant(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            SheModel(hurst=0.5, **{name: INF})

    def test_infinite_profile_scale(self):
        with pytest.raises(ValueError, match="scale must be finite, got inf"):
            HolderProfile(INF, 1.0)

    def test_nan_profile_scale(self):
        with pytest.raises(ValueError, match="scale must be positive, got nan"):
            HolderProfile(NAN, 1.0)

    @pytest.mark.parametrize("hurst, constants", [(5e-324, "nan"), (1e-310, "inf")])
    def test_hurst_with_nonfinite_constants(self, hurst, constants):
        # 5e-324 was accepted with a_h = c_v = nan; at 1e-310 they were inf,
        # and the first error named the profile scale
        message = rf"hurst = {hurst!r} is too small: its constants a_h = {constants} and c_v = {constants}"
        with pytest.raises(ValueError, match=message):
            SheModel(hurst=hurst)
        assert math.isfinite(SheModel(hurst=1e-308).c_v)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: covering_upper_bound(AnisotropicBox(0.0, 1.0, 0.0, 1.0), NAN), "eps must be positive, got nan"),
            (lambda: covering_oracle(AnisotropicBox(0.0, 1.0, 0.0, 1.0), NAN), "eps must be positive, got nan"),
            (lambda: rv_tail_bound(NAN, 1.0, PhiFamily(2.0)), "u must be nonnegative, got nan"),
            (lambda: rv_tail_bound(1.0, NAN, PhiFamily(2.0)), "tau must be positive, got nan"),
            (lambda: HolderProfile(1.0, 0.5).sigma(NAN), "sigma requires h >= 0, got nan"),
            (lambda: covering_upper_bound(AnisotropicBox(0.0, 1.0, 0.0, 1.0), INF), "eps must be finite, got inf"),
            (lambda: covering_oracle(AnisotropicBox(0.0, 1.0, 0.0, 1.0), INF), "eps must be finite, got inf"),
            (lambda: rv_tail_bound(1.0, INF, PhiFamily(2.0)), "tau must be finite, got inf"),
        ],
        ids=["covering_upper_bound-eps", "covering_oracle-eps", "rv_tail_bound-u", "rv_tail_bound-tau",
             "sigma-h", "covering_upper_bound-inf-eps", "covering_oracle-inf-eps", "rv_tail_bound-inf-tau"],
    )
    def test_nan_argument(self, call, message):
        # these returned nan or 1.0, or failed converting nan to an integer;
        # an infinite eps counted 1 ball and an infinite tau gave the bound 1.0
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: sim.covariance_matrix((NAN, 0.5), (0.0,), 0.5), "grid times must be nonnegative, got nan"),
            (lambda: sim.v_covariance(NAN, 0.0, 0.5, 0.0, 0.5), "times must be nonnegative"),
            (lambda: sim.v_covariance(0.5, 0.0, NAN, 0.0, 0.5), "times must be nonnegative"),
            (lambda: sim.v_covariance(0.5, NAN, 0.5, 0.0, 0.5), "grid space points must be finite, got nan"),
            (lambda: sim.v_covariance(INF, 0.0, 0.5, 0.0, 0.5), "grid times must be finite, got inf"),
            (lambda: sim.covariance_matrix((0.5, INF), (0.0,), 0.5), "grid times must be finite, got inf"),
            (lambda: sim.covariance_matrix((0.5,), (0.0, NAN), 0.5), "grid space points must be finite, got nan"),
            (lambda: sim.covariance_matrix((0.5,), (-INF, 0.0), 0.5), "grid space points must be finite, got -inf"),
            (lambda: entropy_integral_closed(NAN, 1.0, HolderProfile(1.0, 1.0), PhiFamily(2.0)),
             "eps must be positive, got nan"),
            (lambda: entropy_integral_closed(1.0, NAN, HolderProfile(1.0, 1.0), PhiFamily(2.0)),
             "c1 must be positive, got nan"),
            (lambda: she_growth_envelope(SheModel(hurst=0.5), INF), "p must be finite, got inf"),
            (lambda: she_growth_envelope(SheModel(hurst=0.5), 1.5, halfwidth=INF),
             "halfwidth must be finite, got inf"),
            (lambda: entropy_integral_closed(INF, 1.0, HolderProfile(1.0, 1.0), PhiFamily(2.0)),
             "eps must be finite, got inf"),
            (lambda: entropy_integral_closed(1.0, INF, HolderProfile(1.0, 1.0), PhiFamily(2.0)),
             "c1 must be finite, got inf"),
            (lambda: supbound.field_bound(INF, AnisotropicBox(0.0, 1.0, 0.0, 1.0), HolderProfile(1.0, 1.0),
                                          PhiFamily(2.0)), "eps0 must be finite, got inf"),
        ],
        ids=["covariance_matrix-time", "v_covariance-t", "v_covariance-s", "v_covariance-x",
             "v_covariance-inf-t", "covariance_matrix-inf-time", "covariance_matrix-x",
             "covariance_matrix-inf-x", "entropy_integral_closed-eps", "entropy_integral_closed-c1",
             "she_growth_envelope-inf-p", "she_growth_envelope-inf-halfwidth",
             "entropy_integral_closed-inf-eps", "entropy_integral_closed-inf-c1", "field_bound-inf-eps0"],
    )
    def test_nan_time_or_entropy_input(self, call, message):
        # a nan time was read as t = 0 (covariance 0), and the entropy
        # integral returned nan; a nan space point or an infinite time or
        # space point gave a nan covariance, which factor_covariance then
        # rejected as not PSD; an infinite p warned in Li_p and failed on
        # theta = nan, and an infinite halfwidth blamed the box endpoints;
        # an infinite eps or c1 gave an infinite integral, and an infinite
        # eps0 a bound with cap 0, which failed later on theta
        with pytest.raises(ValueError, match=message):
            call()

    def test_nan_envelope_halfwidth(self):
        with pytest.raises(ValueError, match="halfwidth must be positive, got nan"):
            she_growth_envelope(SheModel(hurst=0.5), 1.5, halfwidth=NAN)

    def test_failing_cases_keep_their_messages(self):
        with pytest.raises(ValueError, match="box endpoints must satisfy b_i >= a_i"):
            AnisotropicBox(NAN, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"metric exponents must lie in \(0, 1\]"):
            AnisotropicBox(NAN, 1.0, 0.0, 1.0, h1=2.0)
        with pytest.raises(ValueError, match="holder_const must be positive, got -1.0"):
            SheModel(hurst=0.5, holder_const=-1.0)
        # init_sup and det_const once said "must be positive" without the value
        with pytest.raises(ValueError, match="init_sup must be positive, got -1.0"):
            SheModel(hurst=0.5, init_sup=-1.0)
        with pytest.raises(ValueError, match="det_const must be positive, got 0.0"):
            SheModel(hurst=0.5, det_const=0.0)
