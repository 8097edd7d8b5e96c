"""Zero counting: the engineered zero with a closed-form location, zero-free
windows, additivity under splits, and abscissa bracketing."""
import dataclasses
import math

import pytest

from zetadist import (
    DomainError,
    OutOfDomainError,
    Rectangle,
    count_zeros,
    estimate_sigma0,
)

from conftest import gen

# 1 + 4*2^{-s} = 0  iff  s = 2 + i (2k+1) pi / log 2
T_ZERO = math.pi / math.log(2.0)  # 4.5323601418...


@pytest.fixture(scope="module")
def engineered():
    return gen("oneplusq:2:4", 16)


class TestRectangleValidation:
    def test_needs_half_plane(self):
        with pytest.raises(OutOfDomainError):
            Rectangle(0.9, 2.0, 0.0, 1.0)

    def test_needs_order(self):
        with pytest.raises(DomainError):
            Rectangle(1.5, 1.2, 0.0, 1.0)
        with pytest.raises(DomainError):
            Rectangle(1.5, 2.0, 1.0, 0.0)

    def test_needs_certificate(self, engineered):
        from zetadist import ArithmeticFunction

        bare = ArithmeticFunction([1, 4])
        with pytest.raises(DomainError):
            count_zeros(bare, Rectangle(1.7, 2.3, 4.0, 5.0))

    def test_needs_margin_above_growth_exponent(self):
        # dk:2 carries eps=0.25, so rectangles must start above 1.25
        dk = gen("dk:2", 4096)
        with pytest.raises(OutOfDomainError):
            count_zeros(dk, Rectangle(1.2, 2.0, 0.0, 1.0))


class TestEngineeredZero:
    def test_single_zero_certified(self, engineered):
        rep = count_zeros(engineered, Rectangle(1.7, 2.3, 4.0, 5.0))
        assert rep.certified
        assert rep.winding == 1
        assert rep.tail_bound == 0.0  # finite series
        assert abs(rep.winding_sum - 1.0) < 0.1

    def test_empty_rectangle(self, engineered):
        rep = count_zeros(engineered, Rectangle(2.5, 3.5, 4.0, 5.0))
        assert rep.certified and rep.winding == 0

    def test_conjugate_pair(self, engineered):
        rep = count_zeros(engineered, Rectangle(1.7, 2.3, -5.0, 5.0))
        assert rep.certified and rep.winding == 2

    def test_additivity_under_split(self, engineered):
        parent = count_zeros(engineered, Rectangle(1.7, 2.3, 4.0, 5.0))
        left = count_zeros(engineered, Rectangle(1.7, 1.95, 4.0, 5.0))
        right = count_zeros(engineered, Rectangle(1.95, 2.3, 4.0, 5.0))
        assert left.certified and right.certified
        assert left.winding + right.winding == parent.winding
        low = count_zeros(engineered, Rectangle(1.7, 2.3, 4.0, 4.4))
        high = count_zeros(engineered, Rectangle(1.7, 2.3, 4.4, 5.0))
        assert low.winding + high.winding == parent.winding

    def test_contour_through_zero_not_certified(self, engineered):
        # left edge passes exactly through sigma=2 where the zero line sits
        rep = count_zeros(engineered, Rectangle(2.0, 2.3, 4.0, 5.0))
        assert not rep.certified


class TestArgumentTracking:
    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10, 1e-14])
    def test_edge_near_zero_never_certified_wrong(self, engineered, delta):
        # each edge in turn passes delta inside or outside the zero at 2 + i T_ZERO
        cases = (
            (Rectangle(2.0 - delta, 2.3, 4.0, 5.0), 1), (Rectangle(2.0 + delta, 2.3, 4.0, 5.0), 0),
            (Rectangle(1.7, 2.0 + delta, 4.0, 5.0), 1), (Rectangle(1.7, 2.0 - delta, 4.0, 5.0), 0),
            (Rectangle(1.7, 2.3, T_ZERO - delta, 5.0), 1), (Rectangle(1.7, 2.3, T_ZERO + delta, 5.0), 0),
            (Rectangle(1.7, 2.3, 4.0, T_ZERO + delta), 1), (Rectangle(1.7, 2.3, 4.0, T_ZERO - delta), 0),
        )
        for rect, expected in cases:
            rep = count_zeros(engineered, rect)
            assert not rep.certified or rep.winding == expected, (rect, rep.winding)
            if delta == 1e-6:
                # a pass this close is resolved by refinement, not given up
                assert rep.certified, (rect, rep.status)

    def test_winding_is_exact_sum_of_arguments(self, engineered):
        rep = count_zeros(engineered, Rectangle(1.7, 2.3, -5.0, 5.0))
        assert rep.certified and rep.winding == 2
        assert abs(rep.winding_sum - 2.0) < 1e-12
        assert 0.0 < rep.rounding_bound < 1e-12  # rounding bound, N=16

    def test_certificate_uses_the_bound_between_samples(self, engineered, monkeypatch):
        # with the tail just under a tenth of the sampled minimum, only a
        # bound as large as the sampled minimum itself would certify; the
        # bound along whole segments lies below it
        from zetadist import zeroscan

        rect = Rectangle(1.7, 2.3, 4.0, 5.0)
        m = count_zeros(engineered, rect).min_modulus_on_contour
        monkeypatch.setattr(zeroscan, "_tail_for", lambda *args: 0.099 * m)
        assert count_zeros(engineered, rect, N=16).status == "contour-too-close"

    def test_exhausted_budget_is_not_certified(self, engineered, monkeypatch):
        from zetadist import zeroscan

        # the 28 starting points fill the budget; this contour needs a few more
        monkeypatch.setattr(zeroscan, "_MAX_EVALS", 28)
        assert count_zeros(engineered, Rectangle(1.7, 2.3, 4.0, 5.0)).status == "contour-too-close"

    @pytest.mark.parametrize("T", [6.8, 9.05, 9.1, 13.4, 14.9, 17.35, 28.7, 28.75, 28.8])
    def test_sigma0_bracket_holds_where_quadrature_missed(self, engineered, T):
        # heights at which the earlier Gauss-Kronrod scanner certified a
        # bracket missing the zero line sigma = 2
        lo, hi = estimate_sigma0(engineered, T=T, sigma_hi=4.0, tol=1e-3).bracket
        assert lo <= 2.0 <= hi and hi - lo <= 1e-3


class TestZeroFreeWindows:
    def test_all_ones_window(self):
        ones = gen("ones", 300000)
        rep = count_zeros(ones, Rectangle(1.5, 3.0, 0.0, 30.0))
        assert rep.certified
        assert rep.winding == 0
        # Euler-product floor: |Z| >= zeta(2 sigma)/zeta(sigma) > 0.46 at 1.5,
        # minus the truncation tail at the auto-resolved N
        assert rep.min_modulus_on_contour > 0.4
        assert rep.min_modulus_on_contour > 10.0 * (rep.tail_bound + rep.rounding_bound)

    def test_ezstar_window(self):
        ez = gen("ezstar", 65536)
        rep = count_zeros(ez, Rectangle(2.1, 3.0, -20.0, 20.0), N=65536)
        assert rep.certified
        assert rep.winding == 0

    def test_large_sigma_never_zero(self):
        # far right, every family has |Z| near a(1) > 0
        for name in ("ones", "pow:-1", "dk:2", "dk:3", "oneplusq:2", "absmu", "ezstar"):
            fn = gen(name, 4096)
            rep = count_zeros(fn, Rectangle(5.0, 6.0, -20.0, 20.0), N=4096)
            assert rep.certified and rep.winding == 0, name


class TestLocalize:
    def test_isolates_the_engineered_zero(self, engineered):
        from zetadist import localize_zeros

        boxes = localize_zeros(engineered, Rectangle(1.6, 2.4, 4.0, 5.0), min_size=0.02)
        assert len(boxes) == 1
        box = boxes[0]
        assert box.certified and box.winding == 1
        r = box.rectangle
        assert r.sigma_min <= 2.0 <= r.sigma_max
        assert r.t_min <= T_ZERO <= r.t_max
        assert max(r.sigma_max - r.sigma_min, r.t_max - r.t_min) <= 0.02

    def test_empty_region_returns_nothing(self, engineered):
        from zetadist import localize_zeros

        assert localize_zeros(engineered, Rectangle(2.5, 3.0, 4.0, 5.0), min_size=0.05) == []

    def test_separates_conjugate_pair(self, engineered):
        from zetadist import localize_zeros

        boxes = localize_zeros(engineered, Rectangle(1.6, 2.4, -5.0, 5.0), min_size=0.05)
        assert len(boxes) == 2
        assert sum(b.winding for b in boxes) == 2
        centers = sorted(0.5 * (b.rectangle.t_min + b.rectangle.t_max) for b in boxes)
        assert abs(centers[0] + T_ZERO) < 0.1 and abs(centers[1] - T_ZERO) < 0.1


class TestSigma0:
    def test_engineered_bracket(self, engineered):
        est = estimate_sigma0(engineered, T=10.0, sigma_hi=4.0, tol=1e-3)
        lo, hi = est.bracket
        assert not est.degenerate
        assert hi - lo <= 1e-3
        assert lo <= 2.0 <= hi
        assert 2.0 - 1e-3 <= lo and hi <= 2.0 + 1e-3
        assert "10" in est.certificate

    def test_ones_degenerate(self):
        ones = gen("ones", 300000)
        est = estimate_sigma0(ones, T=30.0, sigma_hi=3.0, tol=1e-3)
        assert est.degenerate
        assert "zero-free" in est.certificate

    def test_oneplusq_mass_one_degenerate(self):
        q = gen("oneplusq:2", 64)
        est = estimate_sigma0(q, T=30.0, sigma_hi=3.0, tol=1e-3)
        assert est.degenerate
        # finite series certifies right down to the floor above 1
        assert est.sigma_lo < 1.01

    @pytest.mark.parametrize("tol, sigma_lo", [(0.0, None), (-1.0, 1.5), (math.nan, None)])
    def test_tol_must_be_positive(self, engineered, tol, sigma_lo):
        # without the check, 0 and nan fail on sigma_lo or sigma_hi, and -1
        # bisects down to float resolution before failing with ContourError
        with pytest.raises(DomainError, match=r"^tol=.* must be positive$") as exc:
            estimate_sigma0(engineered, T=10.0, sigma_hi=4.0, tol=tol, sigma_lo=sigma_lo)
        assert exc.type is DomainError

    def test_taller_window_counts_more(self, engineered):
        # zeros at (2k+1) pi / log 2: heights 4.53, 13.60, 22.66 -> strip
        # windings 2, 4, 6 as T grows
        for T, expected in ((10.0, 2), (20.0, 4), (30.0, 6)):
            est = estimate_sigma0(engineered, T=T, sigma_hi=4.0, tol=1e-2)
            assert not est.degenerate
            lo, hi = est.bracket
            assert lo <= 2.0 <= hi


class TestSigma0Nudges:
    """A count whose contour lands too close to a zero is redone with its
    left edge nudged; the bracket and the certificate must then name the
    edge that was counted, not the one that was asked for."""

    @staticmethod
    def _patch(monkeypatch, too_close):
        from zetadist import zeroscan

        real, counted = zeroscan.count_zeros, []

        def count(a, rect, N=None):
            rep = real(a, rect, N=N)
            if too_close(rect.sigma_min):
                return dataclasses.replace(rep, status="contour-too-close")
            if rep.certified:
                counted.append(rect.sigma_min)
            return rep

        monkeypatch.setattr(zeroscan, "count_zeros", count)
        return counted

    def test_bisection_nudge_across_the_zero_line(self, engineered, monkeypatch):
        # the first midpoint sits just right of sigma = 2; its nudge moves the
        # edge left across the zeros, so that strip has winding 2
        sigma_lo, sigma_hi = 1.5004, 2.5
        mid = 0.5 * (sigma_lo + sigma_hi)
        counted = self._patch(monkeypatch, lambda s: s == mid)
        est = estimate_sigma0(engineered, T=10.0, sigma_hi=sigma_hi, tol=1e-3, sigma_lo=sigma_lo)
        lo, hi = est.bracket
        assert mid not in counted and {est.sigma_lo, lo, hi} <= set(counted)
        assert lo < 2.0 < hi and hi - lo <= 1e-3
        assert f"strip [{lo:.9g}, " in est.certificate
        assert f"zero-free on [{hi:.9g}, " in est.certificate

    def test_base_nudge_right_across_the_zero_line(self, engineered, monkeypatch):
        # every count left of sigma = 2 is too close, so the base count is
        # nudged right across the zeros and certifies a narrower strip
        # zero-free than the one asked for
        counted = self._patch(monkeypatch, lambda s: s < 2.0)
        est = estimate_sigma0(engineered, T=10.0, sigma_hi=2.5, tol=1e-3, sigma_lo=1.99975)
        assert est.degenerate
        assert est.sigma_lo > 2.0 and est.sigma_lo in counted
        assert est.bracket == (est.sigma_lo, est.sigma_lo)
        assert f"zero-free on [{est.sigma_lo:.6g}, " in est.certificate

    def test_nudges_stay_in_the_certified_half_plane(self, monkeypatch):
        # a count that never certifies: the nudged left edges must stay
        # above 1 + eps (dk:2 carries eps = 0.25), never step out of it
        from zetadist import ContourError, zeroscan

        real, asked = zeroscan.count_zeros, []

        def count(a, rect, N=None):
            asked.append(rect.sigma_min)
            return dataclasses.replace(real(a, rect, N=16), status="contour-too-close")

        monkeypatch.setattr(zeroscan, "count_zeros", count)
        with pytest.raises(ContourError):
            estimate_sigma0(gen("dk:2", 64), T=1.0, sigma_hi=3.0, tol=1e-3, sigma_lo=1.2505)
        assert len(asked) >= 2 and all(1.25 < s < 3.0 for s in asked)
