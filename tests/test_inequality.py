"""Lorenz/Gini, top-share and rank-timeline tests."""

import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from lntm.centrality import CentralityReport
from lntm.inequality import (
    LorenzSeries,
    TopShare,
    concentration,
    gini_trend,
    gini_trend_to_csv,
    lorenz,
    lorenz_to_csv,
    rank_timelines,
    snapshot_ranks,
    timelines_to_csv,
    top_share,
    top_shares_to_csv,
)

import msggen


def report(values, as_of=0, amount=0):
    return CentralityReport(
        as_of, amount, {msggen.node_id(i): float(v) for i, v in enumerate(values)}
    )


class TestLorenz:
    def test_equal_values_give_diagonal(self):
        series = lorenz(report([3, 3, 3, 3, 3]))
        assert series.gini == pytest.approx(0.0, abs=1e-12)
        for x, y in series.points:
            assert y == pytest.approx(x, abs=1e-12)

    def test_single_holder_among_four(self):
        series = lorenz(report([0, 0, 0, 1]))
        assert series.gini == pytest.approx(0.75, abs=1e-12)
        assert series.points[3] == (0.75, 0.0)
        assert series.points[4] == (1.0, 1.0)

    def test_single_holder_general(self):
        for n in (2, 4, 10, 100):
            series = lorenz(report([0] * (n - 1) + [1]))
            assert series.gini == pytest.approx((n - 1) / n, rel=1e-12)

    def test_zero_total_degenerates_to_diagonal(self):
        series = lorenz(report([0, 0, 0]))
        assert series.gini == 0.0
        assert series.points == ((0.0, 0.0), (1 / 3, 1 / 3), (2 / 3, 2 / 3), (1.0, 1.0))

    def test_ninety_ten_shape(self):
        # highly skewed report: 90% of nodes hold 10% of the total mass
        n = 100
        values = [1.0] * 90 + [81.0] * 10
        series = lorenz(report(values))
        assert series.points[90] == (0.9, pytest.approx(0.1, abs=1e-12))

    def test_points_monotone_and_convex(self):
        rng = random.Random(3)
        values = [rng.randrange(0, 100) for _ in range(50)]
        series = lorenz(report(values))
        xs = [p[0] for p in series.points]
        ys = [p[1] for p in series.points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        for x, y in series.points:
            assert y <= x + 1e-12

    def test_empty_report(self):
        with pytest.raises(ValueError, match=r"^no nodes in report$"):
            lorenz(report([]))

    def test_shares_and_gini_are_the_nearest_floats(self):
        # a float running sum drifts from a float total, enough to move the
        # last point off (1, 1) on 44 of these 200 reports
        rng = random.Random(12)
        for _ in range(200):
            values = [rng.random() * 10 ** rng.randrange(0, 7) for _ in range(rng.randrange(1, 60))]
            series = lorenz(report(values))
            exact = sorted(map(Fraction, values))
            n, total = len(exact), sum(exact)
            shares = [running / total for running in accumulate(exact, initial=0)]
            assert series.points == tuple((i / n, float(y)) for i, y in enumerate(shares))
            assert series.points[-1] == (1.0, 1.0)
            area = sum((shares[i - 1] + shares[i]) / (2 * n) for i in range(1, n + 1))
            assert series.gini == float(1 - 2 * area)

    def test_gini_bounds_on_random_vectors(self):
        rng = random.Random(11)
        for _ in range(50):
            values = [rng.randrange(0, 500) for _ in range(rng.randrange(1, 60))]
            if sum(values) == 0:
                values[0] = 1
            gini = lorenz(report(values)).gini
            assert 0.0 <= gini < 1.0

    def test_anonymity(self):
        rng = random.Random(4)
        values = [rng.randrange(0, 50) for _ in range(30)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert lorenz(report(values)) == lorenz(report(shuffled))

    def test_scale_invariance(self):
        rng = random.Random(5)
        values = [rng.randrange(0, 50) for _ in range(30)]
        base = lorenz(report(values)).gini
        # binary scaling is bit-exact; other factors within float noise
        assert lorenz(report([v * 4096 for v in values])).gini == base
        assert lorenz(report([v * 3 for v in values])).gini == pytest.approx(base, rel=1e-12)

    def test_transfer_principle(self):
        rng = random.Random(6)
        for _ in range(50):
            values = sorted(rng.randrange(0, 1000) for _ in range(12))
            total = sum(values)
            if total == 0:
                continue
            before = lorenz(report(values)).gini
            # move mass from the richest to the poorest without rank crossing
            d = (values[-1] - values[0]) // 4
            if d == 0:
                continue
            transferred = values[:]
            transferred[0] += d
            transferred[-1] -= d
            transferred.sort()
            after = lorenz(report(transferred)).gini
            assert after < before


class TestTopShare:
    def test_star_center_holds_everything(self):
        ts = top_share(report([0, 0, 0, 12]), 0.25)
        assert ts.share == 1.0
        assert not ts.degenerate

    def test_uniform_half(self):
        ts = top_share(report([5, 5, 5, 5]), 0.5)
        assert ts.share == 0.5

    def test_four_three_two_one(self):
        ts = top_share(report([4, 3, 2, 1]), 0.25)
        assert ts.share == 0.4

    def test_full_fraction_is_unity(self):
        assert top_share(report([1, 2, 3]), 1.0).share == 1.0
        assert top_share(report([0.1, 0.2, 0.3]), 1.0).share == 1.0

    def test_share_is_rounded_once(self):
        # 0.3 / (0.1 + 0.3) in floats is 0.7499999999999999; the exact share
        # of the written values rounds to 0.75, as the Lorenz point (0.5,
        # 0.25) says
        values = report([0.1, 0.3])
        assert top_share(values, 0.5).share == 0.75
        assert lorenz(values).points[1] == (0.5, 0.25)

    def test_shares_are_the_nearest_floats(self):
        rng = random.Random(13)
        for _ in range(300):
            values = [rng.random() * 10 ** rng.randrange(0, 7) for _ in range(rng.randrange(1, 60))]
            fraction = rng.choice((0.01, 0.1, 0.25, 0.5, 0.9))
            exact = sorted(map(Fraction, values), reverse=True)
            k = math.ceil(Fraction(fraction).limit_denominator() * len(exact))
            want = float(sum(exact[:k]) / sum(exact))
            assert top_share(report(values), fraction).share == want

    def test_zero_total_degenerate(self):
        ts = top_share(report([0, 0]), 0.5)
        assert ts.share == 1.0
        assert ts.degenerate

    def test_ceil_node_count_is_exact(self):
        # 0.07 of 100 nodes must be 7 nodes, not 8 (float 0.07*100 > 7)
        values = [1] * 100
        ts = top_share(report(values), 0.07)
        assert ts.share == 0.07

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            top_share(report([1]), 0.0)
        with pytest.raises(ValueError):
            top_share(report([1]), 1.5)
        with pytest.raises(ValueError, match=r"^no nodes in report$"):
            top_share(report([]), 0.5)

    def test_share_at_least_fraction(self):
        rng = random.Random(7)
        for _ in range(30):
            values = [rng.randrange(0, 100) for _ in range(rng.randrange(1, 40))]
            if sum(values) == 0:
                continue
            fraction = rng.choice((0.1, 0.25, 0.5, 0.9))
            ts = top_share(report(values), fraction)
            assert ts.share >= fraction


def fraction_lorenz(values):
    """The Lorenz curve and Gini in exact rationals, rounded once: the
    reference for ``lorenz``."""
    running = list(accumulate(map(Fraction, sorted(values)), initial=Fraction(0)))
    n, total = len(running) - 1, running[-1]
    if total == 0:
        return LorenzSeries(points=tuple((i / n, i / n) for i in range(n + 1)), gini=0.0)
    points = tuple((i / n, float(r / total)) for i, r in enumerate(running))
    gini = 1 - (2 * sum(running) - total) / (n * total)
    return LorenzSeries(points=points, gini=float(gini))


def fraction_top_share(values, fraction):
    """The top share in exact rationals, rounded once: the reference for
    ``top_share``."""
    running = list(accumulate(map(Fraction, sorted(values)), initial=Fraction(0)))
    n, total = len(running) - 1, running[-1]
    k = min(max(math.ceil(Fraction(fraction).limit_denominator(10**9) * n), 1), n)
    if total == 0:
        return TopShare(fraction=fraction, share=1.0, degenerate=True)
    return TopShare(fraction=fraction, share=float((total - running[n - k]) / total))


# written values: zeros, subnormals and magnitudes up to the float maximum
written_values = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=True)),
    min_size=1,
    max_size=40,
)


class TestAgainstFractions:
    @settings(max_examples=300, deadline=None)
    @given(written_values, st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_integer_sums_give_the_fraction_results(self, values, fraction):
        r = report(values)
        assert lorenz(r) == fraction_lorenz(values)
        assert top_share(r, fraction) == fraction_top_share(values, fraction)
        assert concentration(r, fraction) == (lorenz(r), top_share(r, fraction))


class TestRankTimelines:
    def test_single_snapshot_top_one(self):
        reports = [("T1", report([1, 5, 3]))]
        timelines = rank_timelines(reports, k=1, anchor="T1")
        assert len(timelines) == 1
        assert timelines[0].node == msggen.node_id(1)
        assert timelines[0].ranks == {"T1": 1}

    def test_absent_node_has_no_rank(self):
        early = CentralityReport(0, 0, {msggen.node_id(1): 4.0})
        late = CentralityReport(0, 0, {msggen.node_id(1): 1.0, msggen.node_id(2): 9.0})
        timelines = rank_timelines([("T1", early), ("T2", late)], k=1, anchor="T2")
        assert timelines[0].node == msggen.node_id(2)
        assert timelines[0].ranks == {"T2": 1}  # no T1 entry at all

    def test_swapped_values_swap_ranks(self):
        a, b = msggen.node_id(1), msggen.node_id(2)
        first = CentralityReport(0, 0, {a: 10.0, b: 5.0})
        second = CentralityReport(0, 0, {a: 5.0, b: 10.0})
        timelines = rank_timelines([("T1", first), ("T2", second)], k=2, anchor="T1")
        ranks = {t.node: t.ranks for t in timelines}
        assert ranks[a] == {"T1": 1, "T2": 2}
        assert ranks[b] == {"T1": 2, "T2": 1}

    def test_ties_break_by_node_id(self):
        ranks = snapshot_ranks(report([7, 7, 7]))
        assert [ranks[msggen.node_id(i)] for i in range(3)] == [1, 2, 3]

    def test_unknown_anchor(self):
        with pytest.raises(ValueError, match=r"^anchor 'T9' not among labels \['T1'\]$"):
            rank_timelines([("T1", report([1]))], k=1, anchor="T9")

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            rank_timelines([("T1", report([1]))], k=0, anchor="T1")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            rank_timelines([("T1", report([1])), ("T1", report([2]))], k=1, anchor="T1")


class TestGiniTrend:
    def test_identical_reports_constant(self):
        r = report([1, 2, 3, 4])
        trend = gini_trend([("T1", r), ("T2", r)])
        assert trend[0][1] == trend[1][1]

    def test_growing_concentration_strictly_increases(self):
        # interpolate [1,1,1,1] -> [0,0,0,4] in five steps
        reports = []
        for i, w in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            values = [1 - w, 1 - w, 1 - w, 1 + 3 * w]
            reports.append((f"T{i + 1}", report(values)))
        ginis = [g for _, g in gini_trend(reports)]
        assert all(b > a for a, b in zip(ginis, ginis[1:]))


class TestCsvEmission:
    def test_lorenz_csv(self):
        text = lorenz_to_csv(lorenz(report([0, 0, 0, 1])))
        lines = text.strip().split("\n")
        assert lines[0] == "population_fraction,cumulative_share"
        assert len(lines) == 6
        assert lines[-1] == "1.0,1.0"

    def test_trend_csv(self):
        text = gini_trend_to_csv([("T1", 0.25), ("T2", 0.5)])
        assert text == "label,gini\nT1,0.25\nT2,0.5\n"

    def test_top_share_csv(self):
        text = top_shares_to_csv([("T1", top_share(report([4, 3, 2, 1]), 0.25))])
        assert text.startswith("label,fraction,share,degenerate\nT1,0.25,")

    def test_timeline_matrix_with_cap_and_absences(self):
        a, b = msggen.node_id(1), msggen.node_id(2)
        early = CentralityReport(0, 0, {a: 1.0})
        late = CentralityReport(
            0, 0, {msggen.node_id(i): float(100 - i) for i in range(100)}
        )
        timelines = rank_timelines([("T1", early), ("T2", late)], k=3, anchor="T2")
        text = timelines_to_csv(timelines, ["T1", "T2"], rank_cap=50)
        lines = text.strip().split("\n")
        assert lines[0] == "node_id,T1,T2"
        # node 0 is top of T2 and absent from T1
        assert lines[1] == f"{msggen.node_id(0).hex()},,1"
        # the capped variant never shows a rank above the cap
        uncapped = timelines_to_csv(timelines, ["T1", "T2"])
        assert uncapped != text or all(
            int(c) <= 50 for ln in lines[1:] for c in ln.split(",")[1:] if c
        )

    def test_cap_never_alters_stored_ranks(self):
        late = CentralityReport(
            0, 0, {msggen.node_id(i): float(100 - i) for i in range(100)}
        )
        early = CentralityReport(0, 0, {msggen.node_id(99): 2.0, msggen.node_id(0): 1.0})
        timelines = rank_timelines([("T1", late), ("T2", early)], k=1, anchor="T2")
        # ranks dict itself keeps the deep value even when display caps at 50
        assert timelines[0].node == msggen.node_id(99)
        assert timelines[0].ranks["T1"] == 100
        text = timelines_to_csv(timelines, ["T1", "T2"], rank_cap=50)
        assert f"{msggen.node_id(99).hex()},50,1" in text
