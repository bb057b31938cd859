import numpy as np
import pytest

from optrans.errors import GridSnapError, IllPosed
from optrans.grids import Grid, cell_masses, from_points, log_spaced, uniform


class TestGrid:
    def test_rejects_short_or_unordered(self):
        with pytest.raises(IllPosed):
            Grid(np.array([1.0]))
        with pytest.raises(IllPosed):
            Grid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(IllPosed):
            Grid(np.array([0.0, np.inf]))

    def test_nearest_and_snap(self):
        g = uniform(0.0, 1.0, 11)
        assert g.nearest(0.32) == 3
        assert g.snap(0.304) == 3
        with pytest.raises(GridSnapError):
            g.snap(1.2)

    def test_array_nearest_matches_scalar_at_midpoints_and_ties(self):
        def by_rule(pts, v):
            i = int(np.searchsorted(pts, v))
            if i == 0:
                return 0
            if i >= pts.size:
                return pts.size - 1
            return i if pts[i] - v < v - pts[i - 1] else i - 1

        # dyadic points make every midpoint an exact tie, which goes down
        ties = from_points([-1.0, -0.75, 0.0, 0.125, 0.5, 2.0, 2.5, 6.0])
        for g in (ties, log_spaced(0.1, 7.0, 23)):
            pts = g.points
            mids = 0.5 * (pts[:-1] + pts[1:])
            ends = [-np.inf, -9.0, 9.0, np.inf, np.nan]
            vals = np.concatenate([mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf), pts, ends])
            got = g.nearest(vals)
            assert got.dtype.kind == "i" and got.shape == vals.shape
            scalar = [g.nearest(float(v)) for v in vals]
            assert all(type(i) is int for i in scalar)
            assert got.tolist() == scalar == [by_rule(pts, v) for v in vals]
            assert g.nearest(mids.reshape(-1, 1)).shape == (mids.size, 1)
        mids = 0.5 * (ties.points[:-1] + ties.points[1:])
        assert np.all(ties.points[1:] - mids == mids - ties.points[:-1])
        assert ties.nearest(mids).tolist() == list(range(mids.size))

    def test_log_spacing_mirrors_reciprocals(self):
        g = log_spaced(np.exp(-1), np.exp(1), 21)
        assert np.allclose(g.points * g.points[::-1], 1.0)

    def test_from_points_sorted(self):
        g = from_points([0.1, 0.4, 0.9], "action")
        assert g.kind == "action"
        assert len(g) == 3


class TestCellMasses:
    def test_uniform_density_sums_to_one(self):
        g = uniform(0.0, 1.0, 17)
        w = cell_masses(g, lambda x: np.ones_like(x))
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert w[0] == pytest.approx(w[1] / 2, rel=1e-12)

    def test_matches_closed_form_cdf(self):
        g = log_spaced(np.exp(-1), np.exp(1), 41)
        w = cell_masses(g, lambda x: 1.0 / (2.0 * x))
        pts = g.points
        edges = np.concatenate([[pts[0]], 0.5 * (pts[1:] + pts[:-1]), [pts[-1]]])
        exact = np.diff(0.5 * (np.log(edges) + 1.0))
        assert np.max(np.abs(w - exact / exact.sum())) < 1e-6

    def test_negative_density_rejected(self):
        g = uniform(0.0, 1.0, 5)
        with pytest.raises(IllPosed):
            cell_masses(g, lambda x: x - 0.5)
