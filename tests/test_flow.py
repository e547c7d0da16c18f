import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import hull_sample_points, vector_from_function
from metamorph.grid import GridSpec, Image
from metamorph.metamorphosis import TimeVaryingScalarField
from metamorph.flow import (
    DeformationMap,
    TimeGrid,
    TimeVaryingVectorField,
    backward_advected_points,
    forward_maps,
    jacobian_chain_to_index,
    maps_from_zero,
    maps_to_index,
)
from metamorph.ray import Geometry, Sinogram


SPEC = GridSpec(16.0, 64, 64)


def constant_field(tg, cx, cy):
    return TimeVaryingVectorField(tg, SPEC, [
        (np.full(SPEC.shape, cx), np.full(SPEC.shape, cy))] * tg.n_steps)


def rotation_field(tg, omega):
    return TimeVaryingVectorField(tg, SPEC, [
        vector_from_function(SPEC, lambda x, y: (-omega * y, omega * x))] * tg.n_steps)


def interior(points):
    ident = SPEC.identity_points()
    mask = (np.abs(ident[..., 0]) <= 8.0) & (np.abs(ident[..., 1]) <= 8.0)
    return points[mask], ident[mask]


def test_timegrid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0)
    assert TimeGrid(10).dt == 0.1
    assert np.allclose(TimeGrid(4).times(), [0, 0.25, 0.5, 0.75, 1.0])


def test_timegrid_rejects_a_non_integer_step_count():
    # a fractional count would put the last time node past 1
    with pytest.raises(ValueError, match=r"time steps must be an integer, got 2\.5"):
        TimeGrid(2.5)
    assert TimeGrid(np.int64(4)).dt == 0.25


def test_zero_field_gives_identity_maps():
    tg = TimeGrid(6)
    v = TimeVaryingVectorField.zeros(tg, SPEC)
    ident = SPEC.identity_points()
    for m in maps_from_zero(v):
        assert np.array_equal(m.points, ident)
    for m in maps_to_index(v, 6):
        assert np.array_equal(m.points, ident)
    for m in forward_maps(v):
        assert np.array_equal(m.points, ident)


def test_translation_flow_closed_form():
    c = 1.5
    for n in (1, 4, 16):
        tg = TimeGrid(n)
        v = constant_field(tg, c, 0.0)
        end, ident = interior(maps_from_zero(v)[-1].points)
        assert np.abs(end - (ident - [c, 0.0])).max() <= 1e-10
        start, ident = interior(maps_to_index(v, n)[0].points)
        assert np.abs(start - (ident + [c, 0.0])).max() <= 1e-10
        fwd, ident = interior(forward_maps(v)[-1].points)
        assert np.abs(fwd - (ident + [c, 0.0])).max() <= 1e-10


def test_backward_advected_points_steps_from_i_minus_1_down_to_0():
    v = constant_field(TimeGrid(5), 0.3, 0.0)
    for i in range(6):
        assert [j for j, _ in backward_advected_points(v, i)] == list(range(i - 1, -1, -1))


def test_backward_advected_points_zero_field_is_identity():
    v = TimeVaryingVectorField.zeros(TimeGrid(4), SPEC)
    ident = SPEC.identity_points()
    for _, pts in backward_advected_points(v, 4):
        assert np.array_equal(pts, ident)


def test_backward_advected_points_constant_field_closed_form():
    # phi_{t_i,t_j} = Id - (i - j) dt c
    c = np.array([1.5, -2.0])
    tg = TimeGrid(4)
    v = constant_field(tg, *c)
    i = 4
    for j, pts in backward_advected_points(v, i):
        got, ident = interior(pts)
        assert np.abs(got - (ident - (i - j) * tg.dt * c)).max() <= 1e-10


def test_rotation_flow_first_order_convergence():
    omega = 0.4
    rot = np.array([[np.cos(-omega), -np.sin(-omega)], [np.sin(-omega), np.cos(-omega)]])
    errs = []
    for n in (8, 16, 32):
        v = rotation_field(TimeGrid(n), omega)
        end, ident = interior(maps_from_zero(v)[-1].points)
        exact = ident @ rot.T
        errs.append(np.linalg.norm(end - exact, axis=-1).max())
    assert 1.6 <= errs[0] / errs[1] <= 2.4
    assert 1.6 <= errs[1] / errs[2] <= 2.4


def test_forward_backward_composition_near_identity():
    omega = 0.4
    errs = []
    for n in (8, 16):
        v = rotation_field(TimeGrid(n), omega)
        fwd = maps_to_index(v, n)[0].points  # phi_{0,1}
        back = maps_from_zero(v)[-1].points  # phi_{1,0}
        composed = hull_sample_points(fwd, SPEC, back[..., 0], back[..., 1])
        comp, ident = interior(composed)
        errs.append(np.linalg.norm(comp - ident, axis=-1).max())
    assert errs[1] <= errs[0]
    assert 1.4 <= errs[0] / errs[1] <= 2.8


def test_maps_from_zero_end_is_prefix_bitwise():
    rng = np.random.default_rng(0)
    v = TimeVaryingVectorField(TimeGrid(5), SPEC, [
        (rng.normal(0, 0.5, SPEC.shape), rng.normal(0, 0.5, SPEC.shape))
        for _ in range(5)
    ])
    full = maps_from_zero(v)
    for end in range(6):
        part = maps_from_zero(v, end)
        assert len(part) == end + 1
        for a, b in zip(part, full):
            assert np.array_equal(a.points, b.points)


def test_jacobian_chain_zero_field_is_one():
    v = TimeVaryingVectorField.zeros(TimeGrid(5), SPEC)
    for entry in jacobian_chain_to_index(v, 5):
        assert np.all(entry.values == 1.0)


def test_jacobian_chain_rotation_volume_preserving():
    v = rotation_field(TimeGrid(8), 0.4)
    chain = jacobian_chain_to_index(v, 8)
    ident = SPEC.identity_points()
    mask = (np.abs(ident[..., 0]) <= 8.0) & (np.abs(ident[..., 1]) <= 8.0)
    for entry in chain:
        assert np.abs(entry.values[mask] - 1.0).max() <= 1e-10


def test_jacobian_chain_scaling_closed_form():
    lam = 0.25
    ident = SPEC.identity_points()
    mask = (np.abs(ident[..., 0]) <= 7.0) & (np.abs(ident[..., 1]) <= 7.0)
    rels = []
    for n in (8, 16, 32):
        tg = TimeGrid(n)
        v = TimeVaryingVectorField(
            tg, SPEC, [vector_from_function(SPEC, lambda x, y: (lam * x, lam * y))] * n)
        vals = jacobian_chain_to_index(v, n)[0].values[mask]
        rels.append(np.abs(vals - np.exp(2 * lam)).max() / np.exp(2 * lam))
    assert rels[0] <= 0.03
    assert rels[2] < rels[1] < rels[0]


def test_jacobian_chain_positive_under_compression():
    # strong compression would drive the first-order determinant negative
    n = 2
    tg = TimeGrid(n)
    v = TimeVaryingVectorField(
        tg, SPEC, [vector_from_function(SPEC, lambda x, y: (-3.0 * x, -3.0 * y))] * n)
    for entry in jacobian_chain_to_index(v, n):
        assert np.all(entry.values > 0.0)


def test_field_shape_validation():
    # every container holds exactly its shape, all finite, through one check
    # that names it; each control holds exactly N entries on its grid
    tg = TimeGrid(3)
    for field, kind, entry in ((TimeVaryingVectorField, "velocity", (2, *SPEC.shape)),
                               (TimeVaryingScalarField, "intensity control", SPEC.shape)):
        assert field(tg, SPEC, np.zeros((3, *entry))).values.shape == (3, *entry)
        for n in (2, 4):  # 4 = N + 1, a sample at t = 1
            with pytest.raises(ValueError, match=rf"^{kind} needs shape \(3, .*got \({n}, "):
                field(tg, SPEC, np.zeros((n, *entry)))
    geo = Geometry.uniform(4, 8, 20.0)
    for kind, make, shape in (
            ("velocity", lambda a: TimeVaryingVectorField(tg, SPEC, a), (3, 2, *SPEC.shape)),
            ("intensity control", lambda a: TimeVaryingScalarField(tg, SPEC, a), (3, *SPEC.shape)),
            ("image", lambda a: Image(SPEC, a), SPEC.shape),
            ("deformation map", lambda a: DeformationMap(SPEC, a), (*SPEC.shape, 2)),
            ("sinogram", lambda a: Sinogram(geo, a), (4, 8))):
        make(np.zeros(shape))
        wrong = (*shape[:-1], shape[-1] // 2)
        with pytest.raises(ValueError, match=rf"^{kind} needs shape {re.escape(str(shape))}, "
                                             rf"got {re.escape(str(wrong))}$"):
            make(np.zeros(wrong))
        for bad in (math.nan, math.inf):
            values = np.zeros(shape)
            values[1].flat[7] = bad
            with pytest.raises(ValueError, match=rf"^{kind} values must be finite"):
                make(values)


def test_add_scaled_needs_one_time_grid_and_one_grid():
    # another time grid's controls would broadcast over this one's steps,
    # and another grid's would be added as if they were on this one
    spec = GridSpec(16.0, 8, 8)
    for field in (TimeVaryingVectorField, TimeVaryingScalarField):
        base = field.zeros(TimeGrid(3), spec)
        ones = np.ones_like(base.values)
        assert np.all(base.add_scaled(field(TimeGrid(3), spec, ones), 0.5).values == 0.5)
        one_step = field(TimeGrid(1), spec, ones[:1])
        with pytest.raises(ValueError, match=r"n_steps=1\).* to a .* on TimeGrid\(n_steps=3\)"):
            base.add_scaled(one_step, 0.5)
        wider = field(TimeGrid(3), GridSpec(20.0, 8, 8), ones)
        with pytest.raises(ValueError, match=r"half_width=20\.0.* to a .*half_width=16\.0"):
            base.add_scaled(wider, 0.5)


@pytest.mark.parametrize("field", [TimeVaryingVectorField, TimeVaryingScalarField])
def test_norm_sq_is_the_per_level_quadrature(field):
    # one reduction over the whole array is the left-rectangle sum of the
    # per-level sums of squares, dt sum_k |x_k|^2 h^2
    tg = TimeGrid(30)
    spec = GridSpec(16.0, 64, 64)
    rng = np.random.default_rng(30)
    control = field(tg, spec, rng.normal(size=(30, *field.component, *spec.shape)))
    per_level = tg.dt * sum(float(np.sum(x * x)) * spec.h ** 2 for x in control.values)
    assert abs(control.norm_sq() - per_level) <= 1e-14 * per_level


def test_norm_sq_does_not_depend_on_the_blas_thread_count():
    # a BLAS dot splits its sum by thread, so it rounds differently at 1 and 2
    script = ("import numpy as np\n"
              "from metamorph.flow import TimeGrid, TimeVaryingVectorField\n"
              "from metamorph.grid import GridSpec\n"
              "spec = GridSpec(16.0, 64, 64)\n"
              "values = np.random.default_rng(30).normal(size=(30, 2, *spec.shape))\n"
              "print(repr(TimeVaryingVectorField(TimeGrid(30), spec, values).norm_sq()))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    printed = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout)
    assert printed[0] == printed[1]
