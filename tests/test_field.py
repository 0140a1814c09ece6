"""Grid, transform, derivative, inner-product, winding and file-format tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptw.ansatz import (VortexAnsatz, constant, fitted_vortex_ansatz, perturb, plane_wave,
                         vortex_test_function)
from gptw.field import (
    REFLECTION_TOL,
    ComplexField,
    FieldFormatError,
    GridMismatch,
    TorusGrid,
    axis_windings,
    class_forward,
    class_inverse,
    coarsest_grid,
    fft_forward,
    fft_inverse,
    half_values,
    in_class,
    l2_norm,
    mirror,
    l2_product,
    read_field,
    read_header,
    resample,
    spectral_tail,
    transform_forward,
    vortex_count,
    write_field,
)
from gptw.functionals import Kernel, Params
from gptw.minimize import MinimizeOptions, minimize_action
from gptw.mountainpass import init_path


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes)
    return ComplexField(grid, scale * v)


@pytest.fixture
def grid16():
    return TorusGrid((16, 16), 2 * np.pi)


class TestTorusGrid:
    def test_valid(self):
        g = TorusGrid((8, 16), 3.5)
        assert g.dim == 2
        assert g.node_count == 128
        assert g.sizes == (8, 16) and g.period == 3.5
        assert g.cell_volume == pytest.approx(3.5**2)

    def test_3d(self):
        g = TorusGrid((8, 8, 8), 1.0)
        assert g.dim == 3
        assert g.node_count == 512

    @pytest.mark.parametrize("sizes,period", [
        ((16,), 1.0),            # dim 1
        ((8, 8, 8, 8), 1.0),     # dim 4
        ((7, 8), 1.0),           # odd
        ((8, 6), 1.0),           # too small
        ((8, 8), 0.0),           # bad period
        ((8, 8), -2.0),
    ])
    def test_invalid(self, sizes, period):
        with pytest.raises(ValueError):
            TorusGrid(sizes, period)

    @pytest.mark.parametrize("period", [np.inf, -np.inf, np.nan])
    def test_nonfinite_period(self, period):
        with pytest.raises(ValueError, match="finite"):
            TorusGrid((8, 8), period)

    def test_quad_weight(self, grid16):
        assert grid16.quad_weight == pytest.approx((2 * np.pi) ** 2 / 256)


class TestComplexField:
    def test_shape_mismatch(self, grid16):
        with pytest.raises(ValueError):
            ComplexField(grid16, np.zeros((8, 8)))

    def test_nonfinite_rejected(self, grid16):
        v = np.zeros(grid16.sizes, dtype=complex)
        v[0, 0] = np.nan
        with pytest.raises(ValueError):
            ComplexField(grid16, v)

    def test_values_frozen(self, grid16):
        f = random_field(grid16, 0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestTransforms:
    def test_constant_is_mode_zero(self, grid16):
        f = ComplexField(grid16, np.ones(grid16.sizes, dtype=complex))
        spec = transform_forward(f)
        assert spec[0, 0] == pytest.approx(1.0)
        spec2 = spec.copy()
        spec2[0, 0] = 0.0
        assert np.abs(spec2).max() < 1e-15

    def test_pure_mode(self, grid16):
        x1 = grid16.coords[0]
        f = ComplexField(grid16, np.exp(2j * np.pi * x1 / grid16.period) * np.ones(grid16.sizes))
        spec = transform_forward(f)
        assert spec[1, 0] == pytest.approx(1.0, abs=1e-14)
        spec2 = spec.copy()
        spec2[1, 0] = 0.0
        assert np.abs(spec2).max() < 1e-14

    def test_round_trip(self, grid16):
        f = random_field(grid16, 7)
        back = fft_inverse(transform_forward(f))
        assert np.linalg.norm(back - f.values) <= 1e-12 * np.linalg.norm(f.values)


def spectral_derivative(f, axis):
    """d f / d x_axis by the Nyquist-zeroed symbol grid.deriv_symbols, as
    Kernel and spectrum.symmetry_basis apply it to spectra."""
    return f.with_values(fft_inverse(fft_forward(f.values) * (1j * f.grid.deriv_symbols[axis])))


class TestSpectralDerivative:
    def test_constant(self, grid16):
        f = ComplexField(grid16, np.full(grid16.sizes, 2.0 + 1.0j))
        d = spectral_derivative(f, 0)
        assert np.abs(d.values).max() < 1e-14

    def test_eigenfunction(self, grid16):
        T = grid16.period
        x1 = grid16.coords[0]
        f = ComplexField(grid16, np.exp(2j * np.pi * x1 / T) * np.ones(grid16.sizes))
        d = spectral_derivative(f, 0)
        expected = (2j * np.pi / T) * f.values
        assert np.abs(d.values - expected).max() < 1e-13

    def test_sin_closed_form(self):
        g = TorusGrid((32, 32), 5.0)
        x1 = g.coords[0] + np.zeros(g.sizes)
        f = ComplexField(g, np.sin(2 * np.pi * x1 / g.period).astype(complex))
        d = spectral_derivative(f, 0)
        expected = (2 * np.pi / g.period) * np.cos(2 * np.pi * x1 / g.period)
        rel = np.abs(d.values - expected).max() / np.abs(expected).max()
        assert rel <= 1e-12

    def test_commutes_with_translation(self, grid16):
        f = random_field(grid16, 3)
        shifted = ComplexField(grid16, np.roll(f.values, (3, 5), axis=(0, 1)))
        a = spectral_derivative(shifted, 0).values
        b = np.roll(spectral_derivative(f, 0).values, (3, 5), axis=(0, 1))
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

    def test_real_stays_real(self, grid16):
        rng = np.random.default_rng(5)
        f = ComplexField(grid16, rng.standard_normal(grid16.sizes).astype(complex))
        for ax in range(2):
            d = spectral_derivative(f, ax)
            assert np.abs(d.values.imag).max() < 1e-13

    def test_nyquist_zeroed(self, grid16):
        # pure Nyquist mode along axis 0 differentiates to zero
        m = grid16.sizes[0]
        spec = np.zeros(grid16.sizes, dtype=complex)
        spec[m // 2, 0] = 1.0
        f = ComplexField(grid16, fft_inverse(spec))
        d = spectral_derivative(f, 0)
        assert np.abs(d.values).max() < 1e-13


class TestInnerProducts:
    def test_volume(self, grid16):
        one = ComplexField(grid16, np.ones(grid16.sizes, dtype=complex))
        assert l2_product(one, one) == pytest.approx(grid16.period**2, rel=1e-14)

    def test_orthogonal_complex_directions(self, grid16):
        one = ComplexField(grid16, np.ones(grid16.sizes, dtype=complex))
        i_one = ComplexField(grid16, 1j * np.ones(grid16.sizes, dtype=complex))
        assert l2_product(one, i_one) == 0.0

    def test_parseval_100_seeds(self, grid16):
        vol = grid16.cell_volume
        for seed in range(100):
            f = random_field(grid16, seed)
            spec = transform_forward(f)
            lhs = l2_product(f, f)
            rhs = vol * float(np.sum(spec.real**2 + spec.imag**2))
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_grid_mismatch(self, grid16):
        other = TorusGrid((16, 16), 1.0)
        with pytest.raises(GridMismatch):
            l2_product(random_field(grid16, 0), random_field(other, 0))


def cell_sums(f):
    """Phase increments summed around every cell of every orientation,
    over 2*pi, computed independently of vortex_count."""
    v = f.values
    out = []
    for a in range(v.ndim):
        for b in range(a + 1, v.ndim):
            loop = [v, np.roll(v, -1, a), np.roll(np.roll(v, -1, a), -1, b), np.roll(v, -1, b)]
            total = sum(np.angle(loop[(i + 1) % 4] * np.conj(loop[i])) for i in range(4))
            out.append(total / (2 * np.pi))
    return np.concatenate([s.ravel() for s in out])


class TestLift:
    """The phase lifted along grid lines (axis_windings) and around grid
    cells (vortex_count)."""

    def test_constant_one(self, grid16):
        f = ComplexField(grid16, np.ones(grid16.sizes, dtype=complex))
        assert axis_windings(f) == (0, 0)
        assert vortex_count(f) == (0, 0)

    def test_unit_winding(self, grid16):
        x1 = grid16.coords[0]
        f = ComplexField(grid16, np.exp(2j * np.pi * x1 / grid16.period) * np.ones(grid16.sizes))
        assert axis_windings(f) == (1, 0)
        assert vortex_count(f) == (0, 0)

    def test_smooth_synthetic(self, grid16):
        # rho e^{i theta} with periodic theta plus winding
        g = grid16
        x1, x2 = (g.coords[0] + np.zeros(g.sizes), g.coords[1] + np.zeros(g.sizes))
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * x2 / g.period)
        theta = 0.4 * np.cos(2 * np.pi * x1 / g.period) - 2 * 2 * np.pi * x1 / g.period
        f = ComplexField(g, rho * np.exp(1j * theta))
        assert axis_windings(f) == (-2, 0)
        assert vortex_count(f) == (0, 0)

    def test_vortex_off_node_counts_one_pair(self):
        # cores between nodes: the circulation jumps by 2*pi between lines
        # on either side of a core, and the cells around the cores wind
        g = TorusGrid((64, 64), 40.0)
        f = vortex_test_function(VortexAnsatz(4.0), g)
        assert float(np.abs(f.values).min()) > 0.1
        assert vortex_count(f) == (1, 1)

    def test_ring_3d(self):
        f = vortex_test_function(VortexAnsatz(3.0), TorusGrid((32, 32, 32), 26.0))
        plus, minus = vortex_count(f)
        assert plus == minus > 0

    def test_axis_windings_consistency_measure(self, grid16):
        # with no cell winding every parallel line carries the origin
        # line's circulation
        f = random_field(grid16, 11, scale=0.1)
        smooth = ComplexField(grid16, 1.0 + f.values * 0.01)
        assert vortex_count(smooth) == (0, 0)
        assert axis_windings(smooth) == (0, 0)
        for ax in range(2):
            inc = np.angle(np.roll(smooth.values, -1, ax) * np.conj(smooth.values))
            assert np.abs(inc.sum(axis=ax)).max() < 1e-12

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(dim=st.sampled_from([2, 3]), theta=st.floats(-np.pi, np.pi),
           amplitude=st.floats(0.0, 1.5), band=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_cell_windings_are_integers_and_balance(self, dim, theta, amplitude, band, seed):
        # each edge enters two cells with opposite signs, so a periodic
        # field's cell windings sum to zero
        f = perturb(constant(theta, TorusGrid((8,) * dim, 6.0)), amplitude, band, seed)
        sums = cell_sums(f)
        assert np.abs(sums - np.rint(sums)).max() <= 1e-12
        plus, minus = vortex_count(f)
        assert plus == minus
        assert plus == int(np.rint(sums)[sums > 0].sum())


class TestFieldFiles:
    def test_round_trip(self, tmp_path, grid16):
        f = random_field(grid16, 21)
        path = tmp_path / "f.gptw"
        write_field(path, f, c=1.25)
        g, c = read_field(path)
        assert c == 1.25
        assert g.grid == grid16
        assert np.array_equal(g.values, f.values)

    def test_header_layout(self, tmp_path, grid16):
        f = random_field(grid16, 2)
        path = tmp_path / "f.gptw"
        write_field(path, f, c=0.5)
        raw = path.read_bytes()
        assert raw[:4] == b"GPTW"
        head = read_header(raw)
        assert head["version"] == 1
        assert head["dim"] == 2
        assert head["sizes"] == (16, 16)
        assert head["period"] == pytest.approx(2 * np.pi)
        assert len(raw) == head["payload_offset"] + 16 * grid16.node_count

    def test_truncated(self, tmp_path, grid16):
        f = random_field(grid16, 2)
        path = tmp_path / "f.gptw"
        write_field(path, f)
        short = tmp_path / "short.gptw"
        short.write_bytes(path.read_bytes()[:100])
        with pytest.raises(FieldFormatError):
            read_field(short)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gptw"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FieldFormatError):
            read_field(path)

    def test_bad_version(self, tmp_path, grid16):
        f = random_field(grid16, 2)
        path = tmp_path / "f.gptw"
        write_field(path, f)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldFormatError):
            read_field(path)


# ---------------------------------------------------------------------------
# Property tests of the GPTW file format. derandomize makes every run draw the
# same examples, so the suite stays reproducible.
# ---------------------------------------------------------------------------

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

_finite = st.floats(allow_nan=False, allow_infinity=False)
_small_sizes = st.one_of(
    st.tuples(st.sampled_from((8, 10, 12)), st.sampled_from((8, 10, 12))),
    st.tuples(*[st.sampled_from((8, 10))] * 3),
)


@st.composite
def _fields(draw):
    """A field on a small 2-d or 3-d grid with an arbitrary finite speed.
    Node values are seeded Gaussians with a few nodes overwritten by
    arbitrary finite doubles (signed zeros and subnormals included)."""
    sizes = draw(_small_sizes)
    period = draw(st.floats(min_value=1e-300, max_value=1e300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal(2 * int(np.prod(sizes)))
    for _ in range(draw(st.integers(0, 6))):
        parts[draw(st.integers(0, parts.size - 1))] = draw(_finite)
    values = np.empty(parts.size // 2, dtype=complex)
    values.real, values.imag = parts[0::2], parts[1::2]
    return ComplexField(TorusGrid(sizes, period), values.reshape(sizes)), draw(_finite)


@st.composite
def _doubles(draw, count):
    """count little-endian f64s: seeded Gaussians with a few overwritten by
    arbitrary doubles, NaNs and infinities included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal(count)
    for _ in range(draw(st.integers(0, 2)) if count else 0):
        xs[draw(st.integers(0, count - 1))] = draw(
            st.one_of(st.sampled_from((np.nan, np.inf, -np.inf)), st.floats()))
    return xs.astype("<f8").tobytes()


@st.composite
def _after_magic(draw):
    """Bytes to follow the magic: either arbitrary, or a header of the right
    shape with arbitrary version, dimension, sizes, period and speed and a
    payload whose length is right or off by one double."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=200))
    version = draw(st.sampled_from((1,) * 6 + (0, 2)))
    dim = draw(st.sampled_from((2, 2, 3, 3, 1, 4)))
    sizes = draw(st.lists(st.sampled_from((8, 10) * 4 + (0, 7, 2**31, 2**32 - 2)),
                          min_size=dim, max_size=dim))
    head = np.array([version, dim] + sizes, dtype="<u4").tobytes() + draw(_doubles(2))
    n = int(np.prod(sizes, dtype=object))
    count = 2 * n if 0 < n <= 1000 else draw(st.integers(0, 16))
    count += draw(st.sampled_from((0, 0, 0, -1, 1)))
    return head + draw(_doubles(max(count, 0)))


class TestFieldFileProperties:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("props") / "f.gptw"

    @_PROPERTY
    @given(_fields())
    def test_round_trip_exact(self, path, field_and_c):
        f, c = field_and_c
        write_field(path, f, c=c)
        g, c2 = read_field(path)
        assert g.grid == f.grid
        assert g.values.tobytes() == f.values.tobytes()
        assert np.float64(c2).tobytes() == np.float64(c).tobytes()

    @_PROPERTY
    @given(_fields(), st.data())
    def test_strict_prefix_rejected(self, path, field_and_c, data):
        f, c = field_and_c
        write_field(path, f, c=c)
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1))
        path.write_bytes(raw[:cut])
        with pytest.raises(FieldFormatError):
            read_field(path)

    @_PROPERTY
    @given(_after_magic())
    def test_arbitrary_bytes_rejected_or_reproduced(self, path, tail):
        raw = b"GPTW" + tail
        path.write_bytes(raw)
        try:
            f, c = read_field(path)
        except FieldFormatError:
            return
        write_field(path, f, c=c)
        assert path.read_bytes() == raw


# ---------------------------------------------------------------------------
# Spectral resampling between nested grids, and the coarsest grid that
# resolves a field.
# ---------------------------------------------------------------------------

_coarse_sizes = st.one_of(
    st.tuples(*[st.sampled_from((8, 10, 12, 16))] * 2),
    st.tuples(*[st.sampled_from((8, 10))] * 3),
)


@st.composite
def _coarse_fields(draw, band_limited):
    """A seeded Gaussian field on a small 2-d or 3-d grid. band_limited
    zeroes every mode with |k_j| = n_j/2 on some axis, so the field has no
    Nyquist content; otherwise every mode is drawn."""
    sizes = draw(_coarse_sizes)
    grid = TorusGrid(sizes, draw(st.floats(min_value=1.0, max_value=100.0)))
    f = random_field(grid, draw(st.integers(0, 2**32 - 1)))
    if not band_limited:
        return f
    spec = transform_forward(f)
    for ax, m in enumerate(sizes):
        index = [slice(None)] * len(sizes)
        index[ax] = m // 2
        spec[tuple(index)] = 0.0
    return ComplexField(grid, fft_inverse(spec))


def _refined(grid, factors):
    return TorusGrid(tuple(f * m for f, m in zip(factors, grid.sizes)), grid.period)


class TestResample:
    @_PROPERTY
    @given(_coarse_fields(band_limited=False),
           st.lists(st.sampled_from((1, 2, 3)), min_size=3, max_size=3))
    def test_restriction_undoes_prolongation(self, f, factors):
        fine = resample(f, _refined(f.grid, factors))
        back = resample(fine, f.grid)
        assert back.grid == f.grid
        assert np.abs(back.values - f.values).max() <= 1e-13 * (1 + np.abs(f.values).max())

    @_PROPERTY
    @given(_coarse_fields(band_limited=False))
    def test_prolongation_interpolates(self, f):
        # the Nyquist split keeps the interpolant equal to f at f's nodes
        fine = resample(f, _refined(f.grid, (2, 2, 2)))
        nodes = fine.values[(slice(None, None, 2),) * f.grid.dim]
        assert np.abs(nodes - f.values).max() <= 1e-13 * (1 + np.abs(f.values).max())

    @_PROPERTY
    @given(_coarse_fields(band_limited=False))
    def test_prolongation_keeps_real_fields_real(self, f):
        # the Nyquist split: a whole coarse Nyquist mode on +n/2 or -n/2
        # alone would interpolate cos(pi x / h) by exp(+-i pi x / h)
        real = f.with_values(f.values.real)
        fine = resample(real, _refined(f.grid, (2, 2, 2)))
        assert np.abs(fine.values.imag).max() <= 1e-13 * (1 + np.abs(f.values).max())

    @_PROPERTY
    @given(_coarse_fields(band_limited=True), st.floats(min_value=0.0, max_value=2.0))
    def test_prolongation_keeps_kinetic_energy_and_momentum(self, f, c):
        fine = resample(f, _refined(f.grid, (2, 2, 2)))
        p = Params(c=c)
        kin, _, mom = Kernel(f.grid, p, half=False).parts(f.values)
        kin_fine, _, mom_fine = Kernel(fine.grid, p, half=False).parts(fine.values)
        assert abs(kin_fine - kin) <= 1e-12 * kin
        assert abs(mom_fine - mom) <= 1e-12 * kin

    def test_same_grid_is_identity(self, grid16):
        f = random_field(grid16, 3)
        assert resample(f, grid16) is f

    @pytest.mark.parametrize("sizes,period", [((32, 32), 3.0), ((32, 32, 32), 2 * np.pi)])
    def test_other_torus_rejected(self, grid16, sizes, period):
        with pytest.raises(GridMismatch):
            resample(random_field(grid16, 3), TorusGrid(sizes, period))


class TestCoarsestGrid:
    @pytest.mark.parametrize("size", [256, 128])
    def test_vortex_pair_at_criterion_scale(self, size):
        g = TorusGrid((size, size), 40.0)
        f = vortex_test_function(fitted_vortex_ansatz(8.0, 40.0), g)
        assert coarsest_grid(f) == TorusGrid((64, 64), 40.0)

    def test_small_pair_keeps_its_grid(self):
        # its truncation to 32^2 has a tail of 5.7e-5
        g = TorusGrid((64, 64), 29.0)
        f = vortex_test_function(fitted_vortex_ansatz(3.5, 29.0), g)
        assert coarsest_grid(f) == g

    def test_band_limited_perturbation(self):
        # modes |k| <= 4 lie below n/3 at 16^2, not at 8^2
        g = TorusGrid((64, 64), 3.0)
        f = perturb(constant(0.0, g), 0.5, 4, 123)
        assert coarsest_grid(f) == TorusGrid((16, 16), 3.0)

    def test_content_past_a_coarse_nyquist_mode_counts_as_tail(self):
        # k = 5 sits below n/3 at 16^2 and past the Nyquist mode at 8^2,
        # where the truncation would drop it and leave the zero field
        g = TorusGrid((64, 64), 40.0)
        assert coarsest_grid(plane_wave(5, 0.0, g)) == TorusGrid((16, 16), 40.0)

    def test_white_noise_keeps_its_grid(self, grid16):
        assert coarsest_grid(random_field(grid16, 5)) == grid16

    @pytest.mark.parametrize("sizes", [(48, 48), (48, 96), (24, 24, 24)])
    def test_spectral_tail_is_the_energy_share_past_a_third(self, sizes):
        # modes k = 1 and k = n/3 + 1 along axis 0 around a mean of 1: the
        # second lies past n/3, so it alone is tail
        g = TorusGrid(sizes, 5.0)
        n = sizes[0]
        x1 = g.coords[0] * (2 * np.pi / g.period)
        f = ComplexField(g, 1.0 + 0.3 * np.exp(1j * x1) + 0.1 * np.exp(1j * (n // 3 + 1) * x1)
                         + np.zeros(sizes))
        assert spectral_tail(f) == pytest.approx(0.01 / 0.1, rel=1e-12)
        f = ComplexField(g, 1.0 + 0.3 * np.exp(1j * (n // 3) * x1) + np.zeros(sizes))
        assert spectral_tail(f) == 0.0

    @pytest.mark.parametrize("sizes,want", [
        ((96, 96), (12, 12)),
        ((40, 96), (10, 24)),
        ((8, 8), (8, 8)),
        ((64, 64, 64), (8, 8, 8)),
    ])
    def test_constant_halves_while_sizes_are_even_and_at_least_8(self, sizes, want):
        g = TorusGrid(sizes, 5.0)
        assert coarsest_grid(constant(1.0, g)) == TorusGrid(want, 5.0)

    @_PROPERTY
    @given(st.one_of(st.tuples(*[st.sampled_from(range(8, 201, 2))] * 2),
                     st.tuples(*[st.sampled_from((8, 12, 16, 24, 32))] * 3)),
           st.integers(0, 2**32 - 1), st.sampled_from((1, 2, 3, 6)))
    def test_sizes_stay_even_and_at_least_8(self, sizes, seed, band):
        g = TorusGrid(sizes, 7.0)
        band = min(band, min(sizes) // 2 - 1)
        got = coarsest_grid(perturb(constant(1.0, g), 0.3, band, seed))
        ratios = {m // n for m, n in zip(sizes, got.sizes)}
        assert len(ratios) == 1 and all(m % n == 0 for m, n in zip(sizes, got.sizes))
        assert all(n >= 8 and n % 2 == 0 for n in got.sizes)
        assert got.period == g.period
        # modes |k_j| <= band leave no tail on a grid with n_j >= 3 * band,
        # so the halving stops only where the next grid is invalid or finer
        # than that
        halved = [n // 2 for n in got.sizes]
        assert any(n < 8 or n % 2 for n in halved) or min(halved) < 3 * band


_CLASS_PROPERTY = settings(derandomize=True, database=None, max_examples=20, deadline=None)


class TestReflectionClass:
    """H = {psi : psi(-x) = conj psi(x)}: membership to rounding, and the
    class transform pair with its half-grid storage and node weights."""

    def test_path_nodes_are_in_class(self):
        g = TorusGrid((64, 64), 29.0)
        assert all(in_class(n) for n in init_path(g, 3.5, node_count=9).nodes)

    @_CLASS_PROPERTY
    @given(a=st.floats(0.1, 2.0), k=st.integers(-3, 3), size=st.sampled_from([8, 16, 32]),
           dim=st.sampled_from([2, 3]))
    def test_plane_wave_is_in_class(self, a, k, size, dim):
        g = TorusGrid((size,) * dim, 11.0)
        f = ComplexField(g, a * np.exp(1j * k * 2.0 * np.pi / g.period * g.coords[0])
                         * np.ones(g.sizes))
        assert in_class(f)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_translated_node_leaves_class(self, axis):
        g = TorusGrid((64, 64), 29.0)
        node = init_path(g, 3.5, node_count=5).nodes[2]
        assert in_class(node)
        assert not in_class(node.with_values(np.roll(node.values, 1, axis=axis)))

    def test_rotated_node_leaves_class(self):
        g = TorusGrid((64, 64), 29.0)
        node = init_path(g, 3.5, node_count=5).nodes[2]
        assert not in_class(node.with_values(np.exp(0.7j) * node.values))

    @_CLASS_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), one=st.booleans(),
           amplitude=st.sampled_from([0.1, 0.5, 1.0]))
    def test_scan_start_leaves_class(self, seed, one, amplitude):
        # a band-4 start of the constancy scan, about the constant 1 or 0
        g = TorusGrid((32, 32), 5.0)
        base = constant(0.0, g) if one else ComplexField(g, np.zeros(g.sizes))
        assert not in_class(perturb(base, amplitude, 4, seed))

    @pytest.mark.parametrize("sizes", [(16, 16), (64, 64), (8, 8, 8)])
    @_CLASS_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1))
    def test_transform_pair(self, sizes, seed):
        # class_inverse and class_forward invert each other; the mirrored
        # field is fft_inverse of the real spectrum, and its node sum over
        # the half grid with the column weights is Parseval's
        grid = TorusGrid(sizes, 7.0)
        spec = np.random.default_rng(seed).standard_normal(sizes)
        half = class_inverse(spec)
        assert half.shape == sizes[:-1] + (sizes[-1] // 2 + 1,)
        assert np.abs(class_forward(half, sizes) - spec).max() <= 1e-13 * np.abs(spec).max()
        full = ComplexField(grid, mirror(half, grid))
        assert in_class(full)
        assert np.array_equal(half_values(full.values), half)
        assert np.abs(full.values - fft_inverse(spec)).max() <= 1e-13 * np.abs(full.values).max()
        back = fft_forward(full.values)
        assert np.abs(back - spec).max() <= 1e-13 * np.abs(spec).max()
        kern = Kernel(grid, Params(c=1.0), half=True)
        energy = l2_norm(full) ** 2
        assert kern.spectral_dot(spec, spec) == pytest.approx(energy, rel=1e-13)
        assert kern.dot(half, half) == pytest.approx(energy, rel=1e-13)


def _full_deviation_in_class(v):
    """in_class by its definition: the sup-norm deviation of the reflected
    conjugate over the whole grid, REFLECTION_TOL relative to max |v|."""
    reflected = np.roll(np.flip(v), 1, tuple(range(v.ndim)))
    return bool(np.abs(reflected.conj() - v).max() <= REFLECTION_TOL * np.abs(v).max())


def _class_field(grid, seed, band):
    """A random field of H with modes |k_j| <= band: a real spectrum."""
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.sizes)
    index = tuple(np.r_[0:band + 1, m - band:m] for m in grid.sizes)
    spec[np.ix_(*index)] = rng.standard_normal(tuple(2 * band + 1 for _ in grid.sizes))
    return ComplexField(grid, fft_inverse(spec))


def _criterion5_pair():
    """The criterion-5 start 1 + w_R (T = 40, R = 8) on 64^2, where its
    descent finds the basin, and the minimizer reached from it."""
    g = TorusGrid((64, 64), 40.0)
    start = vortex_test_function(fitted_vortex_ansatz(8.0, 40.0), g)
    return start, minimize_action(start, Params(c=1.0),
                                  MinimizeOptions(grad_tol=2e-7)).field


class TestClassVerdict:
    """in_class rejects on the mean of f before it forms any deviation, and
    otherwise forms it in one full-size temporary; its verdict is the
    definition's."""

    def test_named_fields(self):
        g = TorusGrid((64, 64), 29.0)
        node = init_path(g, 3.5, node_count=9).nodes[4]
        start, minimizer = _criterion5_pair()
        members = list(init_path(g, 3.5, node_count=9).nodes) + [
            plane_wave(-1, 1.0, g), start, minimizer, ComplexField(g, np.zeros(g.sizes))]
        others = [node.with_values(np.roll(node.values, 1, axis=0)),
                  start.with_values(np.roll(start.values, 1, axis=1)),
                  node.with_values(np.exp(0.7j) * node.values),
                  minimizer.with_values(np.exp(0.7j) * minimizer.values),
                  perturb(constant(0.0, g), 0.5, 4, 7)]
        for f in members:
            assert in_class(f) and _full_deviation_in_class(f.values)
        for f in others:
            assert not in_class(f) and not _full_deviation_in_class(f.values)

    @_CLASS_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), band=st.integers(1, 3),
           sizes=st.sampled_from([(8, 8), (16, 16), (16, 8), (8, 8, 8)]),
           theta=st.floats(0.0, 2.0 * np.pi))
    def test_random_class_fields_and_rotations(self, seed, band, sizes, theta):
        f = _class_field(TorusGrid(sizes, 9.0), seed, band)
        assert in_class(f)
        rotated = f.with_values(np.exp(1j * theta) * f.values)
        assert in_class(rotated) == _full_deviation_in_class(rotated.values)

    @staticmethod
    def _scan_start():
        return perturb(constant(0.0, TorusGrid((32, 32), 5.0)), 0.5, 4, 11)

    @staticmethod
    def _seeded_criterion5_start():
        # translated and rotated, as perfbench's seeds >= 1 move it
        start = vortex_test_function(fitted_vortex_ansatz(8.0, 40.0), TorusGrid((64, 64), 40.0))
        return start.with_values(np.exp(0.7j) * np.roll(start.values, (5, 9), (0, 1)))

    @pytest.mark.parametrize("build", ["_scan_start", "_seeded_criterion5_start"])
    def test_rejects_from_the_mean(self, build, monkeypatch):
        from gptw import field

        def forbidden(values, axes):
            raise AssertionError("in_class formed the deviation")

        f = getattr(self, build)()
        monkeypatch.setattr(field, "_reflected", forbidden)
        assert not in_class(f)

    @pytest.mark.parametrize("n", [128, 256])
    def test_one_full_temporary(self, n, traced_peak):
        # |f| for the scale, n reals, then the reflected values, in which
        # the deviation is formed, and its modulus, n reals
        g = TorusGrid((n, n), 40.0)
        start = vortex_test_function(fitted_vortex_ansatz(8.0, 40.0), g)
        full_array = 16 * g.node_count
        for f in (start, start.with_values(np.exp(0.7j) * start.values)):
            _, peak = traced_peak(in_class, f)
            assert peak <= 1.52 * full_array
