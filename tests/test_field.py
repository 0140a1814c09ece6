"""Grid, transform, derivative, inner-product, lifting and file-format tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gptw.field import (
    ComplexField,
    FieldFormatError,
    GridMismatch,
    InconsistentWinding,
    TorusGrid,
    VortexPresent,
    axis_windings,
    inner_product,
    l2_norm,
    l2_product,
    lift,
    read_field,
    read_header,
    spectral_derivative,
    transform_forward,
    transform_inverse,
    write_field,
)


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
        assert g.spacing == (3.5 / 8, 3.5 / 16)
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
        back = transform_inverse(transform_forward(f), grid16)
        assert np.linalg.norm(back.values - f.values) <= 1e-12 * np.linalg.norm(f.values)


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
        f = transform_inverse(spec, grid16)
        d = spectral_derivative(f, 0)
        assert np.abs(d.values).max() < 1e-13

    def test_axis_range(self, grid16):
        with pytest.raises(ValueError):
            spectral_derivative(random_field(grid16, 0), 2)


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

    def test_h1_of_plane_wave(self, grid16):
        T = grid16.period
        alpha = 2 * np.pi / T
        x1 = grid16.coords[0]
        f = ComplexField(grid16, np.exp(1j * alpha * x1) * np.ones(grid16.sizes))
        expected = (1 + alpha**2) * T**2
        assert inner_product(f, f) == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch(self, grid16):
        other = TorusGrid((16, 16), 1.0)
        with pytest.raises(GridMismatch):
            l2_product(random_field(grid16, 0), random_field(other, 0))


class TestLift:
    def test_constant_one(self, grid16):
        f = ComplexField(grid16, np.ones(grid16.sizes, dtype=complex))
        lr = lift(f)
        assert np.allclose(lr.rho, 1.0)
        assert np.abs(lr.theta).max() < 1e-14
        assert lr.windings == (0, 0)

    def test_unit_winding(self, grid16):
        x1 = grid16.coords[0]
        f = ComplexField(grid16, np.exp(2j * np.pi * x1 / grid16.period) * np.ones(grid16.sizes))
        lr = lift(f)
        assert lr.windings == (1, 0)
        assert np.allclose(lr.rho, 1.0)
        recon = lr.reconstruct()
        assert np.abs(recon.values - f.values).max() <= 1e-10

    def test_smooth_synthetic(self, grid16):
        # rho e^{i theta} with periodic theta plus winding, reconstruct exactly
        g = grid16
        x1, x2 = (g.coords[0] + np.zeros(g.sizes), g.coords[1] + np.zeros(g.sizes))
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * x2 / g.period)
        theta = 0.4 * np.cos(2 * np.pi * x1 / g.period) - 2 * 2 * np.pi * x1 / g.period
        f = ComplexField(g, rho * np.exp(1j * theta))
        lr = lift(f)
        assert lr.windings == (-2, 0)
        assert np.abs(lr.reconstruct().values - f.values).max() <= 1e-10
        # periodic part has no leftover linear trend
        tp = lr.theta_periodic()
        assert abs(tp[:, 0].mean() - tp[:, 1].mean()) < 1.0

    def test_vortex_on_node_raises_vortex_present(self):
        # T=48 on 64 nodes puts h=0.75; R=4.5 lands a core exactly on a grid
        # node, so the sampled modulus vanishes there
        from gptw.ansatz import VortexAnsatz, vortex_test_function
        g = TorusGrid((64, 64), 48.0)
        f = vortex_test_function(VortexAnsatz(4.5), g)
        assert float(np.abs(f.values).min()) == 0.0
        with pytest.raises(VortexPresent):
            lift(f)

    def test_vortex_off_node_raises_inconsistent_winding(self):
        # cores between nodes: the modulus stays above the floor but the
        # circulation jumps by 2*pi between lines on either side of a core
        from gptw.ansatz import VortexAnsatz, vortex_test_function
        g = TorusGrid((64, 64), 40.0)
        f = vortex_test_function(VortexAnsatz(4.0), g)
        assert float(np.abs(f.values).min()) > 0.1
        with pytest.raises(InconsistentWinding):
            lift(f)

    def test_axis_windings_consistency_measure(self, grid16):
        f = random_field(grid16, 11, scale=0.1)
        smooth = ComplexField(grid16, 1.0 + f.values * 0.01)
        windings, dev = axis_windings(smooth)
        assert windings == (0, 0)
        assert dev < 1e-6


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
