import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliqs.errors import DomainError
from fliqs.formats import (
    BF16,
    ENUMERATION_BIT_LIMIT,
    float_format,
    int_format,
    max_representable,
    representable_values,
    total_bitwidth,
)
from fliqs.quantize import bf16_round, quant_error, quantize, switching_error
from quantize_oracle import oracle_bf16, oracle_quantize

# Every enumerable format up to 8 total bits, the oracle-equivalence surface.
ORACLE_FORMATS = [int_format(k) for k in range(2, 9)] + [
    float_format(e, m)
    for e in range(1, 7)
    for m in range(1, 8)
    if 1 + e + m <= 8
]


def _format_ids(fmts):
    return [f.name for f in fmts]


class TestHandValues:
    def test_int4_at_0p3(self):
        q = quantize(0.3, "INT4", 1.0)
        assert q == 2.0 / 7.0

    def test_int4_saturates_at_threshold(self):
        assert quantize(1.5, "INT4", 1.0) == 1.0
        assert quantize(-9.0, "INT4", 1.0) == -1.0

    def test_int8_at_0p3(self):
        assert quantize(0.3, "INT8", 1.0) == 38.0 / 127.0

    def test_quant_error_at_fixed_point(self):
        assert quant_error(2.0 / 7.0, "INT4", 1.0) == 0.0

    def test_quant_error_at_0p3(self):
        err = float(quant_error(0.3, "INT4", 1.0))
        assert err == pytest.approx(0.3 - 2.0 / 7.0, abs=1e-15)

    def test_switching_int4_int8(self):
        err = float(switching_error(0.3, "INT4", "INT8", 1.0))
        assert err == pytest.approx(38.0 / 127.0 - 2.0 / 7.0, abs=1e-15)
        assert err == pytest.approx(0.013498, abs=1e-6)

    def test_switching_same_format_is_zero(self):
        x = np.random.default_rng(7).normal(size=100)
        assert np.all(switching_error(x, "INT5", "INT5", 2.0) == 0.0)

    def test_threshold_scales_grid(self):
        # threshold 2.0 doubles every grid point
        x = np.linspace(-3, 3, 101)
        assert np.allclose(quantize(x, "INT4", 2.0), 2.0 * quantize(x / 2.0, "INT4", 1.0))


class TestValidation:
    def test_missing_threshold(self):
        with pytest.raises(DomainError):
            quantize(0.5, "INT4")

    def test_nonpositive_threshold(self):
        with pytest.raises(DomainError):
            quantize(0.5, "INT4", 0.0)
        with pytest.raises(DomainError):
            quantize(0.5, "INT4", -1.0)

    def test_non_finite_input(self):
        with pytest.raises(DomainError):
            quantize(np.array([1.0, np.nan]), "INT4", 1.0)
        with pytest.raises(DomainError):
            quantize(np.array([np.inf]), "BF16")

    def test_bf16_ignores_threshold(self):
        x = np.array([1.0, 100.0, 1e30])
        assert np.array_equal(quantize(x, BF16), bf16_round(x))


@pytest.mark.parametrize("fmt", ORACLE_FORMATS, ids=_format_ids(ORACLE_FORMATS))
class TestOracleEquivalence:
    def test_random_inputs(self, fmt):
        rng = np.random.default_rng(hash(fmt.name) % 2**32)
        x = rng.normal(0.0, 1.0, size=2000)
        for t in (1.0, 0.73, 3.0):
            got = quantize(x, fmt, t)
            want = oracle_quantize(x, fmt, t)
            assert np.array_equal(got, want), f"{fmt.name} t={t}"

    def test_exact_midpoint_ties(self, fmt):
        # Power-of-two scales make grid midpoints exactly representable,
        # so the tie-to-even rule is genuinely exercised.
        if fmt.kind == "int":
            qmax = 2 ** (fmt.bits - 1) - 1
            t = qmax * 0.25
            grid = np.arange(-qmax, qmax)  # left endpoints
            mids = (grid + 0.5) * 0.25
        else:
            t = max_representable(fmt) * 0.25
            vals = representable_values(fmt) * 0.25
            mids = (vals[:-1] + vals[1:]) / 2.0
        got = quantize(mids, fmt, t)
        want = oracle_quantize(mids, fmt, t)
        assert np.array_equal(got, want)

    def test_representable_points_are_fixed(self, fmt):
        t = 1.5
        if fmt.kind == "int":
            pts = representable_values(fmt) * t
        else:
            pts = representable_values(fmt) * (t / max_representable(fmt))
        q = quantize(pts, fmt, t)
        assert np.allclose(q, pts, rtol=0, atol=1e-15)
        # and an exact fixed point through the oracle's materialization
        assert np.array_equal(q, oracle_quantize(pts, fmt, t))


@st.composite
def _format_and_tensor(draw):
    kind = draw(st.sampled_from(["int", "float"]))
    if kind == "int":
        fmt = int_format(draw(st.integers(2, 8)))
    else:
        e = draw(st.integers(1, 6))
        m = draw(st.integers(1, min(7, 8 - 1 - e)))
        fmt = float_format(e, m)
    x = draw(
        st.lists(
            st.floats(-50, 50, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=30,
        )
    )
    t = draw(st.floats(0.01, 20, allow_nan=False, allow_infinity=False))
    return fmt, np.asarray(x), t


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(_format_and_tensor())
    def test_idempotent(self, case):
        fmt, x, t = case
        q1 = quantize(x, fmt, t)
        q2 = quantize(q1, fmt, t)
        assert np.array_equal(q1, q2)

    @settings(max_examples=200, deadline=None)
    @given(_format_and_tensor())
    def test_symmetric(self, case):
        fmt, x, t = case
        assert np.array_equal(quantize(-x, fmt, t), -quantize(x, fmt, t))

    @settings(max_examples=200, deadline=None)
    @given(_format_and_tensor())
    def test_bounded(self, case):
        fmt, x, t = case
        q = quantize(x, fmt, t)
        assert np.all(np.abs(q) <= t * (1 + 1e-12))

    @settings(max_examples=200, deadline=None)
    @given(_format_and_tensor())
    def test_monotone(self, case):
        fmt, x, t = case
        xs = np.sort(x)
        q = quantize(xs, fmt, t)
        assert np.all(np.diff(q) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(_format_and_tensor())
    def test_matches_oracle(self, case):
        fmt, x, t = case
        assert np.array_equal(quantize(x, fmt, t), oracle_quantize(x, fmt, t))

    @settings(max_examples=100, deadline=None)
    @given(_format_and_tensor())
    def test_switching_symmetric_and_triangle(self, case):
        fmt, x, t = case
        other = int_format(6)
        ab = switching_error(x, fmt, other, t)
        ba = switching_error(x, other, fmt, t)
        assert np.array_equal(ab, ba)
        bound = quant_error(x, fmt, t) + quant_error(x, other, t)
        assert np.all(ab <= bound + 1e-12)

    def test_int_max_output_is_exactly_threshold(self):
        for k in (3, 4, 8):
            for t in (0.7, 1.0, 2.5):
                q = quantize(np.array([10.0 * t]), int_format(k), t)
                assert q[0] == t


class TestHighPrecisionLimit:
    def test_int24_switching_approximates_quant_error(self):
        # a 24-bit partner behaves like the identity inside the clip range,
        # so switching error collapses to the low-precision quantization error
        rng = np.random.default_rng(11)
        t = 3.0
        x = rng.uniform(-t, t, size=4096)
        sw = switching_error(x, int_format(24), int_format(4), t)
        qe = quant_error(x, int_format(4), t)
        assert np.all(np.abs(sw - qe) <= 2.0**-20 * t)

    def test_int24_weight_view_near_identity(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=1000)
        q = quantize(x, int_format(24), 4.0)
        clipped = np.clip(x, -4, 4)
        assert np.max(np.abs(q - clipped)) <= 4.0 / (2**23 - 1)


class TestBF16:
    def test_matches_bit_oracle(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.normal(size=500),
            rng.normal(size=500) * 1e20,
            rng.normal(size=500) * 1e-20,
        ])
        assert np.array_equal(bf16_round(x), oracle_bf16(x))

    def test_exact_on_coarse_values(self):
        x = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 256.0, 1.5])
        assert np.array_equal(bf16_round(x), x)

    def test_tie_rounds_to_even_significand(self):
        # 1 + 2^-8 sits exactly between bf16 neighbors 1.0 and 1 + 2^-7;
        # even mantissa wins, so it rounds down to 1.0
        assert bf16_round(np.array([1.0 + 2.0**-8]))[0] == 1.0
        # 1 + 3*2^-8 ties between 1 + 2^-7 and 1 + 2^-6; rounds up to even
        assert bf16_round(np.array([1.0 + 3 * 2.0**-8]))[0] == 1.0 + 2.0**-6

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=256) * 10
        once = bf16_round(x)
        assert np.array_equal(bf16_round(once), once)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=1000)
        err = np.abs(bf16_round(x) - x)
        assert np.all(err <= np.abs(x) * 2.0**-8 + 1e-300)


def test_enumeration_limit_matches_oracle_surface():
    # the acceptance sweep relies on every <= 8 bit format being enumerable
    for fmt in ORACLE_FORMATS:
        assert total_bitwidth(fmt) <= ENUMERATION_BIT_LIMIT
        representable_values(fmt)


class TestInPlaceSafety:
    """quantize rounds its own copy: the input is never written and never returned."""

    FORMATS = [("INT4", 0.8), ("INT8", 0.8), ("E2M1", 0.8), ("E4M3", 0.8), ("BF16", None)]

    @pytest.mark.parametrize("fmt,t", FORMATS)
    def test_arrays_unchanged(self, fmt, t):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(6, 10))
        for x in (base, base[:, ::3], base.T, np.array([-0.0, 0.0, 0.3, -2.0])):
            before = x.copy()
            q = quantize(x, fmt, t)
            assert x.tobytes() == before.tobytes()
            assert q.shape == x.shape and not np.shares_memory(q, x)
            assert np.array_equal(q, quantize(before, fmt, t))
        if fmt == "BF16":
            x = base.copy()
            bf16_round(x)
            assert x.tobytes() == base.tobytes()

    @pytest.mark.parametrize("fmt,t", FORMATS)
    def test_scalars_give_0d_arrays(self, fmt, t):
        for x in (0.3, np.float64(-0.3), np.array(0.3), -0.0):
            x_before = np.array(x)
            q = quantize(x, fmt, t)
            assert isinstance(q, np.ndarray) and q.shape == ()
            assert np.array(x).tobytes() == x_before.tobytes()
            assert q.item() == quantize(np.array([x]), fmt, t)[0]
        assert bf16_round(0.3).shape == ()

    def test_0d_array_input_not_written(self):
        x = np.array(0.3)
        quantize(x, "INT4", 1.0)
        quantize(x, "E4M3", 1.0)
        quantize(x, "BF16")
        assert x.item() == 0.3
