"""Operator specs, truncations, symbols, C_mu, and eigenvector lifting."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_spec_with_s
from toeprange import linalg
from toeprange.linalg import EigenSolverError, max_norm
from toeprange.operators import (
    SPEC_ENTRY_CAP,
    TAU,
    PeriodicBandedSpec,
    SpecError,
    block_diagonalization_residual,
    c_mu,
    counterexample_spec,
    _fourier_phases,
    fourier_unitary,
    free_jacobi_spec,
    is_selfadjoint,
    lift_eigenvector,
    lifting_residual_max,
    random_spec,
    spec_to_doc,
    spectrum_match_gap,
    symbol,
    symbol_batch,
    truncation,
    validate_spec,
)


class TestSpecValidation:
    def test_counterexample_accepted(self):
        spec = counterexample_spec()
        assert spec.period == 2 and spec.band == 2
        assert np.array_equal(spec.diagonal(1), np.array([-1.0, 2.0]))
        assert np.array_equal(spec.diagonal(-1), np.zeros(2))

    def test_scalar_spec(self):
        spec = PeriodicBandedSpec(period=1, band=0, diagonals={0: [2.5]})
        assert spec.diagonal(0)[0] == 2.5

    def test_wrong_length_rejected(self):
        with pytest.raises(SpecError, match="diagonal 1"):
            PeriodicBandedSpec(period=3, band=1, diagonals={1: [1.0, 2.0]})

    def test_offset_outside_band_rejected(self):
        with pytest.raises(SpecError, match="offset 2"):
            PeriodicBandedSpec(period=2, band=1, diagonals={2: [1.0, 1.0]})

    def test_nonfinite_rejected(self):
        with pytest.raises(SpecError):
            PeriodicBandedSpec(period=1, band=0, diagonals={0: [math.inf]})

    def test_missing_offsets_filled(self):
        spec = PeriodicBandedSpec(period=2, band=2, diagonals={1: [1.0, 1.0]})
        for r in (-2, -1, 0, 2):
            assert np.array_equal(spec.diagonal(r), np.zeros(2))

    def test_stored_entry_cap(self):
        # (2 * band + 1) * period stored entries, checked before allocating.
        PeriodicBandedSpec(period=1, band=(SPEC_ENTRY_CAP - 1) // 2)
        with pytest.raises(SpecError, match="cap"):
            PeriodicBandedSpec(period=1, band=SPEC_ENTRY_CAP // 2)
        with pytest.raises(SpecError, match="cap"):
            validate_spec({"period": 4096, "band": 64})
        with pytest.raises(SpecError, match="cap"):
            validate_spec({"period": 1, "band": 10**12})

    @pytest.mark.parametrize("value", [2.7, "2", True, math.nan, None])
    def test_non_integer_period_or_band_rejected(self, value):
        for field in ("period", "band"):
            with pytest.raises(SpecError, match=f"{field} must be an integer"):
                validate_spec({"period": 2, "band": 1, field: value})
            with pytest.raises(SpecError, match=f"{field} must be an integer"):
                PeriodicBandedSpec(**{"period": 2, "band": 1, field: value})

    def test_integral_period_and_band_accepted(self):
        spec = validate_spec({"period": 2.0, "band": np.int64(1)})
        assert (spec.period, spec.band) == (2, 1)
        assert type(spec.period) is int and type(spec.band) is int

    def test_zero_operator_allowed(self):
        spec = PeriodicBandedSpec(period=2, band=1, diagonals={})
        assert spec.max_entry() == 0.0

    def test_validate_from_mapping(self):
        doc = {"period": 2, "band": 2, "diagonals": {"1": [-1, 2], "2": [[1, 0], 1]}}
        spec = validate_spec(doc)
        assert np.array_equal(spec.diagonal(2), np.array([1.0, 1.0]))

    def test_doc_roundtrip(self):
        spec = counterexample_spec()
        again = validate_spec(spec_to_doc(spec))
        for r in range(-2, 3):
            assert np.array_equal(spec.diagonal(r), again.diagonal(r))


class TestTruncation:
    def test_counterexample_5x5(self):
        want = np.array(
            [
                [0, -1, 1, 0, 0],
                [0, 0, 2, 1, 0],
                [0, 0, 0, -1, 1],
                [0, 0, 0, 0, 2],
                [0, 0, 0, 0, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(truncation(counterexample_spec(), 5), want)

    def test_single_entry(self):
        spec = PeriodicBandedSpec(period=2, band=1, diagonals={0: [3.0, 4.0]})
        assert np.array_equal(truncation(spec, 1), np.array([[3.0 + 0j]]))

    def test_tridiagonal_window(self):
        # hand-expanded 7x7 window of a period-3 tridiagonal layout: the
        # subdiagonal carries a_j at row j, the diagonal b_j, the
        # superdiagonal c_j, all cycling with period 3
        spec = PeriodicBandedSpec(
            period=3,
            band=1,
            diagonals={-1: [10, 11, 12], 0: [20, 21, 22], 1: [30, 31, 32]},
        )
        want = np.array(
            [
                [20, 30, 0, 0, 0, 0, 0],
                [11, 21, 31, 0, 0, 0, 0],
                [0, 12, 22, 32, 0, 0, 0],
                [0, 0, 10, 20, 30, 0, 0],
                [0, 0, 0, 11, 21, 31, 0],
                [0, 0, 0, 0, 12, 22, 32],
                [0, 0, 0, 0, 0, 10, 20],
            ],
            dtype=complex,
        )
        assert np.array_equal(truncation(spec, 7), want)

    def test_periodicity_and_bandedness(self):
        rng = np.random.default_rng(10)
        spec = random_spec(rng, 3, 2)
        t = truncation(spec, 14)
        d = spec.period
        for j in range(14 - d):
            for k in range(14 - d):
                assert t[j, k] == t[j + d, k + d]
        for j in range(14):
            for k in range(14):
                if abs(j - k) > spec.band:
                    assert t[j, k] == 0.0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            truncation(counterexample_spec(), 0)

    def test_leading_section_of_c_mu(self):
        # Once s(n+1) >= N + m, no wrapped entry reaches the leading N x N
        # section of C_mu, so it is the truncation, also with m >= n + 1.
        rng = np.random.default_rng(11)
        cases = 0
        while cases < 1200:
            period = int(rng.integers(1, 7))
            spec = random_spec(rng, period, int(rng.integers(0, 3 * period + 3)))
            n_rows = int(rng.integers(1, 3 * period + 3))
            s = max(2, -(-(n_rows + spec.band) // period), -(-(2 * spec.band + 1) // period))
            for extra in (0, int(rng.integers(1, 4))):
                got = c_mu(spec, s + extra)[:n_rows, :n_rows]
                assert np.array_equal(got, truncation(spec, n_rows)), (period, spec.band, n_rows)
                cases += 1

    def test_no_second_copy_of_the_section(self):
        # The leading section is a view of the block matrix, not a copy of it.
        spec = random_spec(np.random.default_rng(12), 3, 4)
        n_rows = 1000
        tracemalloc.start()
        try:
            truncation(spec, n_rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * n_rows**2

    @pytest.mark.parametrize(
        "build, period",
        [
            # The harmonics dominate the first and the selfadjoint test, the
            # 16 x 16 blocks and a block row's copy the second.
            (lambda spec: truncation(spec, 5), 512),
            (lambda spec: truncation(spec, 1000), 64),
            (is_selfadjoint, 512),
        ],
        ids=["truncation5", "truncation1000", "selfadjoint"],
    )
    def test_size_check_charges_the_peak(self, monkeypatch, build, period):
        spec = random_spec(np.random.default_rng(5), period, 3)
        tracemalloc.start()
        try:
            build(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The estimate is at least the peak: a cap one byte below refuses it.
        monkeypatch.setattr(linalg, "BYTE_CAP", peak - 1)
        with pytest.raises(ValueError, match=f"at period {period} .* cap"):
            build(spec)


class TestLeadingBlockOfCMu:
    @pytest.mark.parametrize("selfadjoint", [False, True])
    def test_leading_block_of_c_mu(self, selfadjoint):
        # With s = max(ceil((n + m) / d), ceil((2m + 1) / d)), T_n is the
        # leading block of C_mu, and the phase table times an eigenvector's
        # entries gives the rows of its unit lift past the block.
        rng = np.random.default_rng(27)
        for period in range(1, 6):
            for band in range(7):
                spec = random_spec(rng, period, band, selfadjoint=selfadjoint)
                for n in sorted({1, max(1, period - 1), period + 2, 3 * period + band}):
                    s = max(-(-(n + band) // period), -(-(2 * band + 1) // period))
                    mu = s * period
                    assert mu >= n + band and mu >= 2 * band + 1
                    t = truncation(spec, n)
                    if s >= 2:
                        assert np.array_equal(c_mu(spec, s)[:n, :n], t)
                    block, position = np.divmod(np.arange(n, mu), period)
                    vectors = rng.standard_normal((s, period, period)) + 0j
                    phases = _fourier_phases(s, block)
                    removed = np.concatenate([phases[q][:, None] * vectors[q][position]
                                              for q in range(s)], axis=1)
                    lifts = np.stack([lift_eigenvector(v, q, s)
                                      for q in range(s) for v in vectors[q].T], axis=1)
                    assert np.allclose(removed, lifts[n:] / math.sqrt(s), rtol=0, atol=1e-13)


class TestSymbol:
    def test_counterexample_formula(self):
        spec = counterexample_spec()
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-20, 20, 100):
            z = np.exp(1j * theta)
            want = np.array([[z, -1.0], [2 * z, z]])
            assert max_norm(symbol(spec, theta) - want) <= 1e-14

    def test_two_periodic_five_banded_layout(self):
        # displayed 2x2 layout for band 2: p e^{-i t} + r + t e^{i t} on the
        # diagonal, q e^{-i t} + s above, q + s e^{i t} below
        rng = np.random.default_rng(12)
        p, q, r, s, t = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(5))
        spec = PeriodicBandedSpec(
            period=2, band=2, diagonals={-2: p, -1: q, 0: r, 1: s, 2: t}
        )
        theta = 0.83
        e_plus, e_minus = np.exp(1j * theta), np.exp(-1j * theta)
        want = np.array(
            [
                [p[0] * e_minus + r[0] + t[0] * e_plus, q[0] * e_minus + s[0]],
                [q[1] + s[1] * e_plus, p[1] * e_minus + r[1] + t[1] * e_plus],
            ]
        )
        assert max_norm(symbol(spec, theta) - want) < 1e-14

    def test_three_periodic_five_banded_layout(self):
        rng = np.random.default_rng(13)
        p, q, r, s, t = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5))
        spec = PeriodicBandedSpec(
            period=3, band=2, diagonals={-2: p, -1: q, 0: r, 1: s, 2: t}
        )
        theta = -1.91
        e_plus, e_minus = np.exp(1j * theta), np.exp(-1j * theta)
        want = np.array(
            [
                [r[0], p[0] * e_minus + s[0], q[0] * e_minus + t[0]],
                [q[1] + t[1] * e_plus, r[1], p[1] * e_minus + s[1]],
                [s[2] * e_plus + p[2], q[2] + t[2] * e_plus, r[2]],
            ]
        )
        assert max_norm(symbol(spec, theta) - want) < 1e-14

    def test_four_periodic_five_banded_layout(self):
        # derived from the defining sum; entry (1, 3) is p1 e^{-i t} + t1
        rng = np.random.default_rng(14)
        p, q, r, s, t = (rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(5))
        spec = PeriodicBandedSpec(
            period=4, band=2, diagonals={-2: p, -1: q, 0: r, 1: s, 2: t}
        )
        theta = 2.4
        e_plus, e_minus = np.exp(1j * theta), np.exp(-1j * theta)
        want = np.array(
            [
                [r[0], s[0], t[0] + p[0] * e_minus, q[0] * e_minus],
                [q[1], r[1], s[1], t[1] + p[1] * e_minus],
                [p[2] + t[2] * e_plus, q[2], r[2], s[2]],
                [s[3] * e_plus, p[3] + t[3] * e_plus, q[3], r[3]],
            ]
        )
        assert max_norm(symbol(spec, theta) - want) < 1e-14

    def test_scalar_spec_constant(self):
        spec = PeriodicBandedSpec(period=1, band=0, diagonals={0: [1.5 - 2j]})
        for theta in (0.0, 1.0, 4.5):
            assert np.array_equal(symbol(spec, theta), np.array([[1.5 - 2j]]))

    def test_free_jacobi_symbol(self):
        spec = free_jacobi_spec()
        for theta in (0.0, 0.7, math.pi):
            got = symbol(spec, theta)
            assert abs(got[0, 0] - 2 * math.cos(theta)) < 1e-14

    def test_two_pi_periodicity(self):
        rng = np.random.default_rng(15)
        spec = random_spec(rng, 3, 2)
        for theta in rng.uniform(-8, 8, 20):
            gap = max_norm(symbol(spec, theta) - symbol(spec, theta + TAU))
            assert gap <= 1e-14 * (1 + spec.max_entry())

    @staticmethod
    def loop_reference(spec, theta):
        """Entry by entry: (j, k) sums exp(i u theta) * a_j^(k - j + u(n+1))
        over the integers u that keep the offset inside the band."""
        d = spec.period
        theta = math.remainder(float(theta), TAU)
        out = np.zeros((d, d), dtype=complex)
        for j in range(d):
            for k in range(d):
                base = k - j
                u_lo = math.ceil((-spec.band - base) / d)
                u_hi = math.floor((spec.band - base) / d)
                for u in range(u_lo, u_hi + 1):
                    coeff = spec.diagonal(base + u * d)[j]
                    out[j, k] += coeff * complex(math.cos(u * theta), math.sin(u * theta))
        return out

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(16)
        spec = random_spec(rng, 4, 3)
        thetas = rng.uniform(-5, 5, 15)
        batch = symbol_batch(spec, thetas)
        for i, theta in enumerate(thetas):
            want = self.loop_reference(spec, theta)
            assert max_norm(batch[i] - want) < 1e-13
            assert max_norm(symbol(spec, theta) - want) < 1e-13

    def test_empty_batch(self):
        spec = random_spec(np.random.default_rng(18), 3, 2)
        assert symbol_batch(spec, []).shape == (0, 3, 3)

    def test_angles_in_range_reduce_like_the_ieee_remainder(self):
        # Each angle is reduced by math.remainder on its own, so a symbol's
        # bits do not depend on the other angles in its batch: one more angle
        # far outside [-pi, pi] leaves every other symbol unchanged.
        rng = np.random.default_rng(19)
        spec = random_spec(rng, 3, 4)
        thetas = np.concatenate(
            [rng.uniform(-math.pi, TAU, 300), [math.pi, -math.pi, TAU, 0.0, -0.0]]
        )
        batch = symbol_batch(spec, thetas)
        beside_far_angle = symbol_batch(spec, np.append(thetas, 10.0))[:-1]
        assert batch.tobytes() == beside_far_angle.tobytes()

    def test_hermitian_transfer(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            period = int(rng.integers(1, 5))
            band = int(rng.integers(0, 4))
            spec = random_spec(rng, period, band, selfadjoint=True)
            assert is_selfadjoint(spec)
            for theta in rng.uniform(0, TAU, 5):
                phi = symbol(spec, theta)
                assert max_norm(phi - phi.conj().T) <= 1e-12 * (1 + spec.max_entry())


class TestCMu:
    def test_counterexample_s3(self):
        # entrywise evaluation of the defining sum: leading 4x4 is the
        # truncation, the band wraps into the bottom-left corner
        want = np.array(
            [
                [0, -1, 1, 0, 0, 0],
                [0, 0, 2, 1, 0, 0],
                [0, 0, 0, -1, 1, 0],
                [0, 0, 0, 0, 2, 1],
                [1, 0, 0, 0, 0, -1],
                [2, 1, 0, 0, 0, 0],
            ],
            dtype=complex,
        )
        got = c_mu(counterexample_spec(), 3)
        assert np.array_equal(got, want)
        assert np.array_equal(got[:4, :4], truncation(counterexample_spec(), 4))

    def test_compression_identity(self):
        rng = np.random.default_rng(18)
        for _ in range(8):
            spec, s = random_spec_with_s(rng)
            mu = s * spec.period
            m = spec.band
            c = c_mu(spec, s)
            inner = c[: mu - m, : mu - m] if m else c
            assert np.array_equal(inner, truncation(spec, mu - m))

    def test_scalar_spec(self):
        spec = PeriodicBandedSpec(period=1, band=0, diagonals={0: [3.0 - 1j]})
        assert np.array_equal(c_mu(spec, 4), (3.0 - 1j) * np.eye(4))

    def test_matches_symbol_of_tiled_spec(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            spec, s = random_spec_with_s(rng)
            mu = s * spec.period
            tiled = PeriodicBandedSpec(
                period=mu,
                band=spec.band,
                diagonals={
                    r: np.tile(spec.diagonal(r), s)
                    for r in range(-spec.band, spec.band + 1)
                },
            )
            assert np.array_equal(c_mu(spec, s), symbol(tiled, 0.0))

    @staticmethod
    def loop_reference(spec, s):
        """Entry by entry: (j, k) sums the band entries at offsets
        k - j + u*mu over all integers u."""
        mu = s * spec.period
        out = np.zeros((mu, mu), dtype=complex)
        for j in range(mu):
            for k in range(mu):
                base = k - j
                u_lo = math.ceil((-spec.band - base) / mu)
                u_hi = math.floor((spec.band - base) / mu)
                for u in range(u_lo, u_hi + 1):
                    out[j, k] += spec.diagonal(base + u * mu)[j % spec.period]
        return out

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(12):
            spec, s = random_spec_with_s(rng)
            assert np.array_equal(c_mu(spec, s), self.loop_reference(spec, s))
        spec = random_spec(np.random.default_rng(21), 8, 4)
        for s in (4, 8, 16):  # mu = 32, 64, 128
            assert np.array_equal(c_mu(spec, s), self.loop_reference(spec, s))

    def test_preconditions(self):
        spec = counterexample_spec()
        with pytest.raises(ValueError):
            c_mu(spec, 1)
        with pytest.raises(ValueError):
            c_mu(spec, 2)  # s(n+1) = 4 < 2m+1 = 5


class TestFourierUnitary:
    def test_two_point_transform(self):
        want = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
        assert max_norm(fourier_unitary(1, 2) - want) < 1e-15

    def test_displayed_columns(self):
        # columns ordered f_{0,0}, f_{1,0}, f_{0,1}, f_{1,1} with
        # rho = exp(2 pi i / 2) = -1
        u = fourier_unitary(2, 2)
        want = np.array(
            [
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, -1, 0],
                [0, 1, 0, -1],
            ],
            dtype=complex,
        ) / math.sqrt(2)
        assert max_norm(u - want) < 1e-15

    def test_unitarity(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            s = int(rng.integers(2, 8))
            u = fourier_unitary(d, s)
            assert max_norm(u.conj().T @ u - np.eye(d * s)) <= 1e-12


class TestBlockDiagonalization:
    def test_counterexample(self):
        spec = counterexample_spec()
        for s in (3, 4, 6):
            assert block_diagonalization_residual(spec, s) <= 1e-10 * (
                1 + spec.max_entry()
            )

    def test_random_spec(self):
        rng = np.random.default_rng(21)
        spec = random_spec(rng, 3, 2)
        assert block_diagonalization_residual(spec, 5) <= 1e-10 * (1 + spec.max_entry())

    def test_scalar_spec(self):
        spec = PeriodicBandedSpec(period=1, band=0, diagonals={0: [2.0 + 1j]})
        assert block_diagonalization_residual(spec, 3) <= 1e-15


class TestLifting:
    def test_counterexample_lift(self):
        # Phi(0) = [[1, -1], [2, 1]] has closed-form eigenvalues 1 +- i sqrt(2)
        spec = counterexample_spec()
        lam = 1.0 + 1j * math.sqrt(2.0)
        phi = symbol(spec, 0.0)
        _, vectors = np.linalg.eig(phi)
        idx = int(np.argmin(np.abs(np.linalg.eigvals(phi) - lam)))
        v = vectors[:, idx]
        lifted = lift_eigenvector(v, 0, 3)
        c = c_mu(spec, 3)
        assert np.linalg.norm(c @ lifted - lam * lifted) <= 1e-9

    def test_scalar_identity_lift(self):
        spec = PeriodicBandedSpec(period=1, band=0, diagonals={0: [4.2]})
        lifted = lift_eigenvector(np.array([1.0 + 0j]), 2, 5)
        c = c_mu(spec, 5)
        assert np.linalg.norm(c @ lifted - 4.2 * lifted) < 1e-14

    def test_replication_invariant(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s, r = 5, 3
        out = lift_eigenvector(v, r, s)
        rho = np.exp(2j * np.pi / s)
        for u in range(s):
            for p in range(3):
                assert abs(out[p + 3 * u] - v[p] * rho ** (u * r)) < 1e-12

    def test_phases_are_reduced_mod_s(self):
        # At frequency s / 2 every even block's phase is rho^(k s) = 1, so
        # with the exponent reduced mod s those blocks repeat v exactly.
        v = np.random.default_rng(29).standard_normal(3) + 1j
        blocks = lift_eigenvector(v, 32, 64).reshape(64, 3)
        assert all(np.array_equal(block, v) for block in blocks[::2])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lift_eigenvector(np.ones((2, 2), dtype=complex), 0, 2)
        with pytest.raises(ValueError):
            lift_eigenvector(np.ones(2, dtype=complex), 2, 2)

    def test_spectrum_multiset_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            spec, s = random_spec_with_s(rng)
            assert spectrum_match_gap(spec, s) <= 1e-8

    def test_lifting_residuals(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            spec, s = random_spec_with_s(rng)
            assert lifting_residual_max(spec, s) <= 1e-8

    def test_selfadjoint_spectrum_identity_via_eigh(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            period = int(rng.integers(1, 4))
            band = int(rng.integers(0, 3))
            spec = random_spec(rng, period, band, selfadjoint=True)
            s = next(t for t in range(2, 9) if t * period >= 2 * band + 1 and t >= 2)
            c = c_mu(spec, s)
            blocks = [symbol(spec, TAU * r / s) for r in range(s)]
            # eigvalsh reads one triangle only, so check Hermiticity first.
            for m in [c, *blocks]:
                assert max_norm(m - m.conj().T) <= 1e-12 * (1.0 + max_norm(m))
            from_c = np.linalg.eigvalsh(c)
            from_blocks = np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in blocks]))
            assert np.max(np.abs(from_c - from_blocks)) <= 1e-8


class TestStructuralChecks:
    """``spectrum_match_gap`` and ``lifting_residual_max`` on the specs the
    ``verify`` benchmark runs (period 8, band 4, seeds 0-9) and on the
    counterexample, where the characteristic-coefficient comparison used to
    read up to 1.0."""

    @staticmethod
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def test_spectrum_gap_is_at_rounding_level(self):
        for seed in range(10):
            spec = random_spec(np.random.default_rng(seed), 8, 4)
            for s in (4, 8, 16):
                assert spectrum_match_gap(spec, s) <= 1e-12, (seed, s)
        spec = counterexample_spec()
        for s in (3, 4, 6, 32, 64):
            assert spectrum_match_gap(spec, s) <= 1e-12, s

    def test_spectrum_gap_at_large_mu(self):
        spec = random_spec(np.random.default_rng(0), 8, 4)
        assert spectrum_match_gap(spec, 64) <= 1e-12

    def test_planted_shift_is_detected(self, monkeypatch):
        eigvals = np.linalg.eigvals

        def shifted(a):
            values = eigvals(a)
            if values.ndim == 2:  # the stack of symbol blocks
                values[1, 0] += 1e-6
            return values

        spec = random_spec(np.random.default_rng(0), 8, 4)
        monkeypatch.setattr(np.linalg, "eigvals", shifted)
        assert spectrum_match_gap(spec, 4) > 1e-8

    def test_lifting_matches_per_block_eig(self):
        # The loop over lifts, one gemv each, is the reference; the one gemm
        # over all lifts rounds differently, so the maxima agree to 1e-15.
        rng = np.random.default_rng(26)
        cases = [(random_spec(np.random.default_rng(0), 8, 4), 4),
                 (random_spec(np.random.default_rng(0), 8, 4), 16),
                 (counterexample_spec(), 3), (free_jacobi_spec(), 16)]
        cases += [random_spec_with_s(rng) for _ in range(8)]
        for spec, s in cases:
            c = c_mu(spec, s)
            worst = 0.0
            for r, phi in enumerate(symbol_batch(spec, TAU * np.arange(s) / s)):
                values, vectors = np.linalg.eig(phi)
                for lam, vec in zip(values, vectors.T):
                    w = lift_eigenvector(vec, r, s)
                    w = w / np.linalg.norm(w)
                    worst = max(worst, float(np.linalg.norm(c @ w - lam * w)) / (1.0 + abs(lam)))
            assert abs(lifting_residual_max(spec, s) - worst) <= 1e-15

    @pytest.mark.parametrize(
        "check, routine",
        [(spectrum_match_gap, "eigvals"), (lifting_residual_max, "eig")],
    )
    def test_lapack_failure_is_an_eigensolver_error(self, monkeypatch, check, routine):
        monkeypatch.setattr(np.linalg, routine, self.fail)
        with pytest.raises(EigenSolverError):
            check(counterexample_spec(), 3)
