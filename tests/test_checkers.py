"""Residual checker tests with independent oracles.

Expected values for the twisted residuals come from symbolic expansion of
the expressions for linear maps (computed here with plain numpy, never with
the checker under test).
"""

import warnings

import numpy as np
import pytest

from stablab import checkers
from stablab.algebra import NonFiniteError, random_element, random_elements, spectral_norms
from stablab.checkers import (
    CHECKS,
    DECAY_BLOCK,
    DECAY_OVERFLOW_LIMIT,
    Check,
    DecayOverflowError,
    _build_report,
    _decay_batch,
    _evaluate,
    _Inputs,
    _split_sum,
    _stability_equation_values,
    additivity_ladder,
    fit_loglog_slope,
    phase_substitution_checks,
    superstability_decay_batch,
    superstability_shrinking_batch,
    telescoping_check,
)
from stablab.mappings import (
    Identity,
    Negation,
    Perturbation,
    Perturbed,
    Transpose,
    UnitaryConjugation,
    ZeroMap,
    _conj_t,
    apply_array,
    phase_permutation_unitary,
    unit_circle_grid,
    unit_direction,
)


def sample_triple(seed, dim=3, cap=5.0):
    """Three seeded one-matrix stacks, the shape every batched kernel takes."""
    return tuple(random_element(seed + k, dim, cap)[np.newaxis] for k in range(3))


def constant_perturbed(dim=3, size=0.5, direction="identity"):
    return Perturbed(
        Identity(dim),
        Perturbation(size=size, power=0.0, direction=unit_direction(dim, direction), mode="constant"),
    )


def split_inputs(a, b, c):
    return {"a": a, "b": b, "c": c}


class TestTripleSplit:
    def test_arguments_telescope_to_a(self):
        a, b, c = sample_triple(60)
        total = (b - a) / 3.0 + (a - 3.0 * c) / 3.0 + (3.0 * a + 3.0 * c - b) / 3.0
        assert np.allclose(total, a, atol=1e-14)

    def test_identity_map_gives_equality(self):
        a, b, c = sample_triple(61)
        total = _split_sum(Identity(3), split_inputs(a, b, c))
        assert np.allclose(total, a, rtol=0.0, atol=1e-13)

    def test_zero_map_gives_zero_matrix(self):
        a, b, c = sample_triple(62)
        assert np.array_equal(_split_sum(ZeroMap(3), split_inputs(a, b, c)), np.zeros_like(a))

    def test_proof_substitution_vanishes(self):
        # a = b = 0 collapses the sum to f(0) + f(-c) + f(c)
        c = random_element(90, 3, 2.0)[np.newaxis]
        z = np.zeros_like(c)
        assert spectral_norms(_split_sum(Identity(3), split_inputs(z, z, c)))[0] <= 1e-14

    def test_constant_perturbation_residual_is_twice_the_shift(self):
        # each of the three evaluated terms carries size*D and f(a) one, so the
        # residual matrix is 2*size*D
        f = constant_perturbed(size=0.5)
        shift = 2.0 * 0.5 * spectral_norms(unit_direction(3, "identity")[np.newaxis])[0]
        for seed in range(63, 75):
            a, b, c = sample_triple(seed)
            residual = spectral_norms(_split_sum(f, split_inputs(a, b, c)) - apply_array(f, a))[0]
            assert residual == pytest.approx(shift, rel=0.0, abs=1e-12)



class TestStabilityEquation:
    def test_exact_jordan_map_vanishes(self):
        f = Transpose(3)
        for seed in (100, 103, 106):
            a, b, c = sample_triple(seed)
            scale = 1.0 + max(spectral_norms(x)[0] for x in (a, b, c))
            assert spectral_norms(_stability_equation_values(f, a, b, c))[0] <= 1e-9 * scale

    def test_key_substitution_doubles_argument(self):
        # b = 2a, c = 0 collapses the equation to 3 f(a/3) - f(a)
        a = random_element(110, 3, 3.0)[np.newaxis]
        r = spectral_norms(_stability_equation_values(Identity(3), a, 2.0 * a, np.zeros_like(a)))[0]
        assert r <= 1e-14 * (1.0 + spectral_norms(a)[0])

    def test_argument_forms_agree(self):
        # (3a - b)/3 + c and (3a + 3c - b)/3 are the same up to rounding
        a, b, c = sample_triple(112)
        form_a = (3.0 * a - b) / 3.0 + c
        form_b = (3.0 * a + 3.0 * c - b) / 3.0
        assert np.allclose(form_a, form_b, atol=1e-13)


class TestDefects:
    """The square defect is column 0 of the decay sequence; the star defect is written out."""

    def test_exact_map_square_defect_vanishes(self):
        for seed in range(120, 126):
            a = random_element(seed, 3, 5.0)
            defect = superstability_decay_batch(Transpose(3), a[np.newaxis], 2)[0, 0]
            assert defect <= 1e-10 * (1.0 + spectral_norms(a[np.newaxis])[0] ** 2)

    def test_zero_map_square_defect_zero(self):
        A = random_element(5, 3, 2.0)[np.newaxis]
        assert superstability_decay_batch(ZeroMap(3), A, 2)[0, 0] == 0.0

    def test_power_perturbation_square_defect_budget(self):
        # expansion oracle: f(a^2)-f(a)^2 = eps(a^2) - {a, eps(a)} - eps(a)^2
        size, power = 1e-3, 2.0
        f = Perturbed(
            Identity(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "identity"), mode="power"),
        )
        for seed in range(130, 140):
            a = random_element(seed, 3, 2.0)
            na = spectral_norms(a[np.newaxis])[0]
            nasq = spectral_norms((a @ a)[np.newaxis])[0]
            budget = size * nasq**power + 2 * size * na ** (power + 1) + size**2 * na ** (2 * power)
            assert superstability_decay_batch(f, a[np.newaxis], 2)[0, 0] <= budget + 1e-12

    def test_star_defect_unitary_conjugation(self):
        u = phase_permutation_unitary(3, seed=3)
        f = UnitaryConjugation(u)
        # oracle: (u a u*)* == u a* u*
        a = random_element(140, 3, 2.0)
        lhs = (u @ a @ u.conj().T).conj().T
        rhs = u @ a.conj().T @ u.conj().T
        assert np.allclose(lhs, rhs, atol=1e-12)
        A = a[np.newaxis]
        defect = spectral_norms(apply_array(f, _conj_t(A)) - _conj_t(apply_array(f, A)))[0]
        assert defect <= 1e-10 * (1.0 + spectral_norms(a[np.newaxis])[0])

    def test_star_defect_self_adjoint_direction_and_point(self):
        f = constant_perturbed(size=0.3)
        sym = np.array([[1, 2], [2, -1]], dtype=complex)
        pad = np.pad(sym, ((0, 1), (0, 1)))[np.newaxis]
        assert spectral_norms(apply_array(f, _conj_t(pad)) - _conj_t(apply_array(f, pad)))[0] <= 1e-13

    def test_star_defect_skew_direction_value(self):
        # f = id + 0.4 * e01 on a = I: defect is 0.4 * ||e01 - e10|| = 0.4
        f = Perturbed(
            Identity(2),
            Perturbation(
                size=0.4, power=0.0, direction=np.array([[0, 1], [0, 0]], dtype=complex), mode="constant"
            ),
        )
        eye = np.eye(2, dtype=complex)[np.newaxis]
        defect = spectral_norms(apply_array(f, _conj_t(eye)) - _conj_t(apply_array(f, eye)))[0]
        assert defect == pytest.approx(0.4, rel=1e-11)


class TestAdditivityLadder:
    def test_exact_map_passes_all_steps(self):
        reports = additivity_ladder(Identity(3), seed=7, samples=200, tol=1e-9)
        assert [r.name for r in reports] == [
            "zero_at_zero",
            "oddness",
            "doubling",
            "tripling",
            "three_term_zero",
            "additivity",
        ]
        assert all(r.verdict == "satisfied" for r in reports)
        assert max(r.max_residual for r in reports) <= 1e-10 * 40

    def test_affine_shift_fails_at_zero_with_exact_residual(self):
        f = Perturbed(
            Identity(3),
            Perturbation(size=1.0, power=0.0, direction=unit_direction(3, "identity"), mode="affine"),
        )
        reports = additivity_ladder(f, seed=8, samples=50, tol=1e-9)
        assert reports[0].name == "zero_at_zero"
        assert reports[0].verdict == "violated"
        eye = np.eye(3, dtype=complex)
        assert reports[0].max_residual == pytest.approx(spectral_norms(eye[np.newaxis])[0], abs=1e-12)

    def test_small_power_defect_doubling_budget(self):
        # expansion oracle: f(2c) - 2f(c) = eps(2c) - 2 eps(c), so the
        # doubling residual is at most size * (2^power + 2) * ||c||^power
        size, power = 1e-3, 2.0
        f = Perturbed(
            Identity(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "identity"), mode="power"),
        )
        for seed in range(160, 190):
            c = random_element(seed, 3, 10.0)
            C = c[np.newaxis]
            residual = spectral_norms(apply_array(f, 2.0 * C) - 2.0 * apply_array(f, C))[0]
            assert residual <= size * (2.0**power + 2.0) * spectral_norms(c[np.newaxis])[0] ** power + 1e-12

    def test_telescoping_check(self):
        report = telescoping_check(UnitaryConjugation(phase_permutation_unitary(3, 11)), seed=10, samples=200, tol=1e-9)
        assert report.verdict == "satisfied"

    def test_split_inequality_check_for_exact_map(self):
        # lhs <= rhs at scale-relative tolerance on the sampled triples
        f = Transpose(2)
        A, B, C = (random_elements(12, 200, 2, 10.0, stream=s) for s in (30, 31, 32))
        lhs = spectral_norms(_split_sum(f, split_inputs(A, B, C)))
        rhs = spectral_norms(apply_array(f, A))
        scales = 1.0 + np.maximum(np.maximum(spectral_norms(A), spectral_norms(B)), spectral_norms(C))
        assert np.all(lhs - rhs <= 1e-9 * scales)


class TestPhaseChecks:
    def test_substitution_patterns_for_exact_maps(self):
        grid = unit_circle_grid(16)
        for f in (Identity(3), Transpose(3)):
            reports = phase_substitution_checks(f, grid, seed=13, samples=100, tol=1e-9)
            assert [r.name for r in reports] == ["phase_oddness", "phase_homogeneity"]
            assert all(r.verdict == "satisfied" for r in reports)

    @pytest.mark.parametrize(
        "run",
        [
            lambda samples: additivity_ladder(Identity(2), seed=15, samples=samples, tol=1e-9),
            lambda samples: telescoping_check(Identity(2), seed=15, samples=samples, tol=1e-9),
            lambda samples: phase_substitution_checks(Identity(2), unit_circle_grid(4), 15, samples, 1e-9),
        ],
        ids=["ladder", "telescoping", "phase"],
    )
    def test_entry_points_refuse_an_empty_sample(self, run):
        # every check judges at least one sample; none is built from nothing
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples must be >= 1"):
                run(samples)

    def test_an_empty_phase_grid_is_refused(self):
        # a one-phase grid finds this map violated; no phase at all is refused, never read as satisfied
        f = Perturbed(
            Identity(3), Perturbation(size=1.0, power=1.0, direction=unit_direction(3, "identity"), mode="power")
        )
        assert [r.verdict for r in phase_substitution_checks(f, [1j], 1, 20, 1e-9)] == ["violated"] * 2
        with pytest.raises(ValueError, match="a grid row needs at least one phase"):
            phase_substitution_checks(f, [], 1, 20, 1e-9)


def per_phase_loop(check, f, x, phases):
    """The grid rule one phase at a time, in full norms: keep a residual only where it beats the running maximum (from 0)."""
    count = next(iter(x.values())).shape[0]
    res, phase = np.zeros(count), np.full(count, 1.0 + 0.0j)
    for i in range(phases.size):
        r = check.residual(f, x, phases[i : i + 1, np.newaxis, np.newaxis, np.newaxis])[0]
        if np.iscomplexobj(r):  # a matrix stack, normed in full
            r = spectral_norms(r)
        better = r > res
        res, phase = np.where(better, r, res), np.where(better, phases[i], phase)
    return res, phase


def read(report):
    """What a report carries from a row, its witness inputs aside."""
    w = report.worst_witness
    return (report.max_residual, report.num_samples, report.verdict,
            None if w is None else (w.sample_index, w.residual, w.input_norms, w.phase))


class TestStackedGrid:
    """A grid row is one residual call on the whole grid; its report equals the per-phase loop it replaced."""

    @pytest.mark.parametrize("name", [name for name, check in CHECKS.items() if check.grid])
    def test_matches_per_phase_loop(self, name):
        check = CHECKS[name]
        phases = np.array(unit_circle_grid(16))
        f = Perturbed(
            Transpose(3),
            Perturbation(size=0.05, power=0.5, direction=unit_direction(3, "corner"), mode="power", odd=True),
        )
        for g in (Transpose(3), UnitaryConjugation(phase_permutation_unitary(3, 5)), f):
            x = _Inputs(g, {k: random_elements(21, 40, 3, 4.0, stream=s) for k, s in check.streams.items()})
            norms = {k: spectral_norms(v) for k, v in x.items()}
            scales = check.scale(norms)
            res, phase = _evaluate(check, g, x, phases, 1e-9 * scales)
            ref_res, ref_phase = per_phase_loop(check, g, x, phases)
            assert not np.signbit(res).any()
            # a matrix row is exact where the report reads it and an upper bound elsewhere
            exact = res == ref_res
            assert np.all(res >= ref_res)
            reports = [
                _build_report(name, r, 0.0, scales, 1e-9, norms=norms, phases=p)
                for r, p in ((res, phase), (ref_res, ref_phase))
            ]
            assert read(reports[0]) == read(reports[1])
            assert np.array_equal(phase[exact], ref_phase[exact])

    def test_first_maximum_ties_and_no_positive_residual(self):
        phases = np.array([-1.0, 1j, -1j, np.exp(0.25j * np.pi)])
        table = np.array(
            [  # rows are phases, columns samples
                [-1.0, 0.5, 0.0, 0.1, -0.0],
                [-2.0, 2.0, 0.0, 0.2, -1.0],
                [-0.5, 1.0, 0.0, 0.3, -0.0],
                [-1.0, 2.0, 0.0, 0.4, -2.0],
            ]
        )

        def residual(f, x, mu):
            rows = [int(np.flatnonzero(phases == m)[0]) for m in np.ravel(mu)]
            return table[rows].reshape(np.shape(mu)[:-3] + (table.shape[1],))

        check = Check("table", {"c": 10}, residual, grid=True)
        x = {"c": np.zeros((5, 2, 2), dtype=complex)}
        res, phase = _evaluate(check, Identity(2), x, phases, np.zeros(5))
        assert np.array_equal(res, [0.0, 2.0, 0.0, 0.4, 0.0]) and not np.signbit(res).any()
        assert np.array_equal(phase, [1.0, 1j, 1.0, phases[3], 1.0])  # the first of two maxima; 1 when none is positive
        ref_res, ref_phase = per_phase_loop(check, Identity(2), x, phases)
        assert np.array_equal(res, ref_res) and np.array_equal(phase, ref_phase)


@pytest.mark.parametrize("name", list(CHECKS))
def test_asserted_rows_return_matrix_stacks(name):
    # every asserted row is one matrix norm, taken by the runner through extreme_norms
    check = CHECKS[name]
    f = Transpose(2)
    x = _Inputs(f, {k: random_elements(23, 5, 2, 4.0, stream=s) for k, s in check.streams.items()})
    mu = 1.0 if not check.grid else np.array(unit_circle_grid(4))[:, np.newaxis, np.newaxis, np.newaxis]
    r = check.residual(f, x, mu)
    assert np.iscomplexobj(r) and r.shape == np.shape(mu)[:-3] + (5, 2, 2)


def stack_reports(stack, scales, tol):
    """Reports of a row whose residual is ``stack`` (a grid row when 4-D), normed by the runner and in full."""
    grid = np.exp(2j * np.pi * np.arange(stack.shape[0]) / stack.shape[0]) if stack.ndim == 4 else ()
    x = {"c": np.zeros((stack.shape[-3], 1, 1), dtype=complex)}
    reports = []
    for residual, allowance in ((lambda f, x, mu: stack, tol * scales), (lambda f, x, mu: spectral_norms(stack), None)):
        res, phases = _evaluate(Check("stack", {"c": 10}, residual, grid=stack.ndim == 4), Identity(1), x, grid, allowance)
        reports.append(read(_build_report("stack", res, 0.0, scales, tol, norms={"c": scales}, phases=phases)))
    return reports


def random_stack(rng, shape, magnitudes=(1.0,)):
    """A complex normal stack, each sample scaled by one of ``magnitudes``."""
    scale = rng.choice(magnitudes, size=shape[-3])[:, None, None]
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale


class TestExtremeRows:
    """A row that returns a matrix stack reports what full norms report: extremes, verdict and witness."""

    SHAPES = [(50, 2, 2), (50, 3, 3), (6, 50, 2, 2), (6, 50, 3, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("tol", [1e-9, 0.05, 1.0])
    def test_random_stacks(self, shape, tol):
        # a large tol moves the worst excess off the largest residual
        rng = np.random.default_rng(len(shape) * 10 + shape[-1])
        for _ in range(20):
            scales = 1.0 + 10.0 * rng.random(shape[-3])
            fast, full = stack_reports(random_stack(rng, shape), scales, tol)
            assert fast == full

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ties(self, shape):
        # samples and phases repeat a few matrices, so the first of equal extremes decides
        rng = np.random.default_rng(5)
        base = random_stack(rng, (4, *shape[-2:]))
        for tol in (1e-9, 0.3):
            stack = base[rng.integers(0, 4, size=shape[:-2])]
            scales = rng.choice([1.0, 2.0, 4.0], size=shape[-3])
            fast, full = stack_reports(stack, scales, tol)
            assert fast == full

    @pytest.mark.parametrize("shape", SHAPES)
    def test_zero_stacks(self, shape):
        rng = np.random.default_rng(6)
        zeros = np.zeros(shape, dtype=complex)
        fast, full = stack_reports(zeros, np.ones(shape[-3]), 1e-9)
        assert fast == full
        # every third sample nonzero, and a -0.0 sample among the zeros
        mixed = zeros.copy()
        mixed[..., ::3, :, :] = random_stack(rng, mixed[..., ::3, :, :].shape)
        mixed[..., 1, :, :] = -0.0
        fast, full = stack_reports(mixed, 1.0 + rng.random(shape[-3]), 1e-9)
        assert fast == full

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("tol", [1e-9, 0.05])
    def test_unbounded_brackets(self, shape, tol):
        # entries near 1e-160 or 1e160 leave their squares' range: the bracket is [0, inf)
        rng = np.random.default_rng(7)
        for _ in range(10):
            stack = random_stack(rng, shape, (1e-160, 1e-3, 1.0, 1e160))
            fast, full = stack_reports(stack, 1.0 + rng.random(shape[-3]), tol)
            assert fast == full

    @pytest.mark.parametrize(
        "f",
        [
            Transpose(3),
            UnitaryConjugation(phase_permutation_unitary(3, 4)),
            Perturbed(Identity(3), Perturbation(size=0.3, power=0.0, direction=unit_direction(3, "identity"), mode="affine")),
            Perturbed(
                Transpose(3),
                Perturbation(size=0.05, power=0.5, direction=unit_direction(3, "corner"), mode="power", odd=True),
            ),
        ],
    )
    def test_rows_report_as_full_norms(self, monkeypatch, f):
        grid = unit_circle_grid(8)
        runs = []
        for full in (False, True):
            if full:
                monkeypatch.setattr(checkers, "extreme_norms", lambda mats, allowance: spectral_norms(mats))
            reports = [
                *additivity_ladder(f, 9, 60, 1e-9),
                telescoping_check(f, 9, 60, 1e-9),
                *phase_substitution_checks(f, grid, 9, 60, 1e-9),
            ]
            runs.append([read(r) for r in reports])
        assert runs[0] == runs[1]


def per_n_loop(f, A, n_max, shrink):
    """The decay sequence one n at a time: a cutoff on the carried argument norm, two maps, a matmul and a norm per n."""
    Asq = A @ A
    na, nsq = spectral_norms(A), spectral_norms(Asq)
    out = np.empty((A.shape[0], n_max))
    for n in range(1, n_max + 1):
        n2 = float(n * n)
        if shrink:
            arg, fa_arg, n_arg, n_fa = Asq / n2, A / float(n), nsq / n2, na / float(n)
        else:
            arg, fa_arg, n_arg, n_fa = n2 * Asq, float(n) * A, n2 * nsq, float(n) * na
        worst = float(np.max(n_arg))
        if worst > DECAY_OVERFLOW_LIMIT:
            raise DecayOverflowError(f"decay argument norm {worst:.3e} exceeds {DECAY_OVERFLOW_LIMIT:.0e} at n={n}")
        fa = apply_array(f, fa_arg, n_fa)
        norms = spectral_norms(apply_array(f, arg, n_arg) - fa @ fa)
        out[:, n - 1] = norms * n2 if shrink else norms / n2
    return out


def decay_maps(dim):
    corner, u = unit_direction(dim, "corner"), phase_permutation_unitary(dim, 7)
    return [
        Transpose(dim),
        UnitaryConjugation(u),
        Perturbed(ZeroMap(dim), Perturbation(0.01, 0.5, corner, "power")),
        Perturbed(Transpose(dim), Perturbation(0.02, 1.5, corner, "power", odd=True)),
        Perturbed(Identity(dim), Perturbation(0.3, 0.0, unit_direction(dim, "identity"), "constant")),
        Perturbed(UnitaryConjugation(u), Perturbation(0.1, 0.0, corner, "affine", odd=True)),
    ]


class TestDecayBlocks:
    """A decay sequence is evaluated DECAY_BLOCK n at a time; it equals the per-n loop it replaced bit for bit."""

    @pytest.mark.parametrize("shrink", [False, True])
    @pytest.mark.parametrize("n_max", [2, DECAY_BLOCK, DECAY_BLOCK + 1, 37, 64])
    def test_matches_per_n_loop(self, shrink, n_max):
        A = random_elements(160, 7, 3, 3.0, stream=4)
        A[2] = 0.0
        for f in decay_maps(3):
            out = _decay_batch(f, A, n_max, shrink)
            assert out.tobytes() == per_n_loop(f, A, n_max, shrink).tobytes()

    @pytest.mark.parametrize("scale, n", [(1.2e49, 9), (3e48, 34), (1e47, None)])
    def test_overflow_names_the_per_n_loop_s_n(self, monkeypatch, scale, n):
        # ||a^2|| n^2 passes 1e100 at a block's first n, inside a block, or past n_max, each n at
        # least 4% from the cutoff (at 1e49, n = 10 lands within rounding of it); no argument past
        # the cutoff reaches the map
        mapped = []

        def spy(f, xs, norms=None):
            mapped.append(float(np.max(spectral_norms(xs))))
            return apply_array(f, xs, norms)

        monkeypatch.setattr(checkers, "apply_array", spy)
        A = np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]) * scale
        for f in (Negation(2), Perturbed(Identity(2), Perturbation(0.01, 0.5, unit_direction(2, "corner"), "power"))):
            if n is None:
                assert _decay_batch(f, A, 64, False).tobytes() == per_n_loop(f, A, 64, False).tobytes()
                continue
            with pytest.raises(DecayOverflowError, match=f"at n={n}$") as expected:
                per_n_loop(f, A, 64, False)
            with pytest.raises(DecayOverflowError) as got:
                _decay_batch(f, A, 64, False)
            assert str(got.value) == str(expected.value)
        assert mapped and max(mapped) <= DECAY_OVERFLOW_LIMIT


class TestSuperstabilityDecay:
    def test_exact_map_sequence_vanishes(self):
        a = random_element(150, 3, 2.0)
        seq = superstability_decay_batch(Transpose(3), a[np.newaxis], 16)[0]
        assert max(seq) <= 1e-9 * (1.0 + spectral_norms(a[np.newaxis])[0] ** 2)

    def test_first_term_is_square_defect(self):
        f = constant_perturbed(size=0.2)
        A = random_element(151, 3, 2.0)[np.newaxis]
        seq = superstability_decay_batch(f, A, 4)[0]
        fa = apply_array(f, A)
        assert seq[0] == spectral_norms(apply_array(f, A @ A) - fa @ fa)[0]

    def test_constructed_defect_exponent_half(self):
        # zero base + nilpotent direction: the square defect is exactly
        # size * ||x^2||^power, so d_n = size * ||a^2||^p * n^(2p-2)
        size, power = 1e-2, 0.5
        f = Perturbed(
            ZeroMap(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "corner"), mode="power"),
        )
        a = random_element(152, 3, 2.0)
        seq = superstability_decay_batch(f, a[np.newaxis], 64)[0]
        nasq = spectral_norms((a @ a)[np.newaxis])[0]
        expected = [size * nasq**power * n ** (2 * power - 2) for n in range(1, 65)]
        assert np.allclose(seq, expected, rtol=1e-9)
        slope = fit_loglog_slope(seq)
        assert slope == pytest.approx(2 * power - 2, abs=0.05)

    def test_pointwise_domination(self):
        size, power = 1e-2, 0.5
        f = Perturbed(
            ZeroMap(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "corner"), mode="power"),
        )
        for seed in (153, 154):
            a = random_element(seed, 3, 2.0)
            na = spectral_norms(a[np.newaxis])[0]
            seq = superstability_decay_batch(f, a[np.newaxis], 32)[0]
            for n, d in enumerate(seq, start=1):
                assert d <= size * n ** (2 * power - 2) * na ** (2 * power) + 1e-12

    def test_shrinking_variant_for_large_exponent(self):
        size, power = 1e-2, 2.0
        f = Perturbed(
            ZeroMap(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "corner"), mode="power"),
        )
        a = random_element(155, 3, 2.0)
        seq = superstability_shrinking_batch(f, a[np.newaxis], 64)[0]
        slope = fit_loglog_slope(seq)
        assert slope == pytest.approx(2 - 2 * power, abs=0.05)

    def test_star_decay_slope(self):
        size, power = 1e-2, 0.5
        f = Perturbed(
            ZeroMap(3),
            Perturbation(size=size, power=power, direction=unit_direction(3, "corner"), mode="power"),
        )
        # s_n = ||f(n a*) - f(n a)*|| / n, the involution-defect decay
        A = random_element(156, 3, 2.0)[np.newaxis]
        seq = [spectral_norms(apply_array(f, n * _conj_t(A)) - _conj_t(apply_array(f, n * A)))[0] / n for n in range(1, 65)]
        slope = fit_loglog_slope(seq)
        assert slope == pytest.approx(power - 1, abs=0.05)

    def test_overflow_guard(self):
        big = np.eye(2)[np.newaxis] * 1e60
        with pytest.raises(DecayOverflowError):
            superstability_decay_batch(Identity(2), big, 8)

    @pytest.mark.parametrize("scale, n", [(1.2e49, 9), (1.9e49, 6)])
    def test_earlier_error_wins_over_a_later_overflow(self, scale, n):
        # the argument n^2 a^2 passes the cutoff at n = 9 (the next block) or n = 6 (the same
        # block); a power-400 term fails at n = 1 first
        big = np.eye(2, dtype=complex)[np.newaxis] * scale
        f = Perturbed(ZeroMap(2), Perturbation(0.01, 400.0, unit_direction(2, "corner"), "power"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="perturbation power"):
                superstability_decay_batch(f, big, 64)
            with pytest.raises(DecayOverflowError, match=f"at n={n}$"):
                superstability_decay_batch(Identity(2), big, 64)

    @pytest.mark.parametrize("run", [superstability_decay_batch, superstability_shrinking_batch])
    def test_overflowing_square_stops_at_the_first_guard(self, run):
        # a^2 overflows to inf and NaN entries; the n = 1 guard refuses it before it is normed
        big = np.full((2, 2, 2), 1e160, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecayOverflowError, match=r"^decay argument norm inf exceeds 1e\+100 at n=1$"):
                run(Identity(2), big, 8)

    @pytest.mark.parametrize("run", [superstability_decay_batch, superstability_shrinking_batch])
    def test_non_finite_square_is_past_the_cutoff_before_any_norm(self, monkeypatch, run):
        # one sample's a^2 overflows; the finiteness check on a^2 names the n = 1 cutoff, so the
        # square is never normed (spectral_norms would raise NonFiniteError) and nothing is mapped
        A = random_elements(157, 3, 2, 2.0, stream=4)
        A[1] = np.full((2, 2), 1e160)
        calls = []
        monkeypatch.setattr(checkers, "spectral_norms", lambda mats: calls.append(mats) or spectral_norms(mats))
        monkeypatch.setattr(checkers, "apply_array", lambda *args: calls.append(args) or apply_array(*args))
        with pytest.raises(DecayOverflowError, match=r"^decay argument norm inf exceeds 1e\+100 at n=1$"):
            run(Identity(2), A, 8, norms=np.ones(3))
        assert calls == []

    @pytest.mark.parametrize("shrink", [False, True])
    @pytest.mark.parametrize("cap, n, n_shrink", [(1e40, None, None), (1e49, 46, None), (1e154, 1, 1), (1e300, 1, 1)])
    def test_no_runtime_warning_at_norms_up_to_1e300(self, shrink, cap, n, n_shrink):
        # norms from 1e-300 up to cap: a^2 underflows, passes the cutoff at n = 46 (only a^2 itself can
        # when shrinking), at n = 1 while finite, so that the carried norms n^2 ||a^2|| overflow, or
        # overflows itself; none of it may warn. n is where the cutoff falls, None if it never does
        drawn = np.empty(40)
        A = random_elements(158, 40, 3, 1.0, stream=4, norms_out=drawn)
        scales = np.logspace(-300, np.log10(cap), 40)
        A *= scales[:, np.newaxis, np.newaxis]
        run, n = (superstability_shrinking_batch, n_shrink) if shrink else (superstability_decay_batch, n)
        f = Perturbed(ZeroMap(3), Perturbation(0.01, 0.5, unit_direction(3, "corner"), "power"))
        for g in (Identity(3), f):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if n is None:
                    assert np.all(np.isfinite(run(g, A, 64, norms=drawn * scales)))
                else:
                    with pytest.raises(DecayOverflowError, match=f"at n={n}$"):
                        run(g, A, 64, norms=drawn * scales)

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            superstability_decay_batch(Identity(2), np.eye(2, dtype=complex)[np.newaxis], 1)


class TestExactMapDefectSweep:
    def test_defect_residuals_over_thousand_samples(self):
        # both defect functionals stay at noise scale for exact maps across
        # dims 2-4 on a thousand seeded samples each
        for dim in (2, 3, 4):
            f = Transpose(dim)
            A = random_elements(777, 1000, dim, 10.0, stream=dim)
            scales = 1.0 + spectral_norms(A) ** 2
            jordan = superstability_decay_batch(f, A, 2)[:, 0]
            assert np.all(jordan <= 1e-9 * scales)
            astar = np.conj(np.swapaxes(A, -1, -2))
            fa = apply_array(f, A)
            star = spectral_norms(apply_array(f, astar) - np.conj(np.swapaxes(fa, -1, -2)))
            assert np.all(star <= 1e-9 * (1.0 + spectral_norms(A)))


class TestSlopeFit:
    def test_recovers_exact_power_law(self):
        values = [3.5 * n**-1.25 for n in range(1, 40)]
        assert fit_loglog_slope(values) == pytest.approx(-1.25, abs=1e-12)

    def test_rejects_nonpositive_values(self):
        # a row with a nonpositive value has no log-log fit: +inf, as the decay_slope check reads it
        assert fit_loglog_slope([1.0, 0.0, 1.0, 1.0, 0.0, 0.5]) == np.inf
        rows = fit_loglog_slope([[1.0, 0.0, 1.0, 1.0, 0.0, 0.5], [1.0, 0.0, 1.0, 1.0, 2.0, 4.0]])
        assert rows[0] == np.inf and np.isfinite(rows[1])
        with pytest.raises(ValueError, match="two points"):
            fit_loglog_slope([1.0, 1.0, 1.0, 1.0])

    def test_stack_matches_polyfit_per_row(self):
        rng = np.random.default_rng(12)
        ns = np.arange(1, 41)
        stack = rng.uniform(0.5, 2.0, (50, 40)) * rng.uniform(1e-6, 1e3, (50, 1)) * ns ** rng.uniform(-3.0, 1.0, (50, 1))
        slopes = fit_loglog_slope(stack)
        assert slopes.shape == (50,)
        for row, slope in zip(stack, slopes):
            reference = np.polyfit(np.log(ns[3:]), np.log(row[3:]), 1)[0]
            assert slope == pytest.approx(reference, rel=1e-12, abs=1e-12)

    def test_row_fitted_alone_matches_its_stack(self):
        # a row's slope reads that row only, so a witness's one-row refit replays it bit for bit
        rng = np.random.default_rng(5)
        ns = np.arange(1, 65)
        stack = rng.uniform(0.5, 2.0, (200, 64)) * rng.uniform(1e-6, 1e3, (200, 1)) * ns ** rng.uniform(-3.0, 1.0, (200, 1))
        slopes = fit_loglog_slope(stack)
        alone = np.array([fit_loglog_slope(row[np.newaxis])[0] for row in stack])
        assert np.array_equal(slopes, alone)
        assert np.array_equal(slopes[:7], fit_loglog_slope(stack[:7]))
        assert fit_loglog_slope(stack[3]) == slopes[3]
