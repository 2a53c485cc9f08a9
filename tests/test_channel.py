"""Dynamical maps: construction, application, eigen-decomposition, properties."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdilate as q
from qdilate import channel, linalg

from conftest import IDENTITY2, P0, P1, X


def matrix_unit(r, s):
    m = np.zeros((2, 2), dtype=complex)
    m[r, s] = 1.0
    return m


def transpose_map():
    swap = np.zeros((4, 4))
    for r in range(2):
        for rp in range(2):
            for s in range(2):
                for sp in range(2):
                    if r == sp and rp == s:
                        swap[r * 2 + rp, s * 2 + sp] = 1.0
    return q.DynamicalMap(swap)


def depolarizing_map():
    terms = [(0.5, matrix_unit(r, s)) for r in range(2) for s in range(2)]
    return q.map_from_kraus(terms, 2)


def test_map_from_kraus_identity_is_rank_one_with_eigenvalue_two():
    dmap = q.map_from_kraus([(1.0, IDENTITY2)], 2)
    vals = np.linalg.eigvalsh(dmap.bmat)
    assert q.max_abs(np.sort(vals) - np.array([0.0, 0.0, 0.0, 2.0])) < 1e-12
    vec = IDENTITY2.reshape(-1)
    assert q.max_abs(dmap.bmat - np.outer(vec, vec.conj())) < 1e-12


def test_map_from_kraus_zero_weight_contributes_nothing():
    dmap = q.map_from_kraus([(0.0, X)], 2)
    assert q.max_abs(dmap.bmat) == 0.0


def test_map_from_kraus_matrix_units_give_half_identity():
    assert q.max_abs(depolarizing_map().bmat - np.eye(4) / 2) < 1e-12


def test_map_from_kraus_rejects_wrong_shape():
    with pytest.raises(q.DimensionMismatch):
        q.map_from_kraus([(1.0, np.eye(3))], 2)


def outer_product_sum(terms, dim):
    """Reference: the dynamical matrix as one outer product per Kraus term."""
    bmat = np.zeros((dim * dim, dim * dim), dtype=complex)
    for weight, op in terms:
        v = np.asarray(op, dtype=complex).reshape(-1)
        bmat += float(weight) * np.outer(v, v.conj())
    return bmat


@st.composite
def kraus_terms(draw):
    """N in 1..6 and 1..N^2 Gaussian operators with weights of either sign, some zero."""
    dim = draw(st.integers(1, 6))
    rank = draw(st.integers(1, dim * dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rank, dim, dim)
    ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    weights = rng.standard_normal(rank) * (rng.random(rank) < draw(st.floats(0.0, 1.0)))
    return dim, list(zip(weights, ops))


@settings(max_examples=150, deadline=None)
@given(case=kraus_terms())
def test_map_from_kraus_equals_the_outer_product_loop(case):
    # One GEMM sums the terms in another order than the loop: entries and
    # the Hermiticity defect stay within 4 r eps sum_a |w_a| ||vec K_a||^2.
    dim, terms = case
    scale = sum(abs(w) * np.sum(np.abs(op) ** 2) for w, op in terms)
    bound = 4 * len(terms) * np.finfo(float).eps * scale
    bmat = q.map_from_kraus(terms, dim).bmat
    assert q.max_abs(bmat - outer_product_sum(terms, dim)) <= bound
    assert q.max_abs(bmat - q.dagger(bmat)) <= bound


@pytest.mark.parametrize("dim", range(1, 7))
def test_map_from_kraus_of_no_terms_is_the_zero_map(dim):
    bmat = q.map_from_kraus([], dim).bmat
    assert bmat.dtype == complex
    assert np.array_equal(bmat, np.zeros((dim * dim, dim * dim)))


@settings(max_examples=50, deadline=None)
@given(case=kraus_terms(), data=st.data())
def test_map_from_kraus_names_a_wrong_shaped_term_at_any_position(case, data):
    dim, terms = case
    bad = np.ones((dim, dim + 1))
    terms.insert(data.draw(st.integers(0, len(terms))), (1.0, bad))
    message = f"Kraus operator shape {bad.shape} does not match dim {dim}"
    with pytest.raises(q.DimensionMismatch, match=f"^{re.escape(message)}$"):
        q.map_from_kraus(terms, dim)


@pytest.mark.parametrize("dim", [10, 12])
def test_map_from_kraus_peaks_below_four_dynamical_matrices(dim):
    rng = np.random.default_rng(dim)
    shape = (dim * dim, dim, dim)
    ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    terms = list(zip(rng.standard_normal(dim * dim), ops))
    tracemalloc.start()
    try:
        q.map_from_kraus(terms, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 16 * dim**4


def test_writing_into_the_callers_array_leaves_the_map_unchanged():
    b = q.random_cptp(2, 4, 29).bmat.copy()
    dmap = q.DynamicalMap(b)
    assert q.check_properties(dmap).completely_positive
    b *= -1
    assert np.array_equal(dmap.bmat, -b)
    assert q.check_properties(dmap) == q.check_properties(q.DynamicalMap(dmap.bmat))
    assert not q.check_properties(q.DynamicalMap(b)).completely_positive
    with pytest.raises(ValueError, match="read-only"):
        dmap.bmat[0, 0] = 0.0
    # A read-only view of a writeable array is copied too, and so is a
    # read-only array: its owner can make it writeable again.
    base = np.eye(4, dtype=complex)
    view = base[:]
    view.flags.writeable = False
    held = q.DynamicalMap(view)
    base[0, 0] = 5.0
    assert held.bmat[0, 0] == 1.0
    assert not np.shares_memory(q.DynamicalMap(dmap.bmat).bmat, dmap.bmat)


def test_apply_map_identity_returns_state():
    dmap = q.map_from_kraus([(1.0, IDENTITY2)], 2)
    rho = q.random_density(2, 0)
    assert q.max_abs(q.apply_map(dmap, rho) - rho.mat) < 1e-12


def test_apply_map_bit_flip_swaps_populations():
    dmap = q.map_from_kraus([(1.0, X)], 2)
    assert q.max_abs(q.apply_map(dmap, P0) - P1) < 1e-12


def test_apply_map_amplitude_damping_half_on_excited_state():
    k0 = np.diag([1.0, np.sqrt(0.5)]).astype(complex)
    k1 = np.array([[0.0, np.sqrt(0.5)], [0.0, 0.0]], dtype=complex)
    dmap = q.map_from_kraus([(1.0, k0), (1.0, k1)], 2)
    assert q.max_abs(q.apply_map(dmap, P1) - np.diag([0.5, 0.5])) < 1e-12


def test_canonical_decompose_identity_channel():
    dec = q.canonical_decompose(q.map_from_kraus([(1.0, IDENTITY2)], 2))
    assert dec.rank == 1
    assert abs(dec.weights[0] - 2.0) < 1e-12
    assert q.max_abs(dec.ops[0] - IDENTITY2 / np.sqrt(2)) < 1e-12


def test_canonical_decompose_depolarizer_is_degenerate_rank_four():
    dmap = depolarizing_map()
    dec = q.canonical_decompose(dmap)
    assert dec.rank == 4
    assert q.max_abs(dec.weights - 0.5) < 1e-12
    rebuilt = q.map_from_kraus(zip(dec.weights, dec.ops), 2)
    assert q.max_abs(rebuilt.bmat - dmap.bmat) < 1e-12


def test_canonical_decompose_transpose_exposes_negative_weight():
    dec = q.canonical_decompose(transpose_map())
    weights = np.sort(dec.weights)
    assert q.max_abs(weights - np.array([-1.0, 1.0, 1.0, 1.0])) < 1e-9


@pytest.mark.parametrize("trunc_tol", [1.0, 2.5, -1e-300, np.inf, np.nan])
def test_canonical_decompose_refuses_a_cutoff_outside_zero_one(trunc_tol):
    # A cutoff of 1 or more would keep no eigenvalue of a nonzero map.
    with pytest.raises(q.ValidationError, match="truncation cutoff"):
        q.canonical_decompose(depolarizing_map(), trunc_tol)


def test_canonical_decompose_accepts_cutoffs_just_inside_zero_one():
    assert q.canonical_decompose(depolarizing_map(), 0.0).rank == 4
    assert q.canonical_decompose(depolarizing_map(), np.nextafter(1.0, 0.0)).rank == 4


def test_check_properties_identity_all_true():
    props = q.check_properties(q.map_from_kraus([(1.0, IDENTITY2)], 2))
    assert props.hermiticity_preserving
    assert props.trace_preserving
    assert props.completely_positive


def test_check_properties_transpose_not_cp():
    props = q.check_properties(transpose_map())
    assert props.hermiticity_preserving
    assert props.trace_preserving
    assert not props.completely_positive
    assert abs(props.min_eigenvalue + 1.0) < 1e-9


def test_check_properties_projection_not_trace_preserving():
    props = q.check_properties(q.map_from_kraus([(1.0, P0)], 2))
    assert not props.trace_preserving
    assert abs(props.trace_defect - 1.0) < 1e-12


def test_povm_effect_matches_hand_computed_kraus_gram():
    k = np.array([[1.0, 1.0j], [0.0, 0.0]], dtype=complex)
    dmap = q.map_from_kraus([(1.0, k)], 2)
    expected = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    assert q.max_abs(q.povm_effect(dmap) - expected) < 1e-12


def test_povm_effect_matches_decomposition_sum_and_traces():
    rng_seed = 100
    for dim in (2, 3):
        dmap = q.random_cptp(dim, 3, rng_seed + dim)
        dec = q.canonical_decompose(dmap)
        explicit = sum(w * (q.dagger(op) @ op) for w, op in zip(dec.weights, dec.ops))
        effect = q.povm_effect(dmap)
        assert q.max_abs(effect - explicit) < 1e-10
        rho = q.random_density(dim, rng_seed)
        lhs = np.trace(q.apply_map(dmap, rho))
        rhs = np.trace(effect @ rho.mat)
        assert abs(lhs - rhs) < 1e-10


def test_random_cptp_rank_one_preserves_spectrum():
    dmap = q.random_cptp(3, 1, 17)
    rho = q.random_density(3, 18)
    out = q.apply_map(dmap, rho)
    in_vals = np.sort(np.linalg.eigvalsh(rho.mat))
    out_vals = np.sort(np.linalg.eigvalsh((out + q.dagger(out)) / 2))
    assert q.max_abs(in_vals - out_vals) < 1e-10


def test_random_cptp_always_valid():
    for seed in range(5):
        props = q.check_properties(q.random_cptp(2, 4, seed))
        assert props.hermiticity_preserving
        assert props.trace_preserving
        assert props.completely_positive


def test_random_cptp_deterministic():
    a = q.random_cptp(3, 5, 123)
    b = q.random_cptp(3, 5, 123)
    assert np.array_equal(a.bmat, b.bmat)


def test_random_cptp_rejects_bad_rank():
    with pytest.raises(q.BadRank):
        q.random_cptp(2, 0, 1)
    with pytest.raises(q.BadRank):
        q.random_cptp(2, 5, 1)


def test_axiom_closure_on_random_maps():
    # CPTP maps send valid states to valid states.
    combos = [(dim, rank) for dim in (2, 3, 4) for rank in range(1, dim * dim + 1)]
    for case in range(100):
        dim, rank = combos[case % len(combos)]
        dmap = q.random_cptp(dim, rank, 1000 + case)
        rho = q.random_density(dim, 2000 + case)
        out = q.apply_map(dmap, rho)
        assert q.max_abs(out - q.dagger(out)) < 1e-10
        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.linalg.eigvalsh((out + q.dagger(out)) / 2).min() > -1e-9


def test_decompose_round_trip_and_rank_bound():
    for seed, (dim, rank) in enumerate([(2, 1), (2, 4), (3, 5), (4, 16), (3, 9)]):
        dmap = q.random_cptp(dim, rank, 3000 + seed)
        dec = q.canonical_decompose(dmap)
        assert dec.rank <= dim * dim
        rebuilt = q.map_from_kraus(zip(dec.weights, dec.ops), dim)
        assert q.max_abs(rebuilt.bmat - dmap.bmat) < 1e-9


def test_trace_preservation_flag_matches_decomposition_condition():
    cases = [
        q.map_from_kraus([(1.0, IDENTITY2)], 2),
        q.map_from_kraus([(1.0, P0)], 2),
        transpose_map(),
        depolarizing_map(),
        q.random_cptp(3, 4, 41),
    ]
    for dmap in cases:
        props = q.check_properties(dmap)
        dec = q.canonical_decompose(dmap)
        total = sum(w * (q.dagger(op) @ op) for w, op in zip(dec.weights, dec.ops))
        residual = q.max_abs(total - np.eye(dmap.dim))
        assert props.trace_preserving == (residual <= q.DEFAULT_TOL)


def test_apply_map_agrees_with_decomposition_sum():
    for seed in range(5):
        dmap = q.random_cptp(3, 4, 500 + seed)
        rho = q.random_density(3, 600 + seed)
        dec = q.canonical_decompose(dmap)
        direct = q.apply_map(dmap, rho)
        summed = sum(w * (op @ rho.mat @ q.dagger(op)) for w, op in zip(dec.weights, dec.ops))
        assert q.max_abs(direct - summed) < 1e-9


def test_density_matrix_validation():
    with pytest.raises(q.ValidationError):
        q.DensityMatrix(np.diag([0.6, 0.6]))
    with pytest.raises(q.ValidationError):
        q.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(q.ValidationError):
        q.DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(q.DimensionMismatch):
        q.DensityMatrix(np.zeros((2, 3)))


def test_density_matrix_owns_a_read_only_matrix():
    rho = np.diag([0.75, 0.25]).astype(complex)
    dm = q.DensityMatrix(rho)
    rho[:] = np.diag([1.0, 0.8])
    assert np.array_equal(dm.mat, np.diag([0.75, 0.25]))
    assert not dm.mat.flags.writeable
    assert not np.shares_memory(dm.mat, rho)
    # A view is copied too: its base could still be written.
    big = np.zeros((3, 3), dtype=complex)
    big[0, 0] = 1.0
    assert not np.shares_memory(q.DensityMatrix(big[:2, :2]).mat, big)
    # So is a read-only array, since its owner can make it writeable again.
    frozen = np.diag([0.5, 0.5]).astype(complex)
    frozen.flags.writeable = False
    dm = q.DensityMatrix(frozen)
    frozen.flags.writeable = True
    frozen[:] = np.diag([1.0, 0.8])
    assert np.array_equal(dm.mat, np.diag([0.5, 0.5]))


def test_dynamical_map_validation():
    with pytest.raises(q.ValidationError):
        q.DynamicalMap(np.array([[0.0, 1.0], [0.0, 0.0]]).repeat(2, 0).repeat(2, 1))
    with pytest.raises(q.DimensionMismatch):
        q.DynamicalMap(np.eye(3))


def test_the_hermiticity_defect_is_measured_once_per_map(monkeypatch):
    # The validator measures it; check_properties and the eigh route of the
    # spectrum read it back instead of forming B - B^dagger again.
    bmat = q.random_cptp(3, 9, 31).bmat.copy()
    bmat[0, 1] += 1e-12
    sides = []
    for module in (channel, linalg):
        monkeypatch.setattr(module, "max_abs", lambda m: sides.append(np.shape(m)) or q.max_abs(m))
    dmap = q.DynamicalMap(bmat)
    props = q.check_properties(dmap)
    q.canonical_decompose(dmap)
    assert sides.count((9, 9)) == 1
    assert dmap.hermiticity_defect == q.max_abs(bmat - q.dagger(bmat)) > 1e-13
    assert props.hermiticity_preserving
    assert not q.check_properties(dmap, tol=1e-13).hermiticity_preserving


@pytest.fixture
def without_finiteness_check(monkeypatch):
    """Let non-finite matrices reach the validators' own gates."""
    monkeypatch.setattr(channel, "_square_complex", lambda m, name: np.asarray(m, dtype=complex))
    return monkeypatch


NAN_DIAGONAL = np.diag([np.nan, 1.0])


def test_density_matrix_gates_refuse_nan(without_finiteness_check):
    with pytest.raises(q.ValidationError, match="Hermitian"):
        q.DensityMatrix(NAN_DIAGONAL)
    without_finiteness_check.setattr(channel, "min_eigenvalue", lambda m: float("nan"))
    with pytest.raises(q.ValidationError, match="positive semidefinite"):
        q.DensityMatrix(np.diag([1.0, 0.0]))
    without_finiteness_check.setattr(channel, "max_abs", lambda m: 0.0)
    with pytest.raises(q.ValidationError, match="unit trace"):
        q.DensityMatrix(NAN_DIAGONAL)


def test_dynamical_map_gate_refuses_nan(without_finiteness_check):
    with pytest.raises(q.ValidationError, match="Hermitian"):
        q.DynamicalMap(np.diag([np.nan, 1.0, 1.0, 1.0]))


def test_kraus_term_requires_unit_norm_operator():
    with pytest.raises(q.ValidationError, match="eigen-operator 0 must have unit HS norm"):
        q.CanonicalDecomposition(dim=2, weights=[1.0], ops=[2.0 * IDENTITY2])


def test_canonical_decomposition_requires_orthogonal_operators():
    op = IDENTITY2 / np.sqrt(2)
    with pytest.raises(q.ValidationError):
        q.CanonicalDecomposition(dim=2, weights=[1.0, 1.0], ops=[op, op])


def test_canonical_decomposition_names_the_overlapping_pair():
    ops = [P0, P1, X / np.sqrt(2), (P1 + X) / np.sqrt(3)]
    with pytest.raises(q.ValidationError, match="eigen-operators 1 and 3 "):
        q.CanonicalDecomposition(dim=2, weights=np.ones(4), ops=ops)


def test_canonical_decompose_equals_the_eigenpair_loop():
    # Reference: keep the spectrum's eigenpairs above the truncation bound one by one.
    cases = [q.random_cptp(dim, rank, 19_000 + dim) for dim, rank in [(1, 1), (3, 5), (5, 25)]]
    cases += [transpose_map(), depolarizing_map()]
    for dmap in cases:
        n = dmap.dim
        vals, vecs = dmap.spectrum
        scale = max(abs(vals))
        kept = [(w, v.reshape(n, n)) for w, v in zip(vals, vecs.T) if abs(w) > 1e-12 * scale]
        dec = q.canonical_decompose(dmap)
        assert np.array_equal(dec.weights, [w for w, _ in kept])
        assert np.array_equal(dec.ops, [op for _, op in kept])
    # A map given by its dynamical matrix, or of full Kraus rank, is
    # decomposed by hermitian_eig(bmat) itself.
    for dmap in [q.DynamicalMap(dmap.bmat) for dmap in cases] + [cases[2], cases[4]]:
        vals, vecs = q.hermitian_eig(dmap.bmat)
        assert np.array_equal(dmap.spectrum[0], vals)
        assert np.array_equal(dmap.spectrum[1], vecs)


@pytest.mark.parametrize(
    "weights, ops",
    [
        ([np.nan], [IDENTITY2 / np.sqrt(2)]),  # NaN weight
        ([np.inf], [IDENTITY2 / np.sqrt(2)]),  # infinite weight
        ([1.0], [np.where(IDENTITY2 == 0, np.nan, IDENTITY2)]),  # NaN op
    ],
)
def test_canonical_decomposition_refuses_non_finite_entries(weights, ops):
    with pytest.raises(q.ValidationError, match="finite"):
        q.CanonicalDecomposition(dim=2, weights=weights, ops=ops)


def test_canonical_decomposition_checks_array_shapes():
    op = IDENTITY2 / np.sqrt(2)
    with pytest.raises(q.DimensionMismatch):
        q.CanonicalDecomposition(dim=2, weights=[1.0, 1.0], ops=[op])
    with pytest.raises(q.DimensionMismatch):
        q.CanonicalDecomposition(dim=3, weights=[1.0], ops=[op])
    with pytest.raises(q.DimensionMismatch):
        q.CanonicalDecomposition(dim=2, weights=1.0, ops=op)
    with pytest.raises(q.ValidationError, match="exceed the dim\\^2 = 4 bound"):
        q.CanonicalDecomposition(dim=2, weights=np.ones(5), ops=np.zeros((5, 2, 2)))


@st.composite
def kraus_maps(draw):
    """A map with N in 1..5 and Kraus rank 1..N^2, and whether it is CPTP.

    ``cptp``: a random CPTP map; ``scaled``: the same times a factor at least
    0.25 away from 1, CP but not TP; ``signed``: Gaussian Kraus operators with
    weights of either sign, in general neither TP nor CP.
    """
    dim = draw(st.integers(1, 5))
    rank = draw(st.integers(1, dim * dim))
    kind = draw(st.sampled_from(["cptp", "scaled", "signed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "signed":
        shape = (rank, dim, dim)
        ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        weights = rng.choice([-1.0, 1.0], rank) * rng.uniform(0.1, 1.0, rank)
        return q.map_from_kraus(zip(weights, ops), dim), rank, False
    dmap = q.random_cptp(dim, rank, rng)
    if kind == "scaled":
        factor = draw(st.floats(0.1, 0.75) | st.floats(1.25, 2.0))
        return q.DynamicalMap(factor * dmap.bmat), rank, False
    return dmap, rank, True


@settings(max_examples=100, deadline=None)
@given(case=kraus_maps())
def test_decomposition_arrays_properties(case):
    dmap, rank, cptp = case
    n = dmap.dim
    dec = q.canonical_decompose(dmap)
    assert dec.weights.shape == (rank,)
    assert dec.ops.shape == (rank, n, n)
    assert np.all(np.diff(dec.weights) <= 0)
    flat = dec.ops.reshape(rank, n * n)
    assert q.max_abs(flat.conj() @ flat.T - np.eye(rank)) <= 1e-10
    rebuilt = q.map_from_kraus(zip(dec.weights, dec.ops), n)
    assert q.max_abs(rebuilt.bmat - dmap.bmat) <= 1e-10
    if cptp:
        iso = q.build_dilation_isometry(dec)
        assert q.max_abs(q.dagger(iso) @ iso - np.eye(n)) <= q.DEFAULT_TOL
    else:
        with pytest.raises((q.NotTracePreserving, q.NotCompletelyPositive)):
            q.build_dilation_isometry(dec)


@st.composite
def factor_route_terms(draw):
    """N in 2..6 and r in 1..N^2-1 non-negatively weighted Kraus operators, made TP.

    Operator 0 is a random unitary of weight at least 0.1, so the total
    effect E is invertible; every later one is Gaussian, a copy of an
    earlier one, or an earlier one plus a Gaussian of size 1e-5..1e-14, and
    some weights are exactly zero. All operators are then multiplied by
    E^(-1/2), which makes the map trace-preserving.
    """
    dim = draw(st.integers(2, 6))
    rank = draw(st.integers(1, dim * dim - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (dim, dim)
    ops = [np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]]
    weights = [rng.uniform(0.1, 1.0)]
    for a in range(1, rank):
        kind = draw(st.sampled_from(["gaussian", "copy", "near copy", "zero weight"]))
        if kind in ("gaussian", "zero weight"):
            ops.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        else:
            ops.append(ops[rng.integers(a)].copy())
            if kind == "near copy":
                ops[-1] += 10.0 ** -draw(st.integers(5, 14)) * rng.standard_normal(shape)
        weights.append(0.0 if kind == "zero weight" else rng.uniform(0.0, 1.0))
    effect = sum(w * op.conj().T @ op for w, op in zip(weights, ops))
    vals, vecs = np.linalg.eigh(effect)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return dim, [(w, op @ inv_root) for w, op in zip(weights, ops)]


@settings(max_examples=150, deadline=None)
@given(case=factor_route_terms(), seed=st.integers(0, 2**32 - 1))
def test_factor_route_spectrum_matches_the_eigh_of_b(case, seed):
    dim, terms = case
    rank = len(terms)
    dmap = q.map_from_kraus(terms, dim)
    vals, vecs = dmap.spectrum
    assert vals.shape == (rank,) and vecs.shape == (dim * dim, rank)
    # Rounding in B and in both eigensolvers, scaled by the spectral norm.
    eps = np.finfo(float).eps
    bound = 8 * eps * dim * dim * vals[0]
    assert q.max_abs((vecs * vals) @ q.dagger(vecs) - dmap.bmat) <= bound
    assert q.max_abs(q.dagger(vecs) @ vecs - np.eye(rank)) <= 8 * eps * dim * dim
    ref = q.hermitian_eig(dmap.bmat)[0]
    assert q.max_abs(ref[:rank] - vals) <= bound
    assert q.max_abs(ref[rank:]) <= bound
    assert dmap.min_eigenvalue == 0.0
    assert q.check_properties(dmap).min_eigenvalue == 0.0
    # Weights canonical_decompose drops (below TRUNCATION_TOL of the largest)
    # are missing from the dilation too, by at most their sum.
    dropped = vals[vals <= channel.TRUNCATION_TOL * vals[0]].sum()
    dil = q.build_dilation_unitary(q.canonical_decompose(dmap))
    rho = q.random_density(dim, seed)
    reduced = q.simulate_via_dilation(dil, rho)[1]
    assert q.max_abs(reduced - q.apply_map(dmap, rho)) <= 1e-12 + dropped


@settings(max_examples=60, deadline=None)
@given(case=factor_route_terms(), seed=st.integers(0, 2**32 - 1))
def test_a_negative_weight_keeps_the_eigh_route_and_is_refused(case, seed):
    # The last operator becomes a fresh Gaussian of weight -0.5: outside the
    # span of the others, it gives B a negative eigenvalue.
    dim, terms = case
    rng = np.random.default_rng(seed)
    shape = (dim, dim)
    terms[-1] = (-0.5, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    dmap = q.map_from_kraus(terms, dim)
    vals, vecs = q.hermitian_eig(dmap.bmat)
    assert np.array_equal(dmap.spectrum[0], vals)
    assert np.array_equal(dmap.spectrum[1], vecs)
    assert dmap.min_eigenvalue == vals[-1] < -q.DEFAULT_TOL
    with pytest.raises(q.NotCompletelyPositive):
        q.build_dilation_unitary(q.canonical_decompose(dmap))
    with pytest.raises(q.NotCompletelyPositive):
        q.build_instrument_dilation(q.Instrument(dim=dim, maps=(("0", dmap),)))


def test_random_density_is_valid_and_deterministic():
    a = q.random_density(4, 77)
    b = q.random_density(4, 77)
    assert np.array_equal(a.mat, b.mat)
    assert abs(np.trace(a.mat) - 1.0) < 1e-12


def must_not_build(terms, dim):
    raise AssertionError(f"a {dim}^2 x {dim}^2 dynamical matrix would be allocated")


def test_random_cptp_refuses_a_dim_beyond_the_budget_before_allocating(monkeypatch):
    # The stub keeps a missing refusal from allocating gigabytes.
    monkeypatch.setattr(channel, "map_from_kraus", must_not_build)
    tracemalloc.start()
    try:
        with pytest.raises(
            q.ValidationError,
            match=r"^dim 91 needs a 1,097,199,376-byte dynamical matrix, above the "
            r"1,073,741,824-byte budget \(dim <= 90\)$",
        ):
            q.random_cptp(91, 1, 0)
        with pytest.raises(q.ValidationError, match="^dim 200 needs"):
            q.random_cptp(200, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_random_cptp_budget_admits_dim_90(monkeypatch):
    # Stop at the dynamical matrix, which would take 1,049,760,000 bytes.
    monkeypatch.setattr(channel, "map_from_kraus", lambda terms, dim: dim)
    assert q.random_cptp(90, 1, 0) == 90
