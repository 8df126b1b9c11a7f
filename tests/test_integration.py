"""Cross-module checks that need the solver behind the momentkit surfaces."""

import numpy as np
import pytest

from momentlab import sdpcore
from momentlab.cdkernel import (
    KernelWeights,
    ReferenceMeasure,
    kernel_slice_certificate,
    orthonormal_basis,
)
from momentlab.hierarchy import build_moment_relaxation, solve_relaxation
from momentlab.momentkit import (
    DiscreteMeasure,
    TruncatedSequence,
    max_spec_violation,
    preordering_products,
    sequence_from_measure,
    transform_sequence,
)
from momentlab.polycore import Polynomial, compose_linear, monomial_basis
from momentlab.sdpcore import SolveOptions
from momentlab.semialg import SemiAlgebraicSet, make_catalog_set

TIGHT = SolveOptions(tol=1e-9)


def sample_members(X, certificate, r, count, seed, center):
    """Optimize random linear functionals, then blend toward a strict center."""
    from momentlab.momentkit import spec_matrix

    rng = np.random.default_rng(seed)
    basis = monomial_basis(X.n, 2 * r)
    specs = preordering_products(X, r, kind=certificate)
    delta = min(float(np.linalg.eigvalsh(spec_matrix(center, s)).min())
                for s in specs if s.constraint_kind == "psd")
    assert delta > 0
    out = []
    for _ in range(count):
        f = Polynomial.from_vector(basis, rng.normal(size=len(basis)))
        rel = build_moment_relaxation(f, X, certificate, r)
        _, sol = solve_relaxation(rel, TIGHT)
        y = TruncatedSequence(X.n, 2 * r, sol.x[rel.y_slice])
        viol = max_spec_violation(y, specs)
        theta = min(0.5, viol / (viol + delta) + 1e-12)
        out.append(TruncatedSequence(X.n, 2 * r,
                                     (1 - theta) * y.values + theta * center.values))
    return out


def test_membership_transport_under_shear():
    # Appendix-A transport with a genuinely non-diagonal map: members of the
    # level-2 ball preordering push forward into the sheared-ball preordering
    B1 = make_catalog_set("ball", n=2, R=1.0)
    A = np.array([[1.0, 0.4], [0.0, 1.25]])
    r = 2
    rng = np.random.default_rng(0)
    disk = rng.uniform(-0.5, 0.5, size=(48, 2))
    disk = disk[np.sum(disk ** 2, axis=1) <= 0.25]
    center = sequence_from_measure(
        DiscreteMeasure(disk, np.full(len(disk), 1.0 / len(disk))), 2 * r)
    members = sample_members(B1, "T", r, count=6, seed=1, center=center)

    image_gen = compose_linear(B1.inequalities[0], A, inverse=True)
    image = SemiAlgebraicSet(n=2, inequalities=(image_gen,), name="sheared-ball")
    specs = preordering_products(image, r, kind="T")
    for y in members:
        mapped = transform_sequence(y, A)
        assert mapped.mass == pytest.approx(1.0, abs=1e-9)
        assert max_spec_violation(mapped, specs) <= 1e-7


def test_moment_and_sos_duals_cross():
    # the moment program's dual value approximates the SOS bound and vice versa
    X = make_catalog_set("ball", n=1, R=1.0)
    f = Polynomial(1, {(2,): 1.0, (1,): -0.5})
    from momentlab.hierarchy import build_sos_relaxation

    mrel = build_moment_relaxation(f, X, "Q", 2)
    mval, msol = solve_relaxation(mrel, TIGHT)
    srel = build_sos_relaxation(f, X, "Q", 2)
    sval, ssol = solve_relaxation(srel, TIGHT)
    assert mval == pytest.approx(sval, abs=1e-7)
    assert msol.dual_value == pytest.approx(mval, abs=1e-6)


def test_kernel_slice_certificate_runs():
    ball = make_catalog_set("ball", n=1, R=1.0)
    kb = orthonormal_basis(ReferenceMeasure("ball", 1, 1.0), 4)
    member, margin = kernel_slice_certificate(kb, None, [0.5], ball, 2, TIGHT)
    assert np.isfinite(margin)
    assert isinstance(member, bool)
    # delta-like slices evaluated on the diagonal are large and positive there
    if member:
        assert margin >= -1e-8

