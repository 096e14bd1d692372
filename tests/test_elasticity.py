"""The closed-form (111) strain relation against the rank-4 oracle route.

The rotation and stiffness tests check the oracle itself; every other test
keeps a library operand (perp_strain_ratio, perp_strain or strain_state) on
one side.
"""

import math

import numpy as np
import pytest
from oracles import (
    cubic_stiffness,
    rotate_stiffness,
    rotation_111,
    rotation_from_angles,
    strain_tensors,
    tensor_perp_ratio,
)

from lvalley import (
    ElasticConstants,
    StrainState,
    default_params,
    perp_strain,
    perp_strain_ratio,
    strain_state,
)

ELASTIC = default_params().elastic
CONSTANTS = (ELASTIC.c11, ELASTIC.c12, ELASTIC.c44)


def random_cubic_sets(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        c11 = rng.uniform(50.0, 300.0)
        c12 = rng.uniform(5.0, c11 - 5.0)
        c44 = rng.uniform(10.0, 150.0)
        out.append(ElasticConstants(c11=c11, c12=c12, c44=c44))
    return out


# --- oracle sanity: rotation matrices -------------------------------------

def test_rotation_111_printed_entries():
    u = rotation_111()
    s6, s2, s3 = 1 / math.sqrt(6), 1 / math.sqrt(2), 1 / math.sqrt(3)
    assert u[2][1] == 0.0
    np.testing.assert_allclose(u[:, 0], [s6, s6, -math.sqrt(2 / 3)], atol=1e-15)
    np.testing.assert_allclose(u[:, 1], [-s2, s2, 0.0], atol=1e-15)
    np.testing.assert_allclose(u[:, 2], [s3, s3, s3], atol=1e-15)


def test_rotation_111_orthogonal_det_plus_one():
    u = rotation_111()
    np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
    assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


def test_rotation_111_maps_z_to_third_column():
    u = rotation_111()
    np.testing.assert_allclose(u @ np.array([0.0, 0.0, 1.0]), u[:, 2], atol=0)


def test_rotation_from_angles_identity():
    np.testing.assert_allclose(rotation_from_angles(0.0, 0.0), np.eye(3), atol=0)


def test_rotation_from_angles_reproduces_111():
    u = rotation_from_angles(math.acos(1 / math.sqrt(3)), math.pi / 4)
    np.testing.assert_allclose(u, rotation_111(), atol=1e-12)


def test_rotation_from_angles_always_proper():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = rotation_from_angles(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)


# --- oracle sanity: stiffness rotation ------------------------------------

def test_identity_rotation_keeps_c1111():
    c = rotate_stiffness(*CONSTANTS, np.eye(3))
    assert c[0, 0, 0, 0] == pytest.approx(165.7, abs=1e-12)
    assert c[0, 0, 1, 1] == pytest.approx(63.9, abs=1e-12)
    assert c[0, 1, 0, 1] == pytest.approx(79.6, abs=1e-12)


def test_rotated_ratio_matches_hand_value():
    ratio = tensor_perp_ratio(*CONSTANTS)
    assert ratio == pytest.approx(-0.4390, abs=5e-4)
    assert ratio == pytest.approx(perp_strain_ratio(ELASTIC), abs=1e-12)


def test_rotated_tensor_symmetries():
    cp = rotate_stiffness(*CONSTANTS, rotation_111())
    np.testing.assert_allclose(cp, np.swapaxes(cp, 0, 1), atol=1e-9)  # minor ij
    np.testing.assert_allclose(cp, np.swapaxes(cp, 2, 3), atol=1e-9)  # minor kl
    np.testing.assert_allclose(cp, np.transpose(cp, (2, 3, 0, 1)), atol=1e-9)  # major


def test_rotation_preserves_tensor_norm():
    rng = np.random.default_rng(11)
    base = np.sum(cubic_stiffness(*CONSTANTS) ** 2)
    for _ in range(20):
        u = rotation_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        rotated = np.sum(rotate_stiffness(*CONSTANTS, u) ** 2)
        assert rotated == pytest.approx(base, rel=1e-6)


# --- perpendicular strain -------------------------------------------------

def test_perp_strain_zero():
    assert perp_strain(ELASTIC, 0.0) == 0.0


def test_perp_strain_hand_value():
    # -0.4390 x 0.039, oracle = direct formula evaluation
    assert perp_strain(ELASTIC, 0.039) == pytest.approx(-0.01712, abs=1e-4)


def test_perp_ratio_default():
    assert perp_strain_ratio(ELASTIC) == pytest.approx(-0.439, abs=1e-3)


def test_closed_form_agrees_with_tensor_path():
    # dual-route check: Eq-8-style evaluation through the rotated rank-4
    # tensor against the closed form, over random cubic constants
    for c in random_cubic_sets(100, seed=23):
        assert abs(tensor_perp_ratio(c.c11, c.c12, c.c44) - perp_strain_ratio(c)) < 1e-9


# --- strain state through the oracle tensors -------------------------------

def tensors(s):
    return strain_tensors(s.eps_par, s.eps_perp)


def test_strain_state_zero_everywhere():
    s = strain_state(ELASTIC, 0.0)
    film, crystal = tensors(s)
    assert not film.any()
    assert not crystal.any()


def test_strain_state_offdiagonal_hand_value():
    _, crystal = tensors(strain_state(ELASTIC, 0.03))
    assert crystal[0, 1] == pytest.approx(-0.01439, abs=1e-4)


def test_strain_state_structure():
    s = strain_state(ELASTIC, 0.021)
    assert list(StrainState.__slots__) == ["eps_par", "eps_perp"]
    assert s.eps_perp == perp_strain(ELASTIC, 0.021)
    film, crystal = tensors(s)
    np.testing.assert_array_equal(film, np.diag([s.eps_par, s.eps_par, s.eps_perp]))
    # film frame carries no shear by the n-fold symmetry of the orientation
    assert film[0, 2] == 0.0 and film[1, 2] == 0.0
    np.testing.assert_allclose(crystal, crystal.T, atol=0)


def test_change_of_basis_consistency():
    u = rotation_111()
    rng = np.random.default_rng(3)
    for eps in rng.uniform(-0.05, 0.05, size=50):
        film, crystal = tensors(strain_state(ELASTIC, float(eps)))
        np.testing.assert_allclose(u @ film @ u.T, crystal, atol=1e-12)


def test_trace_invariance_1000_random():
    rng = np.random.default_rng(5)
    for eps in rng.uniform(-0.05, 0.05, size=1000):
        s = strain_state(ELASTIC, float(eps))
        film, crystal = tensors(s)
        expected = 2.0 * s.eps_par + s.eps_perp
        assert abs(np.trace(crystal) - expected) < 1e-12
        assert abs(np.trace(film) - expected) < 1e-12
