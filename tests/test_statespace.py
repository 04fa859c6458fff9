import numpy as np
import pytest

from rampmerge.statespace import build_model


def test_single_vehicle_matrices_dt_tenth():
    m = build_model(1, 0.1)
    assert np.allclose(m.A, [[1.0, 0.1], [0.0, 1.0]])
    assert np.allclose(m.B, [[0.005], [0.1]])
    assert np.allclose(m.C, [[0.0, 1.0]])


def test_dimensions():
    for n in (1, 2, 3, 5):
        m = build_model(n, 0.1)
        assert m.A.shape == (2 * n, 2 * n)
        assert m.B.shape == (2 * n, n)
        assert m.C.shape == (2 * n - 1, 2 * n)


def test_block_structure():
    n, dt = 3, 0.2
    m = build_model(n, dt)
    eye = np.eye(n)
    assert np.allclose(m.A[:n, :n], eye)
    assert np.allclose(m.A[:n, n:], dt * eye)
    assert np.allclose(m.A[n:, :n], 0.0)
    assert np.allclose(m.A[n:, n:], eye)
    assert np.allclose(m.B[:n], 0.5 * dt * dt * eye)
    assert np.allclose(m.B[n:], dt * eye)


def test_output_rows():
    n = 3
    m = build_model(n, 0.1)
    x = np.array([50.0, 30.0, 5.0, 20.0, 18.0, 15.0])
    y = m.C @ x
    # leader-to-follower position differences, then every speed
    assert np.allclose(y[:2], [20.0, 25.0])
    assert np.allclose(y[2:], [20.0, 18.0, 15.0])


def test_step_constant_accel_kinematics():
    # one-step update must match exact constant-acceleration motion
    m = build_model(1, 0.5)
    x = np.array([10.0, 4.0])
    u = np.array([2.0])
    x1 = m.A @ x + m.B @ u
    assert x1[0] == pytest.approx(10.0 + 4.0 * 0.5 + 0.5 * 2.0 * 0.25)
    assert x1[1] == pytest.approx(4.0 + 2.0 * 0.5)


def test_step_composition_matches_direct_integration():
    # k small steps of constant accel equal the closed-form displacement
    rng = np.random.default_rng(7)
    m = build_model(2, 0.1)
    x = rng.normal(size=4)
    u = rng.normal(size=2)
    xk = x.copy()
    for _ in range(25):
        xk = m.A @ xk + m.B @ u
    t = 2.5
    expect_p = x[:2] + x[2:] * t + 0.5 * u * t * t
    expect_v = x[2:] + u * t
    assert np.allclose(xk[:2], expect_p, atol=1e-10)
    assert np.allclose(xk[2:], expect_v, atol=1e-10)


def test_invalid_construction():
    with pytest.raises(ValueError):
        build_model(0, 0.1)
    with pytest.raises(ValueError):
        build_model(2, 0.0)
