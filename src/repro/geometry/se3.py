"""SO(3)/SE(3) Lie-group utilities for pose representation.

Twists are 6-vectors ``xi = (v, w)`` with translational part first, the
convention used by the LM solver: the pose update of Fig. 1-c is
``pose = exp(delta_xi) o pose``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["hat", "so3_exp", "so3_log", "se3_exp", "se3_log", "SE3"]

_EPS = 1e-10


def hat(w: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector."""
    wx, wy, wz = np.asarray(w, dtype=np.float64)
    return np.array([[0.0, -wz, wy],
                     [wz, 0.0, -wx],
                     [-wy, wx, 0.0]])


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula: rotation matrix of an axis-angle vector."""
    w = np.asarray(w, dtype=np.float64)
    theta = np.linalg.norm(w)
    k = hat(w)
    if theta < _EPS:
        return np.eye(3) + k + 0.5 * (k @ k)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix."""
    rot = np.asarray(rot, dtype=np.float64)
    cos_theta = np.clip((np.trace(rot) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta < _EPS:
        return np.array([rot[2, 1] - rot[1, 2],
                         rot[0, 2] - rot[2, 0],
                         rot[1, 0] - rot[0, 1]]) / 2.0
    if abs(np.pi - theta) < 1e-6:
        # Near pi: extract the axis from R + I.
        m = (rot + np.eye(3)) / 2.0
        axis = np.sqrt(np.maximum(np.diagonal(m), 0.0))
        # Fix signs from off-diagonals using the largest component.
        i = int(np.argmax(axis))
        if axis[i] > 0:
            for j in range(3):
                if j != i:
                    axis[j] = m[i, j] / axis[i]
        norm = np.linalg.norm(axis)
        if norm > _EPS:
            axis = axis / norm
        return theta * axis
    return theta * np.array([rot[2, 1] - rot[1, 2],
                             rot[0, 2] - rot[2, 0],
                             rot[1, 0] - rot[0, 1]]) / (2.0 * np.sin(theta))


def _left_jacobian(w: np.ndarray) -> np.ndarray:
    """The SO(3) left Jacobian V used in the SE(3) exponential."""
    theta = np.linalg.norm(w)
    k = hat(w)
    if theta < _EPS:
        return np.eye(3) + 0.5 * k + (k @ k) / 6.0
    a = (1.0 - np.cos(theta)) / (theta * theta)
    b = (theta - np.sin(theta)) / (theta ** 3)
    return np.eye(3) + a * k + b * (k @ k)


def se3_exp(xi: np.ndarray) -> "SE3":
    """Exponential map: twist ``(v, w)`` to a rigid transform.

    :func:`so3_exp` of ``w`` and ``_left_jacobian(w) @ v``, bit for bit,
    with ``theta``, ``hat(w)``, its square, ``sin`` and ``cos`` taken
    once for both.
    """
    xi = np.asarray(xi, dtype=np.float64)
    v, w = xi[:3], xi[3:]
    theta = np.linalg.norm(w)
    k = hat(w)
    kk = k @ k
    if theta < _EPS:
        rot = np.eye(3) + k + 0.5 * kk
        jac = np.eye(3) + 0.5 * k + kk / 6.0
    else:
        sin, cos = np.sin(theta), np.cos(theta)
        c = (1.0 - cos) / (theta * theta)
        rot = np.eye(3) + (sin / theta) * k + c * kk
        jac = np.eye(3) + c * k + ((theta - sin) / (theta ** 3)) * kk
    return SE3(rot, jac @ v)


def se3_log(transform: "SE3") -> np.ndarray:
    """Logarithm map: rigid transform to a twist ``(v, w)``."""
    w = so3_log(transform.R)
    v = np.linalg.solve(_left_jacobian(w), transform.t)
    return np.concatenate([v, w])


@dataclass
class SE3:
    """A rigid transform ``x' = R x + t``."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        self.R = np.asarray(self.R, dtype=np.float64).reshape(3, 3)
        self.t = np.asarray(self.t, dtype=np.float64).reshape(3)

    @classmethod
    def identity(cls) -> "SE3":
        """The identity transform."""
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def exp(cls, xi: np.ndarray) -> "SE3":
        """Alias for :func:`se3_exp`."""
        return se3_exp(xi)

    def log(self) -> np.ndarray:
        """Alias for :func:`se3_log`."""
        return se3_log(self)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SE3":
        """From a 4x4 homogeneous matrix."""
        m = np.asarray(m, dtype=np.float64)
        return cls(m[:3, :3], m[:3, 3])

    @classmethod
    def from_quaternion(cls, t: np.ndarray, q_xyzw: np.ndarray) -> "SE3":
        """From translation and quaternion (x, y, z, w), TUM convention."""
        x, y, z, w = np.asarray(q_xyzw, dtype=np.float64)
        n = x * x + y * y + z * z + w * w
        if n < _EPS:
            return cls(np.eye(3), t)
        s = 2.0 / n
        rot = np.array([
            [1 - s * (y * y + z * z), s * (x * y - z * w), s * (x * z + y * w)],
            [s * (x * y + z * w), 1 - s * (x * x + z * z), s * (y * z - x * w)],
            [s * (x * z - y * w), s * (y * z + x * w), 1 - s * (x * x + y * y)],
        ])
        return cls(rot, t)

    def to_quaternion(self) -> np.ndarray:
        """Quaternion (x, y, z, w) of the rotation part."""
        m = self.R
        tr = np.trace(m)
        if tr > 0:
            s = np.sqrt(tr + 1.0) * 2.0
            return np.array([(m[2, 1] - m[1, 2]) / s,
                             (m[0, 2] - m[2, 0]) / s,
                             (m[1, 0] - m[0, 1]) / s,
                             0.25 * s])
        i = int(np.argmax(np.diagonal(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(m[i, i] - m[j, j] - m[k, k] + 1.0, 0.0)) * 2.0
        q = np.zeros(4)
        q[i] = 0.25 * s
        q[j] = (m[j, i] + m[i, j]) / s
        q[k] = (m[k, i] + m[i, k]) / s
        q[3] = (m[k, j] - m[j, k]) / s
        return q

    @property
    def matrix(self) -> np.ndarray:
        """The 4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.R
        m[:3, 3] = self.t
        return m

    def inverse(self) -> "SE3":
        """The inverse transform."""
        rt = self.R.T
        return SE3(rt, -rt @ self.t)

    def __matmul__(self, other: "SE3") -> "SE3":
        """Composition: ``(self @ other)(x) = self(other(x))``."""
        return SE3(self.R @ other.R, self.R @ other.t + self.t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.R.T + self.t

    def distance_to(self, other: "SE3") -> tuple:
        """(translation, rotation-angle) distance to another pose."""
        delta = self.inverse() @ other
        return float(np.linalg.norm(delta.t)), float(
            np.linalg.norm(so3_log(delta.R)))
