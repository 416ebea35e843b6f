"""Rigid-body math: unit quaternions, poses, and SE(3) transforms.

Quaternions are stored (w, x, y, z) with the double cover resolved by
keeping w >= 0. Helpers always return normalized, canonical quaternions;
the Pose/SE3Transform constructors validate but never silently rescale,
so values survive serialization round trips bit-for-bit.

Float contract. A Pose and an SE3Transform keep their checked values as
tuples of Python floats: `xyz` (position, translation) and `wxyz`
(orientation, rotation). Each read of `.position`, `.orientation`,
`.rotation` or `.translation` returns a new read-only float64 array of
shape (3,) or (4,) that owns its data; nothing keeps or shares an array.
Both classes have frozen slots and no `__dict__`; a Pose's `_json` slot is
filled once by `data._pose_to_json`.

Construction contract. `Pose(position, orientation)` and
`SE3Transform(rotation, translation)` are the only constructors, and run
one checked path: `_vec3` for the 3-vector and `_unit_quat` for the
quaternion, in the order of the arguments. Each takes
a tuple or list of exact Python floats as is, and turns anything else that
numpy turns into float64 values (arrays, ints, numpy scalars, row vectors)
into floats once. They raise InvariantViolation on a wrong size, on a NaN
or inf in any slot, and on a quaternion whose norm is more than UNIT_TOL
from 1, and flip the quaternion's sign so that w >= 0; a tuple that passes
unflipped is stored as is.

Numerics. The kernels take and return tuples of Python floats, with IEEE
arithmetic and the C library's sqrt, sin, cos, atan2 and acos; a norm is
the square root of the plain sum of squares in index order. The array
functions (`quat_multiply`, `quat_slerp`, ...) wrap them. Against the
numpy forms they replaced, the products, sums and cross products are the
same operations in the same order and `math.sin`/`math.cos` equal
`np.sin`/`np.cos`, but `math.atan2`, `math.acos` and the plain sum of
squares differ from `np.arctan2`, `np.arccos` and `v.dot(v)` in the last
bits on some inputs: one declared change of output bytes, which
tests/test_geometry.py bounds.
"""
from __future__ import annotations

import math
from dataclasses import FrozenInstanceError

import numpy as np

from .errors import InvariantViolation

UNIT_TOL = 1e-9
_DEGENERATE = 1e-8


def vec_norm(v) -> float:
    """Euclidean norm of a 3-vector: math.sqrt(x*x + y*y + z*z)."""
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def _floats(x) -> list:
    return np.asarray(x, dtype=np.float64).tolist()


def _qmul(a, b) -> tuple:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _qconj(q) -> tuple:
    return (q[0], -q[1], -q[2], -q[3])


def _rotate(q, v) -> tuple:
    """v + w t + u x t with t = 2 u x v, in np.cross's operation order."""
    w, x, y, z = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def _rigid(r, t, v) -> tuple:
    """R v + t, adding in the order of `quat_rotate(r, v) + t`."""
    rx, ry, rz = _rotate(r, v)
    return (rx + t[0], ry + t[1], rz + t[2])


def _canonical(q) -> tuple:
    w, x, y, z = q
    return (-w, -x, -y, -z) if w < 0.0 else (w, x, y, z)


def _normalize(q) -> tuple:
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not math.isfinite(n) or n < _DEGENERATE:
        raise InvariantViolation(f"degenerate quaternion {list(q)!r}")
    if abs(n - 1.0) > 1e-12:
        # within 1e-12 of unit, dividing would only churn the last bits,
        # breaking bit-exact identities (e.g. applying the identity transform)
        w, x, y, z = w / n, x / n, y / n, z / n
    return (-w, -x, -y, -z) if w < 0.0 else (w, x, y, z)


def _from_yaw(yaw: float) -> tuple:
    half = 0.5 * yaw
    return _canonical((math.cos(half), 0.0, 0.0, math.sin(half)))


def _from_rotvec(v) -> tuple:
    x, y, z = v
    angle = math.sqrt(x * x + y * y + z * z)
    if angle < 1e-12:
        return (1.0, 0.0, 0.0, 0.0)
    half = 0.5 * angle
    s = math.sin(half)
    return _canonical((math.cos(half), s * (x / angle), s * (y / angle), s * (z / angle)))


def quat_geodesic(a, b) -> float:
    """Angular distance in radians between two unit quaternions, in [0, pi]."""
    w, x, y, z = _qmul(a, _qconj(b))
    return 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), abs(w))


def _slerp(a, b, u: float) -> tuple:
    if u <= 0.0:
        return _canonical(a)
    if u >= 1.0:
        return _canonical(b)
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    dot = aw * bw + ax * bx + ay * by + az * bz
    if dot < 0.0:
        bw, bx, by, bz = -bw, -bx, -by, -bz
    dot = abs(dot)
    if dot > 1.0 - 1e-12:
        return _normalize((aw + u * (bw - aw), ax + u * (bx - ax), ay + u * (by - ay), az + u * (bz - az)))
    theta = math.acos(min(dot, 1.0))
    sin_theta = math.sin(theta)
    w1 = math.sin((1.0 - u) * theta) / sin_theta
    w2 = math.sin(u * theta) / sin_theta
    return _normalize((w1 * aw + w2 * bw, w1 * ax + w2 * bx, w1 * ay + w2 * by, w1 * az + w2 * bz))


# the array forms of the kernels, for callers that hold arrays


def quat_normalize(q) -> np.ndarray:
    return np.array(_normalize(_floats(q)))


def quat_multiply(a, b) -> np.ndarray:
    return np.array(_qmul(_floats(a), _floats(b)))


def quat_rotate(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion."""
    return np.array(_rotate(_floats(q), _floats(v)))


def quat_from_yaw(yaw: float) -> np.ndarray:
    return np.array(_from_yaw(float(yaw)))


def quat_from_rotvec(w) -> np.ndarray:
    """Exponential map from a rotation vector (axis * angle, radians)."""
    return np.array(_from_rotvec(_floats(w)))


def quat_slerp(a, b, u: float) -> np.ndarray:
    """Shortest-arc spherical interpolation; exact at both endpoints."""
    return np.array(_slerp(_floats(a), _floats(b), u))


# ---------------------------------------------------------------------------
# checked storage


def _via_numpy(x, size: int, what: str) -> tuple:
    """The values of x as a float64 vector of `size`, as floats; raises on a
    wrong size or a non-finite value."""
    arr = np.array(x, dtype=np.float64)
    if arr.size != size:
        raise InvariantViolation(f"{what} needs {size} values, got shape {arr.shape}")
    arr = arr.reshape(size)
    if not np.isfinite(arr).all():
        raise InvariantViolation(f"non-finite {what}: {arr!r}")
    return tuple(arr.tolist())


def _vec3(x, what: str) -> tuple:
    """x as a tuple of 3 finite floats. A tuple or list of 3 exact floats is
    taken as is; anything else goes through numpy once."""
    if (type(x) is tuple or type(x) is list) and len(x) == 3:
        a, b, c = x
        # an inf or a NaN makes the sum non-finite, and its product with 0.0
        # NaN; a finite sum that overflows goes through numpy, which takes it
        if type(a) is type(b) is type(c) is float and (a + b + c) * 0.0 == 0.0:
            return tuple(x)
    return _via_numpy(x, 3, what)


def _unit_quat(q, what: str) -> tuple:
    """q as a unit quaternion within UNIT_TOL, sign-flipped to w >= 0 and
    never rescaled. A tuple or list of 4 exact floats is taken as is, and
    anything else goes through numpy once; a quaternion that fails the norm
    check goes through numpy again, for the error of a non-finite value."""
    if not ((type(q) is tuple or type(q) is list) and len(q) == 4
            and type(q[0]) is type(q[1]) is type(q[2]) is type(q[3]) is float):
        q = _via_numpy(q, 4, what)
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not abs(n - 1.0) <= UNIT_TOL:  # NaN and inf fail too
        _via_numpy(q, 4, what)
        raise InvariantViolation(f"{what} norm {n} deviates from 1 beyond {UNIT_TOL}")
    return (-w, -x, -y, -z) if w < 0.0 else tuple(q)


def _array(values: tuple) -> np.ndarray:
    """A new read-only float64 array of a pose's or a transform's floats."""
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class _Rigid:
    """What Pose and SE3Transform share: a 3-vector `xyz` and a unit
    quaternion `wxyz` as tuples of checked floats, frozen slots, and
    equality by value. Unpickling runs the public constructor, whose checks
    the stored values pass again (the default slot-state restore would
    assign to frozen slots)."""

    __slots__ = ("xyz", "wxyz")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.xyz == other.xyz and self.wxyz == other.wxyz


_set_xyz, _set_wxyz = _Rigid.xyz.__set__, _Rigid.wxyz.__set__


class Pose(_Rigid):
    """Position (meters) plus unit quaternion orientation (w, x, y, z)."""

    __slots__ = ("_json",)

    def __init__(self, position, orientation):
        _set_xyz(self, _vec3(position, "position"))
        _set_wxyz(self, _unit_quat(orientation, "quaternion"))

    def __reduce__(self):
        return type(self), (self.xyz, self.wxyz)

    position = property(lambda self: _array(self.xyz))
    orientation = property(lambda self: _array(self.wxyz))

    @classmethod
    def identity(cls) -> "Pose":
        return cls((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))

    def __repr__(self):
        p, q = (", ".join(f"{v:.4g}" for v in vals) for vals in (self.xyz, self.wxyz))
        return f"Pose(p=[{p}], q=[{q}])"


class SE3Transform(_Rigid):
    """Rigid transform: x -> R x + t, with R a unit quaternion rotation."""

    __slots__ = ()

    def __init__(self, rotation, translation):
        _set_wxyz(self, _unit_quat(rotation, "rotation"))
        _set_xyz(self, _vec3(translation, "translation"))

    def __reduce__(self):
        return type(self), (self.wxyz, self.xyz)

    rotation = property(lambda self: _array(self.wxyz))
    translation = property(lambda self: _array(self.xyz))

    @classmethod
    def identity(cls) -> "SE3Transform":
        return cls((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    def compose(self, other: "SE3Transform") -> "SE3Transform":
        """self after other: (self . other)(x) == self(other(x))."""
        r = self.wxyz
        return SE3Transform(_normalize(_qmul(r, other.wxyz)), _rigid(r, self.xyz, other.xyz))

    def inverse(self) -> "SE3Transform":
        rot = _normalize(_qconj(self.wxyz))
        rx, ry, rz = _rotate(rot, self.xyz)
        return SE3Transform(rot, (-rx, -ry, -rz))

    def apply_pose(self, pose: Pose) -> Pose:
        r = self.wxyz
        return Pose(_rigid(r, self.xyz, pose.xyz), _normalize(_qmul(r, pose.wxyz)))


def relative_transform(src: Pose, dst: Pose) -> SE3Transform:
    """World-frame transform T with T(src) == dst, i.e. T = dst . src^-1."""
    rot = _normalize(_qmul(dst.wxyz, _qconj(src.wxyz)))
    rx, ry, rz = _rotate(rot, src.xyz)
    dx, dy, dz = dst.xyz
    return SE3Transform(rot, (dx - rx, dy - ry, dz - rz))


def relative_in_frame(frame: Pose, pose: Pose) -> SE3Transform:
    """Pose expressed in the frame of another pose: frame^-1 . pose.

    Invariant under any rigid transform applied to both arguments, which is
    what "relative pose is preserved" means for retargeted trajectories.
    """
    frame_tf = SE3Transform(frame.wxyz, frame.xyz)
    return frame_tf.inverse().compose(SE3Transform(pose.wxyz, pose.xyz))


def step_toward(current: Pose, target: Pose, max_pos_step: float, max_rot_step: float) -> Pose:
    """Move from current toward target, clamped to per-step bounds.

    Reaches the target exactly once both residuals fit inside the bounds,
    and then returns `target` itself; a step whose rotation fits shares the
    target's orientation.
    """
    cx, cy, cz = current.xyz
    tx, ty, tz = pos = target.xyz
    dx, dy, dz = tx - cx, ty - cy, tz - cz
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist > max_pos_step:
        k = max_pos_step / dist
        pos = (cx + dx * k, cy + dy * k, cz + dz * k)
    angle = quat_geodesic(current.wxyz, target.wxyz)
    if angle > max_rot_step:
        return Pose(pos, _slerp(current.wxyz, target.wxyz, max_rot_step / angle))
    if pos is target.xyz:
        return target
    return Pose(pos, target.wxyz)
