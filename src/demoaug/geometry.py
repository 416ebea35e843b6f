"""Rigid-body math: unit quaternions, poses, and SE(3) transforms.

Quaternions are stored (w, x, y, z) with the double cover resolved by
keeping w >= 0. Helpers always return normalized, canonical quaternions;
the Pose/SE3Transform constructors validate but never silently rescale,
so values survive serialization round trips bit-for-bit.

Float contract. A Pose and an SE3Transform keep their checked values as
tuples of Python floats: `xyz` (position, translation) and `wxyz`
(orientation, rotation). `.position`, `.orientation`, `.rotation` and
`.translation` are read-only float64 arrays of shape (3,) and (4,) that
own their data, each built on first access and then kept. Both classes
have frozen slots and no `__dict__`; a Pose's `_json` slot is filled once
by `data._pose_to_json`.

Construction contract. `Pose(position, orientation)` and
`SE3Transform(rotation, translation)` accept anything numpy turns into
float64 vectors of 3 and 4 values. They raise InvariantViolation on a
wrong size, on a NaN or inf in any slot, and on a quaternion whose norm
is more than UNIT_TOL from 1, and flip the quaternion's sign so that
w >= 0. The internal constructors `Pose._of` and `SE3Transform._of` take
tuples or lists of Python floats, which get the same checks in pure
Python (a tuple that passes is shared as is), or read-only float64
arrays, which get the same checks and, if they pass with w >= 0, become
the new object's array views. Any other argument, and a value that fails
a check, goes to the public constructor, which raises its usual error
(or stores a flipped quaternion, with an array view of its own).

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


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Flip sign so the scalar part is non-negative (idempotent)."""
    return np.array(_canonical(_floats(q)))


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


def _checked_vec(x, size: int, what: str) -> tuple:
    """The values of x as a float64 vector of `size`, as floats; raises on a
    wrong size or a non-finite value."""
    arr = np.array(x, dtype=np.float64)
    if arr.shape != (size,):
        if arr.size != size:
            raise InvariantViolation(f"{what} needs {size} values, got shape {arr.shape}")
        arr = arr.reshape(size)
    vals = tuple(arr.tolist())
    if not all(map(math.isfinite, vals)):
        raise InvariantViolation(f"non-finite {what}: {arr!r}")
    return vals


def _checked_quat(x, what: str) -> tuple:
    """A unit quaternion within UNIT_TOL, sign-flipped to w >= 0, never rescaled."""
    w, qx, qy, qz = q = _checked_vec(x, 4, what)
    n = math.sqrt(w * w + qx * qx + qy * qy + qz * qz)
    if abs(n - 1.0) > UNIT_TOL:
        raise InvariantViolation(f"{what} norm {n} deviates from 1 beyond {UNIT_TOL}")
    return (-w, -qx, -qy, -qz) if w < 0.0 else q


def _shared(x, size: int) -> bool:
    """Whether x is a read-only float64 array of `size` values, which _of
    takes to be the array view of a checked pose or transform."""
    return type(x) is np.ndarray and x.shape == (size,) and x.dtype == np.float64 and not x.flags.writeable


def _float_vec(x):
    """x as a tuple, if it is a tuple or list of 3 finite floats or a _shared
    array of them; None otherwise."""
    if type(x) is not tuple and type(x) is not list:
        x = x.tolist() if _shared(x, 3) else ()
    if len(x) != 3 or not (math.isfinite(x[0]) and math.isfinite(x[1]) and math.isfinite(x[2])):
        return None
    return tuple(x)


def _float_quat(x):
    """As _float_vec for a quaternion, whose norm must also be within
    UNIT_TOL of 1; stored with w >= 0, as _checked_quat stores it. A _shared
    array is taken only with w >= 0: it becomes the view of what is stored."""
    if type(x) is not tuple and type(x) is not list:
        x = x.tolist() if _shared(x, 4) and x[0] >= 0.0 else ()
    if len(x) != 4:
        return None
    w, qx, qy, qz = x
    # a NaN or an infinity makes the norm NaN or infinite, which fails this
    if not abs(math.sqrt(w * w + qx * qx + qy * qy + qz * qz) - 1.0) <= UNIT_TOL:
        return None
    return (-w, -qx, -qy, -qz) if w < 0.0 else tuple(x)


class _Rigid:
    """What Pose and SE3Transform share: a 3-vector `xyz` and a unit
    quaternion `wxyz` as tuples of checked floats, the list of their array
    views so far (None for none), frozen slots, and equality by value."""

    __slots__ = ("xyz", "wxyz", "_views")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        # the default slot-state restore would assign to frozen slots; the
        # stored values pass _new's checks again
        return _new, (type(self), self.xyz, self.wxyz)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.xyz == other.xyz and self.wxyz == other.wxyz


_set_xyz, _set_wxyz, _set_views = _Rigid.xyz.__set__, _Rigid.wxyz.__set__, _Rigid._views.__set__


def _fill(obj: _Rigid, xyz: tuple, wxyz: tuple, views=None) -> _Rigid:
    _set_xyz(obj, xyz)
    _set_wxyz(obj, wxyz)
    _set_views(obj, views)
    return obj


def _new(cls, xyz, wxyz):
    """A new `cls` of xyz and wxyz, each a tuple or list of floats or a
    _shared array, if they pass _float_vec and _float_quat; else None. A
    _shared array becomes the new object's array view."""
    v, q = _float_vec(xyz), _float_quat(wxyz)
    if v is None or q is None:
        return None
    views = None
    if type(xyz) is np.ndarray or type(wxyz) is np.ndarray:
        views = [xyz if type(xyz) is np.ndarray else None, wxyz if type(wxyz) is np.ndarray else None]
    return _fill(object.__new__(cls), v, q, views)


def _view(obj: _Rigid, i: int) -> np.ndarray:
    """The array view of obj.xyz (i = 0) or obj.wxyz (i = 1), built on first
    access and then kept: a read-only float64 array that owns its data."""
    views = obj._views
    if views is None:
        views = [None, None]
        _set_views(obj, views)
    arr = views[i]
    if arr is None:
        arr = views[i] = np.array(obj.wxyz if i else obj.xyz, dtype=np.float64)
        arr.flags.writeable = False
    return arr


class Pose(_Rigid):
    """Position (meters) plus unit quaternion orientation (w, x, y, z)."""

    __slots__ = ("_json",)

    def __init__(self, position, orientation):
        _fill(self, _checked_vec(position, 3, "position"), _checked_quat(orientation, "quaternion"))

    @classmethod
    def _of(cls, position, orientation) -> "Pose":
        """The Pose of float tuples or lists, or of shared array views (see
        the module's construction contract)."""
        return _new(cls, position, orientation) or cls(position, orientation)  # with the constructor's checks

    position = property(lambda self: _view(self, 0))
    orientation = property(lambda self: _view(self, 1))

    @classmethod
    def identity(cls) -> "Pose":
        return cls((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_xyz_yaw(cls, x: float, y: float, z: float, yaw: float = 0.0) -> "Pose":
        return cls((x, y, z), _from_yaw(float(yaw)))

    def __repr__(self):
        p, q = (", ".join(f"{v:.4g}" for v in vals) for vals in (self.xyz, self.wxyz))
        return f"Pose(p=[{p}], q=[{q}])"


class SE3Transform(_Rigid):
    """Rigid transform: x -> R x + t, with R a unit quaternion rotation."""

    __slots__ = ()

    def __init__(self, rotation, translation):
        _fill(self, wxyz=_checked_quat(rotation, "rotation"), xyz=_checked_vec(translation, 3, "translation"))

    @classmethod
    def _of(cls, rotation, translation) -> "SE3Transform":
        """The SE3Transform of float tuples or lists, or of shared array
        views (see the module's construction contract)."""
        return _new(cls, translation, rotation) or cls(rotation, translation)  # with the constructor's checks

    rotation = property(lambda self: _view(self, 1))
    translation = property(lambda self: _view(self, 0))

    @classmethod
    def identity(cls) -> "SE3Transform":
        return cls((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    def compose(self, other: "SE3Transform") -> "SE3Transform":
        """self after other: (self . other)(x) == self(other(x))."""
        r = self.wxyz
        return SE3Transform._of(_normalize(_qmul(r, other.wxyz)), _rigid(r, self.xyz, other.xyz))

    def inverse(self) -> "SE3Transform":
        rot = _normalize(_qconj(self.wxyz))
        rx, ry, rz = _rotate(rot, self.xyz)
        return SE3Transform._of(rot, (-rx, -ry, -rz))

    def apply_point(self, v) -> np.ndarray:
        return np.array(_rigid(self.wxyz, self.xyz, _floats(v)))

    def apply_pose(self, pose: Pose) -> Pose:
        r = self.wxyz
        return Pose._of(_rigid(r, self.xyz, pose.xyz), _normalize(_qmul(r, pose.wxyz)))


def relative_transform(src: Pose, dst: Pose) -> SE3Transform:
    """World-frame transform T with T(src) == dst, i.e. T = dst . src^-1."""
    rot = _normalize(_qmul(dst.wxyz, _qconj(src.wxyz)))
    rx, ry, rz = _rotate(rot, src.xyz)
    dx, dy, dz = dst.xyz
    return SE3Transform._of(rot, (dx - rx, dy - ry, dz - rz))


def relative_in_frame(frame: Pose, pose: Pose) -> SE3Transform:
    """Pose expressed in the frame of another pose: frame^-1 . pose.

    Invariant under any rigid transform applied to both arguments, which is
    what "relative pose is preserved" means for retargeted trajectories.
    """
    frame_tf = SE3Transform._of(frame.wxyz, frame.xyz)
    return frame_tf.inverse().compose(SE3Transform._of(pose.wxyz, pose.xyz))


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
        return Pose._of(pos, _slerp(current.wxyz, target.wxyz, max_rot_step / angle))
    if pos is target.xyz:
        return target
    views = target._views  # the orientation's array view too, once built
    return Pose._of(pos, target.wxyz if views is None or views[1] is None else views[1])
