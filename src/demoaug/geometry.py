"""Rigid-body math: unit quaternions, poses, and SE(3) transforms.

Quaternions are stored (w, x, y, z) with the double cover resolved by
keeping w >= 0. Helpers always return normalized, canonical quaternions;
the Pose/SE3Transform constructors validate but never silently rescale,
so values survive serialization round trips bit-for-bit.

Construction contract. `Pose(position, orientation)` and
`SE3Transform(rotation, translation)` accept anything numpy turns into
float64 vectors of 3 and 4 values. They raise InvariantViolation on a
wrong size, on a NaN or inf in any slot, and on a quaternion whose norm
is more than UNIT_TOL from 1. They flip the quaternion's sign so that
w >= 0 and store fresh read-only float64 arrays of shape (3,) and (4,)
that own their data (`.base is None`): a view would keep a second ndarray
alive per vector. A `Pose` has slots and no `__dict__`; its third slot,
`_json`, starts empty and is filled once by `data._pose_to_json` with the
pose's JSON fragment, which the immutable position and orientation fix.

The internal constructors `Pose._of` and `SE3Transform._of` build the
same objects for this module's kernels and the simulator. Each argument
is either the frozen array of an existing Pose or SE3Transform, which was
checked when it was built and is shared as is, or a list of Python floats,
which gets the public constructor's checks in pure Python: the right
count, finite values, a quaternion norm within UNIT_TOL of 1, and the sign
flip to w >= 0. Any other argument, and a list that fails a check, goes
to the public constructor, which raises its usual error. So every stored
value is checked once, and no message changes; what `_of` saves is the
numpy round trip of the public constructor.

Bit-identity rules. The per-pose kernel works on Python floats taken with
`ndarray.tolist()`, which avoids numpy's per-call overhead on 3- and
4-vectors, but only where the scalar form gives the same bits as the numpy
form it replaces:

- the scalar cross product in `quat_rotate` equals `np.cross`, which
  forms the same products and differences;
- `vec_norm(v) = math.sqrt(v.dot(v))` equals `np.linalg.norm(v)`, which
  computes exactly that;
- `.tolist()` equals `float()` per element.

These are not bit-equal, so the numpy forms stay: `math.atan2` against
`np.arctan2`, `math.acos` against `np.arccos`, and a plain `x*x + y*y +
z*z` against `v.dot(v)`. The constructors' norm check may use the plain
sum of squares because it only decides acceptance against UNIT_TOL and
never feeds a stored value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

UNIT_TOL = 1e-9
_DEGENERATE = 1e-8


def vec_norm(v: np.ndarray) -> float:
    """Euclidean norm of a float64 vector, bit-equal to np.linalg.norm."""
    return math.sqrt(v.dot(v))


def _floats(x) -> list:
    return np.asarray(x, dtype=np.float64).tolist()


def _qmul(a: list, b: list) -> list:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return [
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]


def _qconj(q: list) -> list:
    return [q[0], -q[1], -q[2], -q[3]]


def _rotate(q: list, v: list) -> list:
    """v + w t + u x t with t = 2 u x v, in np.cross's operation order."""
    w, x, y, z = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return [
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    ]


def _rigid(r: list, t: list, v: list) -> list:
    """R v + t, adding in the order of `quat_rotate(r, v) + t`."""
    rx, ry, rz = _rotate(r, v)
    return [rx + t[0], ry + t[1], rz + t[2]]


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Flip sign so the scalar part is non-negative (idempotent)."""
    q = np.asarray(q, dtype=np.float64)
    return -q if q[0] < 0.0 else q


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    n = vec_norm(q)
    if not math.isfinite(n) or n < _DEGENERATE:
        raise InvariantViolation(f"degenerate quaternion {q!r}")
    if abs(n - 1.0) <= 1e-12:
        # already unit: dividing would only churn the last bits, breaking
        # bit-exact identities (e.g. applying the identity transform)
        return quat_canonical(q)
    return quat_canonical(q / n)


def quat_multiply(a, b) -> np.ndarray:
    return np.array(_qmul(_floats(a), _floats(b)))


def quat_rotate(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion."""
    return np.array(_rotate(_floats(q), _floats(v)))


def quat_from_yaw(yaw: float) -> np.ndarray:
    half = 0.5 * float(yaw)
    return quat_canonical(np.array([np.cos(half), 0.0, 0.0, np.sin(half)]))


def quat_from_rotvec(w) -> np.ndarray:
    """Exponential map from a rotation vector (axis * angle, radians)."""
    w = np.asarray(w, dtype=np.float64)
    angle = vec_norm(w)
    if angle < 1e-12:
        return np.array([1.0, 0.0, 0.0, 0.0])
    axis = w / angle
    half = 0.5 * angle
    s = np.sin(half)
    return quat_canonical(np.array([np.cos(half), s * axis[0], s * axis[1], s * axis[2]]))


def quat_geodesic(a, b) -> float:
    """Angular distance in radians between two unit quaternions, in [0, pi]."""
    rel = _qmul(_floats(a), _qconj(_floats(b)))
    return 2.0 * float(np.arctan2(vec_norm(np.array(rel[1:])), abs(rel[0])))


def quat_slerp(a, b, u: float) -> np.ndarray:
    """Shortest-arc spherical interpolation; exact at both endpoints."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if u <= 0.0:
        return quat_canonical(a.copy())
    if u >= 1.0:
        return quat_canonical(b.copy())
    dot = float(np.dot(a, b))
    b_adj = -b if dot < 0.0 else b
    dot = abs(dot)
    if dot > 1.0 - 1e-12:
        return quat_normalize(a + u * (b_adj - a))
    theta = np.arccos(min(dot, 1.0))
    sin_theta = np.sin(theta)
    w1 = np.sin((1.0 - u) * theta) / sin_theta
    w2 = np.sin(u * theta) / sin_theta
    return quat_normalize(w1 * a + w2 * b_adj)


def _checked_vec(x, size: int, what: str) -> tuple[np.ndarray, list]:
    """A fresh float64 copy of x with shape (size,), and its values; raises
    on a wrong size or a non-finite value."""
    arr = np.array(x, dtype=np.float64)
    if arr.shape != (size,):
        if arr.size != size:
            raise InvariantViolation(f"{what} needs {size} values, got shape {arr.shape}")
        arr = arr.reshape(size).copy()
    vals = arr.tolist()
    if not all(map(math.isfinite, vals)):
        raise InvariantViolation(f"non-finite {what}: {arr!r}")
    return arr, vals


def _frozen_vec(x, size: int, what: str) -> np.ndarray:
    arr, _ = _checked_vec(x, size, what)
    arr.flags.writeable = False
    return arr


def _frozen_quat(x, what: str) -> np.ndarray:
    """A unit quaternion within UNIT_TOL, sign-flipped to w >= 0, never rescaled."""
    q, (w, qx, qy, qz) = _checked_vec(x, 4, what)
    n = math.sqrt(w * w + qx * qx + qy * qy + qz * qz)
    if abs(n - 1.0) > UNIT_TOL:
        raise InvariantViolation(f"{what} norm {n} deviates from 1 beyond {UNIT_TOL}")
    if w < 0.0:
        np.negative(q, out=q)
    q.flags.writeable = False
    return q


def _shared(x) -> bool:
    """Whether x is a read-only array, which _of takes to be the frozen
    array of a checked pose or transform."""
    return type(x) is np.ndarray and not x.flags.writeable


def _float_vec(x):
    """A frozen float64 array of x, a list of 3 finite floats, or x itself
    if _shared; None otherwise."""
    if type(x) is not list:
        return x if _shared(x) else None
    # a sum is finite only if every term is; an overflowing sum of finite
    # values goes to the constructor, which accepts it
    if len(x) != 3 or not math.isfinite(x[0] + x[1] + x[2]):
        return None
    arr = np.array(x, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _float_quat(x):
    """As _float_vec for a quaternion, whose norm must also be within
    UNIT_TOL of 1; stored with w >= 0, as _frozen_quat stores it."""
    if type(x) is not list:
        return x if _shared(x) else None
    if len(x) != 4:
        return None
    w, qx, qy, qz = x
    # a NaN or an infinity makes the norm NaN or infinite, which fails this
    if not abs(math.sqrt(w * w + qx * qx + qy * qy + qz * qz) - 1.0) <= UNIT_TOL:
        return None
    arr = np.array([-w, -qx, -qy, -qz] if w < 0.0 else x, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False, init=False)
class Pose:
    """Position (meters) plus unit quaternion orientation (w, x, y, z)."""

    __slots__ = ("position", "orientation", "_json")
    position: np.ndarray
    orientation: np.ndarray

    def __init__(self, position, orientation):
        object.__setattr__(self, "position", _frozen_vec(position, 3, "position"))
        object.__setattr__(self, "orientation", _frozen_quat(orientation, "quaternion"))

    @classmethod
    def _of(cls, position, orientation) -> "Pose":
        """The Pose of checked frozen arrays or float lists (see the module's
        construction contract)."""
        pos, ori = _float_vec(position), _float_quat(orientation)
        if pos is None or ori is None:
            return cls(position, orientation)  # raises the constructor's error
        pose = object.__new__(cls)
        _set_position(pose, pos)
        _set_orientation(pose, ori)
        return pose

    def __reduce__(self):
        # the default slot-state restore would assign to frozen fields
        return type(self), (self.position, self.orientation)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def from_xyz_yaw(cls, x: float, y: float, z: float, yaw: float = 0.0) -> "Pose":
        return cls(np.array([x, y, z], dtype=np.float64), quat_from_yaw(yaw))

    def __eq__(self, other):
        if not isinstance(other, Pose):
            return NotImplemented
        return np.array_equal(self.position, other.position) and np.array_equal(
            self.orientation, other.orientation
        )

    def __repr__(self):
        p = self.position
        q = self.orientation
        return f"Pose(p=[{p[0]:.4g}, {p[1]:.4g}, {p[2]:.4g}], q=[{q[0]:.4g}, {q[1]:.4g}, {q[2]:.4g}, {q[3]:.4g}])"


_set_position = Pose.position.__set__
_set_orientation = Pose.orientation.__set__


@dataclass(frozen=True, eq=False, init=False)
class SE3Transform:
    """Rigid transform: x -> R x + t, with R a unit quaternion rotation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __init__(self, rotation, translation):
        object.__setattr__(self, "rotation", _frozen_quat(rotation, "rotation"))
        object.__setattr__(self, "translation", _frozen_vec(translation, 3, "translation"))

    @classmethod
    def _of(cls, rotation, translation) -> "SE3Transform":
        """The SE3Transform of checked frozen arrays or float lists (see the
        module's construction contract)."""
        rot, trans = _float_quat(rotation), _float_vec(translation)
        if rot is None or trans is None:
            return cls(rotation, translation)  # raises the constructor's error
        tf = object.__new__(cls)
        object.__setattr__(tf, "rotation", rot)
        object.__setattr__(tf, "translation", trans)
        return tf

    @classmethod
    def identity(cls) -> "SE3Transform":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    def compose(self, other: "SE3Transform") -> "SE3Transform":
        """self after other: (self . other)(x) == self(other(x))."""
        r = self.rotation.tolist()
        rot = quat_normalize(np.array(_qmul(r, other.rotation.tolist()))).tolist()
        return SE3Transform._of(rot, _rigid(r, self.translation.tolist(), other.translation.tolist()))

    def inverse(self) -> "SE3Transform":
        rot = quat_normalize(np.array(_qconj(self.rotation.tolist()))).tolist()
        rx, ry, rz = _rotate(rot, self.translation.tolist())
        return SE3Transform._of(rot, [-rx, -ry, -rz])

    def apply_point(self, v) -> np.ndarray:
        return np.array(_rigid(self.rotation.tolist(), self.translation.tolist(), _floats(v)))

    def apply_pose(self, pose: Pose) -> Pose:
        r = self.rotation.tolist()
        return Pose._of(
            _rigid(r, self.translation.tolist(), pose.position.tolist()),
            quat_normalize(np.array(_qmul(r, pose.orientation.tolist()))).tolist(),
        )

    def __eq__(self, other):
        if not isinstance(other, SE3Transform):
            return NotImplemented
        return np.array_equal(self.rotation, other.rotation) and np.array_equal(
            self.translation, other.translation
        )


def relative_transform(src: Pose, dst: Pose) -> SE3Transform:
    """World-frame transform T with T(src) == dst, i.e. T = dst . src^-1."""
    rot = quat_normalize(np.array(_qmul(dst.orientation.tolist(), _qconj(src.orientation.tolist())))).tolist()
    rx, ry, rz = _rotate(rot, src.position.tolist())
    dx, dy, dz = dst.position.tolist()
    return SE3Transform._of(rot, [dx - rx, dy - ry, dz - rz])


def relative_in_frame(frame: Pose, pose: Pose) -> SE3Transform:
    """Pose expressed in the frame of another pose: frame^-1 . pose.

    Invariant under any rigid transform applied to both arguments, which is
    what "relative pose is preserved" means for retargeted trajectories.
    """
    frame_tf = SE3Transform._of(frame.orientation, frame.position)
    pose_tf = SE3Transform._of(pose.orientation, pose.position)
    return frame_tf.inverse().compose(pose_tf)


def step_toward(current: Pose, target: Pose, max_pos_step: float, max_rot_step: float) -> Pose:
    """Move from current toward target, clamped to per-step bounds.

    Reaches the target exactly once both residuals fit inside the bounds,
    and then returns `target` itself.
    """
    delta = target.position - current.position
    dist = vec_norm(delta)
    if dist <= max_pos_step:
        pos = target.position
    else:
        pos = (current.position + delta * (max_pos_step / dist)).tolist()
    angle = quat_geodesic(current.orientation, target.orientation)
    if angle <= max_rot_step:
        if pos is target.position:
            return target
        ori = target.orientation
    else:
        ori = quat_slerp(current.orientation, target.orientation, max_rot_step / angle).tolist()
    return Pose._of(pos, ori)
