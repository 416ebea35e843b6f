import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoaug.errors import InvariantViolation
from demoaug.geometry import (
    UNIT_TOL,
    Pose,
    SE3Transform,
    _canonical,
    _rigid,
    quat_from_yaw,
    quat_geodesic,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_slerp,
    relative_in_frame,
    relative_transform,
    step_toward,
    vec_norm,
)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def unit_quats(draw):
    raw = np.array([draw(st.floats(-1, 1)) for _ in range(4)])
    if np.linalg.norm(raw) < 1e-3:
        raw = np.array([1.0, 0.0, 0.0, 0.0])
    return quat_normalize(raw)


@st.composite
def poses(draw):
    pos = np.array([draw(finite) for _ in range(3)])
    return Pose(pos, draw(unit_quats()))


@st.composite
def transforms(draw):
    t = np.array([draw(finite) for _ in range(3)])
    return SE3Transform(draw(unit_quats()), t)


def test_canonicalization_flips_negative_w():
    canon = _canonical((-0.5, 0.5, 0.5, 0.5))
    assert canon == (0.5, -0.5, -0.5, -0.5)
    assert _canonical(canon) == canon


def test_pose_rejects_bad_quaternion():
    with pytest.raises(InvariantViolation):
        Pose(np.zeros(3), np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(InvariantViolation):
        Pose(np.array([np.nan, 0, 0]), np.array([1.0, 0, 0, 0]))


def test_pose_canonicalizes_w():
    p = Pose(np.zeros(3), np.array([-1.0, 0.0, 0.0, 0.0]))
    assert p.orientation[0] == 1.0


def test_relative_transform_identity():
    p = Pose((0.1, 0.2, 0.3), quat_from_yaw(0.7))
    T = relative_transform(p, p)
    assert np.allclose(T.translation, 0, atol=1e-12)
    assert quat_geodesic(T.rotation, np.array([1, 0, 0, 0])) < 1e-12


def test_relative_transform_pure_translation():
    src = Pose.identity()
    dst = Pose(np.array([0.1, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
    T = relative_transform(src, dst)
    assert np.allclose(T.translation, [0.1, 0, 0])
    assert np.allclose(T.rotation, [1, 0, 0, 0])


def test_relative_transform_yaw_rotates_body_points():
    # src at identity, dst yawed 90 deg: the body point (1,0,0) must land at
    # dst's body point, i.e. (0,1,0) in the world
    src = Pose.identity()
    dst = Pose(np.zeros(3), quat_from_yaw(np.pi / 2))
    T = relative_transform(src, dst)
    moved = _rigid(T.wxyz, T.xyz, (1.0, 0.0, 0.0))
    assert np.allclose(moved, [0.0, 1.0, 0.0], atol=1e-12)


@settings(max_examples=200)
@given(poses(), poses())
def test_relative_transform_maps_src_to_dst(src, dst):
    T = relative_transform(src, dst)
    got = T.apply_pose(src)
    assert np.linalg.norm(got.position - dst.position) < 1e-9 * max(1.0, np.linalg.norm(dst.position))
    assert quat_geodesic(got.orientation, dst.orientation) < 1e-9


@settings(max_examples=200)
@given(transforms())
def test_inverse_composes_to_identity(T):
    ident = T.compose(T.inverse())
    assert np.linalg.norm(ident.translation) < 1e-9 * max(1.0, np.linalg.norm(T.translation))
    assert quat_geodesic(ident.rotation, np.array([1, 0, 0, 0])) < 1e-9


@settings(max_examples=200)
@given(transforms(), transforms(), poses())
def test_compose_is_application_order(T1, T2, p):
    left = T1.compose(T2).apply_pose(p)
    right = T1.apply_pose(T2.apply_pose(p))
    scale = max(1.0, np.linalg.norm(left.position))
    assert np.linalg.norm(left.position - right.position) < 1e-9 * scale
    assert quat_geodesic(left.orientation, right.orientation) < 1e-9


@settings(max_examples=100)
@given(transforms(), poses(), poses())
def test_relative_in_frame_is_transform_invariant(g, frame, pose):
    a = relative_in_frame(frame, pose)
    b = relative_in_frame(g.apply_pose(frame), g.apply_pose(pose))
    scale = max(1.0, np.linalg.norm(a.translation))
    assert np.linalg.norm(a.translation - b.translation) < 1e-8 * scale
    assert quat_geodesic(a.rotation, b.rotation) < 1e-8


def test_slerp_endpoints_exact():
    a = quat_from_yaw(0.3)
    b = quat_from_yaw(1.1)
    assert np.array_equal(quat_slerp(a, b, 0.0), a)
    assert np.array_equal(quat_slerp(a, b, 1.0), b)


def test_slerp_is_angle_linear_for_yaw():
    a = quat_from_yaw(0.0)
    b = quat_from_yaw(np.pi / 2)
    mid = quat_slerp(a, b, 2.0 / 3.0)
    assert quat_geodesic(mid, quat_from_yaw(np.pi / 3)) < 1e-12


def test_slerp_takes_shortest_arc():
    a = quat_from_yaw(0.0)
    b = -quat_from_yaw(0.2)  # same rotation, opposite sign
    for end in (b, np.array(_canonical(b.tolist()))):
        mid = quat_slerp(a, end, 0.5)
        assert quat_geodesic(mid, quat_from_yaw(0.1)) < 1e-12


def test_quat_rotate_matches_multiplication():
    q = quat_normalize(np.array([0.3, -0.4, 0.8, 0.1]))
    v = np.array([0.2, -0.7, 0.5])
    rotated = quat_rotate(q, v)
    qv = np.array([0.0, *v])
    expected = quat_multiply(quat_multiply(q, qv), np.array([q[0], -q[1], -q[2], -q[3]]))[1:]
    assert np.allclose(rotated, expected, atol=1e-12)


def test_step_toward_clamps_and_reaches():
    a = Pose.identity()
    b = Pose(np.array([0.05, 0.0, 0.0]), quat_from_yaw(0.3))
    one = step_toward(a, b, 0.02, 0.1)
    assert abs(np.linalg.norm(one.position - a.position) - 0.02) < 1e-12
    assert quat_geodesic(a.orientation, one.orientation) <= 0.1 + 1e-12
    close = step_toward(Pose(np.array([0.04, 0, 0]), b.orientation), b, 0.02, 0.5)
    assert np.array_equal(close.position, b.position)
    assert np.array_equal(close.orientation, b.orientation)


# ---------------------------------------------------------------------------
# reference kernels. The products, sums and cross products are the numpy
# forms the float kernel replaced, and it must return their bits, not merely
# close values. Norms, atan2 and acos are in float form (ref_float_*): the
# plain sum of squares, math.atan2 and math.acos, which the kernel must also
# match bit for bit; against the numpy forms (ref_normalize, ref_geodesic,
# ref_slerp, ref_step_toward) their results are bounded in ulps instead.


def ref_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def ref_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def ref_rotate(q, v):
    v = np.asarray(v, dtype=np.float64)
    u = np.asarray(q[1:], dtype=np.float64)
    t = 2.0 * np.cross(u, v)
    return v + q[0] * t + np.cross(u, t)


def ref_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    n = float(np.linalg.norm(q))
    if abs(n - 1.0) > 1e-12:
        q = q / n
    return -q if q[0] < 0.0 else q


def ref_geodesic(a, b):
    rel = ref_multiply(a, ref_conjugate(b))
    return 2.0 * float(np.arctan2(np.linalg.norm(rel[1:]), abs(rel[0])))


def ref_float_norm(v):
    x, y, z = (float(c) for c in v)
    return math.sqrt(x * x + y * y + z * z)


def ref_float_normalize(q):
    w, x, y, z = (float(c) for c in q)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if abs(n - 1.0) > 1e-12:
        w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([-w, -x, -y, -z] if w < 0.0 else [w, x, y, z])


def ref_float_geodesic(a, b):
    rel = ref_multiply(a, ref_conjugate(b))
    return 2.0 * math.atan2(ref_float_norm(rel[1:]), abs(float(rel[0])))


def ref_float_slerp(a, b, u):
    dot = float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3])
    b_adj = -b if dot < 0.0 else b
    dot = abs(dot)
    if dot > 1.0 - 1e-12:
        return ref_float_normalize(a + u * (b_adj - a))
    theta = math.acos(min(dot, 1.0))
    w1 = math.sin((1.0 - u) * theta) / math.sin(theta)
    w2 = math.sin(u * theta) / math.sin(theta)
    return ref_float_normalize(w1 * a + w2 * b_adj)


def ref_float_step_toward(cur, tgt, max_pos, max_rot):
    delta = tgt.position - cur.position
    dist = ref_float_norm(delta)
    pos = tgt.position if dist <= max_pos else cur.position + delta * (max_pos / dist)
    angle = ref_float_geodesic(cur.orientation, tgt.orientation)
    if angle <= max_rot:
        ori = tgt.orientation
    else:
        ori = ref_float_slerp(cur.orientation, tgt.orientation, max_rot / angle)
    return pos, ori


def ref_slerp(a, b, u):
    dot = float(np.dot(a, b))
    b_adj = -b if dot < 0.0 else b
    dot = abs(dot)
    if dot > 1.0 - 1e-12:
        return ref_normalize(a + u * (b_adj - a))
    theta = np.arccos(min(dot, 1.0))
    w1 = np.sin((1.0 - u) * theta) / np.sin(theta)
    w2 = np.sin(u * theta) / np.sin(theta)
    return ref_normalize(w1 * a + w2 * b_adj)


def ref_step_toward(cur, tgt, max_pos, max_rot):
    delta = tgt.position - cur.position
    dist = float(np.linalg.norm(delta))
    pos = tgt.position if dist <= max_pos else cur.position + delta * (max_pos / dist)
    angle = ref_geodesic(cur.orientation, tgt.orientation)
    if angle <= max_rot:
        ori = tgt.orientation
    else:
        ori = ref_slerp(cur.orientation, tgt.orientation, max_rot / angle)
    return pos, ori


def assert_bits(got, want):
    assert np.array_equal(got, want), (got, want)


# the bound of the float forms against the numpy forms, in units in the last
# place of `scale`: the largest magnitude the result is built from (1.0 for
# a unit quaternion). The widest gap seen in 50k random cases was 2 ulps for
# norms, normalize and the transforms, 1 for geodesic, and 4 for the
# positions of step_toward.
ULPS = 8


def assert_ulps(got, want, scale):
    gap = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64))))
    assert gap <= ULPS * math.ulp(scale), (got, want, gap / math.ulp(scale))


@st.composite
def raw_quats(draw):
    """Unit quaternions off by a few ulps, so both quat_normalize branches run."""
    raw = np.array([draw(st.floats(-1, 1)) for _ in range(4)])
    if float(np.linalg.norm(raw)) < 1e-3:
        raw = np.array([1.0, 0.0, 0.0, 0.0])
    return raw / float(np.linalg.norm(raw))


vectors = st.lists(finite, min_size=3, max_size=3).map(np.array)


@settings(max_examples=300)
@given(raw_quats(), raw_quats(), vectors)
def test_kernel_bit_equal_to_numpy_reference(q1, q2, v):
    assert_bits(quat_rotate(q1, v), ref_rotate(q1, v))
    assert_bits(quat_multiply(q1, q2), ref_multiply(q1, q2))
    assert_bits(quat_normalize(q1), ref_float_normalize(q1))
    assert quat_geodesic(q1, q2) == ref_float_geodesic(q1, q2)
    assert vec_norm(v) == ref_float_norm(v)
    assert_ulps(quat_normalize(q1), ref_normalize(q1), 1.0)
    assert_ulps(quat_geodesic(q1, q2), ref_geodesic(q1, q2), ref_geodesic(q1, q2))
    assert_ulps(vec_norm(v), np.linalg.norm(v), float(np.linalg.norm(v)))


doubles = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=1000)
@given(doubles, st.lists(doubles, min_size=1, max_size=9))
def test_math_sin_cos_bit_equal_to_numpy(x, xs):
    """The kernels' sin and cos come from math; they must equal numpy's on
    this host, as scalars and as arrays, or every yaw, rotation vector and
    slerp would change its bits."""
    for fn, np_fn in ((math.sin, np.sin), (math.cos, np.cos)):
        assert fn(x).hex() == float(np_fn(x)).hex()
        assert [fn(v).hex() for v in xs] == [v.hex() for v in np_fn(np.array(xs)).tolist()]


@settings(max_examples=300)
@given(transforms(), transforms(), poses())
def test_transforms_bit_equal_to_numpy_reference(T1, T2, p):
    c = T1.compose(T2)
    for normalize in (ref_float_normalize, ref_normalize):
        check = assert_bits if normalize is ref_float_normalize else lambda got, want: assert_ulps(got, want, 1.0)
        check(c.rotation, normalize(ref_multiply(T1.rotation, T2.rotation)))
        check(T1.inverse().rotation, normalize(ref_conjugate(T1.rotation)))
        check(T1.apply_pose(p).orientation, normalize(ref_multiply(T1.rotation, p.orientation)))
    assert_bits(c.translation, ref_rotate(T1.rotation, T2.translation) + T1.translation)
    inv = T1.inverse()
    assert_bits(inv.translation, -ref_rotate(ref_float_normalize(ref_conjugate(T1.rotation)), T1.translation))
    moved = T1.apply_pose(p)
    assert_bits(moved.position, ref_rotate(T1.rotation, p.position) + T1.translation)


@settings(max_examples=300)
@given(poses(), poses())
def test_relative_transform_bit_equal_to_numpy_reference(src, dst):
    T = relative_transform(src, dst)
    rot = ref_float_normalize(ref_multiply(dst.orientation, ref_conjugate(src.orientation)))
    assert_bits(T.rotation, rot)
    assert_bits(T.translation, dst.position - ref_rotate(rot, src.position))
    assert_ulps(T.rotation, ref_normalize(ref_multiply(dst.orientation, ref_conjugate(src.orientation))), 1.0)


@settings(max_examples=300)
@given(poses(), poses(), st.floats(1e-3, 2e3), st.floats(1e-3, 3.2))
def test_step_toward_bit_equal_to_numpy_reference(cur, tgt, max_pos, max_rot):
    got = step_toward(cur, tgt, max_pos, max_rot)
    pos, ori = ref_float_step_toward(cur, tgt, max_pos, max_rot)
    assert_bits(got.position, pos)
    assert_bits(got.orientation, ori)
    np_pos, np_ori = ref_step_toward(cur, tgt, max_pos, max_rot)
    scale = max(1.0, float(np.max(np.abs(cur.position))), float(np.max(np.abs(tgt.position))))
    assert_ulps(got.position, np_pos, scale)
    assert_ulps(got.orientation, np_ori, 1.0)


# ---------------------------------------------------------------------------
# construction contract


# (build from a 3-vector and a quaternion, stored (3-vector, quaternion))
CONSTRUCTORS = pytest.mark.parametrize(
    "build,arrays",
    [
        (Pose, lambda obj: (obj.position, obj.orientation)),
        (lambda v, q: SE3Transform(q, v), lambda obj: (obj.translation, obj.rotation)),
    ],
    ids=["Pose", "SE3Transform"],
)
UNIT_Q = np.array([0.5, -0.5, 0.5, 0.5])


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@CONSTRUCTORS
@pytest.mark.parametrize("slot", range(7))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_non_finite(build, arrays, slot, bad):
    v = np.array([0.1, 0.2, 0.3])
    q = UNIT_Q.copy()
    if slot < 3:
        v[slot] = bad
    else:
        q[slot - 3] = bad
    with pytest.raises(InvariantViolation):
        build(v, q)


@CONSTRUCTORS
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_constructor_norm_tolerance(build, arrays, sign):
    assert UNIT_TOL == 1e-9
    with pytest.raises(InvariantViolation):
        build(np.zeros(3), UNIT_Q * (1.0 + sign * 2e-9))
    build(np.zeros(3), UNIT_Q * (1.0 + sign * 5e-10))


@CONSTRUCTORS
def test_constructor_rejects_wrong_size(build, arrays):
    with pytest.raises(InvariantViolation):
        build(np.zeros(2), UNIT_Q)
    with pytest.raises(InvariantViolation):
        build(np.zeros(3), UNIT_Q[:3])


@CONSTRUCTORS
@pytest.mark.parametrize("form", [list, tuple, np.array, _frozen], ids=["list", "tuple", "array", "read_only_array"])
@pytest.mark.parametrize(
    "v,q,error",
    [
        ([0.1, math.nan, 0.3], UNIT_Q.tolist(), "non-finite"),
        ([0.1, 0.2, -math.inf], UNIT_Q.tolist(), "non-finite"),
        ([0.1, 0.2, 0.3], [1.0, 0.0, math.inf, 0.0], "non-finite"),
        ([0.1, 0.2, 0.3], (UNIT_Q * (1.0 + 2e-9)).tolist(), "deviates from 1"),
        ([0.1, 0.2], UNIT_Q.tolist(), "needs 3 values"),
        ([0.1, 0.2, 0.3, 0.4], UNIT_Q.tolist(), "needs 3 values"),
        ([0.1, 0.2, 0.3], [1.0, 0.0, 0.0], "needs 4 values"),
    ],
    ids=["nan_vector", "inf_vector", "inf_quaternion", "non_unit_quaternion", "short_vector", "long_vector",
         "short_quaternion"],
)
def test_constructor_rejects_bad_input_in_every_form(build, arrays, form, v, q, error):
    """Float lists and tuples (the kernels' path), arrays and read-only
    arrays all get the size, non-finite and norm checks."""
    with pytest.raises(InvariantViolation, match=error):
        build(form(v), form(q))


@CONSTRUCTORS
@pytest.mark.parametrize(
    "v,q",
    [
        ([0.1, 0.2, 0.3], [-0.5, 0.5, -0.5, 0.5]),
        (np.array([[0.1, 0.2, 0.3]]), np.array([[0.5, 0.5, 0.5, 0.5]])),
        (np.array([0.1, 0.2, 0.3]), -UNIT_Q),
        ((0.1, 0.2, 0.3), (-0.5, 0.5, -0.5, 0.5)),
        ([1, -2, 3], [-1, 0, 0, 0]),
        ([np.float32(0.25), np.int64(2), np.float64(0.1)],
         [np.float64(-0.5), np.float32(0.5), np.float64(0.5), np.float32(-0.5)]),
        (_frozen([0.1, 0.2, 0.3]), _frozen(-UNIT_Q)),
    ],
    ids=["lists_negative_w", "row_vectors", "arrays_negative_w", "float_tuples", "ints", "numpy_scalars",
         "read_only_arrays"],
)
def test_constructor_stores_owned_frozen_canonical_arrays(build, arrays, v, q):
    if isinstance(v, np.ndarray) and v.flags.writeable:
        v = v.copy()
    src_v, src_q = np.array(v, dtype=np.float64), np.array(q, dtype=np.float64)
    obj = build(v, q)
    assert all(type(x) is float for x in obj.xyz + obj.wxyz)  # ints and numpy scalars are stored as floats
    vec, quat = arrays(obj)
    for arr, shape in ((vec, (3,)), (quat, (4,))):
        assert arr.dtype == np.float64 and arr.shape == shape
        assert arr.base is None and arr.flags.owndata
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    canonical_q = src_q.reshape(4)
    if canonical_q[0] < 0.0:
        canonical_q = -canonical_q
    assert quat[0] >= 0.0
    assert np.array_equal(quat, canonical_q)
    assert np.array_equal(vec, src_v.reshape(3))
    if isinstance(v, np.ndarray) and v.flags.writeable:
        v[...] = 9.0  # the stored copy must not alias the caller's array
        assert np.array_equal(vec, src_v.reshape(3))


# the "internal" construction is the one the kernels make: the public
# constructor given lists or tuples of exact floats, which it takes as is;
# "public" is the numpy path every other input takes, here given the same
# values as arrays. Both must raise the same errors and store the same bits.
INTERNAL = pytest.mark.parametrize(
    "public,internal,arrays",
    [
        (lambda v, q: Pose(np.array(v), np.array(q)), Pose, lambda obj: (obj.position, obj.orientation)),
        (lambda v, q: SE3Transform(np.array(q), np.array(v)), lambda v, q: SE3Transform(q, v),
         lambda obj: (obj.translation, obj.rotation)),
    ],
    ids=["Pose", "SE3Transform"],
)


def _error(build, v, q) -> str:
    with pytest.raises(InvariantViolation) as info:
        build(v, q)
    return str(info.value)


@INTERNAL
@pytest.mark.parametrize(
    "v,q",
    [
        ([math.nan, 0.2, 0.3], [1.0, 0.0, 0.0, 0.0]),
        ([0.1, -math.inf, 0.3], [1.0, 0.0, 0.0, 0.0]),
        ([0.1, 0.2, 0.3], [1.0, 0.0, 0.0, 1e-4]),
        ([0.1, 0.2, 0.3], [math.nan, 0.0, 0.0, 0.0]),
        ([0.1, 0.2, 0.3], [math.inf, 0.0, 0.0, 0.0]),
        ([0.1, 0.2], [1.0, 0.0, 0.0, 0.0]),
        ([0.1, 0.2, 0.3], [1.0, 0.0, 0.0]),
        ([0.1, 0.2, 0.3, 0.4], [1.0, 0.0, 0.0, 0.0, 0.0]),
    ],
    ids=["nan_position", "inf_position", "non_unit_quaternion", "nan_quaternion", "inf_quaternion",
         "short_position", "short_quaternion", "long_lists"],
)
def test_internal_constructor_raises_the_public_error(public, internal, arrays, v, q):
    assert _error(internal, v, q) == _error(public, v, q)


@INTERNAL
@pytest.mark.parametrize(
    "v,q",
    [
        ([0.1, 0.2, 0.3], [-0.5, 0.5, -0.5, 0.5]),
        ([0.1, 0.2, 0.3], [0.5, -0.5, 0.5, 0.5]),
        ([0.0, -0.0, 0.0], [-0.0, 1.0, 0.0, 0.0]),
        ([1e308, 1e308, 0.25], (UNIT_Q * (1.0 + 5e-10)).tolist()),
    ],
    ids=["negative_w", "positive_w", "negative_zero_w", "overflowing_sum_within_tolerance"],
)
def test_internal_constructor_stores_what_the_public_one_stores(public, internal, arrays, v, q):
    got, want = arrays(internal(v, q)), arrays(public(v, q))
    for arr, ref in zip(got, want):
        assert arr.dtype == np.float64 and arr.shape == ref.shape
        assert arr.tobytes() == ref.tobytes()  # the same bits, -0.0 included
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert got[1][0] >= 0.0


def test_internal_constructor_shares_no_array():
    """Every read of an array property is a new read-only copy, and an
    array passed in, read-only or not, is copied, never kept."""
    p = Pose([0.1, 0.2, 0.3], UNIT_Q)
    assert p.orientation is not p.orientation and not p.orientation.flags.writeable
    tf = SE3Transform(p.orientation, p.position)
    assert tf.rotation is not p.orientation and tf.translation is not p.position
    assert tf.rotation.tobytes() == p.orientation.tobytes() and tf.translation.tobytes() == p.position.tobytes()
    for writable in (np.array([0.1, 0.2, 0.3]), _frozen([0.1, 0.2, 0.3])):
        copied = Pose(writable, p.orientation)
        assert copied.position is not writable and not copied.position.flags.writeable
        if writable.flags.writeable:
            writable[0] = 9.0
        assert copied.position[0] == 0.1


@pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]], ids=["nan", "inf"])
def test_internal_constructor_checks_a_read_only_array(bad):
    """A read-only array is not trusted as a checked view: a non-finite value
    raises as it does in the public constructor."""
    with pytest.raises(InvariantViolation, match="non-finite position"):
        Pose(_frozen(bad), _frozen(UNIT_Q))
    with pytest.raises(InvariantViolation, match="non-finite"):
        Pose(_frozen([0.1, 0.2, 0.3]), _frozen([np.nan, 0.0, 0.0, 0.0]))


def test_internal_constructor_flips_a_read_only_negative_w_into_its_own_view():
    q = _frozen([-1.0, 0.0, 0.0, 0.0])
    pose = Pose(_frozen([0.1, 0.2, 0.3]), q)
    assert pose.wxyz == (1.0, -0.0, -0.0, -0.0) and pose == Pose([0.1, 0.2, 0.3], q)
    assert pose.orientation.tobytes() == np.array(pose.wxyz).tobytes()
    assert not pose.orientation.flags.writeable
    tf = SE3Transform(q, _frozen([0.0, 0.0, 1.0]))
    assert tf.wxyz[0] == 1.0 and tf.rotation[0] == 1.0


def test_step_toward_returns_a_reached_target_itself():
    b = Pose(np.array([0.05, 0.0, 0.0]), quat_from_yaw(0.3))
    assert step_toward(Pose(np.array([0.04, 0, 0]), b.orientation), b, 0.02, 0.5) is b
    moved = step_toward(Pose.identity(), b, 0.02, 0.5)
    assert moved is not b and not np.array_equal(moved.position, b.position)
    assert moved.wxyz is b.wxyz  # the rotation fits: the target's floats


# ---------------------------------------------------------------------------
# float-backed storage


@INTERNAL
def test_float_built_object_keeps_its_array_views(public, internal, arrays):
    obj = internal([0.1, -0.0, 0.3], [-0.5, 0.5, -0.5, 0.5])
    vec, quat = arrays(obj)
    for arr, floats in ((vec, obj.xyz), (quat, obj.wxyz)):
        assert arr.dtype == np.float64 and arr.base is None and arr.flags.owndata
        assert not arr.flags.writeable
        assert arr.tobytes() == np.array(floats).tobytes()
        assert all(type(x) is float for x in floats)
    assert obj.wxyz == (0.5, -0.5, 0.5, -0.5)


@INTERNAL
def test_pickle_round_trip(public, internal, arrays):
    import pickle

    for obj in (internal([0.1, -0.0, 0.3], [0.5, -0.5, 0.5, 0.5]), public([1e308, 1e308, 5e-324], -UNIT_Q)):
        for _ in range(2):  # without, then with, its array views built
            back = pickle.loads(pickle.dumps(obj))
            assert type(back) is type(obj) and back == obj
            assert repr(back.xyz) == repr(obj.xyz) and repr(back.wxyz) == repr(obj.wxyz)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays(back), arrays(obj)))


def test_step_toward_on_floats_shares_what_fits():
    here = Pose([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    there = Pose([0.01, 0.0, 0.0], quat_from_yaw(0.05).tolist())
    assert step_toward(here, there, 0.02, 0.1) is there  # reached: the target itself
    moved = step_toward(here, there, 0.005, 0.1)
    assert moved.wxyz is there.wxyz  # the rotation fits: the target's floats
    assert moved.xyz == (0.005, 0.0, 0.0)
