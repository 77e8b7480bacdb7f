import numpy as np
import pytest

from racekit import track as rtrack
from racekit.simulator import SimConfig


@pytest.fixture(scope="session")
def circle10():
    return rtrack.make_circle_track(radius=10.0, width=3.0, n_points=360)


@pytest.fixture(scope="session")
def stadium():
    return rtrack.make_stadium_track(length=60.0, width=3.0)


@pytest.fixture(scope="session")
def sim_cfg():
    return SimConfig()


def make_room_track(half: float = 4.0) -> rtrack.TrackModel:
    """A square room of side 2*half centered at the origin, built as a raw
    TrackModel so the raycaster and collision checker see exactly one wall."""
    room = np.array([[half, half], [-half, half], [-half, -half], [half, -half]])
    segments = np.stack([room, np.roll(room, -1, axis=0)], axis=1)
    arc = np.array([0.0, 2.0, 4.0, 6.0, 8.0]) * half
    return rtrack.TrackModel(
        xy=room, w_right=np.full(4, 0.1), w_left=np.full(4, 0.1),
        inner_boundary=room, outer_boundary=room,
        arc_table=arc, total_length=8.0 * half,
        normals=np.zeros((4, 2)), boundary_segments=segments,
    )


@pytest.fixture(scope="session")
def room():
    return make_room_track()


def reference_project_to_polyline(points, verts, arc_table, seg_idx=None):
    """The projection kernel before the cached segment tables: gathers the
    window's vertices and broadcasts (P, M, 2) on every call. Kept as the
    reference that _geom.project_to_polyline must equal bit for bit."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(verts)
    seg_idx = np.arange(n) if seg_idx is None else np.asarray(seg_idx)
    a = verts[seg_idx]
    b = verts[(seg_idx + 1) % n]
    e = b - a                                      # (M, 2)
    ee = np.einsum("ij,ij->i", e, e)
    ee = np.maximum(ee, 1e-12)
    ap = points[:, None, :] - a[None, :, :]        # (P, M, 2)
    t = np.clip(np.einsum("pmi,mi->pm", ap, e) / ee, 0.0, 1.0)
    foot = a[None, :, :] + t[:, :, None] * e[None, :, :]
    diff = points[:, None, :] - foot
    dist2 = np.einsum("pmi,pmi->pm", diff, diff)
    best = np.argmin(dist2, axis=1)                # first minimum
    rows = np.arange(len(points))
    tb = t[rows, best]
    seg = seg_idx[best]
    seg_len = arc_table[seg + 1] - arc_table[seg]
    s = arc_table[seg] + tb * seg_len
    db = diff[rows, best]
    eb = e[best]
    cross = eb[:, 0] * db[:, 1] - eb[:, 1] * db[:, 0]
    d = np.sign(cross) * np.sqrt(dist2[rows, best])
    return s, d, seg


def assert_same_bits(got, want):
    """Equal dtype, shape and bytes: stricter than np.array_equal, which
    takes -0.0 for 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, (got, want)
    assert got.tobytes() == want.tobytes(), (got, want)


def uneven_circle():
    """A 10 m circle with 200 / 20 / 200 waypoints over its quarter / half /
    quarter arcs: the spacing jumps twentyfold where the arcs meet."""
    phi = np.concatenate([
        np.linspace(0.0, 0.5 * np.pi, 200, endpoint=False),
        np.linspace(0.5 * np.pi, 1.5 * np.pi, 20, endpoint=False),
        np.linspace(1.5 * np.pi, 2.0 * np.pi, 200, endpoint=False)])
    xy = 10.0 * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    half = np.full(len(xy), 1.5)
    return rtrack.build_track(xy, half, half)
