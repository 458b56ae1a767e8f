"""Property tests: encode -> decode -> encode is byte-identical.

Three layers of the same invariant, driven by hypothesis:

* the codec round-trips arbitrary whitelisted value graphs to
  identical canonical bytes;
* a :class:`TrackerState` checkpoint from a tracker that processed
  random frames round-trips through the codec bit-exactly;
* a session record exported from such a tracker imports identically
  into a dirty and a fresh :class:`SessionManager`.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import make_sequence
from repro.geometry.camera import TUM_QVGA
from repro.pim.isa import OpKind
from repro.serve import SessionManager
from repro.snap import encode, decode, content_hash
from repro.snap.state import encode_session_record, restore_session_record
from repro.vo import EBVOTracker, TrackerConfig, TrackerState
from repro.vo.frontend import FloatFrontend

TINY_CAMERA = TUM_QVGA.scaled(0.25)

# -- value-graph strategy -------------------------------------------------

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False),   # NaN breaks ==; tested separately
    st.text(max_size=8), st.binary(max_size=16))

_arrays = st.builds(
    lambda dtype, data: np.array(data, dtype=dtype),
    st.sampled_from(["uint8", "int32", "int64", "float32", "float64"]),
    st.lists(st.integers(0, 200), min_size=0, max_size=12))

_counters = st.builds(
    Counter,
    st.dictionaries(
        st.one_of(st.sampled_from(list(OpKind)),
                  st.text(min_size=1, max_size=6).filter(
                      lambda s: s != "__snap__"),
                  st.tuples(st.sampled_from(list(OpKind)),
                            st.integers(0, 32))),
        st.integers(0, 10**6), max_size=5))

_values = st.recursive(
    st.one_of(_scalars, _arrays, _counters),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(
            st.text(min_size=1, max_size=6).filter(
                lambda s: s != "__snap__"),
            children, max_size=4)),
    max_leaves=12)


def _equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and
                isinstance(b, np.ndarray) and
                a.dtype == b.dtype and a.shape == b.shape and
                a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b) and
                all(_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, Counter) or isinstance(b, Counter):
        return type(a) is type(b) and a == b
    if isinstance(a, dict):
        return (isinstance(b, dict) and set(a) == set(b) and
                all(_equal(a[k], b[k]) for k in a))
    return type(a) is type(b) and a == b


class TestCodecProperties:
    @given(_values)
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_identity(self, value):
        out = decode(encode(value))
        assert _equal(out, value)

    @given(_values)
    @settings(max_examples=80, deadline=None)
    def test_reencoding_is_canonical(self, value):
        # encode -> decode -> encode must hash identically: the
        # content hash is a state identity, whatever the state.
        first = encode(value)
        second = encode(decode(first))
        assert content_hash(first) == content_hash(second)


# -- tracker / session states ---------------------------------------------

def _tracked_state(seed: int, n_frames: int):
    config = TrackerConfig(camera=TINY_CAMERA)
    tracker = EBVOTracker(FloatFrontend(config), config)
    seq = make_sequence("fr1_xyz", n_frames=n_frames,
                        camera=TINY_CAMERA, seed=seed)
    for frame in seq.frames:
        tracker.process(frame.gray, frame.depth, frame.timestamp)
    return tracker.state


class TestTrackerSessionProperties:
    @given(st.integers(0, 500), st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_tracker_state_round_trip(self, seed, n_frames):
        state = _tracked_state(seed, n_frames)
        snap = encode(state.checkpoint())
        restored = decode(snap)
        assert isinstance(restored, TrackerState)
        again = encode(restored.checkpoint())
        assert content_hash(again) == content_hash(snap)

    @given(st.integers(0, 500))
    @settings(max_examples=5, deadline=None)
    def test_session_import_dirty_equals_fresh(self, seed):
        source = SessionManager()
        session = source.touch("probe")
        session.state = _tracked_state(seed, 2)
        session.frames = 2
        source.save_checkpoint(session)
        record = encode_session_record(source.export_session("probe"))

        fresh = SessionManager()
        restore_session_record(fresh, record)
        dirty = SessionManager()
        dirty.touch("other-a")
        dirty.touch("other-b")
        restore_session_record(dirty, record)

        again_fresh = encode_session_record(fresh.export_session("probe"))
        again_dirty = encode_session_record(dirty.export_session("probe"))
        assert content_hash(again_fresh) == content_hash(record)
        assert content_hash(again_dirty) == content_hash(record)
