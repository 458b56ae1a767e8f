"""Wire-level tests for the shard transport (no worker processes)."""

import pickle
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.shard.transport import (
    MAGIC,
    MAX_MESSAGE_BYTES,
    OUT_OF_BAND_BYTES,
    MessagePump,
    SendQueueFull,
    TransportClosed,
    accept_worker,
    connect_back,
    read_message,
    rendezvous_listener,
    write_message,
)


@pytest.fixture()
def reader():
    """``reader(wire)``: a socket that reads ``wire``, then EOF."""
    opened = []

    def make(wire: bytes) -> socket.socket:
        a, b = socket.socketpair()
        writer = threading.Thread(
            target=lambda: (a.sendall(wire), a.close()))
        writer.start()
        opened.append((b, writer))
        return b

    yield make
    for sock, writer in opened:
        sock.close()
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    for s in (a, b):
        try:
            s.close()
        except OSError:
            pass


def _wire(payload) -> bytes:
    """The exact bytes :func:`write_message` puts on the wire."""
    a, b = socket.socketpair()
    with a, b:
        def send():
            write_message(a, payload)
            a.shutdown(socket.SHUT_WR)

        writer = threading.Thread(target=send)
        writer.start()
        chunks = []
        while True:
            chunk = b.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        writer.join(timeout=10)
        assert not writer.is_alive()
    return b"".join(chunks)


def _header(wire: bytes):
    """``(pickle length, buffer lengths)`` of one wire message."""
    magic, head_length, count = struct.unpack(">4sII", wire[:12])
    assert magic == MAGIC
    return head_length, struct.unpack(f">{count}Q",
                                      wire[12:12 + 8 * count])


#: Enough float64 elements to travel out of band.
_BIG = OUT_OF_BAND_BYTES // 8


class TestFraming:
    def test_roundtrip_preserves_arrays_and_nesting(self, pair):
        a, b = pair
        payload = {"op": "frame", "seq": 3,
                   "gray": np.arange(12, dtype=np.uint8).reshape(3, 4),
                   "meta": [1, "x", None]}
        write_message(a, payload)
        decoded = read_message(b)
        assert decoded["op"] == "frame"
        assert np.array_equal(decoded["gray"], payload["gray"])
        assert decoded["meta"] == payload["meta"]

    def test_roundtrip_of_every_array_layout(self, reader):
        big = np.arange(2 * _BIG, dtype=np.float64).reshape(-1, 16)
        small = np.arange(12.0).reshape(3, 4)
        read_only = big.copy()
        read_only.flags.writeable = False
        read_only_small = small.copy()
        read_only_small.flags.writeable = False
        payload = {
            "c": big, "f": np.asfortranarray(big), "strided": big[:, ::2],
            "scalar": np.array(3.0), "empty": np.zeros((0, 3)),
            "read_only": read_only, "read_only_small": read_only_small,
            "bool": np.arange(_BIG * 8) % 3 == 0,
            "object": np.array([1, "x", None], dtype=object),
            "small": small,
        }
        decoded = read_message(reader(_wire(payload)))
        assert decoded.keys() == payload.keys()
        for key, sent in payload.items():
            got = decoded[key]
            assert got.dtype == sent.dtype and got.shape == sent.shape
            assert np.array_equal(got, sent), key
        assert decoded["f"].flags.f_contiguous
        assert not decoded["read_only"].flags.writeable
        assert not decoded["read_only_small"].flags.writeable

    def test_only_large_contiguous_arrays_travel_out_of_band(self):
        big = np.zeros(_BIG)
        small = np.zeros(_BIG - 1)
        _head, lengths = _header(_wire({"big": big, "small": small,
                                        "strided": np.zeros(4 * _BIG)[::2]}))
        assert lengths == (big.nbytes,)
        head, lengths = _header(_wire({"pose": np.eye(3)}))
        assert lengths == () and head < 1024

    @pytest.mark.parametrize("pad", [0, 1, 3, 13])
    def test_frame_arrays_arrive_aligned_writable_and_unshared(
            self, reader, pad):
        """Each out-of-band buffer gets its own allocation: whatever
        the pickle's length, float64 frames land aligned."""
        gray = np.random.default_rng(pad).uniform(0, 255, (128, 96))
        depth = gray * 2.0
        payload = {"pad": "x" * pad, "gray": gray, "depth": depth}
        wire = _wire(payload)
        assert len(_header(wire)[1]) == 2
        decoded = read_message(reader(wire))
        for key in ("gray", "depth"):
            got = decoded[key]
            assert got.flags.aligned and got.flags.writeable
            assert np.array_equal(got, payload[key])
            assert not np.shares_memory(got, payload[key])
        assert not np.shares_memory(decoded["gray"], decoded["depth"])

    def test_messages_arrive_in_order(self, pair):
        a, b = pair
        for i in range(20):
            write_message(a, i)
        assert [read_message(b) for _ in range(20)] == list(range(20))

    def test_bad_magic_rejected_before_payload(self, pair):
        a, b = pair
        a.sendall(struct.pack(">4sII", b"EVIL", 4, 0) + b"....")
        with pytest.raises(TransportClosed, match="magic"):
            read_message(b)

    def test_previous_wire_format_is_refused(self, pair):
        a, b = pair
        blob = pickle.dumps({"op": "frame"})
        a.sendall(struct.pack(">4sI", b"RSH1", len(blob)) + blob)
        with pytest.raises(TransportClosed, match="magic"):
            read_message(b)

    def test_oversized_length_prefix_fails_fast(self, reader):
        """Only the header arrives: a reader that allocated or read on
        before checking would fail some other way, or hang."""
        headers = {
            "pickle": struct.pack(">4sII", MAGIC, (1 << 32) - 1, 0),
            "count": struct.pack(">4sII", MAGIC, 16, (1 << 32) - 1),
            "buffer": struct.pack(">4sIIQ", MAGIC, 16, 1, 1 << 60),
            "total": struct.pack(">4sIIQQ", MAGIC, 16, 2,
                                 MAX_MESSAGE_BYTES // 2,
                                 MAX_MESSAGE_BYTES // 2),
        }
        for header in headers.values():
            with pytest.raises(TransportClosed, match="exceeds"):
                read_message(reader(header))

    def test_truncated_stream_is_closed_not_hung(self, reader):
        wire = _wire({"gray": np.ones(_BIG), "depth": np.ones(_BIG)})
        head, lengths = _header(wire)
        table_end = 12 + 8 * len(lengths)
        # Cut inside the header, the length table, the pickle and the
        # last buffer.
        for keep in (7, table_end - 3, table_end + head // 2,
                     len(wire) - lengths[-1] // 2):
            with pytest.raises(TransportClosed):
                read_message(reader(wire[:keep]))


class TestMessagePump:
    def test_delivers_messages_and_notifies_close_once(self, pair):
        a, b = pair
        got, closes = [], []
        done = threading.Event()
        pump = MessagePump(
            b, name="t",
            on_message=lambda m: (got.append(m),
                                  done.set() if m == 9 else None),
            on_close=lambda: closes.append(1))
        pump.start()
        for i in range(10):
            write_message(a, i)
        assert done.wait(timeout=5)
        assert got == list(range(10))
        a.close()
        deadline = time.monotonic() + 5
        while not pump.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pump.closed
        pump.close()  # idempotent
        assert closes == [1]
        with pytest.raises(TransportClosed):
            pump.send({"op": "late"})

    def test_buffer_that_disagrees_with_its_pickle_closes_the_pump(
            self, pair):
        a, b = pair
        closes = []
        pump = MessagePump(b, name="t", on_message=lambda m: None,
                           on_close=lambda: closes.append(1))
        pump.start()
        wire = _wire({"gray": np.zeros(_BIG)})
        head, _lengths = _header(wire)
        table_end = 12 + 8
        a.sendall(struct.pack(">4sIIQ", MAGIC, head, 1, 8) +
                  wire[table_end:table_end + head] + bytes(8))
        deadline = time.monotonic() + 5
        while not pump.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pump.closed and closes == [1]
        pump.close()

    def test_bounded_send_queue_sheds_not_buffers(self, pair):
        a, b = pair
        # Nobody drains the peer and the payloads dwarf the socket
        # buffer, so the writer wedges and the queue bound must trip.
        pump = MessagePump(b, name="t", on_message=lambda m: None,
                           max_send_queue=2)
        pump.start()
        blob = np.zeros(1 << 22, dtype=np.uint8)  # 4 MiB
        with pytest.raises(SendQueueFull):
            for _ in range(64):
                pump.send({"blob": blob})
        pump.close()
        a.close()


class TestRendezvous:
    def test_wrong_token_dropped_right_token_accepted(self):
        """Each outstanding token is accepted once, whichever dials
        first, and the returned token names the dialler.  An unknown
        token, a consumed one and a short hello are each closed
        without using up a slot."""
        tokens = (b"s" * 16, b"t" * 16)
        for first, second in (tokens, tokens[::-1]):
            listener, host, port = rendezvous_listener()
            outstanding = set(tokens)
            accepted = []

            def router():
                for _ in tokens:
                    accepted.append(accept_worker(
                        listener, outstanding, timeout_s=10))

            thread = threading.Thread(target=router)
            thread.start()
            unknown = socket.create_connection((host, port))
            unknown.sendall(MAGIC + b"x" * 16)
            short = socket.create_connection((host, port))
            short.sendall(MAGIC + first[:5])
            short.shutdown(socket.SHUT_WR)
            diallers = {first: connect_back(host, port, first)}
            replayed = connect_back(host, port, first)
            diallers[second] = connect_back(host, port, second)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert [token for token, _sock in accepted] == \
                [first, second]
            assert outstanding == set()
            for token, sock in accepted:
                write_message(diallers[token], {"token": token})
                assert read_message(sock) == {"token": token}
            for rejected in (unknown, short, replayed):
                rejected.settimeout(10)
                assert rejected.recv(1) == b""
            for s in (unknown, short, replayed, listener,
                      *diallers.values(),
                      *(sock for _token, sock in accepted)):
                s.close()

    def test_no_connection_times_out(self):
        listener, _host, _port = rendezvous_listener()
        with pytest.raises(TimeoutError) as excinfo:
            accept_worker(listener, {b"t" * 16}, timeout_s=0.2)
        assert excinfo.type is TimeoutError
        listener.close()
