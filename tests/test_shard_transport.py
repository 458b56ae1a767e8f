"""Wire-level tests for the shard transport (no worker processes)."""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.shard.transport import (
    MAGIC,
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
def pair():
    a, b = socket.socketpair()
    yield a, b
    for s in (a, b):
        try:
            s.close()
        except OSError:
            pass


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

    def test_messages_arrive_in_order(self, pair):
        a, b = pair
        for i in range(20):
            write_message(a, i)
        assert [read_message(b) for _ in range(20)] == list(range(20))

    def test_bad_magic_rejected_before_payload(self, pair):
        a, b = pair
        a.sendall(struct.pack(">4sI", b"EVIL", 4) + b"....")
        with pytest.raises(TransportClosed, match="magic"):
            read_message(b)

    def test_oversized_length_prefix_fails_fast(self, pair):
        a, b = pair
        a.sendall(struct.pack(">4sI", MAGIC, (1 << 32) - 1))
        with pytest.raises(TransportClosed, match="exceeds"):
            read_message(b)

    def test_truncated_stream_is_closed_not_hung(self, pair):
        a, b = pair
        a.sendall(struct.pack(">4sI", MAGIC, 100) + b"only-a-bit")
        a.close()
        with pytest.raises(TransportClosed):
            read_message(b)


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
