"""Length-prefixed frame transport between the router and shards.

The shard plane moves work across a *process* boundary, so the wire
format is the contract.  Each message is::

    MAGIC (4 bytes) | pickle length (u32) | buffer count (u32)
    | one u64 length per buffer | pickle | buffers

all integers big-endian.  The magic bytes reject cross-talk from
anything that is not a shard peer (a stray client connecting to the
rendezvous port) before a single payload byte is parsed, and the
lengths bound each read -- checked against :data:`MAX_MESSAGE_BYTES`
before anything is allocated -- so a truncated stream surfaces as
:class:`TransportClosed` instead of a hang.

The pickle is protocol 5 with out-of-band buffers: every contiguous
array of at least :data:`OUT_OF_BAND_BYTES` (a frame's ``gray`` and
``depth``) travels as a raw buffer after the pickle instead of inside
it.  The sender hands those buffers to the kernel where they sit, and
the receiver reads each straight into its own fresh allocation, which
the unpickled array then views -- the kernel's send and receive copies
are the only two a frame takes.  Each buffer gets its own allocation
rather than a slice of one shared block: a slice would sit at whatever
offset the bytes before it left, and misaligned float64 frames made
the worker's tracking measurably slower.  Smaller arrays (a
``TrackResult``'s pose) stay in band and cost no extra reads.

:class:`MessagePump` owns one connected socket end and runs two
daemon threads over it:

* a **writer** draining a *bounded* send queue (``queue.Queue``), so a
  stalled peer exerts backpressure at the sender instead of buffering
  without limit -- :meth:`MessagePump.send` raises
  :class:`SendQueueFull` when the bound is hit;
* a **reader** parsing frames and handing each decoded message to the
  ``on_message`` callback, then ``on_close`` exactly once when the
  stream ends (EOF, reset, or local close).

Payloads are pickled: both ends are the same trusted codebase, the
router spawned the worker itself, and the connect-back handshake
(:func:`rendezvous_listener` / :func:`connect_back`) requires the
spawn-time secret token before any pickle is read.
"""

from __future__ import annotations

import pickle
import queue
import socket
import struct
import threading
import time
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

__all__ = ["MAGIC", "MessagePump", "SendQueueFull", "TransportClosed",
           "connect_back", "read_message", "rendezvous_listener",
           "write_message"]

#: Frame preamble: rejects non-shard peers before any payload parse.
MAGIC = b"RSH2"

#: ``MAGIC | pickle length | buffer count``.
_HEADER = struct.Struct(">4sII")

#: One entry of the buffer-length table that follows the header.
_BUFFER_LENGTH = struct.Struct(">Q")

#: Upper bound on one message (128 MiB), table, pickle and buffers
#: together: a corrupt header fails fast instead of attempting a
#: multi-gigabyte allocation.
MAX_MESSAGE_BYTES = 128 << 20

#: Contiguous arrays at least this large travel out of band; smaller
#: ones are cheaper to copy into the pickle than to read on their own.
OUT_OF_BAND_BYTES = 1 << 16

#: Most buffers one ``sendmsg`` call is handed (Linux's ``IOV_MAX`` is
#: 1024).
_MAX_IOV = 512


class TransportClosed(ConnectionError):
    """The peer stream ended (EOF, reset, or local close)."""


class SendQueueFull(RuntimeError):
    """The bounded send queue is full; the peer is not draining."""

    def __init__(self, depth: int):
        super().__init__(
            f"transport send queue full ({depth} messages pending)")
        self.depth = depth


def _recv_into(sock: socket.socket, buffer) -> None:
    """Fill the writable ``buffer`` from the socket or raise
    :class:`TransportClosed`."""
    view = memoryview(buffer)
    n = view.nbytes
    got = 0
    while got < n:
        try:
            k = sock.recv_into(view[got:])
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc
        if not k:
            raise TransportClosed(
                f"peer closed mid-message ({got}/{n} bytes)")
        got += k


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes or raise :class:`TransportClosed`."""
    buffer = bytearray(n)
    _recv_into(sock, buffer)
    return buffer


def _send_parts(sock: socket.socket, parts: List[memoryview]) -> None:
    """Send every part in order without joining them first."""
    parts = list(parts)
    while parts:
        try:
            sent = sock.sendmsg(parts[:_MAX_IOV])
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc
        while parts and sent >= parts[0].nbytes:
            sent -= parts.pop(0).nbytes
        if sent:
            parts[0] = parts[0][sent:]


def write_message(sock: socket.socket, payload: object) -> None:
    """Frame and send one message (blocking on the socket)."""
    buffers: List[memoryview] = []

    def out_of_band(buffer: pickle.PickleBuffer) -> bool:
        raw = buffer.raw()
        if raw.nbytes < OUT_OF_BAND_BYTES:
            return True  # in band
        buffers.append(raw)
        return False

    head = pickle.dumps(payload, protocol=5, buffer_callback=out_of_band)
    table = struct.pack(f">4sII{len(buffers)}Q", MAGIC, len(head),
                        len(buffers), *(b.nbytes for b in buffers))
    _send_parts(sock, [memoryview(table), memoryview(head), *buffers])


def read_message(sock: socket.socket) -> object:
    """Read and decode one framed message (blocking)."""
    magic, head_length, count = _HEADER.unpack(
        _recv_exact(sock, _HEADER.size))
    if magic != MAGIC:
        raise TransportClosed(
            f"bad frame magic {magic!r} (not a shard peer)")
    table_length = count * _BUFFER_LENGTH.size
    if table_length + head_length > MAX_MESSAGE_BYTES:
        raise TransportClosed(
            f"frame of {count} buffers and a {head_length}-byte pickle "
            f"exceeds {MAX_MESSAGE_BYTES}")
    lengths = struct.unpack(f">{count}Q",
                            _recv_exact(sock, table_length))
    total = table_length + head_length + sum(lengths)
    if total > MAX_MESSAGE_BYTES:
        raise TransportClosed(
            f"frame length {total} exceeds {MAX_MESSAGE_BYTES}")
    head = _recv_exact(sock, head_length)
    # One allocation per buffer, so every array lands aligned.
    buffers = [np.empty(length, dtype=np.uint8) for length in lengths]
    for buffer in buffers:
        _recv_into(sock, buffer)
    return pickle.loads(head, buffers=buffers)


class MessagePump:
    """Bounded-queue writer + callback reader over one socket."""

    def __init__(self, sock: socket.socket, name: str,
                 on_message: Callable[[object], None],
                 on_close: Optional[Callable[[], None]] = None,
                 max_send_queue: int = 256):
        sock.settimeout(None)
        self.sock = sock
        self.name = name
        self._on_message = on_message
        self._on_close = on_close
        self._sendq: "queue.Queue" = queue.Queue(
            maxsize=max_send_queue)
        self._closed = threading.Event()
        self._close_notified = False
        self._close_lock = threading.Lock()
        self._writer = threading.Thread(
            target=self._write_loop, name=f"shard-tx-{name}",
            daemon=True)
        self._reader = threading.Thread(
            target=self._read_loop, name=f"shard-rx-{name}",
            daemon=True)

    def start(self) -> "MessagePump":
        self._writer.start()
        self._reader.start()
        return self

    # -- sending ---------------------------------------------------------

    def send(self, payload: object, block: bool = False,
             timeout: Optional[float] = None,
             on_sent: Optional[Callable[[], None]] = None) -> None:
        """Enqueue one message for the writer thread.

        Non-blocking by default: raises :class:`SendQueueFull` when
        the bounded queue is full (the caller owns shedding or
        retrying -- the front door maps this onto admission
        backpressure).  Raises :class:`TransportClosed` once the pump
        is closed.  ``on_sent`` runs on the writer thread once the
        message is on the wire (never if the send fails), so work the
        reply does not need first can overlap the peer's.
        """
        if self._closed.is_set():
            raise TransportClosed(f"pump {self.name} is closed")
        try:
            self._sendq.put((payload, on_sent), block=block,
                            timeout=timeout)
        except queue.Full:
            raise SendQueueFull(self._sendq.qsize()) from None

    def send_depth(self) -> int:
        return self._sendq.qsize()

    # -- the two pump loops ----------------------------------------------

    def _write_loop(self) -> None:
        while True:
            item = self._sendq.get()
            if item is _STOP or self._closed.is_set():
                return
            payload, on_sent = item
            try:
                write_message(self.sock, payload)
            except TransportClosed:
                self._shutdown()
                return
            if on_sent is not None:
                try:
                    on_sent()
                except Exception:  # noqa: BLE001 -- a callback bug
                    # must not kill the writer, as in the reader.
                    pass

    def _read_loop(self) -> None:
        while not self._closed.is_set():
            try:
                message = read_message(self.sock)
            except (TransportClosed, pickle.UnpicklingError,
                    EOFError, AttributeError, ValueError):
                # ValueError: buffer lengths that disagree with the
                # arrays the pickle describes.
                self._shutdown()
                return
            try:
                self._on_message(message)
            except Exception:  # noqa: BLE001 -- a handler bug must
                # not kill the pump; the message is dropped and the
                # stream keeps flowing.
                pass

    # -- teardown --------------------------------------------------------

    def _shutdown(self) -> None:
        self._closed.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        try:  # unblock the writer if it is parked on the queue
            self._sendq.put_nowait(_STOP)
        except queue.Full:
            pass
        with self._close_lock:
            if self._close_notified:
                return
            self._close_notified = True
        if self._on_close is not None:
            try:
                self._on_close()
            except Exception:  # noqa: BLE001
                pass

    def close(self) -> None:
        """Close the socket and stop both loops (idempotent)."""
        self._shutdown()
        for thread in (self._writer, self._reader):
            if thread.is_alive() and \
                    thread is not threading.current_thread():
                thread.join(timeout=2.0)

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class _Stop:
    pass


_STOP = _Stop()


# -- connect-back rendezvous ----------------------------------------------
#
# The router cannot hand a connected socket to a *spawned* child (the
# fd does not survive pickling), so the child connects back: the
# router listens on an ephemeral loopback port and passes (host, port,
# token) as plain spawn arguments; the child's first message must be
# the token, or the connection is dropped before any pickle decode.

def rendezvous_listener() -> Tuple[socket.socket, str, int]:
    """Loopback listener for worker connect-back; returns (sock, host, port)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    host, port = listener.getsockname()
    return listener, host, port


def accept_worker(listener: socket.socket, tokens: Set[bytes],
                  timeout_s: float = 10.0) -> Tuple[bytes, socket.socket]:
    """Accept one worker connection whose hello names an outstanding token.

    ``tokens`` is the set of spawn-time tokens not yet claimed, all of
    one length.  A connection that presents none of them (an imposter,
    a replayed token, a short hello) is closed and the wait goes on.
    The token that connected is removed from ``tokens`` -- each is
    consumed once -- and returned with its socket.
    """
    (length,) = {len(token) for token in tokens}
    deadline = time.monotonic() + timeout_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("no worker connected back in time")
        listener.settimeout(remaining)
        try:
            sock, _addr = listener.accept()
        except socket.timeout:
            raise TimeoutError(
                "no worker connected back in time") from None
        sock.settimeout(remaining)
        try:
            hello = _recv_exact(sock, len(MAGIC) + length)
        except TransportClosed:
            sock.close()
            continue
        token = bytes(hello[len(MAGIC):])
        if hello[:len(MAGIC)] != MAGIC or token not in tokens:
            sock.close()
            continue
        tokens.discard(token)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return token, sock


def connect_back(host: str, port: int, token: bytes,
                 timeout_s: float = 10.0) -> socket.socket:
    """Worker side: dial the router and present the hello token."""
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(MAGIC + token)
    sock.settimeout(None)
    return sock
