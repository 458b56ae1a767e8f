"""Length-prefixed frame transport between the router and shards.

The shard plane moves work across a *process* boundary, so the wire
format is the contract: each message is ``MAGIC (4 bytes) | payload
length (u32 big-endian) | pickled payload``.  The magic bytes reject
cross-talk from anything that is not a shard peer (a stray client
connecting to the rendezvous port) before a single payload byte is
parsed, and the length prefix bounds each read so a truncated stream
surfaces as :class:`TransportClosed` instead of a hang.

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
from typing import Callable, Optional, Set, Tuple

__all__ = ["MAGIC", "MessagePump", "SendQueueFull", "TransportClosed",
           "connect_back", "read_message", "rendezvous_listener",
           "write_message"]

#: Frame preamble: rejects non-shard peers before any payload parse.
MAGIC = b"RSH1"

_HEADER = struct.Struct(">4sI")

#: Upper bound on one message (128 MiB): a corrupt length prefix fails
#: fast instead of attempting a multi-gigabyte allocation.
MAX_MESSAGE_BYTES = 128 << 20


class TransportClosed(ConnectionError):
    """The peer stream ended (EOF, reset, or local close)."""


class SendQueueFull(RuntimeError):
    """The bounded send queue is full; the peer is not draining."""

    def __init__(self, depth: int):
        super().__init__(
            f"transport send queue full ({depth} messages pending)")
        self.depth = depth


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`TransportClosed`."""
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise TransportClosed(str(exc)) from exc
        if not chunk:
            raise TransportClosed(
                f"peer closed mid-message ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_message(sock: socket.socket, payload: object) -> None:
    """Frame and send one message (blocking on the socket)."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        sock.sendall(_HEADER.pack(MAGIC, len(blob)) + blob)
    except OSError as exc:
        raise TransportClosed(str(exc)) from exc


def read_message(sock: socket.socket) -> object:
    """Read and decode one framed message (blocking)."""
    magic, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if magic != MAGIC:
        raise TransportClosed(
            f"bad frame magic {magic!r} (not a shard peer)")
    if length > MAX_MESSAGE_BYTES:
        raise TransportClosed(
            f"frame length {length} exceeds {MAX_MESSAGE_BYTES}")
    return pickle.loads(_recv_exact(sock, length))


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
             timeout: Optional[float] = None) -> None:
        """Enqueue one message for the writer thread.

        Non-blocking by default: raises :class:`SendQueueFull` when
        the bounded queue is full (the caller owns shedding or
        retrying -- the front door maps this onto admission
        backpressure).  Raises :class:`TransportClosed` once the pump
        is closed.
        """
        if self._closed.is_set():
            raise TransportClosed(f"pump {self.name} is closed")
        try:
            self._sendq.put(payload, block=block, timeout=timeout)
        except queue.Full:
            raise SendQueueFull(self._sendq.qsize()) from None

    def send_depth(self) -> int:
        return self._sendq.qsize()

    # -- the two pump loops ----------------------------------------------

    def _write_loop(self) -> None:
        while True:
            payload = self._sendq.get()
            if payload is _STOP or self._closed.is_set():
                return
            try:
                write_message(self.sock, payload)
            except TransportClosed:
                self._shutdown()
                return

    def _read_loop(self) -> None:
        while not self._closed.is_set():
            try:
                message = read_message(self.sock)
            except (TransportClosed, pickle.UnpicklingError,
                    EOFError, AttributeError):
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
        token = hello[len(MAGIC):]
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
