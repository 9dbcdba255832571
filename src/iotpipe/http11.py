"""The HTTP/1.1 subset of the gateway-to-backend hop (RFC 9112), both ends:
the client ``HttpSession`` and the threaded ``Server``. Both read every
message head through ``read_fields`` and every framed body through
``read_body``, on a socket or, within one process, in the client's thread.
"""

import functools
import http.client
import io
import json
import re
import select
import socket
import socketserver
import threading
import time
from collections import namedtuple
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import urlsplit

MAX_LINE = 65536        # bytes in any one line of a message head (both ends)
MAX_HEADERS = 100       # header fields in one message head (both ends)
MAX_BODY = 1 << 20      # bytes in one request body
_VERSIONS = (b"HTTP/1.1", b"HTTP/1.0")   # the versions either end speaks
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _TooManyFields(http.client.LineTooLong):
    def __init__(self):
        http.client.HTTPException.__init__(self, "more than %d header fields" % MAX_HEADERS)


def read_fields(rfile) -> dict:
    """Header (or trailer) fields up to the blank line that ends them, keyed
    by lower-case name; a repeated field's values are joined with ", ".

    A line over MAX_LINE bytes or more than MAX_HEADERS fields raise
    ``http.client.LineTooLong``; a line without a colon, whitespace before
    the colon (RFC 9112 section 5.1) or Content-Length values that differ
    raise ``http.client.HTTPException``; the end of the stream before the
    blank line raises ConnectionAbortedError.
    """
    fields = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("header line")
        if line in (b"\r\n", b"\n"):
            return fields
        if not line:
            raise ConnectionAbortedError("peer closed the connection mid-head")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise http.client.HTTPException("malformed header line %r" % line[:80])
        name, value = name.lower(), value.strip()
        old = fields.get(name)
        if old is None:
            fields[name] = value
        elif name == "content-length":
            if value != old:
                raise http.client.HTTPException("differing Content-Length values")
        else:
            fields[name] = old + ", " + value
    raise _TooManyFields()


def content_length(fields: dict):
    """The Content-Length of a message head as an int, or None without one;
    a value other than ASCII digits raises ``http.client.HTTPException``."""
    value = fields.get("content-length")
    if value is None:
        return None
    if value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:      # more digits than int() converts
            pass
    raise http.client.HTTPException("bad Content-Length %r" % value[:80])


def keeps_alive(version: bytes, fields: dict) -> bool:
    """Whether the connection stays open after a message of HTTP ``version``."""
    tokens = [token.strip() for token in fields.get("connection", "").lower().split(",")]
    if version == b"HTTP/1.1":
        return "close" not in tokens
    return "keep-alive" in tokens


def read_body(rfile, n: int) -> bytes:
    """The next ``n`` bytes, read in pieces so that a false length allocates
    nothing; the end of the stream before them raises IncompleteRead."""
    chunks = []
    while n:
        chunk = rfile.read(min(n, MAX_LINE))
        if not chunk:
            raise http.client.IncompleteRead(b"".join(chunks), n)
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def error_json(message: str) -> str:
    """The JSON body of an error reply."""
    return json.dumps({"error": message})


# -- client -------------------------------------------------------------------

# What ``HttpSession.request`` returns; ``headers`` is keyed by lower-case name.
HttpReply = namedtuple("HttpReply", "status_code headers content")


class HttpSession:
    """Keep-alive HTTP/1.1 client for the upstream hop, on plain sockets.

    Speaks the subset the hop needs. Each request goes out in one send: the
    request line, ``Host``, the caller's headers and ``Content-Length``. A
    reply is framed by ``Content-Length``, by chunked coding or by the end of
    the connection; a 1xx reply before it is skipped. A malformed reply
    raises an ``http.client.HTTPException``, and one cut off within its head
    raises ConnectionAbortedError.

    Opens one connection on first use and reuses it. A connection the server
    has closed while idle is replaced before anything is sent. Any transport
    error closes the connection, so the next call reconnects; nothing is
    retried, because a POST may already have been stored. Proxy settings in
    the environment are not read.

    An ``http`` origin served by a started ``Server`` of this process gets an
    in-thread connection instead of a socket: the same request bytes are
    answered by the server's own serve function in the caller's thread, and
    the reply is read by the same parser.
    """

    def __init__(self):
        self._sock = None       # the open connection: a socket, or an _InThread
        self._rfile = None      # the one buffered reader of the open connection
        self._origin = None     # (scheme, host, port) of the open connection

    def request(self, method, url, data=None, headers=None, timeout=None) -> HttpReply:
        origin, target, host = split_url(url)
        head = "%s %s HTTP/1.1\r\nHost: %s\r\n" % (method, target, host)
        for name, value in (headers or {}).items():
            head += "%s: %s\r\n" % (name, value)
        if data is not None:
            head += "Content-Length: %d\r\n" % len(data)
        message = (head + "\r\n").encode("latin-1") + (data or b"")

        if self._sock is not None and (origin != self._origin or _dropped(self._sock)):
            self.close()
        try:
            if self._sock is None:
                self._connect(origin, timeout)
            else:
                self._sock.settimeout(timeout)
            self._sock.sendall(message)
            reply, keep_alive = _read_reply(self._rfile)
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if not keep_alive:
            self.close()
        return reply

    def _connect(self, origin, timeout):
        scheme, hostname, port = origin
        https = scheme == "https"
        address = (hostname, port or (443 if https else 80))
        server = None if https else LOCAL_SERVERS.get(address)
        if server is not None:
            self._sock = self._rfile = _InThread(server)
            self._origin = origin
            return
        sock = socket.create_connection(address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if https:
                import ssl
                sock = ssl.create_default_context().wrap_socket(sock, server_hostname=hostname)
        except OSError:
            sock.close()
            raise
        self._sock, self._rfile, self._origin = sock, sock.makefile("rb"), origin

    def close(self):
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None


class _InThread(io.BytesIO):
    """A connection to a ``Server`` of this process with no socket, and its
    reader: ``sendall`` has the server answer the request from one buffer
    into this one, which then holds the reply bytes, and nothing blocks."""

    def __init__(self, server):
        super().__init__()
        self._server = server

    def sendall(self, message: bytes):
        self.seek(0)
        self.truncate()
        self._server.answer(io.BytesIO(message), self)
        self.seek(0)

    def settimeout(self, timeout):
        pass


_UNSAFE_TARGET = re.compile(r"[^\x21-\x7e]")


@functools.lru_cache(maxsize=64)
def split_url(url: str):
    """(origin, request target, Host field value) of a URL; the origin is
    (scheme, host, port). Raises ValueError or InvalidURL on a bad URL."""
    parts = urlsplit(url)
    target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
    if _UNSAFE_TARGET.search(target):
        raise http.client.InvalidURL("request target %r is not printable ASCII" % target)
    host = parts.hostname or ""
    if ":" in host:
        host = "[%s]" % host
    if parts.port is not None:
        host = "%s:%d" % (host, parts.port)
    return (parts.scheme, parts.hostname, parts.port), target, host


def _read_reply(rfile):
    """(HttpReply, keep-alive) of the next final reply on ``rfile``."""
    status = 100
    while 100 <= status < 200:
        line = rfile.readline(MAX_LINE + 1)
        if not line:
            raise http.client.RemoteDisconnected("upstream closed the connection without a reply")
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("status line")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not (version in _VERSIONS and code.isdigit()
                and code[0] != 48 and rest[3:4] in (b" ", b"\r", b"\n")):
            raise http.client.BadStatusLine(repr(line))
        status = int(code)
        headers = read_fields(rfile)

    keep_alive = keeps_alive(version, headers)
    length = content_length(headers)
    coding = headers.get("transfer-encoding")
    if status in (204, 304):
        content = b""
    elif coding is not None and coding.rsplit(",", 1)[-1].strip().lower() == "chunked":
        content = _read_chunked(rfile)
    elif coding is None and length is not None:
        content = read_body(rfile, length)
    else:
        content, keep_alive = rfile.read(), False
    return HttpReply(status, headers, content), keep_alive


def _read_chunked(rfile) -> bytes:
    """Content of a chunked body (RFC 9112 section 7.1); trailers are dropped."""
    chunks = []
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise http.client.LineTooLong("chunk size line")
        size = line.split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise http.client.IncompleteRead(b"".join(chunks))
        size = int(size, 16)
        if not size:
            break
        chunks.append(read_body(rfile, size))
        read_body(rfile, 2)     # the CRLF after the chunk data
    read_fields(rfile)
    return b"".join(chunks)


def _dropped(sock) -> bool:
    """True when an idle keep-alive socket is readable: the peer closed it.
    An in-thread connection has nothing to read while idle; a server stopped
    since answers its next request with nothing."""
    if not isinstance(sock, socket.socket):
        return False
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


# -- server -------------------------------------------------------------------

class _Refused(Exception):
    """A request the server answers itself with ``status``, then closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _serve_one(rfile, wfile, server) -> bool:
    """Answer the next request on ``rfile`` through ``server.respond``, in
    one write to ``wfile``; False once the connection is to be closed.

    Both transports serve through here: the threaded handler over a socket
    and ``Server.answer`` in the caller's thread. ``server.now()`` stamps
    the receipt and the Date. A request cut off within its head raises
    ConnectionError, and one cut off within its body IncompleteRead.
    """
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return False
    now = server.now()
    try:
        if len(line) > MAX_LINE:
            raise _Refused(400, "request line over %d bytes" % MAX_LINE)
        parts = line.split()
        if len(parts) != 3 or not parts[2].startswith(b"HTTP/"):
            raise _Refused(400, "malformed request line")
        method, target, version = parts
        try:
            fields = read_fields(rfile)
            length = content_length(fields) or 0
        except http.client.LineTooLong as exc:
            raise _Refused(431, str(exc))
        except http.client.HTTPException as exc:
            raise _Refused(400, str(exc))
        if version not in _VERSIONS:
            raise _Refused(505, "HTTP version not supported")
        if "transfer-encoding" in fields:
            raise _Refused(501, "Transfer-Encoding is not supported")
        if length > MAX_BODY:
            raise _Refused(413, "request body over %d bytes" % MAX_BODY)
        if fields.get("expect", "").lower() == "100-continue":
            wfile.write(_CONTINUE)
        # Read the body of every method, so none is left in a keep-alive stream.
        body = read_body(rfile, length)
        method, keep_alive = method.decode("latin-1"), keeps_alive(version, fields)
        status, text, location = server.respond(method, target.decode("latin-1"), body, now)
    except _Refused as exc:
        method, keep_alive = None, False
        status, text, location = exc.status, error_json(str(exc)), None
    payload = text.encode("utf-8")
    head = ("HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
            "Content-Length: %d\r\nDate: %s\r\n") % (
        status, _REASONS.get(status, ""), len(payload), _http_date(int(now)))
    if not keep_alive:
        head += "Connection: close\r\n"
    if location:
        head += "Location: %s\r\n" % location
    wfile.write((head + "\r\n").encode("latin-1") + (payload if method != "HEAD" else b""))
    return keep_alive


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The Date field value of an epoch second (RFC 9110 section 6.6.1)."""
    return formatdate(second, usegmt=True)


class _Handler(socketserver.StreamRequestHandler):
    """Answers the requests of one keep-alive connection."""

    timeout = None              # idle seconds before the connection is dropped
    disable_nagle_algorithm = True

    def handle(self):
        try:
            while _serve_one(self.rfile, self.wfile, self.server):
                pass
        except (TimeoutError, ConnectionError, http.client.IncompleteRead):  # idle, or cut off
            pass


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, respond, now):
        # A handler class of its own, so that one server's idle timeout is not another's.
        super().__init__(address, type("Handler", (_Handler,), {}))
        self.respond = respond      # (method, target, body, now) -> (status, text, location)
        self.now = now              # () -> epoch seconds, read once per request
        self.connections = set()    # accepted sockets, until their handler closes them

    def process_request(self, request, client_address):
        self.connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self.connections.discard(request)
        super().shutdown_request(request)


# (host, port) -> the started Server of this process bound there.
# ``HttpSession`` answers a connection to one of these in the caller's
# thread, through ``Server.answer``, with no socket.
LOCAL_SERVERS = {}


class Server:
    """Threaded HTTP/1.1 server answering through ``respond(method, target,
    body, now) -> (status, JSON text, Location or None)``; ``now`` and the
    Date come from ``clock.now``, or else from the wall clock. Started, it
    also answers ``HttpSession``s of this process in their thread."""

    def __init__(self, respond, host: str, port: int, clock=None):
        self._httpd = _TCPServer((host, port), respond, time.time if clock is None else clock.now)
        self._thread = None
        self._stopping = False

    @property
    def address(self) -> tuple:
        """The bound (host, port)."""
        return self._httpd.server_address

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self):
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        LOCAL_SERVERS[self.address] = self
        return self

    def _serve(self):
        while not self._stopping:
            self._httpd.handle_request()    # blocks until a connection arrives

    def answer(self, rfile, wfile) -> bool:
        """Serve the next request on ``rfile`` into ``wfile`` in the caller's
        thread, as a connection's handler thread would; False once that
        connection is to be closed. A stopped server answers nothing. An
        error is reported like one in a handler thread, by ``socketserver``'s
        ``handle_error``, and closes the connection."""
        if self._stopping:
            return False
        try:
            return _serve_one(rfile, wfile, self._httpd)
        except Exception:
            self._httpd.handle_error(None, "a connection in this thread")
            return False

    def stop(self):
        """Stop answering: leave ``LOCAL_SERVERS``, wake the serve thread with
        one connection of our own and join it, shut down the connections still
        open (their handler threads then read the end and exit), then close
        the listening socket."""
        LOCAL_SERVERS.pop(self.address, None)
        self._stopping = True
        if self._thread:
            try:
                socket.create_connection(self._httpd.server_address, timeout=1).close()
            except OSError:     # stopped before: nothing listens, and the thread has exited
                pass
            self._thread.join(timeout=5)
        for conn in list(self._httpd.connections):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:     # its handler closed it meanwhile
                pass
        self._httpd.server_close()
