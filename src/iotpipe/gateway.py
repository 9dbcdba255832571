"""CoAP-to-HTTP cross proxy at the edge of the constrained network.

Terminates the 6LoWPAN side, maps CoAP requests onto HTTP requests against
the backend, maps the responses back, and crosses from IPv6 (link side) to
IPv4 (upstream side). Request payloads and reply bodies pass through
byte-identical, except that a 2.01 to a POST names the created resource in
Location-Path options instead of carrying it.
"""

import functools
import http.client
import io
import json
import re
import select
import socket
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from urllib.parse import unquote_to_bytes, urlsplit

from . import coap, lowpan, sensorthings
from .sensorthings import MAX_LINE
from .stack import StackEndpoint


class GatewayError(Exception):
    pass


class UnsupportedMethod(GatewayError):
    pass


class BadRequest(GatewayError):
    """A request the gateway cannot map: no Uri-Path, or one that is not UTF-8."""


# CoAP request code -> HTTP method. Any other request code answers 4.05.
METHODS = {
    coap.METHOD_GET: "GET",
    coap.METHOD_POST: "POST",
    coap.METHOD_PUT: "PUT",
    coap.METHOD_DELETE: "DELETE",
}

# HTTP status -> CoAP response code. Any other status answers FALLBACK_CODE.
STATUS_CODES = {
    200: (2, 5),   # Content
    201: (2, 1),   # Created
    204: (2, 4),   # Changed
    400: (4, 0),
    403: (4, 3),
    404: (4, 4),
    405: (4, 5),
    413: (4, 13),
    500: (5, 0),
    502: (5, 2),
    503: (5, 3),
    504: (5, 4),
}
FALLBACK_CODE = (5, 2)  # bad-gateway semantics

# Media type -> CoAP Content-Format.
CONTENT_FORMAT_IDS = {label: cf for cf, label in coap.CONTENT_FORMATS.items()}


@dataclass
class ProxyMapping:
    # Inert: nothing reads it, as every 2.01 is bodiless. Kept only because
    # perfbench/workloads.py still builds one; delete it, and Gateway's
    # ``mapping`` parameter, with that caller (ROADMAP item 1).
    strip_success_bodies: bool = False


@dataclass
class UpstreamConfig:
    base_url: str
    timeout: float = 5.0


@dataclass
class HttpRequestModel:
    method: str
    url: str
    headers: dict
    body: bytes


# What a session's ``request`` returns; ``headers`` is keyed by lower-case name.
HttpReply = namedtuple("HttpReply", "status_code headers content")


def translate_request(msg: coap.CoapMessage, upstream: UpstreamConfig) -> HttpRequestModel:
    if not msg.is_request():
        raise UnsupportedMethod("not a request: code %s" % msg.code_str())
    method = METHODS.get(msg.code)
    if method is None:
        raise UnsupportedMethod("no HTTP mapping for CoAP %s" % msg.code_str())
    try:
        segments = msg.uri_path()
    except UnicodeDecodeError:
        raise BadRequest("Uri-Path is not UTF-8") from None
    if not segments:
        raise BadRequest("request carries no Uri-Path")
    url = upstream.base_url.rstrip("/") + "/" + "/".join(segments)
    headers = {}
    if msg.payload:
        headers["Content-Type"] = coap.CONTENT_FORMATS.get(
            msg.content_format(), "application/octet-stream")
    return HttpRequestModel(method=method, url=url, headers=headers, body=msg.payload)


def translate_response(resp: HttpReply, request: coap.CoapMessage,
                       upstream: UpstreamConfig) -> coap.CoapMessage:
    """CoAP reply to ``request`` from what a session's ``request`` returned.

    A 201 to a POST becomes a 2.01 with no body that names the created
    resource in Location-Path options (RFC 7252 section 5.8.2), so it fits
    one frame. Every other reply carries the HTTP body and its Content-Format.
    """
    code = STATUS_CODES.get(resp.status_code, FALLBACK_CODE)
    if resp.status_code == 201 and request.code == coap.METHOD_POST:
        return _reply_to(request, code,
                         _location_path(resp.headers.get("location"), upstream.base_url))
    options = []
    body = resp.content or b""
    if body:
        media_type = (resp.headers.get("content-type") or "").split(";")[0].strip()
        cf = CONTENT_FORMAT_IDS.get(media_type)
        if cf is not None:
            options.append((coap.OPT_CONTENT_FORMAT, bytes([cf])))
    return _reply_to(request, code, options, body)


def _location_path(location, base_url: str) -> list:
    """Location-Path options naming an HTTP ``Location`` (a path or an
    absolute URL) relative to the upstream base; none when ``location`` is
    missing, has a query or fragment, or does not lie under the base."""
    if not location or "?" in location or "#" in location:
        return []
    scheme, netloc, prefix = _base(base_url)
    if not location.startswith("/"):
        parts = urlsplit(location)
        if (parts.scheme, parts.netloc.lower()) != (scheme, netloc):
            return []
        location = parts.path
    if not location.startswith(prefix) or location == prefix:
        return []
    return [(coap.OPT_LOCATION_PATH, unquote_to_bytes(segment))
            for segment in location[len(prefix):].split("/")]


@functools.lru_cache(maxsize=64)
def _base(base_url: str):
    """(scheme, host and port, path prefix with a trailing slash) of a base URL."""
    parts = urlsplit(base_url)
    return parts.scheme, parts.netloc.lower(), parts.path.rstrip("/") + "/"


def _reply_to(request: coap.CoapMessage, code: tuple, options=(), payload=b""):
    """Piggybacked ACK to a CON request, NON reply to a NON one."""
    msg_type = coap.MsgType.ACK if request.msg_type == coap.MsgType.CON else coap.MsgType.NON
    return coap.CoapMessage(
        msg_type=msg_type,
        code=code,
        message_id=request.message_id,
        token=request.token,
        options=list(options),
        payload=payload,
    )


class HttpSession:
    """Keep-alive HTTP/1.1 client for the upstream hop, on plain sockets.

    Speaks the subset the hop needs. Each request goes out in one send: the
    request line, ``Host``, the caller's headers and ``Content-Length``. A
    reply is framed by ``Content-Length``, by chunked coding or by the end of
    the connection; a 1xx reply before it is skipped. Every head is read by
    ``sensorthings.read_fields``. A malformed reply raises an
    ``http.client.HTTPException``, and one cut off within its head raises
    ConnectionAbortedError.

    Opens one connection on first use and reuses it. A connection the server
    has closed while idle is replaced before anything is sent. Any transport
    error closes the connection, so the next call reconnects; nothing is
    retried, because a POST may already have been stored. Proxy settings in
    the environment are not read.

    An ``http`` origin served by a started ``sensorthings.BackendServer`` of
    this process gets an in-thread connection instead of a socket: the same
    request bytes are answered by the server's own serve function in the
    caller's thread, and the reply is read by the same parser.
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
        server = None if https else sensorthings.LOCAL_SERVERS.get(address)
        if server is not None:
            conn = _InThread(server)
            self._sock, self._rfile, self._origin = conn, conn.rfile, origin
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


class _InThread:
    """A connection to a ``BackendServer`` of this process with no socket:
    ``sendall`` has the server answer the request from one buffer into
    ``rfile``, which then holds the reply bytes, and nothing blocks."""

    def __init__(self, server):
        self._server = server
        self.rfile = io.BytesIO()

    def sendall(self, message: bytes):
        reply = self.rfile
        reply.seek(0)
        reply.truncate()
        self._server.answer(io.BytesIO(message), reply)
        reply.seek(0)

    def settimeout(self, timeout):
        pass

    def close(self):    # the session closes ``rfile``
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
        if not (version in (b"HTTP/1.1", b"HTTP/1.0") and code.isdigit()
                and code[0] != 48 and rest[3:4] in (b" ", b"\r", b"\n")):
            raise http.client.BadStatusLine(repr(line))
        status = int(code)
        headers = sensorthings.read_fields(rfile)

    keep_alive = sensorthings.keeps_alive(version, headers)
    length = sensorthings.content_length(headers)
    coding = headers.get("transfer-encoding")
    if status in (204, 304):
        content = b""
    elif coding is not None:
        if coding.rsplit(",", 1)[-1].strip().lower() == "chunked":
            content = _read_chunked(rfile)
        else:
            content, keep_alive = rfile.read(), False
    elif length is not None:
        content = _read_exactly(rfile, length)
    else:
        content, keep_alive = rfile.read(), False
    return HttpReply(status, headers, content), keep_alive


def _read_exactly(rfile, n: int) -> bytes:
    """The next ``n`` bytes, read in pieces so a false length allocates nothing."""
    chunks = []
    while n:
        chunk = rfile.read(min(n, MAX_LINE))
        if not chunk:
            raise http.client.IncompleteRead(b"".join(chunks), n)
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


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
        chunks.append(_read_exactly(rfile, size))
        _read_exactly(rfile, 2)     # the CRLF after the chunk data
    sensorthings.read_fields(rfile)
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


@dataclass
class GatewayMetrics:
    requests_received: int = 0
    requests_forwarded: int = 0
    responses_sent: int = 0
    upstream_errors: int = 0
    dedup_hits: int = 0
    decode_errors: int = 0       # datagrams that are not CoAP, and requests answered 4.00
    oversize_replies: int = 0    # replies dropped as too large for one 6LoWPAN datagram


class Gateway:
    """Edge proxy bound to one link-side stack endpoint and one HTTP origin.

    Stateless across requests apart from reassembly buffers and a bounded
    cache of recent exchanges used to deduplicate CoAP retransmissions.
    """

    DEDUP_CAPACITY = 128

    def __init__(self, endpoint: StackEndpoint, upstream: UpstreamConfig,
                 mapping: ProxyMapping = None, session=None,
                 metrics_log=None):
        # ``mapping`` is accepted and ignored, like ProxyMapping itself.
        self.endpoint = endpoint
        self.upstream = upstream
        self.session = session or HttpSession()
        self.metrics = GatewayMetrics()
        self.metrics_log = metrics_log  # writable file-like, JSON lines
        self._recent = OrderedDict()    # (link_src, mid, token) -> encoded reply

    def _log_event(self, event: dict):
        if self.metrics_log is not None:
            self.metrics_log.write(json.dumps(event, separators=(",", ":")) + "\n")

    def _handle(self, request: coap.CoapMessage, now: float) -> coap.CoapMessage:
        try:
            http_req = translate_request(request, self.upstream)
        except UnsupportedMethod:
            return _reply_to(request, (4, 5))
        except BadRequest:
            self.metrics.decode_errors += 1
            return _reply_to(request, (4, 0))
        self.metrics.requests_forwarded += 1
        try:
            http_resp = self.session.request(
                http_req.method, http_req.url, data=http_req.body,
                headers=http_req.headers, timeout=self.upstream.timeout,
            )
        except TimeoutError:
            self.metrics.upstream_errors += 1
            self._log_event({"event": "upstream_timeout", "t": now})
            return _reply_to(request, (5, 4))
        except (OSError, http.client.HTTPException) as exc:
            self.metrics.upstream_errors += 1
            self._log_event({"event": "upstream_error", "t": now, "error": str(exc)})
            return _reply_to(request, (5, 2))
        return translate_response(http_resp, request, self.upstream)

    def _send_reply(self, encoded: bytes, now: float):
        """Send one encoded reply. One too large for a 6LoWPAN datagram is
        dropped and counted; its exchange stays in the dedup cache, so a
        retransmitted request is answered from there and not stored twice."""
        try:
            self.endpoint.send(encoded, now=now)
        except lowpan.DatagramTooLarge:
            self.metrics.oversize_replies += 1
        else:
            self.metrics.responses_sent += 1

    def process_pending(self, now: float = 0.0) -> int:
        """Drain the link side; one CoAP exchange per completed datagram."""
        handled = 0
        for dgram in self.endpoint.receive(now):
            try:
                request = coap.decode(dgram.payload)
            except coap.CoapError:
                self.metrics.decode_errors += 1
                continue
            self.metrics.requests_received += 1
            key = (dgram.link_src, request.message_id, request.token)
            cached = self._recent.get(key)
            if cached is not None:
                self.metrics.dedup_hits += 1
                self._log_event({
                    "event": "dedup", "t": now, "mid": request.message_id,
                    "token": request.token.hex(),
                })
                self._send_reply(cached, now)
                handled += 1
                continue
            reply = self._handle(request, now)
            encoded = coap.encode(reply)
            self._recent[key] = encoded
            while len(self._recent) > self.DEDUP_CAPACITY:
                self._recent.popitem(last=False)
            self._send_reply(encoded, now)
            self._log_event({
                "event": "exchange", "t": now,
                "mid": request.message_id, "token": request.token.hex(),
                "code": reply.code_str(),
                "request_bytes": len(dgram.payload),
                "response_bytes": len(encoded),
            })
            handled += 1
        return handled

