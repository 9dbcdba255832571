"""CoAP-to-HTTP cross proxy at the edge of the constrained network.

Terminates the 6LoWPAN side, maps CoAP requests onto HTTP requests against
the backend, maps the responses back, and crosses from IPv6 (link side) to
IPv4 (upstream side). Payloads pass through byte-identical.
"""

import http.client
import json
import select
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from urllib.parse import urlsplit

from . import coap, sensorthings
from .stack import StackEndpoint


class GatewayError(Exception):
    pass


class UnsupportedMethod(GatewayError):
    pass


class MissingPath(GatewayError):
    pass


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
    # Optional: shrink creation acknowledgements to a bare success code so
    # the reply fits one 802.15.4 frame (fewer frames to lose on a lossy
    # link); the stored entity stays queryable upstream. Off by default to
    # keep the proxy transparent.
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


# What a session's ``request`` returns; ``headers.get`` is case-insensitive.
HttpReply = namedtuple("HttpReply", "status_code headers content")


def translate_request(msg: coap.CoapMessage, mapping: ProxyMapping,
                      upstream: UpstreamConfig) -> HttpRequestModel:
    if not msg.is_request():
        raise UnsupportedMethod("not a request: code %s" % msg.code_str())
    method = METHODS.get(msg.code)
    if method is None:
        raise UnsupportedMethod("no HTTP mapping for CoAP %s" % msg.code_str())
    segments = msg.uri_path()
    if not segments:
        raise MissingPath("request carries no Uri-Path")
    url = upstream.base_url.rstrip("/") + "/" + "/".join(segments)
    headers = {}
    if msg.payload:
        headers["Content-Type"] = coap.CONTENT_FORMATS.get(
            msg.content_format(), "application/octet-stream")
    return HttpRequestModel(method=method, url=url, headers=headers, body=msg.payload)


def translate_response(resp: HttpReply, request: coap.CoapMessage,
                       mapping: ProxyMapping) -> coap.CoapMessage:
    """CoAP reply to ``request`` from what a session's ``request`` returned."""
    code = STATUS_CODES.get(resp.status_code, FALLBACK_CODE)
    options = []
    body = resp.content or b""
    if mapping.strip_success_bodies and code[0] == 2 and request.code == coap.METHOD_POST:
        body = b""
    if body:
        media_type = (resp.headers.get("Content-Type") or "").split(";")[0].strip()
        cf = CONTENT_FORMAT_IDS.get(media_type)
        if cf is not None:
            options.append((coap.OPT_CONTENT_FORMAT, bytes([cf])))
    return _reply_to(request, code, options, body)


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
    """Keep-alive HTTP/1.1 client on the standard library.

    Opens one connection on first use and reuses it. A connection the server
    has closed while idle is replaced before anything is sent. Any transport
    error closes the connection, so the next call reconnects; nothing is
    retried, because a POST may already have been stored. Proxy settings in
    the environment are not read.
    """

    def __init__(self):
        self._conn = None
        self._origin = None     # (scheme, host, port) of the open connection

    def request(self, method, url, data=None, headers=None, timeout=None) -> HttpReply:
        parts = urlsplit(url)
        origin = (parts.scheme, parts.hostname, parts.port)
        if self._conn is not None and (origin != self._origin or _dropped(self._conn.sock)):
            self.close()
        if self._conn is None:
            cls = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
            self._conn, self._origin = cls(parts.hostname, parts.port), origin
        conn = self._conn
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        try:
            conn.request(method, _target(parts), body=data, headers=headers or {})
            resp = conn.getresponse()
            return HttpReply(resp.status, resp.headers, resp.read())
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class StoreSession:
    """In-process session: answers through ``sensorthings.respond``.

    No socket, no thread and no wall clock: receipt times come from ``clock``.
    The URL's scheme and host are ignored.
    """

    def __init__(self, store: sensorthings.Store, clock):
        self.store = store
        self.clock = clock

    def request(self, method, url, data=None, headers=None, timeout=None) -> HttpReply:
        status, obj, location = sensorthings.respond(
            self.store, method, _target(urlsplit(url)), data or b"", self.clock.now())
        reply_headers = http.client.HTTPMessage()
        reply_headers["Content-Type"] = "application/json"
        if location:
            reply_headers["Location"] = location
        return HttpReply(status, reply_headers, json.dumps(obj).encode("utf-8"))

    def close(self):
        pass


def _target(parts) -> str:
    """Request target (path and query) of a split URL."""
    return (parts.path or "/") + ("?" + parts.query if parts.query else "")


def _dropped(sock) -> bool:
    """True when an idle keep-alive socket is readable: the peer closed it."""
    if sock is None:
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
    decode_errors: int = 0


class Gateway:
    """Edge proxy bound to one link-side stack endpoint and one HTTP origin.

    Stateless across requests apart from reassembly buffers and a bounded
    cache of recent exchanges used to deduplicate CoAP retransmissions.
    """

    DEDUP_CAPACITY = 128

    def __init__(self, endpoint: StackEndpoint, upstream: UpstreamConfig,
                 mapping: ProxyMapping = None, session=None,
                 metrics_log=None):
        self.endpoint = endpoint
        self.upstream = upstream
        self.mapping = mapping or ProxyMapping()
        self.session = session or HttpSession()
        self.metrics = GatewayMetrics()
        self.metrics_log = metrics_log  # writable file-like, JSON lines
        self._recent = OrderedDict()    # (link_src, mid, token) -> encoded reply

    def _log_event(self, event: dict):
        if self.metrics_log is not None:
            self.metrics_log.write(json.dumps(event, separators=(",", ":")) + "\n")

    def _handle(self, request: coap.CoapMessage, now: float) -> coap.CoapMessage:
        try:
            http_req = translate_request(request, self.mapping, self.upstream)
        except UnsupportedMethod:
            return _reply_to(request, (4, 5))
        except MissingPath:
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
        return translate_response(http_resp, request, self.mapping)

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
                self.endpoint.send(cached, now=now)
                self.metrics.responses_sent += 1
                handled += 1
                continue
            reply = self._handle(request, now)
            encoded = coap.encode(reply)
            self._recent[key] = encoded
            while len(self._recent) > self.DEDUP_CAPACITY:
                self._recent.popitem(last=False)
            self.endpoint.send(encoded, now=now)
            self.metrics.responses_sent += 1
            self._log_event({
                "event": "exchange", "t": now,
                "mid": request.message_id, "token": request.token.hex(),
                "code": reply.code_str(),
                "request_bytes": len(dgram.payload),
                "response_bytes": len(encoded),
            })
            handled += 1
        return handled

