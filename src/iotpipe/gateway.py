"""CoAP-to-HTTP cross proxy at the edge of the constrained network.

Terminates the 6LoWPAN side, maps CoAP requests onto HTTP requests against
the backend, maps the responses back, and crosses from IPv6 (link side) to
IPv4 (upstream side). Request payloads and reply bodies pass through
byte-identical, except that a 2.01 to a POST names the created resource in
Location-Path options instead of carrying it.
"""

import http.client
import json
from collections import OrderedDict
from dataclasses import dataclass
from urllib.parse import unquote_to_bytes, urlsplit

from . import coap, http11, lowpan
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
    """The backend's base URL, checked here, and the seconds to wait for a reply."""

    base_url: str
    timeout: float = 5.0

    def __post_init__(self):
        if not isinstance(self.base_url, str):
            raise ValueError("upstream URL must be a string, not %r" % (self.base_url,))
        try:
            (scheme, host, _), _, _ = http11.split_url(self.base_url)
        except (ValueError, http.client.InvalidURL) as exc:
            raise ValueError("upstream URL %r: %s" % (self.base_url, exc)) from None
        if scheme not in ("http", "https") or not host or not host.isascii():
            raise ValueError("upstream URL %r is not http or https with an ASCII host"
                             % self.base_url)
        parts = urlsplit(self.base_url)     # what a Location under the base starts with
        self.location_base = scheme, parts.netloc.lower(), parts.path.rstrip("/") + "/"


@dataclass
class HttpRequestModel:
    method: str
    url: str
    headers: dict
    body: bytes


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


def translate_response(resp: http11.HttpReply, request: coap.CoapMessage,
                       upstream: UpstreamConfig) -> coap.CoapMessage:
    """CoAP reply to ``request`` from what a session's ``request`` returned.

    A 201 to a POST becomes a 2.01 with no body that names the created
    resource in Location-Path options (RFC 7252 section 5.8.2), so it fits
    one frame. Every other reply carries the HTTP body and its Content-Format.
    """
    code = STATUS_CODES.get(resp.status_code, FALLBACK_CODE)
    if resp.status_code == 201 and request.code == coap.METHOD_POST:
        return _reply_to(request, code,
                         _location_path(resp.headers.get("location"), upstream))
    options = []
    body = resp.content or b""
    if body:
        media_type = (resp.headers.get("content-type") or "").split(";")[0].strip()
        cf = CONTENT_FORMAT_IDS.get(media_type)
        if cf is not None:
            options.append((coap.OPT_CONTENT_FORMAT, bytes([cf])))
    return _reply_to(request, code, options, body)


def _location_path(location, upstream: UpstreamConfig) -> list:
    """Location-Path options naming an HTTP ``Location`` (a path or an
    absolute URL) relative to the upstream base; none when ``location`` is
    missing, has a query or fragment, or does not lie under the base."""
    if not location or "?" in location or "#" in location:
        return []
    scheme, netloc, prefix = upstream.location_base
    if not location.startswith("/"):
        parts = urlsplit(location)
        if (parts.scheme, parts.netloc.lower()) != (scheme, netloc):
            return []
        location = parts.path
    if not location.startswith(prefix) or location == prefix:
        return []
    return [(coap.OPT_LOCATION_PATH, unquote_to_bytes(segment))
            for segment in location[len(prefix):].split("/")]


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
        self.session = session or http11.HttpSession()
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

