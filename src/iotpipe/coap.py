"""CoAP message codec: bit-exact binary framing plus request helpers.

The wire layout is a 4-byte base header, the token, delta-encoded options,
and an optional 0xFF marker followed by the payload.
"""

from dataclasses import dataclass, field
from enum import IntEnum


class CoapError(Exception):
    pass


class TokenTooLong(CoapError):
    pass


class OptionOrderViolation(CoapError):
    pass


class Truncated(CoapError):
    pass


class BadVersion(CoapError):
    pass


class BadOptionEncoding(CoapError):
    pass


class MsgType(IntEnum):
    CON = 0
    NON = 1
    ACK = 2
    RST = 3


# Option numbers (IANA registry)
OPT_LOCATION_PATH = 8
OPT_URI_PATH = 11
OPT_CONTENT_FORMAT = 12

# Content-Format registry numbers; only JSON is exercised end to end.
CONTENT_FORMATS = {
    0: "text/plain",
    42: "application/octet-stream",
    50: "application/json",
    60: "application/cbor",
}

CF_JSON = 50

# Method codes (class 0)
METHOD_GET = (0, 1)
METHOD_POST = (0, 2)
METHOD_PUT = (0, 3)
METHOD_DELETE = (0, 4)

PAYLOAD_MARKER = 0xFF


@dataclass
class CoapMessage:
    msg_type: MsgType
    code: tuple  # (class 0-7, detail 0-31)
    message_id: int
    token: bytes = b""
    options: list = field(default_factory=list)  # [(number, value bytes)]
    payload: bytes = b""
    version: int = 1

    def is_request(self) -> bool:
        return self.code[0] == 0 and self.code != (0, 0)

    def code_byte(self) -> int:
        return (self.code[0] << 5) | self.code[1]

    def code_str(self) -> str:
        return "%d.%02d" % self.code

    def uri_path(self) -> list:
        return [v.decode("utf-8") for n, v in self.options if n == OPT_URI_PATH]

    def content_format(self):
        for n, v in self.options:
            if n == OPT_CONTENT_FORMAT:
                return int.from_bytes(v, "big") if v else 0
        return None


def _encode_option_part(value: int):
    """Split an option delta or length into (nibble, extension bytes)."""
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    return 14, (value - 269).to_bytes(2, "big")


def encode(msg: CoapMessage) -> bytes:
    if msg.version != 1:
        raise BadVersion("version must be 1, got %d" % msg.version)
    if len(msg.token) > 8:
        raise TokenTooLong("token is %d bytes, max 8" % len(msg.token))
    numbers = [n for n, _ in msg.options]
    if numbers != sorted(numbers):
        raise OptionOrderViolation("options must be sorted by option number")

    out = bytearray()
    out.append((msg.version << 6) | (int(msg.msg_type) << 4) | len(msg.token))
    out.append(msg.code_byte())
    out += (msg.message_id & 0xFFFF).to_bytes(2, "big")
    out += msg.token

    prev = 0
    for number, value in msg.options:
        dn, dext = _encode_option_part(number - prev)
        ln, lext = _encode_option_part(len(value))
        out.append((dn << 4) | ln)
        out += dext
        out += lext
        out += value
        prev = number

    if msg.payload:
        out.append(PAYLOAD_MARKER)
        out += msg.payload
    return bytes(out)


def _decode_option_part(nibble: int, data: bytes, pos: int):
    if nibble < 13:
        return nibble, pos
    if nibble == 13:
        if pos >= len(data):
            raise Truncated("option extension byte missing")
        return data[pos] + 13, pos + 1
    if nibble == 14:
        if pos + 2 > len(data):
            raise Truncated("option extension bytes missing")
        return int.from_bytes(data[pos:pos + 2], "big") + 269, pos + 2
    raise BadOptionEncoding("reserved nibble 15 outside payload marker")


def decode(data: bytes) -> CoapMessage:
    if len(data) < 4:
        raise Truncated("need at least 4 bytes, got %d" % len(data))
    version = data[0] >> 6
    if version != 1:
        raise BadVersion("version %d" % version)
    msg_type = MsgType((data[0] >> 4) & 0x3)
    tkl = data[0] & 0x0F
    if tkl > 8:
        raise TokenTooLong("token length nibble %d" % tkl)
    code = (data[1] >> 5, data[1] & 0x1F)
    message_id = int.from_bytes(data[2:4], "big")
    if 4 + tkl > len(data):
        raise Truncated("token runs past end of message")
    token = data[4:4 + tkl]

    pos = 4 + tkl
    options = []
    number = 0
    payload = b""
    while pos < len(data):
        byte = data[pos]
        if byte == PAYLOAD_MARKER:
            payload = data[pos + 1:]
            if not payload:
                raise Truncated("payload marker with empty payload")
            break
        pos += 1
        delta, pos = _decode_option_part(byte >> 4, data, pos)
        length, pos = _decode_option_part(byte & 0x0F, data, pos)
        if pos + length > len(data):
            raise Truncated("option value runs past end of message")
        number += delta
        options.append((number, data[pos:pos + length]))
        pos += length

    return CoapMessage(
        msg_type=msg_type,
        code=code,
        message_id=message_id,
        token=token,
        options=options,
        payload=payload,
    )


def build_observation_request(path_segments, payload: bytes,
                              msg_type: MsgType = MsgType.NON, token: bytes = b"\xca\xfe",
                              message_id: int = 0) -> CoapMessage:
    """Build the JSON POST request pushing one observation.

    As a NON request with a 2-byte token to the single path segment
    "Observations", it carries exactly 22 bytes of protocol overhead in front
    of the payload.
    """
    if not payload:
        raise ValueError("observation payload must be non-empty")
    if not path_segments or any(not s for s in path_segments):
        raise ValueError("path segments must be non-empty strings")
    options = [(OPT_URI_PATH, seg.encode("utf-8")) for seg in path_segments]
    options.append((OPT_CONTENT_FORMAT, bytes([CF_JSON])))
    return CoapMessage(msg_type, METHOD_POST, message_id, token, options, payload)


def match_response(request: CoapMessage, response: CoapMessage) -> bool:
    """Token correlation; piggybacked ACKs must also echo the message id."""
    if request.token != response.token:
        return False
    if response.msg_type == MsgType.ACK:
        return request.message_id == response.message_id
    return True


class MessageIdCounter:
    """Per-endpoint monotonically increasing message id, wraps at 2^16."""

    def __init__(self, start: int = 0):
        self._next = start & 0xFFFF

    def take(self) -> int:
        mid = self._next
        self._next = (self._next + 1) & 0xFFFF
        return mid
