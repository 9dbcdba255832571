"""IEEE 802.15.4 frame model and an in-process simulated one-hop link."""

import binascii
import random
from collections import deque
from dataclasses import dataclass

MAX_FRAME = 127

FRAME_TYPE_DATA = 1
ADDR_MODE_SHORT = 2
ADDR_MODE_EXTENDED = 3
PAN_ID = 0x2328  # the one PAN every simulated device joins


class LinkError(Exception):
    pass


class FrameTooLarge(LinkError):
    pass


# Bit-reversal of every byte value. CRC-16/KERMIT is the reflected form of
# CRC-16/XMODEM (poly 0x1021, init 0, no final XOR), which ``binascii.crc_hqx``
# computes in C: reflect the input bytes, run XMODEM, reflect the 16-bit result.
_REVERSED = bytes(int("{:08b}".format(byte)[::-1], 2) for byte in range(256))


def crc16_kermit(data: bytes) -> int:
    """CRC-16 as used for the 802.15.4 FCS (reflected, poly 0x1021)."""
    crc = binascii.crc_hqx(data.translate(_REVERSED), 0)
    return _REVERSED[crc & 0xFF] << 8 | _REVERSED[crc >> 8]


@dataclass(frozen=True)
class FrameProfile:
    """Header and trailer choices. Frames carry extended addresses both ways;
    the per-frame overhead is measured by serializing one (``stack.link_frame``)."""

    pan_compression: bool = True
    include_fcs: bool = True


# The calibrated profile reproduces the published per-message link overhead
# of 21 bytes: PAN id compression, and the FCS left to the (error-free)
# simulated medium rather than carried in-band. The extended profile carries
# the source PAN and the FCS: 25 bytes.
PROFILES = {
    "calibrated": FrameProfile(include_fcs=False),
    "extended": FrameProfile(pan_compression=False),
}


@dataclass
class LinkFrame:
    dst_addr: bytes
    src_addr: bytes
    payload: bytes
    sequence: int = 0
    dst_pan: int = PAN_ID
    src_pan: int = None         # None: compressed out (same as dst_pan)
    include_fcs: bool = True

    def frame_control(self) -> int:
        dst_mode = ADDR_MODE_SHORT if len(self.dst_addr) == 2 else ADDR_MODE_EXTENDED
        src_mode = ADDR_MODE_SHORT if len(self.src_addr) == 2 else ADDR_MODE_EXTENDED
        fcf = FRAME_TYPE_DATA
        if self.src_pan is None:
            fcf |= 1 << 6      # intra-PAN
        fcf |= dst_mode << 10
        fcf |= src_mode << 14
        return fcf

    def serialize(self) -> bytes:
        out = bytearray()
        out += self.frame_control().to_bytes(2, "little")
        out.append(self.sequence & 0xFF)
        out += self.dst_pan.to_bytes(2, "little")
        out += self.dst_addr
        if self.src_pan is not None:
            out += self.src_pan.to_bytes(2, "little")
        out += self.src_addr
        out += self.payload
        if self.include_fcs:
            out += crc16_kermit(bytes(out)).to_bytes(2, "little")
        if len(out) > MAX_FRAME:
            raise FrameTooLarge("frame is %d bytes, max %d" % (len(out), MAX_FRAME))
        return bytes(out)

    @classmethod
    def parse(cls, data: bytes, include_fcs: bool = True):
        if len(data) > MAX_FRAME:
            raise FrameTooLarge("frame is %d bytes, max %d" % (len(data), MAX_FRAME))
        fcf = int.from_bytes(data[0:2], "little")
        dst_len = 2 if (fcf >> 10) & 0x3 == ADDR_MODE_SHORT else 8
        src_len = 2 if (fcf >> 14) & 0x3 == ADDR_MODE_SHORT else 8
        header = 5 + dst_len + (0 if fcf & (1 << 6) else 2) + src_len
        if len(data) < header + (2 if include_fcs else 0):
            raise LinkError("frame of %d bytes is shorter than the %d-byte header its "
                            "frame control announces" % (len(data), header))
        sequence = data[2]
        pos = 3
        dst_pan = int.from_bytes(data[pos:pos + 2], "little")
        pos += 2
        dst_addr = data[pos:pos + dst_len]
        pos += dst_len
        src_pan = None
        if not fcf & (1 << 6):
            src_pan = int.from_bytes(data[pos:pos + 2], "little")
            pos += 2
        src_addr = data[pos:pos + src_len]
        pos += src_len
        if include_fcs:
            payload = data[pos:-2]
            fcs = int.from_bytes(data[-2:], "little")
            if fcs != crc16_kermit(data[:-2]):
                raise LinkError("FCS mismatch")
        else:
            payload = data[pos:]
        return cls(
            dst_addr=dst_addr,
            src_addr=src_addr,
            payload=payload,
            sequence=sequence,
            dst_pan=dst_pan,
            src_pan=src_pan,
            include_fcs=include_fcs,
        )


@dataclass
class LinkConfig:
    loss_probability: float = 0.0
    latency: float = 0.0
    seed: int = 0


@dataclass
class DeliveryOutcome:
    delivered: bool
    size: int


class LinkEndpoint:
    """One side of a simulated link; owned by a single logical task."""

    def __init__(self, link, index: int):
        self._link = link
        self._index = index
        self._rx = deque()     # (due_time, frame_bytes)

    def send(self, frame_bytes: bytes, now: float = 0.0) -> DeliveryOutcome:
        if len(frame_bytes) > MAX_FRAME:
            raise FrameTooLarge(
                "frame is %d bytes, max %d" % (len(frame_bytes), MAX_FRAME)
            )
        cfg = self._link.config
        if self._link.rng.random() < cfg.loss_probability:
            self._link.dropped += 1
            return DeliveryOutcome(delivered=False, size=len(frame_bytes))
        peer = self._link.peer_of(self._index)
        peer._rx.append((now + cfg.latency, frame_bytes))
        self._link.delivered += 1
        return DeliveryOutcome(delivered=True, size=len(frame_bytes))

    def next_due(self):
        """Earliest delivery time of a frame in flight on this link, either
        way, or None. Each queue is in due order, so its head is its earliest."""
        heads = [ep._rx[0][0] for ep in self._link.endpoints if ep._rx]
        return min(heads) if heads else None

    def receive(self, now: float = None) -> list:
        """Frames whose delivery time has arrived, in send order."""
        out = []
        while self._rx and (now is None or self._rx[0][0] <= now):
            out.append(self._rx.popleft()[1])
        return out


class SimulatedLink:
    """Two-endpoint one-hop radio stand-in with seeded loss and latency."""

    def __init__(self, config: LinkConfig = None):
        self.config = config or LinkConfig()
        self.rng = random.Random(self.config.seed)
        self.endpoints = (LinkEndpoint(self, 0), LinkEndpoint(self, 1))
        self.delivered = 0
        self.dropped = 0

    def peer_of(self, index: int) -> LinkEndpoint:
        return self.endpoints[1 - index]
