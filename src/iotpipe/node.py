"""Simulated constrained sensor node.

Sends one temperature observation per call as a CoAP POST through the
compressed (or uncompressed) stack, optionally with confirmable
retransmission, and records per-layer sizes and outcomes.
"""

import json
import random
from dataclasses import dataclass, field, asdict

from . import coap
from .stack import StackEndpoint


TOKEN_LENGTH = 2
OBSERVATION_PATH = ("Observations",)
ACK_TIMEOUT = 2.0  # s before the first retransmission; doubles on each one


def serialize_payload(result) -> bytes:
    """Compact JSON, single key, no whitespace; 15 bytes for a 4-digit result."""
    return json.dumps({"result": result}, separators=(",", ":")).encode("ascii")


class FixedTemperature:
    def __init__(self, value: int = 2143):
        self.value = value

    def next(self) -> int:
        return self.value


@dataclass
class Reliability:
    confirmable: bool = False
    max_retransmit: int = 4


@dataclass
class NodeConfig:
    period: float = 10.0    # inert: nothing reads it; perfbench still sets it (ROADMAP item 1)
    reliability: Reliability = field(default_factory=Reliability)
    temperature: object = field(default_factory=FixedTemperature)


@dataclass
class SendRecord:
    seq: int
    time: float
    result: int
    payload_hex: str
    message_id: int
    token_hex: str
    attempts: int
    outcome: str               # acked | sent | failed
    response_code: str
    payload_bytes: int
    coap_overhead_bytes: int
    net_transport_bytes: int
    link_overhead_bytes: int
    total_frame_bytes: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


class Node:
    """One sensor node bound to one stack endpoint."""

    def __init__(self, config: NodeConfig, endpoint: StackEndpoint, clock,
                 node_id: int = 0):
        self.config = config
        self.endpoint = endpoint
        self.clock = clock
        self.node_id = node_id
        self._mid = coap.MessageIdCounter(start=(node_id * 4096) & 0xFFFF)
        self._token_rng = random.Random(0xBEEF ^ node_id)
        self.records = []

    def _next_token(self) -> bytes:
        return bytes(self._token_rng.randrange(256) for _ in range(TOKEN_LENGTH))

    def _build_request(self, payload: bytes) -> coap.CoapMessage:
        rel = self.config.reliability
        cfg = coap.RequestConfig(
            msg_type=coap.MsgType.CON if rel.confirmable else coap.MsgType.NON,
            token=self._next_token(),
            message_id=self._mid.take(),
        )
        return coap.build_observation_request(OBSERVATION_PATH, payload, cfg)

    def _poll_once(self, request, pump):
        now = self.clock.now()
        if pump is not None:
            pump(now)
        for dgram in self.endpoint.receive(now):
            try:
                response = coap.decode(dgram.payload)
            except coap.CoapError:
                continue
            if coap.match_response(request, response):
                return response
        return None

    def _await_response(self, request, deadline, pump):
        """Poll now, then again at each moment something can happen: when the
        next frame on this node's link is due, or at the deadline."""
        while True:
            response = self._poll_once(request, pump)
            if response is not None:
                return response
            now = self.clock.now()
            if now >= deadline:
                return None
            due = self.endpoint.link.next_due()
            wake = deadline if due is None or due <= now else min(deadline, due)
            self.clock.sleep(wake - now)

    def send_observation(self, pump=None) -> SendRecord:
        """Send one observation now; blocks (in clock time) for CON exchanges."""
        reading = self.config.temperature.next()
        payload = serialize_payload(reading)
        request = self._build_request(payload)
        encoded = coap.encode(request)
        rel = self.config.reliability

        attempts = 0
        response = None
        timeout = ACK_TIMEOUT
        tx = None
        max_attempts = 1 + (rel.max_retransmit if rel.confirmable else 0)
        while attempts < max_attempts:
            now = self.clock.now()
            tx = self.endpoint.send(encoded, now=now)
            attempts += 1
            if rel.confirmable:
                response = self._await_response(request, now + timeout, pump)
                if response is not None:
                    break
                timeout *= 2
            else:
                # Non-confirmable: the in-process gateway answers synchronously
                # through the pump; no retransmission timer.
                response = self._poll_once(request, pump)
                break

        if response is not None and response.code[0] == 2:
            outcome = "acked"
        elif response is not None:
            outcome = "error"
        elif rel.confirmable:
            outcome = "failed"
        else:
            outcome = "sent" if tx.delivered else "failed"

        record = SendRecord(
            seq=len(self.records),
            time=self.clock.now(),
            result=reading,
            payload_hex=payload.hex(),
            message_id=request.message_id,
            token_hex=request.token.hex(),
            attempts=attempts,
            outcome=outcome,
            response_code=response.code_str() if response else "",
            payload_bytes=len(payload),
            coap_overhead_bytes=len(encoded) - len(payload),
            net_transport_bytes=tx.net_transport_bytes,
            link_overhead_bytes=tx.link_overhead_bytes,
            total_frame_bytes=tx.total_bytes,
        )
        self.records.append(record)
        return record

