import json

import pytest

from iotpipe import sizebench

PAYLOAD = b'{"result":2143}'


def test_compressed_coap_variant_totals_67():
    b = sizebench.measure("COAP_6LOWPAN_154", PAYLOAD)
    assert (b.payload_bytes, b.app_header_bytes, b.transport_bytes,
            b.network_bytes, b.link_bytes) == (15, 22, 4, 5, 21)
    assert b.total == 67


def test_uncompressed_coap_variant_totals_106():
    b = sizebench.measure("COAP_UDP_IPV6_154", PAYLOAD)
    assert (b.payload_bytes, b.app_header_bytes, b.transport_bytes,
            b.network_bytes, b.link_bytes) == (15, 22, 8, 40, 21)
    assert b.total == 106


def test_http_variant_totals_236():
    b = sizebench.measure("HTTP_TCP_IPV4_ETH", PAYLOAD)
    assert b.app_header_bytes == 153
    assert b.transport_bytes + b.network_bytes + b.link_bytes == 68
    assert b.total == 236


def test_http_template_text_is_153_bytes():
    assert len(sizebench.http_header_block(15)) == 153


def test_ipv6_http_variant_adds_20_network_bytes():
    ipv4 = sizebench.measure("HTTP_TCP_IPV4_ETH", PAYLOAD)
    ipv6 = sizebench.measure(sizebench.HTTP_IPV6_VARIANT, PAYLOAD)
    assert ipv6.network_bytes - ipv4.network_bytes == 20
    assert ipv6.total - ipv4.total == 20


def test_unknown_variant_rejected():
    with pytest.raises(sizebench.TemplateMissing):
        sizebench.measure("COAP_OVER_CARRIER_PIGEON", PAYLOAD)


def test_payload_invariance_across_variants():
    for payload in (b"{}", PAYLOAD, b'{"result":-123456}'):
        sizes = {
            sizebench.measure(v, payload).payload_bytes
            for v in sizebench.VARIANTS
        }
        assert sizes == {len(payload)}


def test_compression_monotonicity_for_small_payloads():
    for n in range(0, 61):
        payload = b"x" * n if n else b"x"  # codec requires non-empty payload
        if n == 0:
            continue
        hc = sizebench.measure("COAP_6LOWPAN_154", payload).total
        plain = sizebench.measure("COAP_UDP_IPV6_154", payload).total
        assert hc < plain


def test_both_coap_variants_measure_one_application_message():
    hc = sizebench.measure("COAP_6LOWPAN_154", PAYLOAD)
    plain = sizebench.measure("COAP_UDP_IPV6_154", PAYLOAD)
    assert hc.app_header_bytes == plain.app_header_bytes
    assert hc.payload_bytes == plain.payload_bytes


def test_compare_ratio_exceeds_published_bound():
    report = sizebench.run_default_bench()
    assert report.all_passed
    assert report.ratio > 3.5
    assert round(report.ratio, 2) == 3.52


def test_compare_identical_variants():
    b = sizebench.measure("COAP_6LOWPAN_154", PAYLOAD)
    report = sizebench.compare([b, b])
    ratio_checks = [c for c in report.checks if c.name == "http_over_coap_hc_ratio"]
    assert ratio_checks == []


def test_compare_rejects_payload_mismatch():
    a = sizebench.measure("COAP_6LOWPAN_154", PAYLOAD)
    b = sizebench.measure("HTTP_TCP_IPV4_ETH", b"{}")
    with pytest.raises(sizebench.PayloadMismatch):
        sizebench.compare([a, b])


def test_non_calibrated_path_is_informational():
    coap_path = ("v1.0", "Datastreams(1)", "Observations")
    breakdowns = [
        sizebench.measure(v, PAYLOAD, coap_path) for v in sizebench.VARIANTS
    ]
    report = sizebench.compare(breakdowns, calibrated_path=False)
    coap_app = [c for c in report.checks if c.name == "app_header[COAP_6LOWPAN_154]"]
    assert not coap_app[0].passed
    assert coap_app[0].informational
    assert report.all_passed  # informational failures do not gate


def test_json_report_has_provenance_per_number():
    report = sizebench.run_default_bench()
    obj = json.loads(sizebench.emit_report(report, "json"))
    for variant in obj["variants"]:
        for layer in variant["layers"]:
            assert layer["provenance"]
    assert obj["http_over_coap_hc_ratio"] == 3.5224


def test_csv_report_one_row_per_variant_layer():
    report = sizebench.run_default_bench()
    rows = sizebench.emit_report(report, "csv").strip().splitlines()
    # header + 3 variants x (5 layers + total)
    assert len(rows) == 1 + 3 * 6


def test_table_report_matches_golden_file(pytestconfig):
    golden = pytestconfig.rootpath / "tests" / "golden" / "bench_table.txt"
    report = sizebench.run_default_bench()
    rendered = sizebench.emit_report(report, "table")
    assert rendered == golden.read_text()


def test_report_is_deterministic():
    a = sizebench.emit_report(sizebench.run_default_bench(), "json")
    b = sizebench.emit_report(sizebench.run_default_bench(), "json")
    assert a == b
