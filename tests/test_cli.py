import contextlib
import io
import json
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

from iotpipe import cli, node, sensorthings
from iotpipe.pipeline import PipelineConfig, run_pipeline


def test_bench_default_exits_zero(capsys):
    assert cli.main(["bench"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "fail\n" not in out


def test_bench_json_output_is_valid(capsys, tmp_path):
    out_file = tmp_path / "bench.json"
    assert cli.main(["bench", "--format", "json", "--out", str(out_file)]) == 0
    obj = json.loads(out_file.read_text())
    assert {v["variant"] for v in obj["variants"]} == {
        "HTTP_TCP_IPV4_ETH", "COAP_UDP_IPV6_154", "COAP_6LOWPAN_154"
    }


def test_bench_non_calibrated_path_still_exits_zero(capsys):
    assert cli.main(["bench", "--path", "v1.0/Datastreams(1)/Observations"]) == 0
    out = capsys.readouterr().out
    assert "informational-fail" in out


def test_pipeline_lossless_conservation(capsys, tmp_path):
    code = cli.main([
        "pipeline", "--count", "10", "--artifacts", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "sent=10 stored=10" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["conserved"]
    records = (tmp_path / "logs" / "sendrecords-node0.jsonl").read_text()
    assert len(records.strip().splitlines()) == 10


def test_pipeline_seeded_rerun_is_reproducible():
    def run(seed):
        return run_pipeline(PipelineConfig(
            nodes=2, observations_per_node=20, loss_probability=0.2, seed=seed,
        )).summary

    first, second = run(5), run(5)
    assert first == second
    assert run(6) != first


def test_same_seed_runs_write_identical_artifacts(tmp_path):
    names = ["logs/sendrecords-node0.jsonl", "logs/sendrecords-node1.jsonl",
             "logs/gateway-metrics.jsonl", "summary.json", "journal.jsonl"]
    runs = []
    for run in ("first", "second"):
        run_pipeline(PipelineConfig(
            nodes=2, observations_per_node=30, loss_probability=0.3, seed=7,
            confirmable=True, artifacts_dir=str(tmp_path / run),
        ))
        runs.append([(tmp_path / run / name).read_bytes() for name in names])
    assert runs[0] == runs[1]
    assert b'"attempts":2' in runs[0][0]      # the loss made a node wait and resend
    assert b'"time":"1970-01-01T00:00:10.000Z"' in runs[0][4]  # stamped by the run's clock


def test_summary_counts_a_malformed_frame_at_the_gateway_endpoint(monkeypatch, tmp_path):
    send = node.Node.send_observation

    def send_after_junk(self, pump=None):
        if not self.records:    # one frame too short for 802.15.4, before the first reading
            self.endpoint.link.send(b"\x01\x02\x03", now=self.clock.now())
        return send(self, pump=pump)

    monkeypatch.setattr(node.Node, "send_observation", send_after_junk)
    result = run_pipeline(PipelineConfig(observations_per_node=3, artifacts_dir=str(tmp_path)))
    assert result.conserved
    metrics = json.loads((tmp_path / "summary.json").read_text())["gateway_metrics"]
    assert metrics == result.gateway_metrics
    assert (metrics["link_errors"], metrics["lowpan_errors"],
            metrics["reassembly_expired"]) == (1, 0, 0)
    assert metrics["requests_received"] == 3


def test_serve_and_replay_run_until_interrupted(capsys, monkeypatch, tmp_path):
    def interrupt(_seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(sleep=interrupt))
    journal = str(tmp_path / "journal.jsonl")
    assert cli.main(["serve", "--port", "0", "--journal", journal, "--seed-entities"]) == 0
    assert "serving SensorThings API at http://127.0.0.1:" in capsys.readouterr().out
    assert cli.main(["replay", journal, "--port", "0"]) == 0
    out = capsys.readouterr().out
    assert "Datastreams=1" in out and "serving recovered store at http://" in out


# Backend URLs that urlsplit or its port cannot parse, with no host or one
# the request head cannot carry, or with a scheme other than http and https.
BAD_URLS = ["http://[::1", "http://127.0.0.1:notaport/v1.0", "http://127.0.0.1:99999/v1.0",
            "", "http:///v1.0", "127.0.0.1:8080/v1.0", "ftp://127.0.0.1:1/v1.0",
            "http://\u20ac/v1.0"]


def test_pipeline_bad_config_exits_2(capsys, tmp_path):
    assert cli.main(["pipeline", "--count", "0"]) == 2
    assert cli.main(["pipeline", "--loss", "1.5"]) == 2
    assert cli.main(["pipeline", "--mode", "CON", "--max-retransmit", "-1"]) == 2
    assert cli.main(["pipeline", "-o", "nodes=abc"]) == 2
    assert cli.main(["pipeline", "-o", "mode=5"]) == 2
    assert cli.main(["pipeline", "-o", "backend_url=5"]) == 2
    assert cli.main(["pipeline", "-o", "cuont=5"]) == 2
    assert cli.main(["pipeline", "-o", "seed=1.9"]) == 2
    assert cli.main(["pipeline", "-o", "nodes=true"]) == 2
    assert cli.main(["pipeline", "-o", "period=true"]) == 2
    assert cli.main(["pipeline", "-o", "loss=true"]) == 2
    assert cli.main(["pipeline", "-o", "period=0"]) == 2
    for url in BAD_URLS:
        assert cli.main(["pipeline", "--backend-url", url]) == 2
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert cli.main(["pipeline", "--config", str(array)]) == 2
    assert "Traceback" not in capsys.readouterr().err


# Override keys: every one the CLI knows but backend_url, and one misspelt.
OVERRIDE_KEYS = ["mode", "nodes", "count", "period", "loss", "seed", "max_retransmit",
                 "compress", "cuont"]
JSON_SCALARS = st.one_of(
    st.integers(-2, 4), st.sampled_from([2 ** 63, 10 ** 400]), st.floats(), st.booleans(),
    st.none(), st.text(max_size=4), st.sampled_from(["NON", "CON", "con"]))


@settings(max_examples=100, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(OVERRIDE_KEYS), JSON_SCALARS, max_size=5))
def test_any_overrides_exit_0_1_or_2_and_an_accepted_config_runs(overrides):
    """Whatever JSON scalars the overrides carry, among them NaN, infinities
    and ints past any C type, ``iotpipe pipeline`` exits 0, 1 or 2 with no
    traceback, and a config it accepts runs to a summary."""
    for key in ("nodes", "count", "max_retransmit"):   # so that a run takes milliseconds
        value = overrides.get(key)
        assume(not isinstance(value, int) or value <= 4)
    argv = ["pipeline", "--count", "2"]
    for key, value in overrides.items():
        argv += ["-o", "%s=%s" % (key, json.dumps(value))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code != 2:
        assert "summary: sent=" in out.getvalue()


@pytest.mark.parametrize("field, value", [
    ("period", True), ("period", 0), ("period", -1.0), ("period", float("inf")),
    ("period", "10"), ("period", 10 ** 400), ("loss_probability", True),
    ("loss_probability", 1.5), ("loss_probability", -0.1), ("loss_probability", float("nan")),
    ("nodes", 0), ("observations_per_node", 0), ("nodes", 10 ** 400),
    ("observations_per_node", 10 ** 400), ("backend_url", 5),
    *[("backend_url", url) for url in BAD_URLS],
])
def test_pipeline_config_refuses_a_bad_value(field, value):
    with pytest.raises(ValueError):
        PipelineConfig(**{field: value})


def test_pipeline_config_refuses_a_run_whose_clock_could_pass_the_year_9999(capsys, tmp_path):
    for config in ({"period": 2.6e10}, {"confirmable": True, "max_retransmit": 40},
                   {"confirmable": True, "max_retransmit": 2 ** 63}):
        with pytest.raises(ValueError, match="past the year 9999"):
            PipelineConfig(**config)
    assert cli.main(["pipeline", "-o", "period=9223372036854775808"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    run_pipeline(PipelineConfig(period=2.5e10, artifacts_dir=str(tmp_path)))
    journal = (tmp_path / "journal.jsonl").read_text().splitlines()
    assert json.loads(journal[-1])["time"] == "9892-03-08T12:26:40.000Z"


def test_pipeline_config_takes_an_int_period_and_loss_as_floats():
    config = PipelineConfig(period=10, loss_probability=0)
    assert (config.period, config.loss_probability) == (10.0, 0.0)
    assert isinstance(config.period, float) and isinstance(config.loss_probability, float)


@pytest.mark.parametrize("value", [-1, 1.5, True, "4"])
def test_reliability_refuses_a_bad_max_retransmit(value):
    with pytest.raises(ValueError):
        node.Reliability(confirmable=True, max_retransmit=value)


def test_pipeline_refuses_a_negative_max_retransmit(capsys):
    with pytest.raises(ValueError):
        run_pipeline(PipelineConfig(confirmable=True, max_retransmit=-1))
    assert cli.main(["pipeline", "--mode", "CON", "-o", "max_retransmit=-1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_compress_takes_only_a_json_boolean(capsys, tmp_path):
    for value in ("no", "0", "1", '"false"'):
        assert cli.main(["pipeline", "--count", "1", "-o", "compress=" + value]) == 2
    assert "compress must be true or false" in capsys.readouterr().err
    assert cli.main(["pipeline", "--count", "1", "-o", "compress=false",
                     "--artifacts", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "logs" / "sendrecords-node0.jsonl").read_text())
    assert record["net_transport_bytes"] == 49


def test_runs_sharing_an_external_backend_each_count_their_own_rows(backend):
    for _ in range(2):
        result = run_pipeline(PipelineConfig(observations_per_node=5,
                                             backend_url=backend.base_url))
        assert result.sent == result.stored == 5
        assert result.conserved
    assert backend.store.count("Observations") == 10


def test_pipeline_on_a_store_served_at_another_root_exits_3(serve, seeded_store, capsys):
    url = serve(seeded_store).base_url.replace("/v1.0", "/x")
    assert cli.main(["pipeline", "--count", "1", "--backend-url", url]) == 3
    err = capsys.readouterr().err
    assert "environment error: %s is not a SensorThings API" % url in err
    assert "Traceback" not in err
    assert seeded_store.count("Observations") == 0


def _reply(status, body):
    return b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n%s" % (status, len(body), body)


@pytest.mark.parametrize("reply", [
    _reply(200, b"[]"), _reply(200, b"not json"), _reply(200, b"\xff"), _reply(200, b"{}"),
    _reply(200, b'{"@iot.count":"5"}'), _reply(200, b'{"@iot.count":true}'),
    _reply(200, b'{"@iot.count":1.5}'), _reply(404, b'{"@iot.count":0}'),
    _reply(200, b"[" * 100_000), b"SMTP ready\r\n",
], ids=["array", "not-json", "not-utf8", "no-count", "string", "bool", "float", "404",
        "deep", "not-http"])
def test_pipeline_on_a_backend_that_is_not_sensorthings_exits_3(scripted, capsys, reply):
    upstream = scripted([reply])
    assert cli.main(["pipeline", "--count", "1", "--backend-url", upstream.url]) == 3
    err = capsys.readouterr().err
    assert err.startswith("environment error: ") and "Traceback" not in err
    assert len(upstream.requests) == 1     # the count before the first send, nothing more


def test_report_from_artifacts(capsys, tmp_path):
    cli.main(["pipeline", "--count", "5", "--artifacts", str(tmp_path)])
    capsys.readouterr()
    assert cli.main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "sent=5 acked=5" in out


def test_report_on_empty_directory_exits_2(capsys, tmp_path):
    assert cli.main(["report", str(tmp_path)]) == 2
    assert "no run artifacts" in capsys.readouterr().err


def test_replay_counts(capsys, tmp_path):
    journal = tmp_path / "journal.jsonl"
    store = sensorthings.Store(journal_path=str(journal))
    sensorthings.seed_default_entities(store)
    for i in range(100):
        store.ingest_observation(1, {"result": i}, receipt_time=float(i))
    store.close()
    assert cli.main(["replay", str(journal), "--no-serve"]) == 0
    out = capsys.readouterr().out
    assert "Observations=100" in out


def test_replay_missing_journal_exits_2(capsys, tmp_path):
    assert cli.main(["replay", str(tmp_path / "missing.jsonl")]) == 2


def test_pipeline_config_file_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"nodes": 2, "count": 3}))
    code = cli.main([
        "pipeline", "--config", str(cfg), "-o", "count=4",
    ])
    assert code == 0
    assert "sent=8 stored=8" in capsys.readouterr().out
