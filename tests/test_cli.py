import json
import types

import pytest

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
    # The journal is left out: its receipt times come from the wall clock.
    names = ["logs/sendrecords-node0.jsonl", "logs/sendrecords-node1.jsonl",
             "logs/gateway-metrics.jsonl", "summary.json"]
    runs = []
    for run in ("first", "second"):
        run_pipeline(PipelineConfig(
            nodes=2, observations_per_node=30, loss_probability=0.3, seed=7,
            confirmable=True, artifacts_dir=str(tmp_path / run),
        ))
        runs.append([(tmp_path / run / name).read_bytes() for name in names])
    assert runs[0] == runs[1]
    assert b'"attempts":2' in runs[0][0]      # the loss made a node wait and resend


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
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert cli.main(["pipeline", "--config", str(array)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("period", True), ("period", 0), ("period", -1.0), ("period", float("inf")),
    ("period", "10"), ("period", 10 ** 400), ("loss_probability", True),
    ("loss_probability", 1.5), ("loss_probability", -0.1), ("loss_probability", float("nan")),
    ("nodes", 0), ("observations_per_node", 0), ("backend_url", 5),
])
def test_pipeline_config_refuses_a_bad_value(field, value):
    with pytest.raises(ValueError):
        PipelineConfig(**{field: value})


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
