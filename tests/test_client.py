import concurrent.futures
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from factory import synth_turkish_records
from morphsuite import client, prompts, suite
from morphsuite.client import Completion, ModelConfig, ResponseCache
from morphsuite.errors import AuthError, RateLimited, SchemaError, TransportError


def cfg(**overrides):
    base = dict(endpoint_url="http://example.invalid/v1/chat", model_name="m")
    base.update(overrides)
    return ModelConfig(**base)


def ok_transport(text):
    def transport(url, payload, headers, timeout):
        body = {"choices": [{"message": {"content": text}}]}
        return 200, body, None

    return transport


class TestComplete:
    def test_cache_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        first = client.complete("soru", cfg(), cache, transport=ok_transport("cevap"))
        assert first == Completion("cevap", cached=False)
        second = client.complete("soru", cfg(), cache, transport=ok_transport("BOOM"))
        assert second == Completion("cevap", cached=True)

    def test_cache_key_sensitive_to_params(self, tmp_path):
        cache = ResponseCache(tmp_path)
        a = cfg()
        b = cfg(temperature=0.5)
        assert cache.key(a, "p") != cache.key(b, "p")
        assert cache.key(a, "p") != cache.key(a, "q")
        assert cache.key(a, "p") == cache.key(cfg(), "p")

    def test_cache_survives_corrupt_and_torn_lines(self, tmp_path, capsys):
        first = ResponseCache(tmp_path)
        good, torn, new = (first.key(cfg(), p) for p in ("good", "torn", "new"))
        first.put(good, "iyi")
        log = tmp_path / "responses.jsonl"
        with open(log, "ab") as f:
            f.write(b"not json\n[1, 2]\n{\"key\": 1, \"response\": \"x\"}\n")
            f.write(b'{"key": "' + torn.encode() + b'", "resp')  # killed mid-append
        cache = ResponseCache(tmp_path)
        assert "4 unreadable cache lines skipped" in capsys.readouterr().err
        assert cache.get(good) == "iyi"
        assert cache.get(torn) is None
        cache.put(new, "yeni")
        reopened = ResponseCache(tmp_path)
        assert reopened.get(good) == "iyi"
        assert reopened.get(new) == "yeni"
        assert capsys.readouterr().err.count("unreadable") == 1
        assert log.read_bytes().endswith(
            b'"resp\n' + b'{"key": "' + new.encode() + b'", "response": "yeni"}\n'
        )

    def test_cache_last_put_wins_and_old_layout_misses(self, tmp_path):
        key = ResponseCache(tmp_path).key(cfg(), "p")
        (tmp_path / f"{key}.json").write_text('{"response": "eski"}', encoding="utf-8")
        cache = ResponseCache(tmp_path)
        assert cache.get(key) is None
        cache.put(key, "bir")
        cache.put(key, "iki")
        assert ResponseCache(tmp_path).get(key) == "iki"

    def test_cache_concurrent_puts_lose_no_line(self, tmp_path):
        cache = ResponseCache(tmp_path)
        keys = [cache.key(cfg(), f"p{i}") for i in range(1600)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(cache.put, key, key.upper()) for key in keys]
                for future in concurrent.futures.as_completed(futures, timeout=60):
                    future.result()
        finally:
            sys.setswitchinterval(switch)
        reopened = ResponseCache(tmp_path)
        assert [reopened.get(key) for key in keys] == [key.upper() for key in keys]
        assert len((tmp_path / "responses.jsonl").read_bytes().splitlines()) == len(keys)

    def test_retries_then_transport_error(self, tmp_path):
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(1)
            return 503, None, None

        with pytest.raises(TransportError):
            client.complete(
                "p", cfg(max_retries=2), None, transport=transport, sleep=lambda s: None
            )
        assert len(calls) == 3  # max_retries + 1

    def test_recovers_after_transient_failure(self):
        state = {"n": 0}

        def transport(url, payload, headers, timeout):
            state["n"] += 1
            if state["n"] < 3:
                return 500, None, None
            return 200, {"choices": [{"message": {"content": "tamam"}}]}, None

        result = client.complete(
            "p", cfg(max_retries=3), None, transport=transport, sleep=lambda s: None
        )
        assert result.text == "tamam"

    def test_auth_error(self):
        def transport(url, payload, headers, timeout):
            return 401, None, None

        with pytest.raises(AuthError):
            client.complete("p", cfg(), None, transport=transport, sleep=lambda s: None)

    def test_rate_limited_surfaces_retry_after(self):
        def transport(url, payload, headers, timeout):
            return 429, None, "7"

        with pytest.raises(RateLimited) as err:
            client.complete(
                "p", cfg(max_retries=1), None, transport=transport, sleep=lambda s: None
            )
        assert err.value.retry_after == "7"

    def test_missing_auth_token_env(self, monkeypatch):
        monkeypatch.delenv("MORPHSUITE_TEST_TOKEN", raising=False)
        with pytest.raises(AuthError):
            client.complete("p", cfg(auth_token_env="MORPHSUITE_TEST_TOKEN"), None)

    def test_wire_format_against_local_server(self, monkeypatch, tmp_path):
        seen = {}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                seen["payload"] = json.loads(self.rfile.read(length))
                seen["auth"] = self.headers.get("Authorization")
                body = json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": "sohbetler"}}]}
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("TOKEN_VAR", "sekret")
            url = f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
            result = client.complete(
                "Kök: sohbet",
                cfg(endpoint_url=url, auth_token_env="TOKEN_VAR", max_tokens=64),
                ResponseCache(tmp_path),
            )
        finally:
            server.shutdown()
            server.server_close()
        assert result.text == "sohbetler"
        assert seen["payload"]["messages"] == [{"role": "user", "content": "Kök: sohbet"}]
        assert seen["payload"]["model"] == "m"
        assert seen["payload"]["temperature"] == 0.0
        assert seen["payload"]["top_p"] == 1.0
        assert seen["payload"]["max_tokens"] == 64
        assert seen["auth"] == "Bearer sekret"


class TestModelConfig:
    def test_defaults_are_greedy(self):
        c = cfg()
        assert c.temperature == 0.0
        assert c.top_p == 1.0

    def test_validation(self):
        with pytest.raises(SchemaError):
            cfg(temperature=-1)
        with pytest.raises(SchemaError):
            cfg(top_p=0)


class TestParsing:
    def test_parse_productivity(self, turkish):
        assert client.parse_productivity("sohbetler", turkish) == "sohbetler"
        assert client.parse_productivity("Answer: Sohbetler.", turkish) == "sohbetler"
        assert client.parse_productivity("", turkish) is None
        assert client.parse_productivity("söz\n\n 'Kitaplar' \n", turkish) == "kitaplar"
        assert (
            client.parse_productivity("reason...\n<Answer>sohbetler</Answer>", turkish)
            == "sohbetler"
        )

    def test_parse_productivity_idempotent(self, turkish):
        out = client.parse_productivity("Answer: Sohbetler.", turkish)
        assert client.parse_productivity(out, turkish) == out

    def test_parse_systematicity(self):
        assert client.parse_systematicity("Evet") == "yes"
        assert client.parse_systematicity("...reasoning...<Answer>No</Answer>") == "no"
        assert client.parse_systematicity("maybe") is None
        assert client.parse_systematicity("Kyllä") == "yes"
        assert client.parse_systematicity("ei") == "no"
        assert client.parse_systematicity("Hayır.") == "no"
        assert client.parse_systematicity("Answer: Yes") == "yes"
        assert client.parse_systematicity("") is None

    def test_parse_systematicity_idempotent(self):
        assert client.parse_systematicity("yes") == "yes"
        assert client.parse_systematicity("no") == "no"


@pytest.fixture(scope="module")
def small_run():
    records = synth_turkish_records(30, [1, 2], seed=41)
    instances, _ = suite.build_suite(records, "systematicity", "id", seed=41)
    catalog = prompts.load_templates()
    rows = prompts.render_suite(instances, catalog, "english", "standard", 1, seed=41)
    return instances, rows


def productivity_rows(per_stratum, strata, seed):
    """Zero-shot productivity prompt rows and their instances, no demo split."""
    records = synth_turkish_records(per_stratum, strata, seed=seed)
    instances, _ = suite.build_suite(records, "productivity", "id", seed=seed, demo_fraction=0)
    rows = prompts.render_suite(instances, prompts.load_templates(), "english", "standard", 0)
    return rows, instances


class TestBaselinesAndMocks:
    def test_majority_baseline(self, small_run):
        _, rows = small_run
        majority = cfg(endpoint_url="mock://majority")
        assert {client.mock_response(row, majority) for row in rows} == {"No"}

    def test_majority_abstains_on_productivity(self):
        rows, _ = productivity_rows(2, [2], seed=42)
        assert client.mock_response(rows[0], cfg(endpoint_url="mock://majority")) == ""

    def test_random_productivity_single_affix_is_always_gold(self):
        rows, instances = productivity_rows(5, [1], seed=43)
        assert len(rows) == len(instances) == 5
        for seed in range(3):
            random = cfg(endpoint_url="mock://random", seed=seed)
            for row, inst in zip(rows, instances):
                assert client.mock_response(row, random) == inst.gold_surface

    def test_echo_gold_mock_scores_perfectly(self, small_run):
        _, rows = small_run
        records = client.evaluate_rows(rows, cfg(endpoint_url="mock://echo-gold"))
        for row, record in zip(rows, records):
            assert record.raw_response == row["gold_answer"]
            assert record.parsed_kind in ("yes", "no")

    def test_random_mock_is_prompt_stable(self, small_run):
        _, rows = small_run
        c = cfg(endpoint_url="mock://random", seed=3)
        a = client.evaluate_rows(rows, c)
        b = client.evaluate_rows(rows, c)
        assert [r.raw_response for r in a] == [r.raw_response for r in b]

    def test_mock_caching_flags(self, small_run, tmp_path):
        _, rows = small_run
        c = cfg(endpoint_url="mock://echo-gold")
        cache = ResponseCache(tmp_path)
        first = client.evaluate_rows(rows, c, cache)
        assert not any(r.cached for r in first)
        second = client.evaluate_rows(rows, c, cache)
        assert all(r.cached for r in second)

    def test_parse_failures_are_kept(self, small_run):
        _, rows = small_run
        records = client.evaluate_rows(rows, cfg(endpoint_url="mock://majority"))
        assert len(records) == len(rows)
        assert all(r.parsed_kind == "no" for r in records)

    def test_parallel_evaluation_keeps_row_order(self, small_run):
        _, rows = small_run

        def transport(url, payload, headers, timeout):
            prompt = payload["messages"][0]["content"]
            text = "Yes" if len(prompt) % 2 else "No"
            return 200, {"choices": [{"message": {"content": text}}]}, None

        records = client.evaluate_rows(rows, cfg(parallelism=4), transport=transport)
        expected = ["yes" if len(r["prompt"]) % 2 else "no" for r in rows]
        assert [rec.parsed_kind for rec in records] == expected

    def test_eval_record_roundtrip(self):
        record = client.EvalRecord(
            instance_id="i1",
            option_index=2,
            raw_response="Evet",
            parsed_kind="yes",
            parsed_value="yes",
            gold="Evet",
            model_name="m",
            cached=True,
        )
        assert client.EvalRecord.from_row(record.to_row()) == record
