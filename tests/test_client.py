import base64
import concurrent.futures
import contextlib
import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factory import synth_turkish_records
from morphsuite import __version__, cli, client, prompts, suite
from morphsuite.client import Completion, ModelConfig, ResponseCache
from morphsuite.errors import (
    AuthError,
    IncompleteEvaluation,
    RateLimited,
    SchemaError,
    TransportError,
)
from morphsuite.jsonl import read_config, read_jsonl, write_jsonl
from morphsuite.suite import record_to_row


def cfg(**overrides):
    base = dict(endpoint_url="http://example.invalid/v1/chat", model_name="m")
    base.update(overrides)
    return ModelConfig(**base)


def ok_transport(text):
    def transport(url, payload, headers, timeout):
        body = {"choices": [{"message": {"content": text}}]}
        return 200, body, None

    return transport


def chat(text):
    """A 200 chat-completions reply for local_server."""
    body = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    return 200, {"Content-Type": "application/json"}, json.dumps(body).encode("utf-8")


class Seen(list):
    """What a local_server got: the (headers, JSON payload) of each POST, in
    order; the (request line, headers) of every request, a CONNECT's too;
    and the number of connections it accepted and saw end."""

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.requests = []
        self.connections = self.closed = 0

    def wait_closed(self, timeout=5):
        """Whether every connection has ended, within timeout seconds."""
        deadline = time.monotonic() + timeout
        while self.closed < self.connections and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.closed == self.connections


@contextlib.contextmanager
def local_server(reply, protocol="HTTP/1.0", close=False):
    """Serve POSTs on 127.0.0.1 and yield (url, seen), seen a Seen. Each POST
    is answered with reply(prompt) -> (status, headers, body bytes), or
    closed without an answer when reply returns None; a CONNECT is refused
    with a 502. An HTTP/1.1 server serves each connection on a thread of its
    own and keeps it alive, unless close, when it ends it after each answer
    without saying so in the answer. Each answer goes out in two writes,
    headers then body, under Nagle's algorithm."""
    seen = Seen()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = protocol
        timeout = 30  # a connection the client never closes ends here

        def setup(self):
            super().setup()
            with seen.lock:
                seen.connections += 1

        def handle(self):
            try:
                super().handle()
            except (BrokenPipeError, ConnectionResetError):  # the client dropped a half-read answer
                pass

        def finish(self):
            super().finish()
            with seen.lock:
                seen.closed += 1

        def do_CONNECT(self):
            seen.requests.append((self.requestline, self.headers))
            self.send_response(502)
            self.send_header("Content-Length", "0")
            self.end_headers()
            self.close_connection = True

        def do_POST(self):
            seen.requests.append((self.requestline, self.headers))
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            seen.append((self.headers, payload))
            answer = reply(payload["messages"][-1]["content"])
            if answer is None:
                self.close_connection = True
                return
            status, headers, body = answer
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            self.close_connection = self.close_connection or close

        def log_message(self, *args):
            pass

    server_class = ThreadingHTTPServer if protocol == "HTTP/1.1" else HTTPServer
    server = server_class(("127.0.0.1", 0), Handler)
    # shutdown() waits up to one poll interval: 0.05 s, not the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", seen
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class FakeClock:
    """A clock in nanoseconds that moves only when sleep is called; sleeps
    records each wait in seconds."""

    def __init__(self):
        self.now = 0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += round(seconds * 1e9)


def ok_reply(text):
    """A 200 chat-completions answer, as a transport returns it."""
    return 200, {"choices": [{"message": {"content": text}}]}, None


def scripted(*answers):
    """A local_server reply giving answers in turn, one per POST."""
    queue = list(answers)
    return lambda prompt: queue.pop(0)


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
        assert cache.get(good) == "iyi"
        assert "4 unreadable cache lines skipped" in capsys.readouterr().err
        assert cache.get(torn) is None
        cache.put(new, "yeni")
        reopened = ResponseCache(tmp_path)
        assert reopened.get(good) == "iyi"
        assert reopened.get(new) == "yeni"
        assert capsys.readouterr().err.count("unreadable") == 1
        assert log.read_bytes().endswith(
            b'"resp\n' + b'{"key": "' + new.encode() + b'", "response": "yeni"}\n'
        )

    def test_cache_skips_a_response_with_a_lone_surrogate(self, tmp_path, capsys):
        key = ResponseCache(tmp_path).key(cfg(), "p")
        line = json.dumps({"key": key, "response": "Yes \ud800"})  # ensure_ascii: a \u escape
        (tmp_path / "responses.jsonl").write_text(line + "\n", encoding="ascii")
        cache = ResponseCache(tmp_path)
        assert cache.get(key) is None
        assert "1 unreadable cache lines skipped" in capsys.readouterr().err

    def test_cache_reads_its_log_at_the_first_lookup(self, tmp_path, capsys):
        ResponseCache(tmp_path / "unused")
        assert not (tmp_path / "unused").exists()
        (tmp_path / "responses.jsonl").write_bytes(b"not json\n")
        cache = ResponseCache(tmp_path)
        assert capsys.readouterr().err == ""
        assert cache.get("k") is None
        assert cache.get("k") is None
        assert capsys.readouterr().err.count("1 unreadable cache lines skipped") == 1
        lazy = ResponseCache(tmp_path / "lazy")
        lazy.put("k", "v")
        assert (tmp_path / "lazy/responses.jsonl").read_bytes() == b'{"key": "k", "response": "v"}\n'

    def test_cache_reads_its_log_once_under_concurrent_first_lookups(self, tmp_path, capsys):
        keys = [f"k{i}" for i in range(400)]
        (tmp_path / "responses.jsonl").write_text(
            "".join(json.dumps({"key": key, "response": key.upper()}) + "\n" for key in keys)
            + "not json\n", encoding="ascii")
        cache = ResponseCache(tmp_path)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(cache.get, key) for key in keys]
                answers = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(switch)
        assert answers == [key.upper() for key in keys]
        assert capsys.readouterr().err.count("unreadable") == 1

    def test_two_processes_share_one_cache_directory(self, tmp_path):
        """Each put is one write(2) to a log opened with O_APPEND, so two
        processes that put into one directory at once lose no line and tear
        none. One holds the log open, the other opens it for each put."""
        src = str(Path(client.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = (
            "import sys, time, contextlib\n"
            "from pathlib import Path\n"
            "from morphsuite.client import ResponseCache\n"
            "directory, name = sys.argv[1:]\n"
            "while not Path(directory, 'go').exists():\n"
            "    time.sleep(0.001)\n"
            "cache = ResponseCache(Path(directory, 'cache'))\n"
            "with cache if name == 'a' else contextlib.nullcontext():\n"
            "    for i in range(1000):\n"
            "        cache.put(f'{name}{i}', name * 300 + str(i))\n"
        )
        writers = [
            subprocess.Popen([sys.executable, "-c", code, str(tmp_path), name], env=env,
                             stderr=subprocess.PIPE, text=True)
            for name in "ab"
        ]
        (tmp_path / "go").touch()
        for writer in writers:
            _, err = writer.communicate(timeout=60)
            assert writer.returncode == 0, err
        lines = (tmp_path / "cache/responses.jsonl").read_bytes().split(b"\n")
        entries = [json.loads(line) for line in lines if line]
        assert len(entries) == 2000
        cache = ResponseCache(tmp_path / "cache")
        for name in "ab":
            for i in range(1000):
                assert cache.get(f"{name}{i}") == name * 300 + str(i)

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
        monkeypatch.setenv("TOKEN_VAR", "sekret")
        with local_server(lambda prompt: chat("sohbetler")) as (url, seen):
            result = client.complete(
                "Kök: sohbet",
                cfg(endpoint_url=url, auth_token_env="TOKEN_VAR", max_tokens=64),
                ResponseCache(tmp_path),
            )
        assert result.text == "sohbetler"
        [(headers, payload)] = seen
        assert payload["messages"] == [{"role": "user", "content": "Kök: sohbet"}]
        assert payload["model"] == "m"
        assert payload["temperature"] == 0.0
        assert payload["top_p"] == 1.0
        assert payload["max_tokens"] == 64
        assert headers["Authorization"] == "Bearer sekret"
        assert headers["User-Agent"] == f"morphsuite/{__version__}"
        assert headers["Content-Type"] == "application/json"

    @pytest.mark.parametrize("value, slept", [
        ("0", 0.25),
        ("5", 5.0),
        ("60", 60.0),
        ("61", 0.25),
        ("inf", 0.25),
        ("1e9", 0.25),
        ("nan", 0.25),
        ("-1", 0.25),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.25),
        (None, 0.25),
    ])
    def test_retry_after_counts_only_in_0_to_60_seconds(self, value, slept):
        answers = [(429, None, value), (200, {"choices": [{"message": {"content": "ok"}}]}, None)]
        sleeps = []
        result = client.complete(
            "p", cfg(max_retries=1), None,
            transport=lambda *args: answers.pop(0), sleep=sleeps.append,
        )
        assert result.text == "ok"
        assert sleeps == [slept]

    def test_each_answer_s_retry_after_counts_for_its_own_wait(self):
        answers = [(429, None, "30"), (503, None, None), (503, None, None), ok_reply("ok")]
        sleeps = []
        result = client.complete(
            "p", cfg(max_retries=3), None,
            transport=lambda *args: answers.pop(0), sleep=sleeps.append,
        )
        assert result.text == "ok"
        assert sleeps == [30.0, 0.5, 1.0]

    def test_a_503_s_retry_after_is_read(self):
        answers = [(503, None, "3"), (503, None, "x"), ok_reply("ok")]
        sleeps = []
        client.complete("p", cfg(max_retries=2), None,
                        transport=lambda *args: answers.pop(0), sleep=sleeps.append)
        assert sleeps == [3.0, 0.5]


class TestTransport:
    """The standard-library transport against a real local server."""

    def test_429_with_retry_after_then_200(self):
        too_many = (429, {"Retry-After": "0"}, b'{"error": "slow down"}')
        sleeps = []
        with local_server(scripted(too_many, too_many, chat("tamam"))) as (url, seen):
            with pytest.raises(RateLimited) as err:
                client.complete("p", cfg(endpoint_url=url, max_retries=0), None)
            assert err.value.retry_after == "0"
            result = client.complete("p", cfg(endpoint_url=url, max_retries=1), None,
                                     sleep=sleeps.append)
        assert result.text == "tamam"
        assert sleeps == [0.25]
        assert len(seen) == 3

    def test_503_with_a_non_json_body_then_200(self):
        script = scripted((503, {}, b"<html>busy</html>"), chat("tamam"))
        with local_server(script) as (url, seen):
            result = client.complete("p", cfg(endpoint_url=url, max_retries=1), None,
                                     sleep=lambda s: None)
        assert result.text == "tamam"
        assert len(seen) == 2

    def test_401_raises_auth_error(self):
        with local_server(scripted((401, {}, b'{"error": "bad key"}'))) as (url, seen):
            with pytest.raises(AuthError, match="HTTP 401"):
                client.complete("p", cfg(endpoint_url=url), None)
        assert len(seen) == 1

    def test_200_with_a_non_json_body_is_one_transport_error(self):
        with local_server(scripted((200, {}, b"not json"))) as (url, seen):
            with pytest.raises(TransportError) as err:
                client.complete("p", cfg(endpoint_url=url), None)
        assert str(err.value) == "malformed chat-completions response: None"

    def test_null_content_is_an_empty_answer_that_is_cached(self, tmp_path):
        """OpenAI answers a refusal with content null."""
        with ResponseCache(tmp_path) as cache:
            row = {"instance_id": "i", "option_index": 0, "prompt": "p", "task": "systematicity"}
            [record] = client.evaluate_rows([row], cfg(), cache, transport=ok_transport(None))
            again = client.complete("p", cfg(), cache, transport=ok_transport("BOOM"))
        assert (record.raw_response, record.parsed_kind) == ("", suite.PARSE_FAILURE)
        assert again == Completion("", cached=True)

    def test_content_that_is_not_a_string_fails_once_without_a_retry(self):
        calls = []

        def transport(*args):
            calls.append(args)
            return ok_reply(5)

        with pytest.raises(TransportError, match="^malformed chat-completions response: "):
            client.complete("p", cfg(max_retries=3), None, transport=transport,
                            sleep=lambda s: None)
        assert len(calls) == 1

    def test_content_with_a_lone_surrogate_fails_once_and_is_not_cached(self, tmp_path):
        """A \\ud800 escape in the JSON body decodes to a string that no
        records file could hold."""
        calls = []

        def transport(*args):
            calls.append(args)
            return ok_reply("Yes \ud800")

        row = {"instance_id": "i", "option_index": 0, "prompt": "p", "task": "systematicity"}
        with ResponseCache(tmp_path) as cache:
            with pytest.raises(IncompleteEvaluation, match="malformed chat-completions response"):
                client.evaluate_rows([row], cfg(max_retries=3), cache, transport=transport,
                                     sleep=lambda s: None)
        assert len(calls) == 1
        assert not (tmp_path / "responses.jsonl").exists()

    def test_307_is_not_followed(self):
        moved = (307, {"Location": "/v2/chat/completions"}, b"{}")
        with local_server(scripted(moved)) as (url, seen):
            with pytest.raises(TransportError, match="HTTP 307 from"):
                client.complete("p", cfg(endpoint_url=url), None)
        assert len(seen) == 1

    @pytest.mark.parametrize("url", ["ftp:/nowhere", "not a url", "http://127.0.0.1:notaport/v1"])
    def test_bad_url_is_a_transport_error(self, url):
        with pytest.raises(TransportError, match="request to .* failed"):
            client._default_transport(url, {}, {}, 5)


def yes(prompt):
    return chat("Yes")


def hostport(url):
    """The host:port of a local_server url."""
    return url.split("/")[2]


@pytest.fixture()
def no_proxies(monkeypatch):
    """No proxy setting from the environment, in either case."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


class TestKeptConnections:
    """Each _complete_all worker keeps one connection to the endpoint."""

    def test_each_worker_keeps_one_connection(self):
        prompts = [f"p{i}" for i in range(40)]
        with local_server(yes, protocol="HTTP/1.1") as (url, seen):
            results = client._complete_all(prompts, cfg(endpoint_url=url, parallelism=2))
            assert seen.wait_closed()
        assert [r.text for r in results] == ["Yes"] * 40
        assert sorted(payload["messages"][0]["content"] for _, payload in seen) == sorted(prompts)
        assert 1 <= seen.connections <= 2

    def test_an_http_1_0_server_gets_a_connection_per_request(self):
        with local_server(yes) as (url, seen):
            results = client._complete_all([f"p{i}" for i in range(5)], cfg(endpoint_url=url))
        assert [r.text for r in results] == ["Yes"] * 5
        assert seen.connections == len(seen) == 5

    def test_a_stale_connection_is_replaced_without_a_retry(self):
        """The server ends each connection after its answer without a
        Connection: close header, so every later request meets a stale
        connection: it is sent once more on a new one, not retried."""
        prompts = [f"p{i}" for i in range(10)]
        clock = FakeClock()
        with local_server(yes, protocol="HTTP/1.1", close=True) as (url, seen):
            results = client._complete_all(prompts, cfg(endpoint_url=url, max_retries=0),
                                           sleep=clock.sleep, clock=clock)
        assert [r.text for r in results] == ["Yes"] * 10
        assert [payload["messages"][0]["content"] for _, payload in seen] == prompts
        assert seen.connections == 10
        assert clock.sleeps == []

    @pytest.mark.parametrize("stop", ["401", "KeyboardInterrupt"])
    def test_a_stopped_run_closes_every_connection(self, monkeypatch, stop):
        send, sent = client._send, []

        def interrupted_send(*args):
            sent.append(1)
            if len(sent) == 12:
                raise KeyboardInterrupt
            return send(*args)

        def reply(prompt):
            return (401, {}, b'{"error": "bad key"}') if prompt == "p11" else chat("Yes")

        if stop == "KeyboardInterrupt":
            monkeypatch.setattr(client, "_send", interrupted_send)
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", lambda u: unraisable.append(u.exc_value))
        with local_server(reply, protocol="HTTP/1.1") as (url, seen):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(AuthError if stop == "401" else KeyboardInterrupt):
                    client._complete_all([f"p{i}" for i in range(40)],
                                         cfg(endpoint_url=url, parallelism=2))
                gc.collect()
            assert seen.wait_closed()
        assert unraisable == []
        assert 1 <= seen.connections <= 2
        assert len(seen) < 40

    def test_a_direct_call_closes_its_connection(self):
        payload = {"messages": [{"role": "user", "content": "p"}]}
        with local_server(yes, protocol="HTTP/1.1") as (url, seen):
            for _ in range(2):
                status, body, _ = client._default_transport(url, payload, {}, 5)
                assert (status, body["choices"][0]["message"]["content"]) == (200, "Yes")
            assert seen.wait_closed()
        assert seen.connections == 2

    @pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="TCP_QUICKACK is Linux's")
    def test_a_kept_connection_does_not_wait_for_a_delayed_ack(self):
        """local_server writes an answer's headers and body in two sends
        under Nagle's algorithm, so the body waits until the headers are
        acknowledged; a client that delays that ACK waits about 40 ms per
        request on a kept connection."""
        with local_server(yes, protocol="HTTP/1.1") as (url, seen):
            start = time.perf_counter()
            results = client._complete_all([f"p{i}" for i in range(30)], cfg(endpoint_url=url))
            elapsed = time.perf_counter() - start
        assert [r.text for r in results] == ["Yes"] * 30
        assert seen.connections == 1
        assert elapsed < 0.6  # a stalled client needs at least 30 x 40 ms

    def test_a_body_over_8_mib_fails_the_prompt_after_its_retries(self, small_run, tmp_path,
                                                                    capsys):
        """A long body is read no further than the cap, and the connection
        it was read from is not used again."""
        instances, rows = small_run
        huge = (200, {"Content-Type": "application/json"}, b" " * (9 * 2**20))
        with local_server(lambda prompt: huge, protocol="HTTP/1.1") as (url, seen):
            argv = write_run(tmp_path, rows[:1], instances, url, max_retries=1)
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("transport error: 1 of 1 prompts failed")
        assert f"request to {url} failed: response body over 8 MiB" in err
        assert len(seen) == seen.connections == 2  # max_retries + 1


def test_a_body_cut_short_of_its_content_length_fails():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def answer():
            connection, _ = listener.accept()
            with connection, connection.makefile("rb") as request:
                while request.readline() not in (b"\r\n", b""):
                    pass
                request.read(2)  # the payload, {}
                connection.sendall(b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"choices"')

        thread = threading.Thread(target=answer)
        thread.start()
        url = f"http://127.0.0.1:{listener.getsockname()[1]}/v1"
        with pytest.raises(TransportError, match=rf"^request to {url} failed: "
                           r"IncompleteRead\(10 bytes read, 90 more expected\)$"):
            client._default_transport(url, {}, {}, 5)
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestProxies:
    """Proxies are taken from the environment as urllib takes them."""

    def test_http_proxy_gets_the_absolute_form_target(self, no_proxies, monkeypatch):
        url = "http://example.invalid:8080/v1/chat?x=1"
        with local_server(yes) as (proxy, seen):
            monkeypatch.setenv("http_proxy", f"http://user:p%40ss@{hostport(proxy)}")
            assert client.complete("p", cfg(endpoint_url=url)).text == "Yes"
        [(line, headers)] = seen.requests
        assert line == f"POST {url} HTTP/1.1"
        assert headers["Host"] == "example.invalid:8080"
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_no_proxy_bypasses_the_proxy(self, no_proxies, monkeypatch):
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{closed_port()}")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        with local_server(yes) as (url, seen):
            assert client.complete("p", cfg(endpoint_url=url)).text == "Yes"
        [(line, headers)] = seen.requests
        assert line == "POST /v1/chat/completions HTTP/1.1"
        assert "Proxy-Authorization" not in headers

    def test_https_goes_through_a_connect_tunnel(self, no_proxies, monkeypatch):
        with local_server(yes) as (proxy, seen):
            monkeypatch.setenv("https_proxy", f"http://user:pw@{hostport(proxy)}")
            with pytest.raises(TransportError, match="Tunnel connection failed: 502"):
                client.complete("p", cfg(endpoint_url="https://example.invalid/v1/chat",
                                         max_retries=0))
        [(line, headers)] = seen.requests
        assert line.startswith("CONNECT example.invalid:443 HTTP/1.")  # 1.1 from Python 3.12
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()

    def test_an_https_proxy_url_is_reached_over_tls(self, no_proxies, monkeypatch):
        """A plain HTTP request through an https:// proxy opens with a TLS
        handshake to the proxy."""
        first = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def accept():
                connection, _ = listener.accept()
                with connection:
                    first.append(connection.recv(1))

            thread = threading.Thread(target=accept)
            thread.start()
            monkeypatch.setenv("http_proxy", f"https://127.0.0.1:{listener.getsockname()[1]}")
            with pytest.raises(TransportError, match="request to http://example.invalid/v1 failed"):
                client.complete("p", cfg(endpoint_url="http://example.invalid/v1", max_retries=0))
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert first == [b"\x16"]  # a TLS handshake record


def write_run(directory, rows, instances, url, **model):
    """Prompts, suite and a model config for url under directory."""
    write_jsonl(directory / "prompts.jsonl", rows)
    write_jsonl(directory / "suite.jsonl", (i.to_row() for i in instances))
    config = {"endpoint_url": url, "model_name": "m", "timeout": 5, **model}
    (directory / "model.json").write_text(json.dumps(config), encoding="utf-8")
    return [
        "evaluate", "--prompts", str(directory / "prompts.jsonl"),
        "--model-config", str(directory / "model.json"),
        "--cache", str(directory / "cache"), "--out", str(directory / "records.jsonl"),
    ]


def closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestEvaluateOverHttp:
    def test_one_failing_prompt_keeps_the_others_and_resumes(self, small_run, tmp_path, capsys):
        instances, rows = small_run
        stuck = rows[1]
        down = {"stuck": True}

        def reply(prompt):
            if prompt == stuck["prompt"] and down["stuck"]:
                return 503, {}, b"down"
            return chat("Yes")

        with local_server(reply) as (url, seen):
            argv = write_run(tmp_path, rows, instances, url, max_retries=1)
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith(f"transport error: 1 of {len(rows)} prompts failed")
            assert f"instance {stuck['instance_id']}, option {stuck['option_index']}" in err
            records = [row for _, row in read_jsonl(tmp_path / "records.jsonl")]
            assert [(r["instance_id"], r["option_index"]) for r in records] == [
                (r["instance_id"], r["option_index"]) for r in rows if r is not stuck
            ]
            manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text("utf-8"))
            assert manifest["failed_prompts"] == [[stuck["instance_id"], stuck["option_index"]]]
            assert manifest["records"] == len(rows) - 1
            assert len(seen) == len(rows) + 1  # the stuck prompt was retried once

            assert cli.main([
                "score", "--records", str(tmp_path / "records.jsonl"),
                "--suite", str(tmp_path / "suite.jsonl"), "--out-dir", str(tmp_path / "report"),
            ]) == 0
            report = json.loads((tmp_path / "report" / "report.json").read_text("utf-8"))
            assert report["missing_predictions"] == 1

            down["stuck"] = False
            assert cli.main(argv) == 0
        assert len(seen) == len(rows) + 2  # the re-run sent only the stuck prompt
        records = [row for _, row in read_jsonl(tmp_path / "records.jsonl")]
        assert len(records) == len(rows)
        manifest = json.loads((tmp_path / "records.jsonl.manifest.json").read_text("utf-8"))
        assert "failed_prompts" not in manifest
        assert manifest["cached"] == len(rows) - 1

    def test_report_stops_at_the_failing_cell(self, tmp_path, monkeypatch, capsys):
        """A failed prompt stops at its cell: the cell keeps its answered
        records and its report, run.json lists the failed prompt, the other
        cell runs, and report exits 2 with one transport error line."""
        monkeypatch.chdir(tmp_path)
        records = synth_turkish_records(4, [2], seed=61)
        write_jsonl("corpus.jsonl", (record_to_row(r) for r in records))
        prompts_seen = []

        def reply(prompt):
            if prompt not in prompts_seen:
                prompts_seen.append(prompt)
            return (503, {}, b"down") if prompts_seen.index(prompt) == 1 else chat("Yes")

        with local_server(reply) as (url, _):
            config = {
                "language": "turkish", "input": "corpus.jsonl", "out_dir": "run",
                "model_config": {"endpoint_url": url, "model_name": "m", "max_retries": 0},
                "tasks": ["systematicity"], "shots": 1, "demo_fraction": 0.25,
            }
            Path("run.json").write_text(json.dumps(config), encoding="utf-8")
            assert cli.main(["report", "--config", "run.json"]) == 2
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines()
                  if line.startswith(("error: ", "transport error: "))]
        assert len(errors) == 1 and errors[0].startswith("transport error: 1 of ")
        assert set(json.loads(out)) == {"systematicity_id", "systematicity_ood"}
        run = json.loads(Path("run/run.json").read_text("utf-8"))
        failed = run["cells"]["systematicity_id"]["evaluate"]["failed_prompts"]
        assert len(failed) == 1
        assert "failed_prompts" not in run["cells"]["systematicity_ood"]["evaluate"]
        for cell, missing in (("systematicity_id", 1), ("systematicity_ood", 0)):
            n_prompts = len(Path("run", cell, "prompts.jsonl").read_text("utf-8").splitlines())
            answered = [row for _, row in read_jsonl(Path("run", cell, "records.jsonl"))]
            assert len(answered) == n_prompts - missing
            assert all([r["instance_id"], r["option_index"]] not in failed for r in answered)
            report = json.loads(Path("run", cell, "report.json").read_text("utf-8"))
            assert report["missing_predictions"] == missing

    def test_auth_error_is_not_kept_as_a_failed_prompt(self, small_run):
        _, rows = small_run
        with pytest.raises(AuthError):
            client.evaluate_rows(rows, cfg(), transport=lambda *args: (401, None, None))

    def test_evaluate_rows_names_every_failed_prompt(self, small_run):
        _, rows = small_run
        failing = {rows[0]["prompt"], rows[5]["prompt"]}

        def transport(url, payload, headers, timeout):
            if payload["messages"][0]["content"] in failing:
                return 503, None, None
            return 200, {"choices": [{"message": {"content": "No"}}]}, None

        with pytest.raises(IncompleteEvaluation) as err:
            client.evaluate_rows(rows, cfg(max_retries=0, parallelism=3), transport=transport)
        assert err.value.failed == [
            [row["instance_id"], row["option_index"]] for row in (rows[0], rows[5])
        ]
        assert len(err.value.records) == len(rows) - 2
        assert isinstance(err.value, TransportError)

    @pytest.mark.parametrize("server", ["closed port", "closes without answering"])
    def test_connection_failures_exit_2_with_one_line(self, small_run, tmp_path, capsys, server):
        instances, rows = small_run
        with contextlib.ExitStack() as stack:
            if server == "closed port":
                url = f"http://127.0.0.1:{closed_port()}/v1/chat/completions"
            else:
                url, _ = stack.enter_context(local_server(lambda prompt: None))
            argv = write_run(tmp_path, rows[:3], instances, url, max_retries=0)
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("transport error: 3 of 3 prompts failed")
        assert f"request to {url} failed" in err

    def test_evaluate_does_not_import_requests(self, small_run, tmp_path):
        instances, rows = small_run
        src = str(Path(client.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys; from morphsuite import cli; print(cli.main(sys.argv[1:]), 'requests' in sys.modules)"
        with local_server(lambda prompt: chat("Yes")) as (url, seen):
            argv = write_run(tmp_path, rows[:2], instances, url)
            done = subprocess.run(
                [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
            )
        assert done.stdout.split() == ["0", "False"], done.stderr
        assert len(seen) == 2


# A failure an attempt can end in: (status, Retry-After) or a dropped connection.
FAILURES = st.sampled_from([(503, None), (502, "2"), (429, None), (429, "1"), "drop"])


def policy_wait_ns(retry, failure):
    """The wait before retry number retry (1, 2, ...) after failure."""
    retry_after = 0 if failure == "drop" or failure[1] is None else int(failure[1])
    return round(max(0.25 * 2 ** (retry - 1), retry_after) * 1e9)


class TestScheduler:
    """evaluate_rows over HTTP: one scheduler, a retry waits in the queue."""

    def test_a_backoff_holds_back_its_prompt_not_the_worker(self, small_run):
        _, rows = small_run
        first, second = rows[0]["prompt"], rows[1]["prompt"]
        answers = {first: [(503, None, None), ok_reply("Yes")], second: [ok_reply("No")]}
        sent = []

        def transport(url, payload, headers, timeout):
            prompt = payload["messages"][0]["content"]
            sent.append(prompt)
            return answers[prompt].pop(0)

        clock = FakeClock()
        records = client.evaluate_rows(
            rows[:2], cfg(max_retries=1), transport=transport, sleep=clock.sleep, clock=clock
        )
        assert sent == [first, second, first]
        assert [r.parsed_kind for r in records] == ["yes", "no"]
        assert clock.sleeps == [0.25]

    @settings(max_examples=60, deadline=None)
    @given(
        scripts=st.lists(st.lists(FAILURES, max_size=3), min_size=1, max_size=6),
        parallelism=st.integers(1, 4),
        max_retries=st.integers(0, 2),
    )
    def test_matches_a_sequential_reference(self, small_run, scripts, parallelism, max_retries):
        _, all_rows = small_run
        rows = all_rows[: len(scripts)]
        index = {row["prompt"]: i for i, row in enumerate(rows)}
        left = [list(script) for script in scripts]
        log = [[] for _ in rows]  # per prompt: (sent at, answered at, failure or None)
        clock = FakeClock()

        def transport(url, payload, headers, timeout):
            i = index[payload["messages"][0]["content"]]
            sent = clock.now
            failure = left[i].pop(0) if left[i] else None
            log[i].append((sent, clock.now, failure))
            if failure == "drop":
                raise TransportError("dropped")
            if failure is not None:
                return failure[0], None, failure[1]
            return ok_reply("Yes" if i % 2 else "No")

        c = cfg(parallelism=parallelism, max_retries=max_retries)
        try:
            records, failed = client.evaluate_rows(
                rows, c, transport=transport, sleep=clock.sleep, clock=clock
            ), []
        except IncompleteEvaluation as exc:
            records, failed, error = exc.records, exc.failed, str(exc)

        answered = [i for i, script in enumerate(scripts) if len(script) <= max_retries]
        assert [(r.instance_id, r.option_index, r.raw_response) for r in records] == [
            (rows[i]["instance_id"], rows[i]["option_index"], "Yes" if i % 2 else "No")
            for i in answered
        ]
        assert failed == [
            [row["instance_id"], row["option_index"]]
            for i, row in enumerate(rows) if i not in answered
        ]
        if failed:
            first = next(i for i in range(len(rows)) if i not in answered)
            last = scripts[first][max_retries]
            expected = (
                "rate limited" if last != "drop" and last[0] == 429
                else f"giving up after {max_retries + 1} attempts: "
                + ("dropped" if last == "drop" else f"HTTP {last[0]} from {c.endpoint_url}")
            )
            assert error == (
                f"{len(failed)} of {len(rows)} prompts failed, the first"
                f" (instance {rows[first]['instance_id']}, option {rows[first]['option_index']}):"
                f" {expected}"
            )
        for i, attempts in enumerate(log):
            assert len(attempts) == min(len(scripts[i]), max_retries) + 1
            for retry, ((_, answered_at, failure), (sent_at, _, _)) in enumerate(
                zip(attempts, attempts[1:]), start=1
            ):
                assert sent_at >= answered_at + policy_wait_ns(retry, failure)

    def test_many_workers_lose_no_prompt(self, small_run):
        _, rows = small_run
        tries = {row["prompt"]: 0 for row in rows}
        lock = threading.Lock()

        def transport(url, payload, headers, timeout):
            prompt = payload["messages"][0]["content"]
            with lock:
                tries[prompt] += 1
                n = tries[prompt]
            if n <= len(prompt) % 3:
                return 503, None, None
            return ok_reply("Yes")

        clock = FakeClock()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records = client.evaluate_rows(
                rows, cfg(parallelism=8, max_retries=2), transport=transport,
                sleep=clock.sleep, clock=clock,
            )
        finally:
            sys.setswitchinterval(switch)
        assert [r.instance_id for r in records] == [row["instance_id"] for row in rows]
        assert tries == {row["prompt"]: len(row["prompt"]) % 3 + 1 for row in rows}

    def test_an_auth_error_lets_only_the_requests_in_flight_finish(self, small_run):
        _, rows = small_run
        parallelism = 3
        together = threading.Barrier(parallelism, timeout=30)
        lock = threading.Lock()
        sent = []

        def transport(url, payload, headers, timeout):
            with lock:
                n = len(sent)
                sent.append(payload)
            if n < parallelism:
                together.wait()  # the first requests are in flight at once
            if n == 0:
                return 401, None, None
            time.sleep(0.2)  # answer after the 401 has stopped dispatch
            return ok_reply("Yes")

        threads = threading.active_count()
        with pytest.raises(AuthError):
            client.evaluate_rows(rows, cfg(parallelism=parallelism), transport=transport)
        assert len(sent) == parallelism  # the 401 and parallelism - 1 in flight with it
        assert threading.active_count() == threads

    def test_a_429_retry_after_holds_back_every_worker(self, small_run):
        _, all_rows = small_run
        rows = all_rows[:4]
        limited, in_flight = rows[0]["prompt"], rows[1]["prompt"]
        clock = FakeClock()
        slept = threading.Event()
        sent = []

        def sleep(seconds):
            clock.sleep(seconds)
            slept.set()

        def transport(url, payload, headers, timeout):
            prompt = payload["messages"][0]["content"]
            sent.append((prompt, clock.now))
            if prompt == limited and len(sent) <= 2:
                return 429, None, "1"
            if prompt == in_flight:
                slept.wait(10)  # answer once the 429 has been taken in
            return ok_reply("No")

        records = client.evaluate_rows(
            rows, cfg(parallelism=2), transport=transport, sleep=sleep, clock=clock
        )
        assert len(records) == len(rows)
        assert {prompt for prompt, _ in sent[:2]} == {limited, in_flight}
        assert all(at >= 1e9 for prompt, at in sent[2:])
        assert len(sent) == len(rows) + 1


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
        with pytest.raises(SchemaError, match="unknown mock backend 'mock://bogus'"):
            cfg(endpoint_url="mock://bogus")


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
    instances, _ = suite.build_suite(records, "systematicity", "id", suite.BuildOptions(seed=41))
    catalog = prompts.load_templates()
    rows = prompts.render_suite(instances, catalog, prompts.RenderOptions(shots=1, seed=41))
    return instances, rows


def productivity_rows(per_stratum, strata, seed):
    """Zero-shot productivity prompt rows and their instances, no demo split."""
    records = synth_turkish_records(per_stratum, strata, seed=seed)
    options = suite.BuildOptions(seed=seed, demo_fraction=0)
    instances, _ = suite.build_suite(records, "productivity", "id", options)
    rows = prompts.render_suite(instances, prompts.load_templates(), prompts.RenderOptions(shots=0))
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

    def test_a_mock_answers_in_process_and_leaves_the_cache_alone(self, small_run, tmp_path):
        _, rows = small_run
        c = cfg(endpoint_url="mock://random", seed=3)
        with ResponseCache(tmp_path) as cache:  # a cached answer the mock must not replay
            cache.put(cache.key(c, rows[0]["prompt"]), "not the mock's answer")
        log = (tmp_path / "responses.jsonl").read_bytes()
        runs = []
        for _ in range(2):
            with ResponseCache(tmp_path) as cache:
                runs.append(client.evaluate_rows(rows, c, cache))
        assert (tmp_path / "responses.jsonl").read_bytes() == log
        assert runs[0] == runs[1] == client.evaluate_rows(rows, c)
        assert cache.hits == 0
        assert [r.raw_response for r in runs[0]] == [client.mock_response(row, c) for row in rows]

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
        )
        assert read_config(client.EvalRecord, record.to_row(), None, "record") == record


@pytest.mark.parametrize("language", list(prompts.LABEL_WORDS))
def test_every_label_word_parses_back_to_its_polarity(language):
    """A word a prompt shows as an answer, bare or in an <Answer> tag, is one
    the parser reads, whatever the instruction language."""
    for polarity, word in prompts.LABEL_WORDS[language].items():
        assert client.parse_systematicity(word) == polarity
        assert client.parse_systematicity(f"<Answer>{word}</Answer>") == polarity


@pytest.fixture()
def log_opens(monkeypatch):
    """The names of the files client opens with open(): the cache log's puts."""
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(client, "open", counting_open, raising=False)
    return opened


def test_held_log_ends_a_torn_line_and_opens_once(tmp_path, log_opens):
    log = tmp_path / "responses.jsonl"
    log.write_bytes(b'{"key": "x", "resp')  # killed mid-append
    with ResponseCache(tmp_path) as cache:
        cache.put("a", "bir")
        cache.put("b", "iki")
    assert log_opens == ["responses.jsonl"]
    assert log.read_bytes() == (
        b'{"key": "x", "resp\n{"key": "a", "response": "bir"}\n{"key": "b", "response": "iki"}\n'
    )
    cache.put("c", "üç")  # after close, a put opens the log for its own line
    assert log_opens == ["responses.jsonl"] * 2
    assert ResponseCache(tmp_path).get("c") == "üç"


def test_two_held_logs_on_one_directory_lose_no_line(tmp_path):
    first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
    keys = [first.key(cfg(), f"p{i}") for i in range(1200)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with first, second, concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit((first, second)[i % 2].put, key, key.upper())
                for i, key in enumerate(keys)
            ]
            for future in concurrent.futures.as_completed(futures, timeout=60):
                future.result()
    finally:
        sys.setswitchinterval(switch)
    reopened = ResponseCache(tmp_path)
    assert [reopened.get(key) for key in keys] == [key.upper() for key in keys]
    assert len((tmp_path / "responses.jsonl").read_bytes().splitlines()) == len(keys)


@pytest.fixture()
def prompts_dir(tmp_path, monkeypatch):
    """A working directory holding corpus.jsonl and its 1-shot productivity
    prompts, prompts.jsonl."""
    monkeypatch.chdir(tmp_path)
    records = synth_turkish_records(10, [2], seed=51)
    write_jsonl("corpus.jsonl", (record_to_row(r) for r in records))
    for argv in (
        ["build-suite", "--task", "productivity", "--dist", "id", "--in", "corpus.jsonl",
         "--out", "suite.jsonl"],
        ["render", "--suite", "suite.jsonl", "--shots", "1", "--out", "prompts.jsonl"],
    ):
        assert cli.main(argv) == 0
    return tmp_path


def statuses(first, rest):
    """A transport that gives HTTP status first to the first prompt and rest
    to the others; a 200 answers "ok"."""
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(1)
        status = first if len(calls) == 1 else rest
        return ok_reply("ok") if status == 200 else (status, None, None)

    return transport


@pytest.mark.parametrize("command, first, rest, want", [
    ("evaluate", 200, 200, 0),
    ("evaluate", 200, 401, 2),  # AuthError stops the run
    ("report", 503, 200, 2),  # the cell has a failed prompt
    ("evaluate", None, None, 0),  # the mock endpoint, which opens no log
    ("report", None, None, 0),
])
def test_commands_hold_the_log_and_close_it(prompts_dir, monkeypatch, log_opens, capsys,
                                            command, first, rest, want):
    endpoint = "mock://echo-gold"
    if first is not None:
        endpoint = "http://127.0.0.1:9/v1"  # never reached: the transport answers
        monkeypatch.setattr(client, "_default_transport", statuses(first, rest))
    model = {"endpoint_url": endpoint, "model_name": "m", "max_retries": 0}
    Path("model.json").write_text(json.dumps(model), encoding="utf-8")
    if command == "evaluate":
        argv = ["evaluate", "--prompts", "prompts.jsonl", "--model-config", "model.json",
                "--cache", "cache", "--out", "records.jsonl"]
    else:
        Path("run.json").write_text(json.dumps({
            "language": "turkish", "input": "corpus.jsonl", "out_dir": "run",
            "cache": "cache", "model_config": "model.json", "tasks": ["productivity"],
            "distributions": ["id"], "shots": 1,
        }), encoding="utf-8")
        argv = ["report", "--config", "run.json"]
    # with every warning an error, a file collected unclosed is an
    # unraisable ResourceWarning
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", lambda u: unraisable.append(u.exc_value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
        gc.collect()
    assert (code, unraisable) == (want, [])
    assert log_opens == ([] if first is None else ["responses.jsonl"])
    assert ("transport error" in capsys.readouterr().err) == (want == 2)
