"""Model evaluation client: chat-completions transport with retry/backoff,
a content-addressed response cache, answer parsing, and the mock backends
used to validate the harness end to end.

Mock endpoints are selected with endpoint_url values of the form
mock://echo-gold, mock://random, mock://majority; the last two are the
paper's random and majority baselines. A mock answers in process, from the
prompt row and the model config's seed alone, and never reads or writes the
response cache, which serves HTTP endpoints only.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import re
import sys
import threading
import time
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from morphsuite import __version__, derive, profiles, prompts
from morphsuite import suite as suite_mod
from morphsuite.errors import (
    AuthError,
    IncompleteEvaluation,
    RateLimited,
    SchemaError,
    TransportError,
)
from morphsuite.jsonl import LONE_SURROGATE, dumps, field_values, read_config, read_json
from morphsuite.rng import make_rng

WORD = "word"
USER_AGENT = f"morphsuite/{__version__}"
MAX_RETRY_AFTER_S = 60.0  # a longer Retry-After is ignored, as openai-python does

_ANSWER_TAG = re.compile(r"<answer>(.*?)</answer>", re.IGNORECASE | re.DOTALL)
_STRIP_CHARS = " \t\"'`“”‘’.,;:!?()[]{}<>«»*_-–—"


@dataclass
class ModelConfig:
    endpoint_url: str
    model_name: str
    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 256
    timeout: float = 60.0
    max_retries: int = 3
    auth_token_env: str | None = None
    seed: int = 0          # consumed by mock backends only
    parallelism: int = 1

    def __post_init__(self):
        if self.is_mock and self.endpoint_url not in MOCK_BACKENDS:
            raise SchemaError(f"unknown mock backend {self.endpoint_url!r}")
        if not 0 <= self.temperature < math.inf:  # NaN fails too
            raise SchemaError("temperature must be >= 0 and finite")
        if not 0 < self.top_p <= 1:
            raise SchemaError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise SchemaError("max_tokens must be >= 1")
        if not 0 < self.timeout < math.inf:
            raise SchemaError("timeout must be > 0 and finite")
        if self.max_retries < 0:
            raise SchemaError("max_retries must be >= 0")
        if self.parallelism < 1:
            raise SchemaError("parallelism must be >= 1")

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        return read_config(cls, read_json(path), path, "model config")

    @property
    def is_mock(self) -> bool:
        return self.endpoint_url.startswith("mock://")

    def cache_key_material(self, prompt: str) -> dict:
        return {
            "endpoint": self.endpoint_url,
            "model": self.model_name,
            "temperature": self.temperature,
            "top_p": self.top_p,
            "max_tokens": self.max_tokens,
            "prompt": prompt,
        }


@dataclass
class Completion:
    text: str
    cached: bool


class ResponseCache:
    """Append-only log of {"key": ..., "response": ...} JSON lines in
    <directory>/responses.jsonl, read at the first get or put (so a run that
    asks nothing of the cache neither creates the directory nor reads the
    log); a repeated key keeps its last response. get and put take the
    digest that key() computes from (endpoint, model, temperature, top_p,
    max_tokens, prompt), so any parameter change misses.

    Each put appends its line with one write(2) to the log opened with
    O_APPEND. Used as a context manager, the cache opens the log at the
    first put and holds it until the block ends (close()); otherwise each
    put opens and closes the log itself.
    """

    def __init__(self, directory):
        self.path = Path(directory) / "responses.jsonl"
        self._lock = threading.Lock()
        self._hold = False  # inside a with block
        self._log = None  # the held log, from the first put in the block
        self._responses = None  # read from the log by the first get or put
        self._separator = b""
        self.hits = 0  # gets that found a response, all on _complete_all's calling thread

    def _entries(self) -> dict:
        """The responses of the log, read at the first call under _lock:
        _complete_all calls get and put from worker threads."""
        if self._responses is not None:
            return self._responses
        with self._lock:
            if self._responses is not None:
                return self._responses
            self.path.parent.mkdir(parents=True, exist_ok=True)
            data = self.path.read_bytes() if self.path.exists() else b""
            # a run killed mid-append leaves a torn last line: end it before appending
            self._separator = b"\n" if data and not data.endswith(b"\n") else b""
            responses = {}
            skipped = 0
            for line in filter(None, data.split(b"\n")):
                try:
                    entry = json.loads(line)
                    key, response = entry["key"], entry["response"]
                except (ValueError, KeyError, TypeError):
                    key = response = None
                # a response with a lone surrogate could not be written to a records file
                if (isinstance(key, str) and isinstance(response, str)
                        and not LONE_SURROGATE.search(response)):
                    responses[key] = response
                else:
                    skipped += 1
            if skipped:
                print(f"warning: {self.path}: {skipped} unreadable cache lines skipped",
                      file=sys.stderr)
            self._responses = responses
            return responses

    def key(self, cfg: ModelConfig, prompt: str) -> str:
        material = dumps(cfg.cache_key_material(prompt))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def get(self, key: str) -> str | None:
        response = self._entries().get(key)
        self.hits += response is not None
        return response

    def put(self, key: str, response: str) -> None:
        entry = json.dumps({"key": key, "response": response}).encode("ascii") + b"\n"
        responses = self._entries()
        with self._lock:  # _complete_all puts from worker threads
            line = self._separator + entry
            log = self._log or open(self.path, "ab", buffering=0)  # one write(2) with O_APPEND
            try:
                self._separator = b"" if log.write(line) == len(line) else b"\n"
            finally:
                if self._hold:
                    self._log = log
                else:
                    log.close()
            responses[key] = response

    def close(self) -> None:
        """Close the held log, if any; a later put opens the log for its own line."""
        with self._lock:
            self._hold = False
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self) -> ResponseCache:
        self._hold = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


MAX_BODY_BYTES = 8 * 2**20  # a longer response body fails its attempt

_worker = threading.local()  # .connections of the _complete_all worker on this thread


class _Connections:
    """One thread's kept-alive HTTP connections, one per origin (RFC 9112
    §9.3), each used for one request at a time."""

    def __init__(self):
        self._open = {}  # (scheme, netloc) -> (connection, proxy headers or None)

    def close(self) -> None:
        for connection, _ in self._open.values():
            connection.close()
        self._open.clear()

    def _connection(self, scheme, netloc, timeout):
        """The connection kept for an origin, made at its first request, and
        the headers a request on it adds when it goes through an HTTP proxy
        (None when it names its target in origin form). Proxies come from
        urllib.request.getproxies() and proxy_bypass, as urllib's
        ProxyHandler takes them: an HTTPS request goes through a CONNECT
        tunnel, a plain one names its target in absolute form, and userinfo
        in the proxy URL is sent as Proxy-Authorization."""
        import base64
        import http.client
        import urllib.parse
        import urllib.request

        kept = self._open.get((scheme, netloc))
        if kept is not None:
            return kept
        host = netloc.rpartition("@")[2]
        if scheme not in ("http", "https") or not host:
            raise ValueError(f"unsupported URL {scheme}://{netloc}")
        proxy = urllib.request.getproxies().get(scheme)
        if proxy and urllib.request.proxy_bypass(host):
            proxy = None
        address, proxy_headers = host, None
        if proxy:
            parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"//{proxy}")
            address = urllib.parse.unquote(parts.netloc.rpartition("@")[2])
            proxy_headers = {}
            if parts.username and parts.password:
                userinfo = urllib.parse.unquote(f"{parts.username}:{parts.password}")
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(userinfo.encode()).decode("ascii"))
        if scheme == "https" or (proxy and parts.scheme == "https"):
            connection = http.client.HTTPSConnection(address, timeout=timeout)
        else:
            connection = http.client.HTTPConnection(address, timeout=timeout)
        if scheme == "https" and proxy:
            connection.set_tunnel(host, headers=proxy_headers)
            proxy_headers = None
        self._open[scheme, netloc] = connection, proxy_headers
        return connection, proxy_headers

    def post(self, url, payload, headers, timeout):
        """_default_transport on this thread's connection to url's origin."""
        import http.client
        import urllib.parse

        try:
            parts = urllib.parse.urlsplit(url)
            connection, proxy_headers = self._connection(parts.scheme, parts.netloc, timeout)
        except (ValueError, http.client.HTTPException) as exc:
            raise TransportError(f"request to {url} failed: {exc}") from exc
        if proxy_headers is None:
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        else:
            target = url.partition("#")[0]
        body = json.dumps(payload).encode()
        headers = {**headers, **(proxy_headers or {}), "User-Agent": USER_AGENT}
        try:
            reused = connection.sock is not None
            try:
                response = _send(connection, target, body, headers)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is one
                if not reused:
                    raise
                # the server closed the kept connection before it read the
                # request (RFC 9112 §9.3.1): send it once more on a new one
                connection.close()
                response = _send(connection, target, body, headers)
            with response:
                status, retry_after = response.status, response.headers.get("Retry-After")
                data = response.read(MAX_BODY_BYTES + 1)
                if len(data) > MAX_BODY_BYTES:
                    raise http.client.HTTPException(
                        f"response body over {MAX_BODY_BYTES >> 20} MiB")
                if response.length:  # closed before Content-Length bytes came
                    raise http.client.IncompleteRead(data, response.length)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            connection.close()  # a half-sent request or half-read answer is never reused
            raise TransportError(f"request to {url} failed: {exc}") from exc
        try:
            body = json.loads(data)
        except ValueError:
            body = None
        return status, body, retry_after


def _send(connection, target, body, headers):
    """POST body on connection and return the response, its headers read.
    http.client's connect sets TCP_NODELAY, so the body, sent after the
    headers, goes out at once; TCP_QUICKACK, which Linux clears as it goes,
    is set again for each request, so the answer's first segment is
    acknowledged at once and a server that sends its headers and body in
    two writes under Nagle's algorithm does not wait for a delayed ACK."""
    import socket

    connection.request("POST", target, body, headers)
    if hasattr(socket, "TCP_QUICKACK"):
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
    return connection.getresponse()


def _default_transport(url, payload, headers, timeout):
    """POST JSON and return (status_code, parsed_body_or_none, retry_after).
    A _complete_all worker sends every request on its own kept-alive
    connection to the origin; a call from elsewhere opens a connection for
    itself and closes it. A non-2xx answer is returned, not raised; a
    failure to get a whole answer, or a body over MAX_BODY_BYTES, raises
    TransportError. No redirect is followed."""
    connections = getattr(_worker, "connections", None)
    if connections is not None:
        return connections.post(url, payload, headers, timeout)
    connections = _Connections()
    try:
        return connections.post(url, payload, headers, timeout)
    finally:
        connections.close()


def _retry_after_seconds(value) -> float:
    """The wait a Retry-After header asks for, in seconds: 0, which leaves
    the backoff alone, unless it is a number in [0, MAX_RETRY_AFTER_S]. An
    absent header, an HTTP date, inf, NaN or 1e9 asks for nothing."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return 0.0
    return seconds if 0 <= seconds <= MAX_RETRY_AFTER_S else 0.0


def _retry_wait(attempt: int, retry_after: float) -> float:
    """Seconds before retry number attempt (1, 2, ...): 0.25 s doubling up
    to 8 s, or the Retry-After of the answer before it, if longer."""
    return max(min(0.25 * 2 ** (attempt - 1), 8.0), retry_after)


def _attempt(prompt: str, cfg: ModelConfig, headers: dict, transport):
    """Send prompt once. Returns (Completion or the error it ended in,
    retry_after): retry_after is None unless the error is worth retrying (no
    answer, a 429 or a 5xx), when it is this answer's Retry-After in
    seconds. 401 and 403 raise AuthError."""
    payload = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "top_p": cfg.top_p,
        "max_tokens": cfg.max_tokens,
    }
    try:
        status, body, retry_after = transport(cfg.endpoint_url, payload, headers, cfg.timeout)
    except TransportError as exc:
        return exc, 0.0
    if status in (401, 403):
        raise AuthError(f"endpoint rejected credentials (HTTP {status})")
    if status == 429:
        return RateLimited("rate limited", retry_after=retry_after), _retry_after_seconds(retry_after)
    if status >= 300:  # no redirect is followed
        error = TransportError(f"HTTP {status} from {cfg.endpoint_url}")
        return error, _retry_after_seconds(retry_after) if status >= 500 else None
    try:
        content = body["choices"][0]["message"]["content"]
        if content is None:  # a refusal: an empty answer, which fails to parse
            content = ""
        # a lone surrogate (from a \ud800 escape) could not be written to the records
        if isinstance(content, str) and not LONE_SURROGATE.search(content):
            return Completion(content, cached=False), None
    except (KeyError, IndexError, TypeError):
        pass
    return TransportError(f"malformed chat-completions response: {body!r}"), None


def _complete_all(prompts, cfg, cache=None, transport=None, sleep=None, clock=time.monotonic_ns):
    """A Completion, or the TransportError or RateLimited it ended in, for
    each prompt, in order. Prompts that miss the cache wait in a heap keyed
    by the time before which they may not be sent. cfg.parallelism workers,
    the calling thread and at most parallelism - 1 more, each take the
    earliest due prompt and make one attempt. A failure worth retrying puts
    its prompt back at now + _retry_wait(...): a backoff holds back its
    prompt, not a worker, while a 429's positive Retry-After holds back
    every worker. An exception in any worker (AuthError, or
    KeyboardInterrupt in the caller) stops dispatch: requests in flight
    finish, no new one starts, and the exception is raised. Tests pass
    sleep(seconds), taken to have slept its time, and clock() in ns."""
    results = [None] * len(prompts)
    keys = [None] * len(prompts)
    heap = []  # (not before, prompt index, attempts made), built sorted
    for index, prompt in enumerate(prompts):
        if cache is not None:
            keys[index] = cache.key(cfg, prompt)
            hit = cache.get(keys[index])
            if hit is not None:
                results[index] = Completion(hit, cached=True)
                continue
        heap.append((0, index, 0))
    if not heap:
        return results
    transport = transport or _default_transport
    headers = {"Content-Type": "application/json"}
    if cfg.auth_token_env:
        token = os.environ.get(cfg.auth_token_env)
        if not token:
            raise AuthError(f"environment variable {cfg.auth_token_env} is not set")
        headers["Authorization"] = f"Bearer {token}"
    cond = threading.Condition()
    now = resume_at = clock()  # now never goes back, so a wait that timed out has passed
    busy = 0  # prompts in flight
    stop = None  # the exception that stopped dispatch

    def work():
        nonlocal now, resume_at, busy, stop
        index = None
        _worker.connections = _Connections()  # _default_transport's, closed as work ends
        try:
            while True:
                with cond:
                    now = max(now, clock())
                    if index is not None:
                        busy -= 1
                        if isinstance(outcome, RateLimited) and retry_after > 0:
                            resume_at = max(resume_at, now + round(retry_after * 1e9))
                        if retry_after is not None and attempts <= cfg.max_retries:
                            until = now + round(_retry_wait(attempts, retry_after) * 1e9)
                            heapq.heappush(heap, (until, index, attempts))
                        else:
                            results[index] = outcome
                        cond.notify_all()
                    while True:
                        if stop is not None or not (heap or busy):
                            return
                        if not heap:
                            cond.wait()
                        elif (due := max(heap[0][0], resume_at)) <= now:
                            break
                        elif not (sleep or cond.wait)((due - now) / 1e9):
                            now = due
                        now = max(now, clock())
                    _, index, attempts = heapq.heappop(heap)
                    busy += 1
                outcome, retry_after = _attempt(prompts[index], cfg, headers, transport)
                attempts += 1
                if isinstance(outcome, Completion) and cache is not None:
                    cache.put(keys[index], outcome.text)
                elif retry_after is not None and attempts > cfg.max_retries:
                    if not isinstance(outcome, RateLimited):
                        outcome = TransportError(f"giving up after {attempts} attempts: {outcome}")
        except BaseException as exc:  # raised in the calling thread once all workers are done
            with cond:
                stop = exc if stop is None else stop
                cond.notify_all()
        finally:
            _worker.connections.close()
            del _worker.connections

    threads = [threading.Thread(target=work) for _ in range(min(cfg.parallelism, len(heap)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if stop is not None:
        raise stop
    return results


def complete(
    prompt: str,
    cfg: ModelConfig,
    cache: ResponseCache | None = None,
    transport=None,
    sleep=None,
) -> Completion:
    """Return the raw completion for a prompt, served from cache when the
    (endpoint, model, params, prompt) digest hits; retries as _complete_all
    does, up to cfg.max_retries."""
    [result] = _complete_all([prompt], cfg, cache, transport, sleep)
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# Answer parsing
# ---------------------------------------------------------------------------

# The polarity of each answer word of prompts.LABEL_WORDS, casefolded: any
# instruction language's word parses, whatever language the prompt was in.
_POLARITY = {
    word.casefold(): polarity
    for words in prompts.LABEL_WORDS.values()
    for polarity, word in words.items()
}

# The parse rules, recorded in evaluate manifests so reported scores stay auditable.
NORMALIZATION_NOTE = {
    "productivity": "last <Answer> tag else last nonempty line; text after last "
    "colon; surrounding quotes/punctuation stripped; NFC; profile case fold",
    "systematicity": "last <Answer> tag else last nonempty line; accepted tokens "
    f"{'/'.join(_POLARITY)} (case-insensitive); anything else is a parse "
    "failure and scores as wrong",
}

def _extract_answer(raw_text: str | None) -> str | None:
    """The answer span of a raw response, NFC-normalized; None when empty.

    Rules: prefer the last <Answer> tag if present, else the last nonempty
    line; drop any label before the last colon; strip surrounding quotes and
    punctuation.
    """
    if raw_text is None:
        return None
    tags = _ANSWER_TAG.findall(raw_text)
    if tags:
        candidate = tags[-1]
    else:
        lines = [line for line in raw_text.splitlines() if line.strip()]
        if not lines:
            return None
        candidate = lines[-1]
    candidate = candidate.rsplit(":", 1)[-1].strip(_STRIP_CHARS)
    return unicodedata.normalize("NFC", candidate) or None


def parse_productivity(raw_text: str, profile: profiles.LanguageProfile) -> str | None:
    """Extract the generated word, case-folded via the profile; None means
    parse failure (scores wrong)."""
    candidate = _extract_answer(raw_text)
    if candidate is None:
        return None
    return profiles.case_fold(candidate, profile) or None


def parse_systematicity(raw_text: str) -> str | None:
    """Map a yes/no style answer to polarity; None means parse failure.

    Accepted tokens, whatever the instruction language: the words of
    prompts.LABEL_WORDS, case-insensitive.
    """
    return _POLARITY.get((_extract_answer(raw_text) or "").casefold())


# ---------------------------------------------------------------------------
# Mock backends
# ---------------------------------------------------------------------------

def _mock_random(row: dict, cfg: ModelConfig) -> str:
    """A fair coin per systematicity option, and a uniformly random
    per-block ordering on productivity, drawn from (cfg.seed, prompt)."""
    rng = make_rng(cfg.seed, row["prompt"])
    if row["task"] == suite_mod.PRODUCTIVITY:
        prefixes = list(row.get("prefix_forms", []))
        suffixes = list(row.get("suffix_forms", []))
        rng.shuffle(prefixes)
        rng.shuffle(suffixes)
        return derive.compose_forms(row["shown_root"], prefixes, suffixes)
    return rng.choice(["Yes", "No"])


# The mock backends by endpoint_url. echo-gold answers the reference answer;
# majority is the always-no baseline: "No" on systematicity and an empty
# answer (a parse failure) on productivity.
MOCK_BACKENDS = {
    "mock://echo-gold": lambda row, cfg: row["gold_answer"],
    "mock://majority": lambda row, cfg: "" if row["task"] == suite_mod.PRODUCTIVITY else "No",
    "mock://random": _mock_random,
}


def mock_response(row: dict, cfg: ModelConfig) -> str:
    """The answer of cfg's mock backend (MOCK_BACKENDS) to a prompt row: a
    deterministic stand-in for a model, driven by the row and cfg.seed."""
    return MOCK_BACKENDS[cfg.endpoint_url](row, cfg)


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class EvalRecord:
    """One model (or baseline) answer joined to its prompt metadata."""

    instance_id: str
    option_index: int | None = None
    raw_response: str = ""
    parsed_kind: Literal[WORD, suite_mod.YES, suite_mod.NO, suite_mod.PARSE_FAILURE]
    parsed_value: str | None = None
    gold: str = ""
    model_name: str = ""

    def to_row(self) -> dict:
        return field_values(self)


def parse_row_response(row: dict, raw_text: str) -> tuple[str, str | None]:
    """Parse one raw response according to the prompt row's task."""
    if row["task"] == suite_mod.PRODUCTIVITY:
        profile = profiles.load_profile(row["language_id"])
        word = parse_productivity(raw_text, profile)
        return (WORD, word) if word is not None else (suite_mod.PARSE_FAILURE, None)
    polarity = parse_systematicity(raw_text)
    return (polarity, polarity) if polarity is not None else (suite_mod.PARSE_FAILURE, None)


def evaluate_rows(
    rows,
    cfg: ModelConfig,
    cache: ResponseCache | None = None,
    transport=None,
    sleep=None,
    clock=time.monotonic_ns,
) -> list[EvalRecord]:
    """Answer every prompt row and parse the responses.

    A mock endpoint answers each row in process and leaves cache alone. HTTP
    requests go through _complete_all with cfg.parallelism workers;
    records keep row order, whatever order the answers come in. A prompt
    that ends in TransportError or RateLimited does not stop the others:
    once all are answered, IncompleteEvaluation carries the records of the
    answered ones and the keys of the failed ones. AuthError stops the run
    at once. sleep and clock are for tests, as in _complete_all.
    """
    rows = list(rows)
    if cfg.is_mock:
        completions = [Completion(mock_response(row, cfg), cached=False) for row in rows]
    else:
        prompts = [row["prompt"] for row in rows]
        completions = _complete_all(prompts, cfg, cache, transport, sleep, clock)

    records = []
    failed = []  # [instance_id, option_index] of each failed prompt
    first_error = None
    for row, completion in zip(rows, completions):
        if not isinstance(completion, Completion):
            failed.append([row["instance_id"], row.get("option_index")])
            first_error = first_error or completion
            continue
        kind, value = parse_row_response(row, completion.text)
        records.append(
            EvalRecord(
                instance_id=row["instance_id"],
                option_index=row.get("option_index"),
                raw_response=completion.text,
                parsed_kind=kind,
                parsed_value=value,
                gold=row.get("gold_answer", ""),
                model_name=cfg.model_name,
            )
        )
    if failed:
        raise IncompleteEvaluation(
            f"{len(failed)} of {len(rows)} prompts failed, the first"
            f" (instance {failed[0][0]}, option {failed[0][1]}): {first_error}",
            records,
            failed,
        )
    return records
