"""Chat-completions stub for the http_eval workload, plus its process handle.

Run as a script, it serves POST /v1/chat/completions on 127.0.0.1 with HTTP/1.1
keep-alive, answers each prompt with the answer the benchmark mapped to it,
sleeps a fixed delay before every response, and forces 429 (Retry-After: 0)
and 503 responses on a fixed schedule of the request count. GET /stats
returns its counters and POST /reset zeroes them, so each pass sees the same
schedule. It prints "ready <port>" once listening and exits when its stdin
closes, which also happens when the benchmark dies.

    python3 perfbench/stub.py --answers answers.json
"""
import argparse
import json
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

CHAT_PATH = "/v1/chat/completions"
DELAY_S = 0.010  # slept before every response


def injected_status(n):
    """The status forced on the n-th chat request of a pass (1-based), or None.

    One 429 in every 100 requests and one 503 in every 200.
    """
    if n % 100 == 50:
        return 429
    if n % 200 == 0:
        return 503
    return None


class StubState:
    """Answers and counters shared by the handler threads."""

    def __init__(self, answers):
        self.answers = answers
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        with self.lock:
            self.requests = 0
            self.connections = 0
            self.retries = 0
            self.status_429 = 0
            self.status_5xx = 0
            self.unknown_prompts = 0
            self._seen = set()

    def stats(self):
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "retries": self.retries,
                "status_429": self.status_429,
                "status_5xx": self.status_5xx,
                "unknown_prompts": self.unknown_prompts,
            }

    def admit(self, prompt, new_connection):
        """Count one chat request and return the status to answer it with."""
        with self.lock:
            self.requests += 1
            if new_connection:
                self.connections += 1
            if prompt in self._seen:
                self.retries += 1
            self._seen.add(prompt)
            status = injected_status(self.requests)
            if status is None and prompt not in self.answers:
                self.unknown_prompts += 1
                status = 404
            if status == 429:
                self.status_429 += 1
            elif status is not None and status >= 500:
                self.status_5xx += 1
            return status or 200


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.counted = False

    def log_message(self, *args):
        pass

    def _send_json(self, status, obj, headers=()):
        body = json.dumps(obj, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/stats":
            self._send_json(200, self.server.state.stats())
        else:
            self._send_json(404, {"error": "not found"})

    def do_POST(self):
        state = self.server.state
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            state.reset()
            self._send_json(200, {})
            return
        if self.path != CHAT_PATH:
            self._send_json(404, {"error": "not found"})
            return
        try:
            prompt = json.loads(body)["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            self._send_json(400, {"error": "bad request"})
            return
        status = state.admit(prompt, not self.counted)
        self.counted = True
        time.sleep(DELAY_S)
        if status == 200:
            answer = state.answers[prompt]
            self._send_json(200, {"choices": [{"message": {"role": "assistant", "content": answer}}]})
        elif status == 429:
            self._send_json(429, {"error": "rate limited"}, [("Retry-After", "0")])
        else:
            self._send_json(status, {"error": f"injected {status}"})


def serve(answers_path):
    answers = json.loads(Path(answers_path).read_text(encoding="utf-8"))
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.state = StubState(answers)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"ready {server.server_port}", flush=True)
    try:
        sys.stdin.read()  # returns at EOF: the benchmark closed the pipe or died
    finally:
        server.shutdown()
        server.server_close()


class StubProcess:
    """Starts the stub in a child process and talks to its control endpoints."""

    def __init__(self, answers_path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--answers", str(answers_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("ready "):
            self.stop()
            raise RuntimeError(f"stub failed to start: {line!r}")
        self.port = int(line.split()[1])
        self.base = f"http://127.0.0.1:{self.port}"
        self.chat_url = self.base + CHAT_PATH

    def _call(self, path, data=None):
        request = urllib.request.Request(self.base + path, data=data, method="POST" if data is not None else "GET")
        with urllib.request.urlopen(request, timeout=10) as resp:
            return json.loads(resp.read())

    def stats(self):
        return self._call("/stats")

    def reset(self):
        self._call("/reset", data=b"{}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--answers", required=True, help="JSON object mapping prompt to answer")
    args = parser.parse_args()
    serve(args.answers)


if __name__ == "__main__":
    main()
