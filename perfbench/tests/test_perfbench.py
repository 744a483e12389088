"""Self-tests of the benchmark: seeded inputs, the brute-force oracle, the
stub's injected-status schedule, the host-speed sampler and the tracer.

    python3 -m pytest -q perfbench/tests
"""
import json
import random
import signal
import time
import urllib.error
import urllib.request

import pytest

import hostspeed
import oracle
import run
import tracer as tracing
import workloads
from morphsuite import derive
from morphsuite.derive import Affix, SegmentedWord
from stub import StubProcess, injected_status

INPUT_FILES = {
    "sys_deep": ["input.jsonl"],
    "report_wide": ["input.jsonl"],
    "http_eval": ["input.jsonl", "suite.jsonl", "prompts.jsonl", "answers.json"],
}


def _inputs(tmp_path, name, seed, tag):
    workload = workloads.WORKLOADS[name](tmp_path / f"{tag}-{seed}", seed)
    workload.prepare()
    return {f: (workload.work / f).read_bytes() for f in INPUT_FILES[name]}


@pytest.mark.parametrize("name", sorted(INPUT_FILES))
def test_seed_fixes_inputs(tmp_path, name):
    first = _inputs(tmp_path, name, 3, "a")
    assert first == _inputs(tmp_path, name, 3, "b")
    other = _inputs(tmp_path, name, 4, "c")
    assert all(first[f] != other[f] for f in first)


def _random_word(rng):
    """Small alphabets and short forms, so that distance ties are common."""
    forms = ["a", "b", "ab", "ba", "aa", "bb", "aba", "c"]
    n = rng.randint(2, 5)
    n_prefix = rng.randint(0, min(2, n - 1))
    affixes = [Affix(rng.choice(forms), derive.PREFIX, i) for i in range(n_prefix)]
    affixes += [Affix(rng.choice(forms), derive.SUFFIX, i) for i in range(n - n_prefix)]
    root = "".join(rng.choice("abc") for _ in range(rng.randint(1, 3)))
    word = SegmentedWord(
        record_id="w", language_id="turkish", root=root, affixes=affixes,
        gold_surface=derive.compose(root, affixes),
    )
    alternatives = [s for s in oracle.orderings(root, word.prefix_forms, word.suffix_forms)
                    if s != word.gold_surface]
    if alternatives and rng.random() < 0.3:
        word.known_valid_alternatives = {rng.choice(alternatives)}
    return word


def test_oracle_matches_select_negatives_with_ties():
    rng = random.Random(0)
    ties = 0
    for _ in range(400):
        word = _random_word(rng)
        k = rng.choice([1, 2, 4])
        got = derive.select_negatives(word, derive.LANG_AGNOSTIC, k)
        want = oracle.top_k_negatives(
            word.root, word.prefix_forms, word.suffix_forms, k, word.known_valid_alternatives
        )
        assert sorted(c.surface for c in got) == sorted(want)
        gold = word.gold_surface
        distances = sorted(
            oracle.edit_distance(s, gold)
            for s in oracle.orderings(word.root, word.prefix_forms, word.suffix_forms)
            if s != gold and s not in word.known_valid_alternatives
        )
        ties += len(distances) > k and distances[k - 1] == distances[k]
    assert ties > 50  # the cut at k fell inside a tie band often enough to test the tie-break


def test_edit_distance_basics():
    assert oracle.edit_distance("kitten", "sitting") == 3
    assert oracle.edit_distance("", "abc") == 3
    assert oracle.edit_distance("değer", "değer") == 0


def test_injected_schedule_is_fixed():
    schedule = [injected_status(n) for n in range(1, 401)]
    assert schedule == [injected_status(n) for n in range(1, 401)]
    assert [n for n, s in enumerate(schedule, 1) if s == 429] == [50, 150, 250, 350]
    assert [n for n, s in enumerate(schedule, 1) if s == 503] == [200, 400]


def _post(url, prompt):
    body = json.dumps({"messages": [{"role": "user", "content": prompt}]}).encode()
    request = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read())["choices"][0]["message"]["content"]
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Retry-After")


def test_stub_follows_schedule(tmp_path):
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps({"p": "Yes"}))
    stub = StubProcess(answers)
    try:
        for n_requests in (200, 60):  # the schedule restarts after a reset
            stub.reset()
            seen = [_post(stub.chat_url, "p") for _ in range(n_requests)]
            assert [s for s, _ in seen] == [injected_status(n) or 200 for n in range(1, n_requests + 1)]
            assert seen[49] == (429, "0")
            assert seen[0] == (200, "Yes")
            stats = stub.stats()
            assert stats["requests"] == n_requests
            assert stats["status_429"] == (n_requests + 50) // 100
            assert stats["status_5xx"] == n_requests // 200
            assert stats["connections"] == n_requests  # urllib opens one connection per request
    finally:
        stub.stop()
    assert stub.proc.returncode is not None


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    monkeypatch.delattr(derive, "candidate_pool")
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        assert tracer.absent == ["derive.candidate_pool"]
        word = SegmentedWord("w", "turkish", "ev", [Affix("ler"), Affix("de", gold_index=1)], "evlerde")
        derive.select_negatives(word, derive.LANG_AGNOSTIC, 1, candidates=[])
    finally:
        tracing.uninstall(installed)
    assert [s[2] for s in tracer.spans] == ["derive.select_negatives"]
    assert tracer.counts["derive.negatives"] == 0
    assert not hasattr(derive.select_negatives, "__wrapped__")


def test_every_layer_metric_has_a_source():
    assert set(run.load_spec()["per_layer"]) == set(run.LAYER_SOURCES)


def test_speed_sampler_samples_and_restores_the_timer():
    with hostspeed.SpeedSampler() as speed:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(speed.samples) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert hostspeed.kernel([0] * 23, [0] * 23) == 6


def test_normalize_rescales_cpu_time_only():
    speed = hostspeed.SpeedSampler()
    kernel_s = 2 * hostspeed.NOMINAL_S  # the host ran at half the reference speed
    speed.samples = [(kernel_s, kernel_s)] * 2
    assert speed.factor() == pytest.approx(0.5)
    busy = 2 * kernel_s
    # 6 s on the CPU count as 3 s at the reference speed; 4 s of waiting stay.
    assert speed.normalize(10 + busy, 6 + busy) == pytest.approx(7.0)
    # Threads on the CPU at once: CPU time beyond the wall time counts once.
    assert speed.normalize(2 + busy, 5 + busy) == pytest.approx(1.0)
