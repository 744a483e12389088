import pytest
from hypothesis import given
from hypothesis import strategies as st

from factory import synth_turkish_records
from morphsuite import client, metrics, prompts, suite
from morphsuite.client import EvalRecord, ModelConfig
from morphsuite.errors import LengthMismatch, OrphanRecord

V, I = "valid", "invalid"


class TestExactMatch:
    def test_basic(self, turkish):
        assert metrics.exact_match("sohbetler", "sohbetler", turkish)
        assert not metrics.exact_match("sohbetyin", "sohbetler", turkish)
        assert not metrics.exact_match(None, "sohbetler", turkish)

    def test_folding_and_nfc(self, turkish):
        assert metrics.exact_match("SOHBETLER", "sohbetler", turkish)
        decomposed = "değer"  # g + combining breve
        assert metrics.exact_match(decomposed, "değer", turkish)

    def test_symmetric(self, turkish):
        assert metrics.exact_match("abc", "ABC", turkish) == metrics.exact_match(
            "ABC", "abc", turkish
        )


class TestSampleMacroF1:
    def test_majority_on_one_pos_four_neg(self):
        preds = [I] * 5
        labels = [V, I, I, I, I]
        assert round(100 * metrics.sample_macro_f1(preds, labels), 2) == 44.44

    def test_majority_on_one_pos_one_neg(self):
        preds = [I, I]
        labels = [V, I]
        assert round(100 * metrics.sample_macro_f1(preds, labels), 2) == 33.33

    def test_perfect(self):
        labels = [V, I, I, I, I]
        assert metrics.sample_macro_f1(labels, labels) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.sample_macro_f1([V], [V, I])

    @given(st.lists(st.sampled_from([V, I]), min_size=2, max_size=8))
    def test_invariant_under_option_reordering(self, labels):
        preds = [I] * len(labels)
        base = metrics.sample_macro_f1(preds, labels)
        assert metrics.sample_macro_f1(preds, list(reversed(labels))) == pytest.approx(base)


class TestCoherence:
    def test_all_or_nothing(self):
        labels = [V, I, I, I, I]
        assert metrics.coherence(labels, labels) == 1
        wrong = [V, I, I, I, V]
        assert metrics.coherence(wrong, labels) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.coherence([V], [V, I])


class TestKappa:
    def test_identical_annotations(self):
        assert metrics.cohens_kappa(["a", "b", "a"], ["a", "b", "a"]) == 1.0

    def test_constant_vs_balanced(self):
        a = ["yes"] * 10
        b = ["yes", "no"] * 5
        assert metrics.cohens_kappa(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_contingency(self):
        # counts: both-yes 20, a-yes/b-no 5, a-no/b-yes 10, both-no 15
        a = ["yes"] * 25 + ["no"] * 25
        b = ["yes"] * 20 + ["no"] * 5 + ["yes"] * 10 + ["no"] * 15
        # po = 0.7, pe = 0.5 -> kappa = 0.4 (derived by hand from the formula)
        assert metrics.cohens_kappa(a, b) == pytest.approx(0.4, abs=1e-9)

    def test_symmetry(self):
        a = ["x", "y", "x", "z", "y"]
        b = ["x", "x", "x", "z", "y"]
        assert metrics.cohens_kappa(a, b) == pytest.approx(metrics.cohens_kappa(b, a))

    def test_degenerate_single_label(self):
        assert metrics.cohens_kappa(["no"] * 4, ["no"] * 4) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metrics.cohens_kappa(["a"], ["a", "b"])
        with pytest.raises(LengthMismatch):
            metrics.cohens_kappa([], [])


def test_round1_half_up():
    assert metrics.round1(44.44) == 44.4
    assert metrics.round1(33.35) == 33.4
    assert metrics.round1(0.05) == 0.1


# ---------------------------------------------------------------------------
# Stratified report
# ---------------------------------------------------------------------------

def run_mock(task, endpoint, strata=(1, 2, 3), n=30, seed=51, k=None):
    records = synth_turkish_records(n, list(strata), seed=seed)
    instances, manifest = suite.build_suite(records, task, "id", suite.BuildOptions(seed=seed, k=k))
    catalog = prompts.load_templates()
    rows = prompts.render_suite(instances, catalog, prompts.RenderOptions(shots=1, seed=seed))
    cfg = ModelConfig(endpoint_url=endpoint, model_name=endpoint, seed=seed)
    eval_records = client.evaluate_rows(rows, cfg)
    return metrics.stratify_report(eval_records, instances, manifest), instances


class TestStratifyReport:
    def test_echo_gold_is_perfect_everywhere(self):
        for task in suite.TASKS:
            report, _ = run_mock(task, "mock://echo-gold")
            for value in report.overall.values():
                assert value == 100.0
            for stratum in report.by_stratum.values():
                for value in stratum.values():
                    assert value == 100.0
            assert report.parse_failure_rate == 0.0

    def test_majority_analytics(self):
        report, _ = run_mock("systematicity", "mock://majority")
        assert metrics.round1(report.overall["coherence"]) == 0.0
        assert metrics.round1(report.by_stratum[1]["macro_f1"]) == 33.3
        assert metrics.round1(report.by_stratum[2]["macro_f1"]) == 33.3
        assert metrics.round1(report.by_stratum[3]["macro_f1"]) == 44.4

    def test_majority_productivity_scores_zero(self):
        report, _ = run_mock("productivity", "mock://majority")
        assert report.overall["exact_match"] == 0.0
        assert report.parse_failure_rate == 1.0

    def test_coherence_bounded_by_option_accuracy(self):
        report, _ = run_mock("systematicity", "mock://random")
        assert report.overall["coherence"] <= report.overall["option_accuracy"] + 1e-9
        for stratum in report.by_stratum.values():
            assert stratum["coherence"] <= stratum["option_accuracy"] + 1e-9

    def test_totals_partition(self):
        report, instances = run_mock("systematicity", "mock://random")
        n_eval = sum(1 for i in instances if i.split == "eval")
        assert report.counts["samples"] == n_eval
        assert sum(report.stratum_counts.values()) == n_eval

    def test_orphan_record(self):
        report_input = EvalRecord(
            instance_id="ghost",
            option_index=None,
            raw_response="x",
            parsed_kind="word",
            parsed_value="x",
            gold="x",
            model_name="m",
        )
        records = synth_turkish_records(10, [2], seed=52)
        instances, _ = suite.build_suite(records, "productivity", "id", suite.BuildOptions(seed=52))
        with pytest.raises(OrphanRecord):
            metrics.stratify_report([report_input], instances)

    @pytest.mark.parametrize("task, option_index", [
        ("systematicity", 99), ("systematicity", -1), ("systematicity", None), ("productivity", 0),
    ])
    def test_record_naming_no_option_is_an_orphan(self, task, option_index):
        records = synth_turkish_records(10, [2], seed=54)
        instances, _ = suite.build_suite(records, task, "id", suite.BuildOptions(seed=54))
        instance = next(i for i in instances if i.split == "eval")
        record = EvalRecord(instance_id=instance.instance_id, option_index=option_index,
                            parsed_kind="no")
        with pytest.raises(OrphanRecord, match=rf"\({instance.instance_id}, {option_index}\)"):
            metrics.stratify_report([record], instances)

    def test_missing_predictions_score_zero(self):
        records = synth_turkish_records(10, [2], seed=53)
        instances, _ = suite.build_suite(records, "productivity", "id", suite.BuildOptions(seed=53))
        report = metrics.stratify_report([], instances)
        assert report.overall["exact_match"] == 0.0
        assert report.missing_predictions == sum(
            1 for i in instances if i.split == "eval"
        )

    def test_report_serializations(self, tmp_path):
        report, _ = run_mock("systematicity", "mock://majority", strata=(1, 3))
        d = report.to_dict()
        assert set(d["by_stratum"]) == {"1", "3"}
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "stratum,n,coherence,macro_f1,option_accuracy"
        assert "overall" in csv_text
        txt = report.to_text()
        assert "parse_failure_rate" in txt
