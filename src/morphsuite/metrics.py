"""Scoring: exact match, per-sample macro-F1, coherence, Cohen's kappa, and
the stratified report.

Per-sample macro-F1 averages the F1 of the valid class and the invalid
class inside one sample; an undefined class F1 (no predicted and no actual
members) counts as 0, which is what makes the always-no baseline land on
33.3 (1 valid + 1 invalid) and 44.4 (1 valid + 4 invalid). Coherence is
all-or-nothing per sample. Parse failures count as incorrect predictions,
never excluded.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from math import fsum

from morphsuite import profiles
from morphsuite import suite as suite_mod
from morphsuite.errors import DuplicateRecord, LengthMismatch, OrphanRecord, SchemaError
from morphsuite.jsonl import field_values

_LABEL_OF_POLARITY = {polarity: label for label, polarity in suite_mod.LABEL_POLARITY.items()}


def exact_match(pred: str | None, gold: str, profile: profiles.LanguageProfile) -> bool:
    """Equality after profiles.case_fold, which NFC-normalizes first; None
    (parse failure) is wrong."""
    if pred is None:
        return False
    return profiles.case_fold(pred, profile) == profiles.case_fold(gold, profile)


def _f1(preds, labels, cls) -> float:
    tp = sum(1 for p, l in zip(preds, labels) if p == cls and l == cls)
    fp = sum(1 for p, l in zip(preds, labels) if p == cls and l != cls)
    fn = sum(1 for p, l in zip(preds, labels) if p != cls and l == cls)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def sample_macro_f1(preds, labels) -> float:
    """Mean of valid-class and invalid-class F1 within one sample, in [0, 1]."""
    if len(preds) != len(labels):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(labels)} labels")
    return (_f1(preds, labels, suite_mod.VALID) + _f1(preds, labels, suite_mod.INVALID)) / 2


def coherence(preds, labels) -> int:
    """1 iff every option of the sample is classified correctly, else 0."""
    if len(preds) != len(labels):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(labels)} labels")
    return int(all(p == l for p, l in zip(preds, labels)))


def cohens_kappa(ann_a, ann_b) -> float:
    """Chance-corrected agreement; degenerate one-label full agreement is 1."""
    if len(ann_a) != len(ann_b):
        raise LengthMismatch(f"{len(ann_a)} vs {len(ann_b)} annotations")
    if not ann_a:
        raise LengthMismatch("empty annotation lists")
    n = len(ann_a)
    observed = sum(1 for a, b in zip(ann_a, ann_b) if a == b) / n
    labels = set(ann_a) | set(ann_b)
    expected = fsum(
        (sum(1 for a in ann_a if a == lab) / n) * (sum(1 for b in ann_b if b == lab) / n)
        for lab in labels
    )
    if expected == 1.0:
        return 1.0 if observed == 1.0 else 0.0
    return (observed - expected) / (1 - expected)


def round1(value: float) -> float:
    """Round to one decimal, half up, as scores are reported."""
    return float(Decimal(str(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


# ---------------------------------------------------------------------------
# Stratified report
# ---------------------------------------------------------------------------

@dataclass
class ScoreReport:
    task: str
    overall: dict[str, float]
    by_stratum: dict[int, dict[str, float]]
    counts: dict[str, int]
    stratum_counts: dict[int, int]
    parse_failure_rate: float
    missing_predictions: int
    manifest: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields, each strata dict keyed by str(n); write_json sorts the keys."""
        return field_values(self) | {
            "by_stratum": {str(n): values for n, values in self.by_stratum.items()},
            "stratum_counts": {str(n): c for n, c in self.stratum_counts.items()},
        }

    def metric_names(self) -> list[str]:
        return sorted(self.overall)

    def _rows(self):
        """(stratum or "overall", sample count, rounded metric values) per row."""
        names = self.metric_names()
        for stratum in sorted(self.by_stratum):
            values = self.by_stratum[stratum]
            yield stratum, self.stratum_counts[stratum], [round1(values[m]) for m in names]
        yield "overall", self.counts["samples"], [round1(self.overall[m]) for m in names]

    def to_csv(self) -> str:
        lines = ["stratum,n," + ",".join(self.metric_names())]
        for label, n, values in self._rows():
            lines.append(",".join([str(label), str(n)] + [f"{v:.1f}" for v in values]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        names = self.metric_names()
        lines = [f"{'stratum':>8} {'n':>6} " + " ".join(f"{m:>16}" for m in names)]
        for label, n, values in self._rows():
            lines.append(f"{label:>8} {n:>6} " + " ".join(f"{v:>16.1f}" for v in values))
        lines.append(
            f"parse_failure_rate={self.parse_failure_rate:.4f} "
            f"missing_predictions={self.missing_predictions}"
        )
        return "\n".join(lines) + "\n"


def _opposite(label: str) -> str:
    return suite_mod.INVALID if label == suite_mod.VALID else suite_mod.VALID


def stratify_report(records, instances, manifest: dict | None = None) -> ScoreReport:
    """Score evaluation records against a suite, overall and per stratum.

    Systematicity samples are an instance's full option set; a missing or
    unparseable option prediction counts as the wrong class. Productivity
    samples score exact match of the parsed word against the gold surface.
    A record outside the suite, or whose option_index is not an index into
    its instance's options (None on productivity), raises OrphanRecord, and
    a second record for the same (instance_id, option_index) raises
    DuplicateRecord.
    """
    instances = [i for i in instances if i.split == suite_mod.EVAL_SPLIT]
    by_id = {i.instance_id: i for i in instances}
    if not by_id:
        raise SchemaError("suite has no evaluation instances")

    tasks = {i.task for i in instances}
    if len(tasks) != 1:
        raise SchemaError(f"suite mixes tasks {sorted(tasks)}")
    task = tasks.pop()

    grouped: dict[str, dict] = {}
    n_failures = 0
    for record in records:
        instance = by_id.get(record.instance_id)
        if instance is None:
            raise OrphanRecord(f"record {record.instance_id} not in suite")
        options = (None,) if task == suite_mod.PRODUCTIVITY else range(len(instance.options))
        if record.option_index not in options:
            raise OrphanRecord(f"no option for ({record.instance_id}, {record.option_index})")
        answers = grouped.setdefault(record.instance_id, {})
        if record.option_index in answers:
            raise DuplicateRecord(f"two records for ({record.instance_id}, {record.option_index})")
        answers[record.option_index] = record
        if record.parsed_kind == suite_mod.PARSE_FAILURE:
            n_failures += 1

    per_sample: list[tuple[int, dict[str, float]]] = []
    n_records = 0
    missing = 0
    for instance in instances:
        answers = grouped.get(instance.instance_id, {})
        if task == suite_mod.PRODUCTIVITY:
            record = answers.get(None)
            n_records += 1 if record else 0
            if record is None:
                missing += 1
                value = 0.0
            else:
                profile = profiles.load_profile(instance.language_id)
                value = float(
                    exact_match(record.parsed_value, instance.gold_surface, profile)
                )
            per_sample.append((instance.morpheme_count, {"exact_match": value}))
        else:
            labels = [o.label for o in instance.options]
            preds = []
            for idx, option in enumerate(instance.options):
                record = answers.get(idx)
                if record is None:
                    missing += 1
                    preds.append(_opposite(option.label))
                    continue
                n_records += 1
                label = _LABEL_OF_POLARITY.get(record.parsed_kind)
                preds.append(label if label is not None else _opposite(option.label))
            option_acc = sum(p == l for p, l in zip(preds, labels)) / len(labels)
            per_sample.append(
                (
                    instance.morpheme_count,
                    {
                        "macro_f1": sample_macro_f1(preds, labels),
                        "coherence": float(coherence(preds, labels)),
                        "option_accuracy": option_acc,
                    },
                )
            )

    metric_names = sorted(per_sample[0][1]) if per_sample else []
    overall = {
        m: 100.0 * fsum(values[m] for _, values in per_sample) / len(per_sample)
        for m in metric_names
    }
    by_stratum: dict[int, dict[str, float]] = {}
    stratum_counts: dict[int, int] = {}
    for stratum in sorted({count for count, _ in per_sample}):
        rows = [values for count, values in per_sample if count == stratum]
        stratum_counts[stratum] = len(rows)
        by_stratum[stratum] = {
            m: 100.0 * fsum(v[m] for v in rows) / len(rows) for m in metric_names
        }

    total_records = n_records + missing
    return ScoreReport(
        task=task,
        overall=overall,
        by_stratum=by_stratum,
        counts={"samples": len(per_sample), "records": n_records},
        stratum_counts=stratum_counts,
        parse_failure_rate=(n_failures / total_records) if total_records else 0.0,
        missing_predictions=missing,
        manifest=manifest or {},
    )
