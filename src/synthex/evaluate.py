"""Scoring of predictions against gold annotations.

Five tasks: mention detection, entity identification, entity classification,
and relation extraction in general and strict variants. Matching works on
normalized surfaces with greedy one-to-one assignment (descending overlap,
content-based tie-break) and all scores are micro-averaged over documents.

Two evaluation modes mirror how unparseable model outputs are handled:
``all_docs`` scores an invalid prediction as empty (its gold annotations all
count as misses), ``valid_only`` drops those documents entirely. Precision is
identical across modes by construction; only recall moves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import AnnotationRecord, SynthexError, normalize_surface, repeated_ids
from .inference import Prediction

TASKS = ("mention_det", "entity_ident", "entity_class", "re_general", "re_strict")

TASK_LABELS = {
    "mention_det": "Mention det.",
    "entity_ident": "Entity Ident.",
    "entity_class": "Entity Class.",
    "re_general": "RE (General)",
    "re_strict": "RE (Strict)",
}

MODE_ALL = "all_docs"
MODE_VALID_ONLY = "valid_only"


class DuplicatePredictionError(SynthexError):
    pass


class UnmatchedPredictionError(SynthexError):
    """Predictions whose doc ids name no gold document."""


class EmptyPredictionSetError(SynthexError):
    pass


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 as percentages; zero denominators score zero."""
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class TaskScore:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return prf(self.tp, self.fp, self.fn)[0]

    @property
    def recall(self) -> float:
        return prf(self.tp, self.fp, self.fn)[1]

    @property
    def f1(self) -> float:
        return prf(self.tp, self.fp, self.fn)[2]

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
        }

    def __add__(self, other: "TaskScore") -> "TaskScore":
        return TaskScore(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def valid_rate(predictions: list[Prediction]) -> float:
    if not predictions:
        raise EmptyPredictionSetError("cannot compute a validity rate over zero predictions")
    return 100.0 * sum(1 for p in predictions if p.valid) / len(predictions)


# --- clusters -------------------------------------------------------------------

@dataclass(frozen=True)
class _Cluster:
    surfaces: frozenset[str]
    type_label: str
    key: tuple

    @classmethod
    def build(cls, entity, mentions) -> "_Cluster":
        surfaces = frozenset(
            normalize_surface(m.surface) for m in mentions if m.entity_id == entity.id
        )
        if not surfaces:
            surfaces = frozenset({normalize_surface(entity.name)})
        type_label = normalize_surface(entity.type_label)
        return cls(surfaces=surfaces, type_label=type_label, key=(tuple(sorted(surfaces)), type_label))


class _Side:
    """One side of a scored document, built once: a cluster per listed entity
    and each triple as (normalized predicate, subject cluster, object cluster).

    A repeated entity id yields one cluster per listing, while a triple
    endpoint resolves to the last entity carrying its id (None when none does).
    """

    def __init__(self, doc: AnnotationRecord | Prediction | None):
        entities, self.mentions, triples = (doc.entities, doc.mentions, doc.triples) if doc else ((), (), ())
        self.clusters = [_Cluster.build(e, self.mentions) for e in entities]
        by_id = {e.id: c for e, c in zip(entities, self.clusters)}
        self.triples = [
            (normalize_surface(t.predicate), by_id.get(t.subject), by_id.get(t.object)) for t in triples
        ]


def _greedy_match(candidates) -> list[tuple[int, int]]:
    """One-to-one (pred, gold) index pairs from ``(-score, pred key, gold key,
    i, j)`` candidates, highest score first.

    The keys give a content-based tie-break, so scores do not depend on input
    ordering.
    """
    taken_pred: set[int] = set()
    taken_gold: set[int] = set()
    pairs = []
    for *_, i, j in sorted(candidates):
        if i not in taken_pred and j not in taken_gold:
            taken_pred.add(i)
            taken_gold.add(j)
            pairs.append((i, j))
    return pairs


def _score(matched: int, predicted: int, gold: int) -> TaskScore:
    return TaskScore(matched, predicted - matched, gold - matched)


# --- per-document task scores -------------------------------------------------
# evaluate() calls each scorer once per document; keeping one named function
# per task gives perfbench's tracer a span for each task's share of the time.

def eval_mentions(pred: _Side, gold: _Side, use_spans: bool) -> TaskScore:
    """Mention detection: multiset matching on normalized surfaces (or exact
    spans with ``use_spans``), type ignored."""

    def key(m):
        return (m.span.start, m.span.end) if use_spans else normalize_surface(m.surface)

    overlap = sum((Counter(map(key, pred.mentions)) & Counter(map(key, gold.mentions))).values())
    return _score(overlap, len(pred.mentions), len(gold.mentions))


def _entity_pairs(pred: _Side, gold: _Side) -> list[tuple[int, int]]:
    return _greedy_match(
        (-len(p.surfaces & g.surfaces), p.key, g.key, i, j)
        for i, p in enumerate(pred.clusters)
        for j, g in enumerate(gold.clusters)
        if p.surfaces & g.surfaces
    )


def eval_entity_ident(pred: _Side, gold: _Side, pairs) -> TaskScore:
    """Entity identification: clusters match on any shared normalized surface."""
    return _score(len(pairs), len(pred.clusters), len(gold.clusters))


def eval_entity_class(pred: _Side, gold: _Side, pairs) -> TaskScore:
    """As identification, but a matched pair only counts when the normalized
    type labels agree; a match with the wrong type costs both FP and FN."""
    typed = sum(1 for i, j in pairs if pred.clusters[i].type_label == gold.clusters[j].type_label)
    return _score(typed, len(pred.clusters), len(gold.clusters))


def eval_relations(pred: _Side, gold: _Side) -> tuple[TaskScore, TaskScore]:
    """Relation extraction, general and strict: triples match on normalized
    predicate plus endpoint-cluster surface overlap on both ends; strict
    additionally requires endpoint types to agree. Directionality always
    matters."""
    candidates = []  # (candidate, endpoint types agree)
    for i, (p_pred, p_subj, p_obj) in enumerate(pred.triples):
        if p_subj is None or p_obj is None:
            continue
        for j, (g_pred, g_subj, g_obj) in enumerate(gold.triples):
            if g_subj is None or g_obj is None or p_pred != g_pred:
                continue
            subj_overlap = len(p_subj.surfaces & g_subj.surfaces)
            obj_overlap = len(p_obj.surfaces & g_obj.surfaces)
            if subj_overlap and obj_overlap:
                candidate = (
                    -(subj_overlap + obj_overlap),
                    (p_pred, p_subj.key, p_obj.key),
                    (g_pred, g_subj.key, g_obj.key),
                    i,
                    j,
                )
                typed = p_subj.type_label == g_subj.type_label and p_obj.type_label == g_obj.type_label
                candidates.append((candidate, typed))
    general = _greedy_match(c for c, _ in candidates)
    strict = _greedy_match(c for c, typed in candidates if typed)
    n_pred, n_gold = len(pred.triples), len(gold.triples)
    return _score(len(general), n_pred, n_gold), _score(len(strict), n_pred, n_gold)


# --- report --------------------------------------------------------------------

@dataclass
class EvalReport:
    """Scores for one mode. ``valid_rate`` is over the predictions, so it
    leaves out the ``missing_predictions`` gold documents that have none."""

    mode: str
    valid_rate: float
    missing_predictions: int
    tasks: dict[str, TaskScore]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "valid_rate": self.valid_rate,
            "missing_predictions": self.missing_predictions,
            "tasks": {name: score.to_dict() for name, score in self.tasks.items()},
        }

    def format_table(self) -> str:
        header = f"{'Task':<16} {'P (%)':>8} {'R (%)':>8} {'F1 (%)':>8}"
        summary = (
            f"mode: {self.mode}   valid outputs: {self.valid_rate:.2f}%"
            f"   missing predictions: {self.missing_predictions}"
        )
        lines = [summary, header, "-" * len(header)]
        for name in TASKS:
            if name not in self.tasks:
                continue
            score = self.tasks[name]
            lines.append(
                f"{TASK_LABELS[name]:<16} {score.precision:>8.2f} {score.recall:>8.2f} {score.f1:>8.2f}"
            )
        return "\n".join(lines)


def evaluate(
    predictions: list[Prediction],
    golds: list[AnnotationRecord],
    mode: str = MODE_ALL,
    use_spans: bool = False,
) -> EvalReport:
    """Score every task in one pass over the gold documents, micro-averaged.

    Mention detection is skipped when a scored gold document has entities
    but no mention-level annotation (entity names only). Gold documents must
    carry distinct doc ids, and so must predictions, each naming a gold
    document.
    """
    if mode not in (MODE_ALL, MODE_VALID_ONLY):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    duplicates = repeated_ids(p.doc_id for p in predictions)
    if duplicates:
        raise DuplicatePredictionError(f"duplicate prediction doc ids: {duplicates}")
    duplicates = repeated_ids(g.doc_id for g in golds)
    if duplicates:
        raise SynthexError(f"duplicate gold doc ids: {duplicates}")
    by_id = {p.doc_id: p for p in predictions}
    gold_ids = {g.doc_id for g in golds}
    unmatched = sorted(by_id.keys() - gold_ids)
    if unmatched:
        raise UnmatchedPredictionError(f"prediction doc ids with no gold document: {unmatched}")
    tasks = dict.fromkeys(TASKS, TaskScore(0, 0, 0))
    mentions_annotated = True
    missing = 0
    for gold_doc in golds:
        pred_doc = by_id.get(gold_doc.doc_id)
        missing += pred_doc is None
        if pred_doc is None or not pred_doc.valid:
            if mode == MODE_VALID_ONLY:
                continue
            pred_doc = None
        if gold_doc.entities and not gold_doc.mentions:
            mentions_annotated = False
        pred, gold = _Side(pred_doc), _Side(gold_doc)
        pairs = _entity_pairs(pred, gold)
        scores = (
            eval_mentions(pred, gold, use_spans),
            eval_entity_ident(pred, gold, pairs),
            eval_entity_class(pred, gold, pairs),
            *eval_relations(pred, gold),
        )
        for task, score in zip(TASKS, scores):
            tasks[task] += score
    if not mentions_annotated:
        del tasks["mention_det"]
    return EvalReport(mode=mode, valid_rate=valid_rate(predictions), missing_predictions=missing, tasks=tasks)
