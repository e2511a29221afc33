"""Scoring of predictions against gold annotations.

Five tasks: mention detection, entity identification, entity classification,
and relation extraction in general and strict variants. Matching works on
normalized surfaces with greedy one-to-one assignment (descending overlap,
content-based tie-break) and all scores are micro-averaged over documents.

Two evaluation modes mirror how unparseable model outputs are handled:
``all_docs`` scores an invalid prediction as empty (its gold annotations all
count as misses), ``valid_only`` leaves those documents out of its sums. Both
are sums over one scoring pass that gives each gold document its own
tp/fp/fn, so precision is identical across modes by construction; only recall
moves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

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


def valid_rate(predictions: list[Prediction]) -> float:
    if not predictions:
        raise EmptyPredictionSetError("cannot compute a validity rate over zero predictions")
    return 100.0 * sum(1 for p in predictions if p.valid) / len(predictions)


# --- clusters -------------------------------------------------------------------

class _Cluster(NamedTuple):
    surfaces: frozenset[str]
    type_label: str
    key: tuple

    @classmethod
    def build(cls, entity, surfaces: set[str] | None) -> "_Cluster":
        """``surfaces`` are the normalized surfaces of the entity's mentions;
        an entity with none falls back to its normalized name."""
        surfaces = frozenset(surfaces or (normalize_surface(entity.name),))
        type_label = normalize_surface(entity.type_label)
        return cls(surfaces, type_label, (tuple(sorted(surfaces)), type_label))


class _Side:
    """One side of a scored document, built once: each mention's normalized
    surface, a cluster per listed entity and each triple as (normalized
    predicate, subject cluster, object cluster).

    Mentions are grouped by entity id in one pass, so building is linear in
    mentions. A repeated entity id yields one cluster per listing, a mention
    whose entity id names no entity joins no cluster, and a triple endpoint
    resolves to the last entity carrying its id (None when none does).
    """

    def __init__(self, doc: AnnotationRecord | Prediction | None):
        entities, self.mentions, triples = (doc.entities, doc.mentions, doc.triples) if doc else ((), (), ())
        self.surfaces = [normalize_surface(m.surface) for m in self.mentions]
        by_entity: dict[int, set[str]] = {}
        for m, surface in zip(self.mentions, self.surfaces):
            by_entity.setdefault(m.entity_id, set()).add(surface)
        self.clusters = [_Cluster.build(e, by_entity.get(e.id)) for e in entities]
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


Counts = tuple[int, int, int]  # tp, fp, fn


def _score(matched: int, predicted: int, gold: int) -> Counts:
    return matched, predicted - matched, gold - matched


# --- per-document task scores -------------------------------------------------
# evaluate() calls each scorer once per scored document; keeping one named
# function per task gives perfbench's tracer a span for each task's share of
# the time.

def eval_mentions(pred: _Side, gold: _Side, use_spans: bool) -> Counts:
    """Mention detection: multiset matching on normalized surfaces (or exact
    spans with ``use_spans``), type ignored."""
    if use_spans:
        pred_keys = [(m.span.start, m.span.end) for m in pred.mentions]
        gold_keys = [(m.span.start, m.span.end) for m in gold.mentions]
    else:
        pred_keys, gold_keys = pred.surfaces, gold.surfaces
    overlap = sum((Counter(pred_keys) & Counter(gold_keys)).values())
    return _score(overlap, len(pred.mentions), len(gold.mentions))


def _entity_pairs(pred: _Side, gold: _Side) -> list[tuple[int, int]]:
    return _greedy_match(
        (-len(p.surfaces & g.surfaces), p.key, g.key, i, j)
        for i, p in enumerate(pred.clusters)
        for j, g in enumerate(gold.clusters)
        if p.surfaces & g.surfaces
    )


def eval_entity_ident(pred: _Side, gold: _Side, pairs) -> Counts:
    """Entity identification: clusters match on any shared normalized surface."""
    return _score(len(pairs), len(pred.clusters), len(gold.clusters))


def eval_entity_class(pred: _Side, gold: _Side, pairs) -> Counts:
    """As identification, but a matched pair only counts when the normalized
    type labels agree; a match with the wrong type costs both FP and FN."""
    typed = sum(1 for i, j in pairs if pred.clusters[i].type_label == gold.clusters[j].type_label)
    return _score(typed, len(pred.clusters), len(gold.clusters))


def eval_relations(pred: _Side, gold: _Side) -> tuple[Counts, Counts]:
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

@dataclass(frozen=True)
class DocScore:
    """One scored gold document: tp/fp/fn per task, in ``TASKS`` order.
    ``valid`` says whether a valid prediction was scored (otherwise the
    predicted side was empty); ``mentions_annotated`` is False for a gold
    document with entities but no mention-level annotation."""

    doc_id: str
    valid: bool
    mentions_annotated: bool
    counts: tuple[Counts, ...]


@dataclass
class EvalReport:
    """Scores for one mode, summed from the per-document ``rows``.
    ``valid_rate`` is over the predictions, so it leaves out the
    ``missing_predictions`` gold documents that have none."""

    mode: str
    valid_rate: float
    missing_predictions: int
    tasks: dict[str, TaskScore]
    rows: list[DocScore] = field(repr=False)

    @classmethod
    def summed(cls, mode: str, valid_rate: float, missing: int, rows: list[DocScore]) -> "EvalReport":
        """The report of ``mode`` over ``rows``, which it keeps: ``all_docs``
        sums every row, ``valid_only`` the rows of valid predictions. Mention
        detection is left out when a summed row's gold has no mention-level
        annotation."""
        counted = [row for row in rows if row.valid] if mode == MODE_VALID_ONLY else rows
        totals = [tuple(map(sum, zip(*task))) for task in zip(*(row.counts for row in counted))]
        tasks = {task: TaskScore(*counts) for task, counts in zip(TASKS, totals or [(0, 0, 0)] * len(TASKS))}
        if not all(row.mentions_annotated for row in counted):
            del tasks["mention_det"]
        return cls(mode, valid_rate, missing, tasks, rows)

    def in_mode(self, mode: str) -> "EvalReport":
        """This report in ``mode``, without scoring anything again: every
        report holds a row for each gold document, so each gives both modes."""
        if mode == self.mode:
            return self
        return EvalReport.summed(mode, self.valid_rate, self.missing_predictions, self.rows)

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
    """Score each gold document once, then sum the documents ``mode`` counts
    (micro-averaging).

    Every gold document is scored in either mode, a missing or invalid
    prediction as the empty side; ``all_docs`` sums every row and
    ``valid_only`` the rows of valid predictions, and the report's
    :meth:`EvalReport.in_mode` gives the other mode from the same rows. Gold
    documents must carry distinct doc ids, and so must predictions, each
    naming a gold document.
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
    rows = []
    for gold_doc in golds:
        pred_doc = by_id.get(gold_doc.doc_id)
        valid = pred_doc is not None and pred_doc.valid
        pred, gold = _Side(pred_doc if valid else None), _Side(gold_doc)
        pairs = _entity_pairs(pred, gold)
        counts = (
            eval_mentions(pred, gold, use_spans),
            eval_entity_ident(pred, gold, pairs),
            eval_entity_class(pred, gold, pairs),
            *eval_relations(pred, gold),
        )
        mentions_annotated = bool(gold_doc.mentions) or not gold_doc.entities
        rows.append(DocScore(gold_doc.doc_id, valid, mentions_annotated, counts))
    missing = len(gold_ids - by_id.keys())
    return EvalReport.summed(mode, valid_rate(predictions), missing, rows)
