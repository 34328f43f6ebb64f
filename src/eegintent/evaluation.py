"""Metric computation: accuracy plus macro-F1 overall and split by correct /
misarticulated trials, of model.predict's classes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Schema
from .data import N_CLASSES
from .errors import EmptyTestSet
from .model import ModelParams, predict


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    """Counts of (true, predicted) class pairs, true classes as rows."""
    pairs = N_CLASSES * np.asarray(y_true, dtype=np.int64) + np.asarray(y_pred, dtype=np.int64)
    return np.bincount(pairs, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)


def macro_f1(y_true, y_pred) -> tuple[float, tuple[int, ...]]:
    """Macro-averaged F1 in percent, plus the classes absent from y_true.

    Absent classes contribute F1 = 0 to the average.
    """
    m = confusion_matrix(y_true, y_pred)
    tp = np.diag(m)
    fp = m.sum(axis=0) - tp
    fn = m.sum(axis=1) - tp
    # a class with no true and no predicted trial has tp = 0: F1 = 0
    scores = 2.0 * tp / np.maximum(2 * tp + fp + fn, 1)
    missing = np.flatnonzero(m.sum(axis=1) == 0)
    return 100.0 * float(np.mean(scores)), tuple(missing.tolist())


@dataclass(frozen=True)
class EvalReport(Schema):
    """Table-1-style metrics: accuracy and macro-F1 overall and per domain."""

    accuracy: float
    f1_all: float
    f1_correct: float
    f1_misarticulated: float
    confusion: np.ndarray
    n_test: int
    missing_classes_correct: tuple[int, ...]
    missing_classes_misarticulated: tuple[int, ...]


def evaluate(params: ModelParams, x, y_class, y_domain) -> EvalReport:
    """Evaluate trained parameters on a labeled test set.

    f1_correct / f1_misarticulated are macro-F1 over the 4 classes on the
    domain-restricted subsets; a subset missing a class is flagged.
    """
    y_class = np.asarray(y_class, dtype=np.int64)
    y_domain = np.asarray(y_domain, dtype=np.int64)
    if len(x) == 0:
        raise EmptyTestSet("evaluate needs a non-empty test set")
    y_pred = predict(params, x)
    confusion = confusion_matrix(y_class, y_pred)
    accuracy = 100.0 * float(np.trace(confusion)) / len(y_class)
    f1_all, _ = macro_f1(y_class, y_pred)
    correct = y_domain == 0
    mis = y_domain == 1
    f1_correct, miss_c = macro_f1(y_class[correct], y_pred[correct])
    f1_mis, miss_m = macro_f1(y_class[mis], y_pred[mis])
    return EvalReport(
        accuracy=accuracy,
        f1_all=f1_all,
        f1_correct=f1_correct,
        f1_misarticulated=f1_mis,
        confusion=confusion,
        n_test=len(y_class),
        missing_classes_correct=miss_c,
        missing_classes_misarticulated=miss_m,
    )
