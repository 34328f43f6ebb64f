import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegintent.errors import EmptyTestSet
from eegintent.evaluation import evaluate, macro_f1
from eegintent.model import Layer, ModelParams, predict


def logit_params(bias):
    """1-layer identity encoder over 4 inputs; class logits = x + bias."""
    eye = np.eye(4)
    return ModelParams(
        encoder=[Layer(eye.copy(), np.zeros(4))],
        class_head=[Layer(eye.copy(), np.asarray(bias, dtype=float))],
        domain_head=[Layer(np.zeros((4, 2)), np.zeros(2))],
        mask=np.ones(4),
    )


class TestPredict:
    def test_tie_goes_to_lowest_index(self):
        params = logit_params(np.zeros(4))
        assert predict(params, np.zeros((1, 4))).tolist() == [0]

    def test_argmax(self):
        params = logit_params(np.zeros(4))
        assert predict(params, np.array([[1.0, 3.0, 2.0, 0.0]])).tolist() == [1]

    def test_constant_shift_invariance(self):
        x = np.array([[0.3, 1.9, 0.3, 1.2], [2.0, 0.1, 0.4, 0.0]])
        plain = predict(logit_params(np.zeros(4)), x)
        shifted = predict(logit_params(np.full(4, 7.5)), x)
        assert np.array_equal(plain, shifted)


class TestMacroF1:
    def test_two_class_worked_example(self):
        # predictions [0,0,1] against truth [0,1,1]: F1 2/3 for classes 0 and
        # 1, and 0 for the absent classes 2 and 3 of the four
        score, missing = macro_f1([0, 1, 1], [0, 0, 1])
        assert score == pytest.approx(100 * (2 / 3 + 2 / 3 + 0 + 0) / 4, abs=1e-9)
        assert missing == (2, 3)

    def test_all_one_class_on_balanced_four(self):
        y_true = np.repeat(np.arange(4), 5)
        y_pred = np.zeros(20, dtype=int)
        score, _ = macro_f1(y_true, y_pred)
        assert score == pytest.approx(10.0, abs=1e-9)

    def test_missing_class_flagged(self):
        score, missing = macro_f1([0, 1], [0, 1])
        assert missing == (2, 3)
        assert score == pytest.approx(100 * 2 / 4)


class TestEvaluate:
    def test_perfect_predictions(self):
        params = logit_params(np.zeros(4))
        x = np.eye(4)[np.array([0, 1, 2, 3, 0, 1])] * 5.0
        y = np.array([0, 1, 2, 3, 0, 1])
        domains = np.array([0, 0, 0, 1, 1, 1])
        report = evaluate(params, x, y, domains)
        assert report.accuracy == 100.0
        assert report.f1_all == 100.0
        assert report.f1_correct == pytest.approx(75.0)  # class 3 absent
        assert report.missing_classes_correct == (3,)
        assert report.n_test == 6

    def test_quarter_accuracy_constant_predictor(self):
        params = logit_params(np.array([0.0, 0.0, 9.0, 0.0]))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 4)) * 0.1
        y = np.repeat(np.arange(4), 10)
        report = evaluate(params, x, y, np.zeros(40, dtype=int))
        assert report.accuracy == pytest.approx(25.0)
        assert report.f1_all == pytest.approx(10.0)

    def test_confusion_consistency(self):
        params = logit_params(np.zeros(4))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 4, 30)
        d = rng.integers(0, 2, 30)
        report = evaluate(params, x, y, d)
        assert report.confusion.sum() == 30
        assert np.array_equal(report.confusion.sum(axis=1),
                              np.bincount(y, minlength=4))
        direct = 100.0 * (predict(params, x) == y).mean()
        assert report.accuracy == pytest.approx(direct)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        params = logit_params(np.zeros(4))
        x = rng.normal(size=(20, 4))
        y = rng.integers(0, 4, 20)
        d = rng.integers(0, 2, 20)
        base = evaluate(params, x, y, d)
        perm = rng.permutation(20)
        shuffled = evaluate(params, x[perm], y[perm], d[perm])
        assert shuffled.accuracy == pytest.approx(base.accuracy)
        assert shuffled.f1_all == pytest.approx(base.f1_all)
        assert shuffled.f1_correct == pytest.approx(base.f1_correct)
        assert shuffled.f1_misarticulated == pytest.approx(base.f1_misarticulated)

    def test_macro_between_min_and_max_per_class(self):
        rng = np.random.default_rng(8)
        params = logit_params(np.zeros(4))
        x = rng.normal(size=(60, 4))
        y = rng.integers(0, 4, 60)
        report = evaluate(params, x, y, np.zeros(60, dtype=int))
        y_pred = predict(params, x)
        per_class = []
        for c in range(4):
            tp = np.sum((y == c) & (y_pred == c))
            fp = np.sum((y != c) & (y_pred == c))
            fn = np.sum((y == c) & (y_pred != c))
            per_class.append(100 * 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        assert min(per_class) - 1e-9 <= report.f1_all <= max(per_class) + 1e-9

    def test_empty_test_set(self):
        params = logit_params(np.zeros(4))
        with pytest.raises(EmptyTestSet):
            evaluate(params, np.zeros((0, 4)), np.zeros(0, int), np.zeros(0, int))

    def test_report_dict_round_trips_to_json(self):
        import json

        params = logit_params(np.zeros(4))
        rng = np.random.default_rng(2)
        report = evaluate(params, rng.normal(size=(8, 4)),
                          rng.integers(0, 4, 8), rng.integers(0, 2, 8))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_test"] == 8
        assert len(payload["confusion"]) == 4
