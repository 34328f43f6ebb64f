"""Spans around the public functions of each pipeline layer, recorded from
outside the package.

The tracer replaces a public function with a timing wrapper in every loaded
`eegintent` module that holds a reference to it, so calls made through
`from .x import f` bindings are seen as well. Spans are kept in memory; a
span's self time is its duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Collects spans and counters while `enabled`; one per worker process."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    enabled: bool = True
    _stack: list[int] = field(default_factory=list)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, module, attr: str, span_name, on_return=None) -> None:
        """Time every call of `module.attr`.

        `span_name` is a string or a function of the call's arguments;
        `on_return(tracer, result, args, kwargs)` records counters. While
        the tracer is disabled the wrapper only forwards the call.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            name = span_name if isinstance(span_name, str) else span_name(*args, **kwargs)
            span = Span(name, 0.0, parent=tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].child_s += span.duration
            if on_return is not None:
                on_return(tracer, result, args, kwargs)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "eegintent" and getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)

    def total(self, prefix: str) -> float:
        """Summed duration of spans named `prefix` or `prefix.<anything>`."""
        return sum(
            s.duration for s in self.spans if s.name == prefix or s.name.startswith(prefix + ".")
        )

    def self_total(self, prefix: str) -> float:
        return sum(
            s.self_s for s in self.spans if s.name == prefix or s.name.startswith(prefix + ".")
        )


def _fft_counts(tracer: Tracer, result, args, kwargs) -> None:
    n = result.shape[-1]
    transforms = result.size // n
    tracer.count("spectral.fft_calls")
    # computed, not counted: the textbook 5 N log2 N flops per complex transform
    tracer.count("spectral.fft_gflop", transforms * 5.0 * n * math.log2(n) / 1e9)


def _train_mode(args, kwargs) -> str:
    """The `mode` argument of model.train(x, y_class, y_domain, config, mode)."""
    from eegintent.model import TrainMode

    return (args[4] if len(args) > 4 else kwargs.get("mode", TrainMode.MULTITASK)).value


def _train_counts(tracer: Tracer, result, args, kwargs) -> None:
    _, history = result
    x, config, mode = args[0], args[3], _train_mode(args, kwargs)
    n = len(x)
    batches = -(-n // config.batch_size)
    tracer.count(f"model.steps.{mode}", config.epochs * batches)
    tracer.count(f"model.samples.{mode}", config.epochs * n)
    # the first call's final loss, not a sum
    tracer.counters.setdefault(f"model.first_final_l_total.{mode}", history[-1].l_total)


def _train_name(*args, **kwargs) -> str:
    return f"model.train.{_train_mode(args, kwargs)}"


def _cli_name(argv=None, *args, **kwargs) -> str:
    return f"cli.command.{argv[0] if argv else 'none'}"


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions the benchmark reports on."""
    from eegintent import cli, data, evaluation, model, spectral, stats, synth

    tracer.wrap(synth, "generate_dataset", "synth.generate_dataset",
                lambda t, ds, a, k: t.count("synth.trials", len(ds)))
    tracer.wrap(spectral, "extract_feature_set", "spectral.extract_feature_set",
                lambda t, fs, a, k: t.count("spectral.signals", fs.n_trials * fs.n_channels))
    tracer.wrap(spectral, "fft", "spectral.fft", _fft_counts)
    tracer.wrap(spectral, "band_powers_from_features", "spectral.band_powers")
    tracer.wrap(spectral, "write_features", "spectral.write_features")
    tracer.wrap(spectral, "read_features", "spectral.read_features")
    tracer.wrap(stats, "band_topomaps", "stats.band_topomaps",
                lambda t, maps, a, k: t.count("stats.t_tests", sum(len(m.t) for m in maps)))
    tracer.wrap(stats, "render_topomap_svg", "stats.render")
    tracer.wrap(model, "init_params", "model.init_params")
    tracer.wrap(model, "train", _train_name, _train_counts)
    tracer.wrap(model, "save_model", "model.save_model")
    tracer.wrap(model, "load_model", "model.load_model")
    tracer.wrap(data, "save_dataset", "data.save_dataset")
    tracer.wrap(data, "load_dataset", "data.load_dataset",
                lambda t, ds, a, k: t.count(
                    "data.loaded_mb", len(ds) * ds.spec.n_channels * ds.spec.n_samples * 4 / 1e6))
    tracer.wrap(evaluation, "evaluate", "evaluation.evaluate")
    tracer.wrap(cli, "main", _cli_name, lambda t, rc, a, k: t.count("cli.calls"))
