"""Per-layer counters and timers, recorded from outside the program.

`Tracer.install()` replaces public functions of the dosids modules with
timing wrappers, in every dosids module that holds a reference to them,
so calls made through `from x import f` bindings are caught too. Nothing
under src/ knows it is being traced. A traced process is never used for
the end-to-end numbers; the untraced run is.

Spans that train a network push its name on a stack, so optimizer steps
are credited to the network being trained (a GAN inside augment, the
classifier inside the tuner's objective, and so on).
"""

import os
import sys
import time
from collections import defaultdict

NDGRAD_OPS = ("conv1d", "conv_transpose1d", "max_pool1d", "lrn", "batch_norm1d",
              "dense", "relu", "leaky_relu", "dropout", "sigmoid", "tanh",
              "global_avg_pool1d", "softmax_cross_entropy")
PREPROCESS = ("drop_socket_and_constant_features", "subsample", "stratified_split",
              "fit_categories", "one_hot_encode", "min_max_fit", "min_max_apply")
EVALKIT = ("confusion_from_predictions", "per_class_metrics", "render_report")
STAGES = ("ingest", "augment", "extract", "tune", "train", "evaluate", "report")

# Every per-layer metric with its unit and direction, in report order.
LAYER_METRICS = (
    [(f"pipeline.{s}_s", "s", "lower") for s in STAGES]
    + [("pipeline.artifact_bytes", "bytes", "lower"),
       ("flowdata.load_s", "s", "lower"), ("flowdata.rows_per_s", "rows/s", "higher"),
       ("flowdata.cells", "count", "lower"), ("flowdata.preprocess_s", "s", "lower"),
       ("flowdata.features_out", "count", "lower"),
       ("augment.gan_train_s", "s", "lower"), ("augment.gan_steps", "count", "lower"),
       ("augment.gan_steps_per_s", "1/s", "higher"),
       ("augment.gans_trained", "count", "lower"),
       ("augment.jitter_classes", "count", "lower"),
       ("augment.sample_rows_per_s", "rows/s", "higher"),
       ("resfeat.train_s", "s", "lower"), ("resfeat.steps_per_s", "1/s", "higher"),
       ("resfeat.extract_rows_per_s", "rows/s", "higher"),
       ("alexclf.trainings", "count", "lower"), ("alexclf.steps", "count", "lower"),
       ("alexclf.steps_per_s", "1/s", "higher"), ("alexclf.train_s", "s", "lower"),
       ("alexclf.predict_rows_per_s", "rows/s", "higher"),
       ("aso.evaluations", "count", "lower"),
       ("aso.distinct_evaluations", "count", "lower"),
       ("aso.objective_s", "s", "lower"), ("aso.self_s", "s", "lower")]
    + [(f"ndgrad.{op}.{kind}", unit, "lower") for op in NDGRAD_OPS
       for kind, unit in (("fwd_us", "us"), ("bwd_us", "us"), ("calls", "count"))]
    + [("ndgrad.backward_walk_us", "us", "lower"),
       ("checkpoint.save_s", "s", "lower"), ("checkpoint.load_s", "s", "lower"),
       ("checkpoint.bytes", "bytes", "lower"), ("evalkit.s", "s", "lower")]
)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.value = defaultdict(float)
        self.training = []            # names of networks being trained, innermost last
        self._patched = []            # (owner, attribute, original)
        self._preprocess_depth = 0
        self._hp_seen = set()

    # ---- patching -------------------------------------------------------

    def _replace(self, original, wrapped):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dosids" or name.startswith("dosids.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, original))

    def _wrap(self, module, name, key, after=None, network=None):
        original = getattr(module, name)
        tracer = self

        def wrapped(*args, **kwargs):
            if network is not None:
                tracer.training.append(network)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if network is not None:
                    tracer.training.pop()
            span = key(args) if callable(key) else key
            tracer.seconds[span] += dt
            tracer.calls[span] += 1
            if after is not None:
                after(result, args)
            return result

        self._replace(original, wrapped)

    def _wrap_op(self, ops, name):
        original = getattr(ops, name)
        tracer = self

        def timed_backward(closure):
            def backward(g):
                t0 = time.perf_counter()
                closure(g)
                dt = time.perf_counter() - t0
                tracer.seconds[f"{name}.bwd"] += dt
                tracer.calls[f"{name}.bwd"] += 1
                tracer.value["closure_s"] += dt
            return backward

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            tracer.seconds[f"{name}.fwd"] += time.perf_counter() - t0
            tracer.calls[f"{name}.fwd"] += 1
            out = result[0] if isinstance(result, tuple) else result
            if out._backward is not None:
                out._backward = timed_backward(out._backward)
            return result

        self._replace(original, wrapped)

    def install(self):
        from dosids import (alexclf, aso, augment, checkpoint, evalkit, flowdata,
                            pipeline, resfeat)
        from dosids.ndgrad import nn, ops, tensor

        self._wrap(pipeline, "run_stage", lambda a: f"stage.{a[1]}")
        self._wrap(flowdata, "load_flow_csv", "load", after=self._loaded)
        for name in PREPROCESS:
            self._wrap_preprocess(flowdata, name)
        self._wrap(augment, "train_dcgan", "gan", network="gan")
        self._wrap(augment, "jitter_rows", "jitter")
        self._wrap(augment, "sample_rows", "sample",
                   after=lambda r, a: self._add("sample_rows", len(r)))
        self._wrap(resfeat, "train_feature_extractor", "resfeat_train", network="resfeat")
        self._wrap(resfeat, "extract_features", "extract",
                   after=lambda r, a: self._add("extract_rows", len(r)))
        self._wrap(alexclf, "train_classifier", "clf_train", network="alexclf")
        self._wrap(alexclf, "predict", "predict",
                   after=lambda r, a: self._add("predict_rows", len(r[0])))
        self._wrap_tuner(aso)
        self._wrap(checkpoint, "save_arrays", "save",
                   after=lambda r, a: self._add("save_bytes", os.path.getsize(a[0])))
        self._wrap(checkpoint, "load_arrays", "load_ckpt")
        for name in EVALKIT:
            self._wrap(evalkit, name, "evalkit")
        for name in NDGRAD_OPS:
            self._wrap_op(ops, name)
        self._wrap_sgd_step(nn)
        self._wrap_backward(tensor)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ---- special wrappers -------------------------------------------------

    def _wrap_preprocess(self, flowdata, name):
        original = getattr(flowdata, name)
        tracer = self

        def wrapped(*args, **kwargs):
            tracer._preprocess_depth += 1
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._preprocess_depth -= 1
            if tracer._preprocess_depth == 0:
                tracer.seconds["preprocess"] += time.perf_counter() - t0
            if name == "min_max_apply":
                tracer.value["features_out"] = max(tracer.value["features_out"],
                                                   result.n_features)
            return result

        self._replace(original, wrapped)

    def _wrap_tuner(self, aso):
        original = aso.tune_hyperparameters
        tracer = self

        def objective_span(trainable):
            def traced(hp):
                tracer._hp_seen.add(tuple(sorted(hp.to_dict().items())))
                t0 = time.perf_counter()
                value = trainable(hp)
                tracer.seconds["objective"] += time.perf_counter() - t0
                tracer.calls["objective"] += 1
                return value
            return traced

        def wrapped(trainable, cfg):
            t0 = time.perf_counter()
            result = original(objective_span(trainable), cfg)
            tracer.seconds["tune"] += time.perf_counter() - t0
            return result

        self._replace(original, wrapped)

    def _wrap_sgd_step(self, nn):
        original = nn.SGD.step
        tracer = self

        def step(sgd):
            if tracer.training:
                tracer.calls[f"{tracer.training[-1]}.steps"] += 1
            return original(sgd)

        nn.SGD.step = step
        self._patched.append((nn.SGD, "step", original))

    def _wrap_backward(self, tensor):
        original = tensor.Tensor.backward
        tracer = self

        def backward(t, grad=None):
            closures_before = tracer.value["closure_s"]
            t0 = time.perf_counter()
            original(t, grad)
            dt = time.perf_counter() - t0
            tracer.seconds["walk"] += dt - (tracer.value["closure_s"] - closures_before)
            tracer.calls["walk"] += 1

        tensor.Tensor.backward = backward
        self._patched.append((tensor.Tensor, "backward", original))

    def _loaded(self, dataset, args):
        self._add("rows", dataset.n_rows)
        self._add("cells", dataset.n_rows * len(dataset.schema))

    def _add(self, key, amount):
        self.value[key] += amount

    # ---- report -----------------------------------------------------------

    def metrics(self, out_dir) -> dict:
        s, c, v = self.seconds, self.calls, self.value
        artifact_bytes = sum(os.path.getsize(os.path.join(root, f))
                             for root, _, files in os.walk(out_dir) for f in files)
        values = {f"pipeline.{st}_s": s[f"stage.{st}"] for st in STAGES}
        values.update({
            "pipeline.artifact_bytes": artifact_bytes,
            "flowdata.load_s": s["load"],
            "flowdata.rows_per_s": _rate(v["rows"], s["load"]),
            "flowdata.cells": v["cells"],
            "flowdata.preprocess_s": s["preprocess"],
            "flowdata.features_out": v["features_out"],
            "augment.gan_train_s": s["gan"],
            # one GAN step is one discriminator plus one generator update
            "augment.gan_steps": c["gan.steps"] // 2,
            "augment.gan_steps_per_s": _rate(c["gan.steps"] // 2, s["gan"]),
            "augment.gans_trained": c["gan"],
            "augment.jitter_classes": c["jitter"],
            "augment.sample_rows_per_s": _rate(v["sample_rows"], s["sample"]),
            "resfeat.train_s": s["resfeat_train"],
            "resfeat.steps_per_s": _rate(c["resfeat.steps"], s["resfeat_train"]),
            "resfeat.extract_rows_per_s": _rate(v["extract_rows"], s["extract"]),
            "alexclf.trainings": c["clf_train"],
            "alexclf.steps": c["alexclf.steps"],
            "alexclf.steps_per_s": _rate(c["alexclf.steps"], s["clf_train"]),
            "alexclf.train_s": s["clf_train"],
            "alexclf.predict_rows_per_s": _rate(v["predict_rows"], s["predict"]),
            "aso.evaluations": c["objective"],
            "aso.distinct_evaluations": len(self._hp_seen),
            "aso.objective_s": s["objective"],
            "aso.self_s": s["tune"] - s["objective"],
            "ndgrad.backward_walk_us": 1e6 * _rate(s["walk"], c["walk"]),
            "checkpoint.save_s": s["save"],
            "checkpoint.load_s": s["load_ckpt"],
            "checkpoint.bytes": v["save_bytes"],
            "evalkit.s": s["evalkit"],
        })
        for op in NDGRAD_OPS:
            values[f"ndgrad.{op}.fwd_us"] = 1e6 * _rate(s[f"{op}.fwd"], c[f"{op}.fwd"])
            values[f"ndgrad.{op}.bwd_us"] = 1e6 * _rate(s[f"{op}.bwd"], c[f"{op}.bwd"])
            values[f"ndgrad.{op}.calls"] = c[f"{op}.fwd"]
        return {name: float(values[name]) for name, _, _ in LAYER_METRICS}
