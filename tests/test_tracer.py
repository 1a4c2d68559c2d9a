"""perfbench/tracer.py patches public dosids names from outside the
program. These checks keep every name it patches present, keep the
preprocessing steps it wraps returning a Dataset, and check that
`uninstall` puts every patched attribute back."""

import importlib.util
import sys
from pathlib import Path

# every module install() patches is loaded before the snapshot is taken
from dosids import (alexclf, aso, augment, checkpoint, evalkit,  # noqa: F401
                    flowdata as fd, pipeline, resfeat)
from dosids.ndgrad import nn, ops, tensor  # noqa: F401
from conftest import cluster_dataset

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dosids_attributes() -> dict:
    """Every attribute of every loaded dosids module, plus the two class
    attributes the tracer patches."""
    snapshot = {(name, attr): value for name, module in list(sys.modules.items())
                if module is not None and (name == "dosids" or name.startswith("dosids."))
                for attr, value in vars(module).items()}
    snapshot["SGD.step"] = vars(nn.SGD)["step"]
    snapshot["Tensor.backward"] = vars(tensor.Tensor)["backward"]
    return snapshot


def test_install_patches_and_uninstall_restores():
    tracer_module = load_tracer()
    before = dosids_attributes()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
        wrapped_in_flowdata = {attr for owner, attr, _ in patched if owner is fd}
        assert set(tracer_module.PREPROCESS) <= wrapped_in_flowdata

        ds = cluster_dataset(0, [12, 8], n_features=3)
        ds = fd.subsample(ds, 15, seed=1)
        train, test = fd.stratified_split(ds, 0.7, seed=2)
        train = fd.one_hot_encode(train, fd.fit_categories(train))
        out = fd.min_max_apply(train, fd.min_max_fit(train))
        for result in (ds, train, test, out):
            assert isinstance(result, fd.Dataset)
        assert tracer.value["features_out"] == 3
        assert tracer.seconds["preprocess"] > 0.0
    finally:
        tracer.uninstall()
    after = dosids_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert tracer._patched == []
