"""Worker threads run only numpy, file reads and hashlib.

Every call of a public darkfringe function stays on the calling thread (so a
span recorder with one call stack sees every layer call in order), and no
thread outlives a run, whether it succeeds or fails.
"""

import inspect
import sys
import threading

import numpy as np
import pytest

import darkfringe.fileio as fio
import darkfringe.pipeline as pipeline
from darkfringe.forward_model import ComplexField


def record_public_calls(monkeypatch) -> list[tuple[str, int]]:
    """Wrap every public function a darkfringe module defines, wherever a
    darkfringe module holds it, to record (name, thread id) per call."""
    calls = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "darkfringe" or name.startswith("darkfringe."))]

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for home in modules:
        for attr, fn in list(vars(home).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != home.__name__):
                continue
            wrapper = wrap(f"{home.__name__}.{attr}", fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, wrapper)
    return calls


def test_public_calls_stay_on_the_calling_thread(tmp_path, monkeypatch):
    calls = record_public_calls(monkeypatch)
    threads_before = threading.active_count()
    run = dict(s1=6, s2=6, pixels_per_unit=8, psf_radius=2.0, noise_sigma=0.02,
               origins=((0, 0), (5, 5)), seed=2)
    manifest = pipeline.run_pipeline(pipeline.RunConfig(outdir=str(tmp_path / "ok"), **run))
    assert manifest["metrics"]["unknown_frac"] == 0.0
    assert threading.active_count() == threads_before

    wrong = tmp_path / "wrong.cf32"
    fio.write_complex_field(wrong, ComplexField(np.ones((3, 3), dtype=complex)))
    with pytest.raises(pipeline.StageError) as info:
        pipeline.run_pipeline(pipeline.RunConfig(outdir=str(tmp_path / "fail"),
                                                 object_file=str(wrong), **run))
    assert info.value.stage == "object"
    assert threading.active_count() == threads_before

    names = {name for name, _ in calls}
    assert {"darkfringe.pipeline.run_pipeline",
            "darkfringe.forward_model.simulate_measurement_2d",
            "darkfringe.fileio.write_pgm16",
            "darkfringe.reconstruct.estimate_amplitude"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}
