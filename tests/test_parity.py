"""The parity tool's digests name each output, so a changed bit shows where it is."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import gaussvox

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)

FLIPPED = "grad/fit-broad-1.0/dense/means"


def test_a_flipped_gradient_bit_changes_exactly_its_digest(monkeypatch, tmp_path, capsys):
    clean = parity.all_digests(quick=True)
    forms = ("dense", "rows")
    assert sorted(clean) == sorted(
        ["splat/criterion-7/3sigma", "splat/criterion-7/exact",
         "fit/fit-broad-1.0/records", "fit/fit-broad-1.0/scene"]
        + [f"scores/fit-broad-1.0/{form}" for form in forms]
        + [f"grad/fit-broad-1.0/{form}/{key}" for form in forms
           for key in ("means", "raw_scales", "rotations", "raw_logits")])

    # The tool's first gradient is the dense loss's; one bit of one mean flips.
    real = gaussvox.backward_splat
    calls = []

    def flip_one_bit(*args, **kwargs):
        grads = real(*args, **kwargs)
        if not calls:
            grads["means"].view(np.uint64)[0, 0] ^= 1
        calls.append(args)
        return grads

    monkeypatch.setattr(gaussvox, "backward_splat", flip_one_bit)
    flipped = parity.all_digests(quick=True)
    assert len(calls) == 2
    assert parity.differing(clean, flipped) == [FLIPPED]

    # --against lists that name and exits 1; an equal file exits 0.
    against = tmp_path / "clean.json"
    against.write_text(json.dumps(clean))
    monkeypatch.setattr(parity, "all_digests", lambda quick: flipped)
    assert parity.main([str(tmp_path / "flipped.json"), "--quick", "--against", str(against)]) == 1
    assert f"differs: {FLIPPED}" in capsys.readouterr().out
    assert json.loads((tmp_path / "flipped.json").read_text()) == flipped
    monkeypatch.setattr(parity, "all_digests", lambda quick: clean)
    assert parity.main([str(tmp_path / "clean-again.json"), "--against", str(against)]) == 0
