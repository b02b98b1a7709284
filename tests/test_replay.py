"""Every sampled witness replays from its config and serialized report alone.

A witness names its sample, not its matrices: each input is row
``sample_index`` of its sampling stream at the report's seed, which
``random_element`` redraws alone.  For every check of every shipped lemma,
stability and superstability config, the inputs are redrawn, each drawn
norm must equal ``input_norms`` bit for bit (and a fresh spectral norm to 8
ulps), and the recomputed residual must equal ``worst_witness.residual``
bit for bit:

- a lemma row draws at ``derived_seed(seed, dim)`` from its
  ``CHECKS[name].streams`` and reruns its residual on one-matrix stacks, at
  the witness phase for a grid row;
- ``bound_certificate`` and ``declared_bound`` stabilize the one point of
  stream 60 and norm the distance of its limit to f there;
  ``all_samples_converged`` stabilizes it and norms its last Cauchy
  residual, which the shipped configs never exhaust, so an exhausted run
  is replayed here too;
- ``terminal_decay`` and ``decay_slope`` evaluate the one-row decay
  sequence of stream 70, and its slope fit, or its largest term for a map
  with no defect exponent (no shipped config), replayed here too.

A check without a witness (``recovered_exactness``) has nothing to replay.
"""

import json

import numpy as np
import pytest

from golden import CASES, CONFIG_DIR, case_config, run_case
from stablab.algebra import derived_seed, random_element, spectral_norms
from stablab.checkers import (
    CHECKS,
    _evaluate,
    _Inputs,
    fit_loglog_slope,
    superstability_decay_batch,
    superstability_shrinking_batch,
)
from stablab.harness import build_map, cmd_stability, cmd_superstability, parse_config, report_json_bytes
from stablab.mappings import apply_array
from stablab.stabilizer import stabilize_batch

REPLAYED = ("lemma-check", "stability", "superstability")
REPLAY_CASES = sorted(name for name, (command, _) in CASES.items() if command in REPLAYED)


def redraw(seed, dim, norm_cap, streams, witness):
    """The witness's inputs as one-matrix stacks and their drawn norms, each norm checked against the report."""
    stacks, norms = {}, {}
    for k, stream in streams.items():
        norm = np.empty(())
        drawn = random_element(seed, dim, norm_cap, stream, witness["sample_index"], norms_out=norm)
        assert norm == witness["input_norms"][k], f"input {k}: not the drawn norm"
        # the drawn norm is the row's target, a few ulps from a fresh SVD
        assert abs(spectral_norms(drawn[np.newaxis])[0] - norm) <= 8 * np.spacing(norm)
        stacks[k], norms[k] = drawn[np.newaxis], norm[np.newaxis]
    assert sorted(stacks) == sorted(witness["input_norms"])
    return stacks, norms


def replay_lemma(config, report, entry):
    dim_key, check_name = entry["name"].split("/")
    dim = int(dim_key.removeprefix("dim"))
    f = build_map(config.map_cfg, dim)
    witness = entry["worst_witness"]
    if check_name == "zero_at_zero":  # the one zero matrix, not a sampled row
        return spectral_norms(apply_array(f, np.zeros((1, dim, dim), dtype=np.complex128)))[0]
    check = CHECKS[check_name]
    stacks, norms = redraw(derived_seed(report["seed"], dim), dim, config.norm_cap, check.streams, witness)
    phases = [complex(*witness["phase"])] if check.grid else []
    residual, _ = _evaluate(check, f, _Inputs(f, stacks), phases, config.checks_tol * check.scale(norms))
    return residual[0]


def replay_stability(config, report, entry):
    f = build_map(config.map_cfg, config.dim)
    stacks, norms = redraw(report["seed"], config.dim, config.norm_cap, {"a": 60}, entry["worst_witness"])
    (result,) = stabilize_batch(f, stacks["a"], config.stabilizer, norms=norms["a"])
    if entry["name"] == "all_samples_converged":  # the worst excess of r_last over the stopping tolerance
        assert result.status == "exhausted"
        return spectral_norms(result.differences)[1]
    assert entry["name"] in ("bound_certificate", "declared_bound")
    assert result.converged  # only converged samples are certified
    return spectral_norms(result.limit[np.newaxis] - apply_array(f, stacks["a"], norms["a"]))[0]


def replay_superstability(config, report, entry):
    f = build_map(config.map_cfg, config.dim)
    stacks, norms = redraw(report["seed"], config.dim, config.norm_cap, {"a": 70}, entry["worst_witness"])
    shrink = report["meta"]["variant"] == "shrinking"
    decay_batch = superstability_shrinking_batch if shrink else superstability_decay_batch
    decay = decay_batch(f, stacks["a"], config.decay_n_max, norms=norms["a"])
    if entry["name"] == "terminal_decay":
        return decay[0, -1]
    assert entry["name"] == "decay_slope"
    if "defect_exponent" not in report["meta"]:  # no slope target: the row's largest defect is judged
        return np.max(decay[0])
    return fit_loglog_slope(decay)[0]


REPLAY = {"lemma-check": replay_lemma, "stability": replay_stability, "superstability": replay_superstability}


def assert_witnesses_replay(config, report):
    replay = REPLAY[report["command"]]
    witnessed = [entry for entry in report["checks"] if entry["worst_witness"] is not None]
    assert witnessed
    for entry in witnessed:
        assert replay(config, report, entry) == entry["worst_witness"]["residual"], entry["name"]


@pytest.mark.parametrize("name", REPLAY_CASES)
def test_every_witness_replays_bit_for_bit(name):
    assert_witnesses_replay(case_config(name), run_case(name))


def run_raw(command, raw):
    """A raw config's parsed config and its report as parsed JSON."""
    config = parse_config(raw)
    return config, json.loads(report_json_bytes(command(config)))


def test_exhausted_run_all_samples_converged_witness_replays():
    # 39 of 50 samples exhaust 18 iterations; the witness is the sample furthest above its stopping tolerance
    raw = json.loads((CONFIG_DIR / "stability_forward_power.json").read_text())
    raw["sampling"] |= {"samples": 50, "norm_cap": 10}
    raw["stabilizer"]["max_iter"] = 18
    config, report = run_raw(cmd_stability, raw)
    assert report["checks"][-1]["name"] == "all_samples_converged"
    assert_witnesses_replay(config, report)


def test_no_target_decay_slope_witness_replays():
    raw = json.loads((CONFIG_DIR / "superstability_p05.json").read_text())
    raw["map"]["perturbation"] = {"mode": "constant", "size": 0.01}
    raw["sampling"]["samples"] = 20
    config, report = run_raw(cmd_superstability, raw)
    assert "slope_target" not in report["meta"]
    assert report["checks"][-1]["name"] == "decay_slope"
    assert_witnesses_replay(config, report)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_check_has_a_witness_but_the_two_that_name_no_sample(name):
    # recovered_exactness judges two sample sets at once, and profile_power_consistency
    # compares two closed forms on the bounds grid, so neither names one sample
    unwitnessed = {"recovered_exactness", "profile_power_consistency"}
    for entry in run_case(name)["checks"]:
        assert (entry["worst_witness"] is None) == (entry["name"] in unwitnessed), entry["name"]
