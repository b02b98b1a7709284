"""Every lemma-check witness replays from its serialized report alone.

For each check of each shipped lemma config, the witness inputs are read
back from the report as one-matrix stacks and the check's CHECKS residual is
rerun: at the witness phase for a grid row, as the maximum over the grid for
a sweep row.  The result must equal ``worst_witness.residual`` bit for bit.
The inputs must also be the rows the sampler draws for (seed, stream,
sample_index), and the input norms the norms the sampler drew for them (bit
for bit), which agree with a fresh spectral norm to 8 ulps.
"""

import numpy as np
import pytest

from golden import CASES, case_config, run_case
from stablab.algebra import derived_seed, random_element, spectral_norms
from stablab.checkers import CHECKS, _evaluate, _Inputs
from stablab.harness import build_map
from stablab.mappings import apply_array, unit_circle_grid

LEMMA_CASES = sorted(name for name, (command, _) in CASES.items() if command == "lemma-check")


def _stack(entries):
    """A one-matrix stack from a report's [[re, im], ...] rows."""
    return np.array(entries, dtype=float).view(np.complex128)[np.newaxis, ..., 0]


@pytest.mark.parametrize("name", LEMMA_CASES)
def test_every_witness_replays_bit_for_bit(name):
    config = case_config(name)
    grid = unit_circle_grid(config.phase_grid_size)
    report = run_case(name)
    for entry in report["checks"]:
        dim_key, check_name = entry["name"].split("/")
        dim = int(dim_key.removeprefix("dim"))
        f = build_map(config.map_cfg, dim)
        witness = entry["worst_witness"]
        if check_name == "zero_at_zero":  # the one zero matrix, not a sampled row
            residual = spectral_norms(apply_array(f, np.zeros((1, dim, dim), dtype=np.complex128)))[0]
            assert residual == witness["residual"]
            continue
        check = CHECKS[check_name]
        x = _Inputs(f, {k: _stack(v) for k, v in witness["inputs"].items()})
        assert sorted(x) == sorted(check.streams)
        seed, index = derived_seed(config.seed, dim), witness["sample_index"]
        for k, stack in x.items():
            norm = np.empty(())
            drawn = random_element(seed, dim, config.norm_cap, check.streams[k], index, norms_out=norm)
            assert np.array_equal(drawn, stack[0]), f"{entry['name']}: input {k} is not the sampled row"
            assert norm == witness["input_norms"][k]
            # the drawn norm is the row's target, a few ulps from a fresh SVD
            assert abs(spectral_norms(stack)[0] - norm) <= 8 * np.spacing(norm)
        # a sweep row maximises over the grid, judged at tol 0; a row at mu = 1 ignores the grid
        phases = [complex(*witness["phase"])] if check.phases == "worst" else grid
        tol = 0.0 if check.phases == "sweep" else config.checks_tol
        scale = check.scale({k: np.array([v]) for k, v in witness["input_norms"].items()})
        residual, _ = _evaluate(check, f, x, phases, tol * scale)
        assert residual[0] == witness["residual"], entry["name"]
