"""Boundary fuzz of the config parser: every config either fails to parse
or runs.

Each numeric key of each shipped preset (the parsed config's, so defaults
and null numbers count, but not `shape`, whose huge values allocate at
parse time) is set to each boundary value, the largest float among them,
and to one value drawn from a seeded stream, and the config goes through
`redlab run`, `redlab sweep` (its own tau and solver) and `redlab
lipschitz` at t = 3.  So does each preset with a black PGM image, and each
deblur preset with a 1x1 kernel file of each boundary weight.  A config that `from_dict` refuses with a ConfigError
must make every command exit 1; any other config must run to a termination
code, a sweep without a failed run, and a certificate, and every JSON file
it writes must be strict JSON, without NaN or Infinity.  No exception may
escape `cli.main`.  Those tests are `slow`; a parse-only pass over the same
numeric-key configs is not, and checks that each refusal names the key that
was set, or a section that holds it.

The Lipschitz estimates run at a token effort: the estimator is not the
boundary under test, and at full effort the convnet's would take minutes.
"""

import functools
import json
import os
import random
import sys

import numpy as np
import pytest

from redlab import cli, experiments
from redlab.config import ConfigError, from_dict, to_dict
from redlab.pgmio import write_pgm
from redlab.presets import PRESET_NAMES, experiment_preset

# -6400 dB is an SNR whose noise overflows, though 10^(snr/20) is positive.
BOUNDARY = (-1e300, -1e4, -6400.0, -1, 0, 1e-300, 1e300, sys.float_info.max)
# Exit codes of a run that parsed: success, diverged, step floor.
RAN = (cli.EXIT_OK, cli.EXIT_DIVERGED, cli.EXIT_STEP_FLOOR)


def numeric_keys(raw):
    """Paths of the number and null leaves of a config, except `shape`."""
    for key, value in raw.items():
        if isinstance(value, dict):
            yield from ((key,) + sub for sub in numeric_keys(value))
        elif value is None or (type(value) in (int, float) and key != "shape"):
            yield (key,)


def fuzz_values(seed):
    """The boundary values, then a seeded draw: a sign times 10^u with u
    uniform in [-300, 300]."""
    rng = random.Random(seed)
    return BOUNDARY + (rng.choice((-1, 1)) * 10.0 ** rng.uniform(-300.0, 300.0),)


def written_json(*roots):
    """Paths of the JSON files under `roots`."""
    for root in roots:
        for folder, _dirs, files in os.walk(root):
            yield from (os.path.join(folder, f) for f in files if f.endswith(".json"))


@pytest.fixture
def token_effort(monkeypatch):
    monkeypatch.setattr(experiments, "_RUN_LIPSCHITZ_PROBES", 1)
    monkeypatch.setattr(experiments, "_RUN_LIPSCHITZ_ITERS", 2)
    token = functools.partial(experiments.lipschitz_report, probes=1, iters=2)
    monkeypatch.setattr(cli, "lipschitz_report", token)


def base_config(preset):
    base = to_dict(from_dict(experiment_preset(preset)))
    base["solver"]["t"] = 3
    return base


def fuzzed_configs(preset):
    """(key path, description, raw config) for each numeric key of a preset
    set to each of its fuzz values."""
    base = base_config(preset)
    for index, path in enumerate(numeric_keys(base)):
        for value in fuzz_values(PRESET_NAMES.index(preset) * 1000 + index):
            raw = json.loads(json.dumps(base))
            section = raw
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
            yield path, f"{preset}: config.{'.'.join(path)} = {value!r}", raw


def check_parse_or_run(raw, tmp, case, capsys, where):
    """Run `raw`, written to a config file in `tmp`, through the three
    commands, check that it either fails to parse or runs, and return
    whether it parsed."""
    try:
        from_dict(raw, base_dir=tmp)
        parsed = True
    except ConfigError:
        parsed = False
    cfg = os.path.join(tmp, f"c{case}.json")
    with open(cfg, "w") as fh:
        json.dump(raw, fh)
    out = os.path.join(tmp, f"o{case}")
    # --tau=... so that argparse reads a negative tau as a value.
    sweep = [f"--tau={raw['tau']!r}", "--solver", raw["solver"]["name"]]
    codes = (
        cli.main(["run", "--config", cfg, "--out", out]),
        cli.main(["sweep", "--config", cfg, "--out", out + "s"] + sweep),
        cli.main(["lipschitz", "--config", cfg]),
    )
    err = capsys.readouterr().err
    if parsed:
        assert codes[0] in RAN and codes[1:] == (0, 0), (where, codes, err)
        for name in written_json(out, out + "s"):
            with open(name) as fh:
                json.load(fh, parse_constant=lambda c: pytest.fail(f"{where}: {name}: {c}"))
    else:
        assert codes == (1, 1, 1), (where, codes, err)
        assert err.count("config error: config.") == 3, (where, err)
        assert not os.path.exists(out) and not os.path.exists(out + "s"), where
    return parsed


@pytest.mark.slow
# Values such as 1e300 overflow inside runs that then diverge, as they should.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_config_either_fails_to_parse_or_runs(tmp_path, capsys, token_effort, preset):
    cases = 0
    for _path, where, raw in fuzzed_configs(preset):
        check_parse_or_run(raw, str(tmp_path), cases, capsys, where)
        cases += 1
    assert cases == len(fuzz_values(0)) * len(list(numeric_keys(base_config(preset))))


# Parsing builds the denoiser, whose weights may overflow on values such as 1e300.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_refusal_names_the_fuzzed_key():
    # The fast subset's share of the fuzz: parsing only.  A refusal names
    # the key that was set, or a section that holds it.
    refusals = 0
    for preset in PRESET_NAMES:
        for path, where, raw in fuzzed_configs(preset):
            try:
                from_dict(raw)
            except ConfigError as exc:
                keys = {".".join(("config",) + path[:i]) for i in range(1, len(path) + 1)}
                assert str(exc).split(": ", 1)[0] in keys, (where, str(exc))
                refusals += 1
    assert refusals


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_file_either_fails_to_parse_or_runs(tmp_path, capsys, token_effort, preset):
    # The files a config names: a 1x1 kernel file of each boundary weight,
    # whose clean measurement may be zero or overflow, and a black PGM.
    base = base_config(preset)
    tmp = str(tmp_path)
    write_pgm(os.path.join(tmp, "black.pgm"), np.zeros(base["shape"]))
    assert not check_parse_or_run({**base, "image": {"pgm": "black.pgm"}}, tmp, 0, capsys, preset)
    if base["problem"] != "deblur":
        return
    parsed = []
    for case, weight in enumerate(BOUNDARY, 1):
        with open(os.path.join(tmp, f"k{case}.txt"), "w") as fh:
            fh.write(f"1\n{weight!r}\n")
        raw = {**base, "operator": {"kernel_path": f"k{case}.txt"}}
        if check_parse_or_run(raw, tmp, case, capsys, f"{preset}: kernel weight {weight!r}"):
            parsed.append(weight)
    # Zero, 1e-300 (whose squares underflow) and the huge weights give a
    # zero or an overflowing norm.
    assert parsed == [-1e4, -6400.0, -1]
